"""Paths shared by the benchmark scripts.

The benchmark always measures the holospace source tree of the checkout it
lives in (``<root>/src``), never an installed copy.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: run outputs (span files); ignored by git
OUT = ROOT / ".perfbench"


class MissingSource(RuntimeError):
    pass


def use_source_tree() -> None:
    """Put ``<root>/src`` first on sys.path, or raise MissingSource."""
    if not (SRC / "holospace" / "__init__.py").is_file():
        raise MissingSource(f"no holospace source tree at {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def child_env() -> dict:
    """Environment for child interpreters: the source tree on PYTHONPATH.

    HOLOSPACE_THREADS and the BLAS thread variables pass through
    unchanged; the benchmark never sets them.
    """
    env = dict(os.environ)
    old = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + old if old else "")
    return env
