"""Environment record printed with every result."""

from __future__ import annotations

import os
import platform
import sys

from common import ROOT

_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _git_sha():
    """HEAD of the checkout, read from .git without running git; None when
    the checkout is not a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _read(path):
    try:
        with open(path) as fh:
            return fh.read()
    except OSError:
        return None


def _cpu():
    model = None
    text = _read("/proc/cpuinfo") or ""
    for line in text.splitlines():
        if line.startswith("model name"):
            model = line.split(":", 1)[1].strip()
            break
    caches = {}
    for index, level in (("index2", "l2"), ("index3", "l3")):
        size = _read(f"/sys/devices/system/cpu/cpu0/cache/{index}/size")
        caches[level] = size.strip() if size else None
    return model or platform.processor() or None, caches


def environment(max_n: int) -> dict:
    """Versions, BLAS, CPU and cache sizes, next to the workload's largest
    dense matrix (complex128, (N+1)^2 entries)."""
    import numpy as np
    import scipy

    blas = {}
    try:
        deps = np.show_config(mode="dicts").get("Build Dependencies", {})
        info = deps.get("blas", {})
        blas = {"name": info.get("name"), "version": info.get("version"),
                "config": info.get("openblas configuration")}
    except Exception as exc:  # the record is informational; never fail a run on it
        blas = {"error": repr(exc)}
    model, caches = _cpu()
    try:
        usable = len(os.sched_getaffinity(0))
    except AttributeError:
        usable = None
    return {
        "git_sha": _git_sha(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads_env": {k: os.environ.get(k) for k in _THREAD_VARS},
        "nproc": os.cpu_count(),
        "nproc_usable": usable,
        "cpu_model": model,
        "cache": caches,
        "working_set": {"max_n": max_n,
                        "matrix_mb": round((max_n + 1) ** 2 * 16 / 1e6, 2)},
        "holospace_threads_set": "HOLOSPACE_THREADS" in os.environ,
    }
