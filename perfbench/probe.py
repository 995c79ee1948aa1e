"""Child process for the set-up and import measurements.

    python3 perfbench/probe.py setup <workload> <seed>
        import holospace from the checkout and run the workload's warm-up
        job; the parent times the whole process as one setup_s sample
    python3 perfbench/probe.py import
        print the seconds ``import holospace`` takes in a fresh interpreter
"""

from __future__ import annotations

import sys
import time


def main(argv) -> int:
    from common import use_source_tree

    use_source_tree()
    if argv[:1] == ["import"]:
        started = time.perf_counter()
        import holospace  # noqa: F401
        print(f"{time.perf_counter() - started!r}")
        return 0
    if len(argv) == 3 and argv[0] == "setup":
        import holospace  # noqa: F401
        import workloads

        wl = workloads.make(argv[1])
        job = wl.warmup(int(argv[2]))
        wl.finish(job, wl.run(job))
        return 0
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
