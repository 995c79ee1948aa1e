"""Benchmark entry point: run one workload from a seed and print its metrics.

    python3 perfbench/run.py --workload check --seed 1 --seconds 35 --trace 0

--trace 0 measures the end-to-end metrics with tracing off; --trace 1
runs every job once untraced and once traced and reports the per-layer
metrics.  The last line of standard output is one JSON object with the
keys correct, attempted, failed and metrics.  The lines before it are
the environment record, the generated job list and every metric with
its unit.  Run from the root of a checkout; holospace is imported from
its ``src`` directory.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import statistics
import subprocess
import sys
import time
import traceback

import envinfo
import metrics
import workloads
from common import OUT, MissingSource, child_env, use_source_tree
from spans import Tracer

SETUP_PROBES = 5
IMPORT_PROBES = 3


def _log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def _timed_child(argv) -> tuple[float, subprocess.CompletedProcess]:
    started = time.perf_counter()
    p = subprocess.run(argv, env=child_env(), capture_output=True, text=True,
                       timeout=workloads.CHILD_TIMEOUT_S)
    return time.perf_counter() - started, p


def setup_samples(wl, seed, probes) -> tuple[list, list]:
    """Wall times of fresh processes that import holospace and run the
    warm-up job; (samples, problems)."""
    samples, problems = [], []
    for _ in range(probes):
        wall, p = _timed_child(wl.setup_argv(seed))
        if p.returncode == 0:
            samples.append(wall)
        else:
            problems.append(f"setup probe exited {p.returncode}: {p.stderr.strip()[-300:]}")
    return samples, problems


def _run_checked(wl, job, runner):
    """(seconds, output, margin, problems) for one job; the oracle runs
    outside the timed region."""
    started = time.perf_counter()
    try:
        out = runner(job)
    except Exception:
        return time.perf_counter() - started, None, math.inf, [traceback.format_exc()]
    elapsed = time.perf_counter() - started
    try:
        out = wl.finish(job, out)
        margin, problems = wl.verify(job, out)
    except Exception:
        return elapsed, out, math.inf, [traceback.format_exc()]
    return elapsed, out, margin, problems


def _warm_up(wl, seed):
    job = wl.warmup(seed)
    wl.finish(job, wl.run(job))


def measure(wl, seed: int, seconds: float, probes: int = SETUP_PROBES) -> dict:
    """The untraced closed loop: whole cycles until `seconds` of job time."""
    _warm_up(wl, seed)
    latencies, jobs, problems = [], [], []
    attempted = failed = 0
    worst = timed = 0.0
    for cycle in wl.cycles(seed):
        for job in cycle:
            jobs.append(job)
            attempted += 1
            elapsed, out, margin, bad = _run_checked(wl, job, wl.run)
            del out
            timed += elapsed
            worst = max(worst, margin)
            if bad:
                failed += 1
                problems += bad
            else:
                latencies.append(elapsed)
        if timed >= seconds:
            break
    rss = wl.peak_rss_mb()
    setups, bad = setup_samples(wl, seed, probes)
    problems += bad
    q, tail = metrics.tail(latencies) if latencies else (50, 0.0)
    values = {
        "jobs_per_s": len(latencies) / timed if timed else 0.0,
        "setup_s": metrics.median(setups),
        "peak_rss_mb": rss,
    }
    reported = {
        "job_p50_s": metrics.median(latencies),
        "job_tail_s": tail,
        "fail_ratio": failed / attempted,
        "worst_margin": worst,
    }
    units = {name: unit for name, unit, _, _ in metrics.END_TO_END}
    units.update(metrics.REPORTED)
    return {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
        "reported": {k: {"value": v, "unit": units[k]} for k, v in reported.items()},
        "detail": {"samples": len(latencies), "tail_percentile": q,
                   "timed_s": timed, "setup_samples_s": setups,
                   "latencies_s": latencies},
        "jobs": jobs,
        "problems": problems,
    }


# ---------------------------------------------------------------------------
# traced run
# ---------------------------------------------------------------------------


def import_probes(probes: int = IMPORT_PROBES) -> tuple[float, float, list]:
    """(median import seconds, median scipy share of -X importtime, problems)."""
    seconds, shares, problems = [], [], []
    for _ in range(probes):
        _, p = _timed_child([sys.executable, workloads.PROBE, "import"])
        if p.returncode == 0:
            seconds.append(float(p.stdout.strip()))
        else:
            problems.append(f"import probe exited {p.returncode}")
        _, p = _timed_child([sys.executable, "-X", "importtime", "-c", "import holospace"])
        share = scipy_share(p.stderr) if p.returncode == 0 else None
        if share is None:
            problems.append("no importtime record for holospace")
        else:
            shares.append(share)
    med = statistics.median
    return (med(seconds) if seconds else 0.0, med(shares) if shares else 0.0, problems)


def scipy_share(importtime: str):
    """Cumulative import time of the outermost scipy modules divided by
    that of holospace, from ``-X importtime`` output (post-order, two
    spaces of indent per level)."""
    rows = []
    for line in importtime.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        parts = line[len("import time:"):].split("|")
        try:
            cumulative = int(parts[1])
        except ValueError:
            continue  # the header line
        name = parts[2].rstrip()
        depth = (len(name) - len(name.lstrip())) // 2
        rows.append((depth, name.strip(), cumulative))
    total = next((c for d, n, c in rows if n == "holospace"), None)
    if not total:
        return None
    scipy = 0
    stack = []  # (depth, inside a scipy module), walking parents first
    for depth, name, cumulative in reversed(rows):
        while stack and stack[-1][0] >= depth:
            stack.pop()
        inside = bool(stack) and stack[-1][1]
        is_scipy = name == "scipy" or name.startswith("scipy.")
        if is_scipy and not inside:
            scipy += cumulative
        stack.append((depth, inside or is_scipy))
    return scipy / total


def trace_run(wl, seed: int, seconds: float) -> dict:
    """Every job untraced, then traced; per-layer metrics from the spans.

    Jobs run until `seconds` of wall time have passed, even within a cycle:
    a norm_large cycle takes longer than a run, so its trace covers a
    seeded prefix of the cycle.
    """
    import holospace.spaces as spaces

    _warm_up(wl, seed)
    tracer = Tracer()
    jobs, problems = [], []
    attempted = failed = 0
    untraced = traced = 0.0
    cache = getattr(spaces, "_weight_array", None)
    hits = misses = 0
    loop_start = time.perf_counter()
    for job in itertools.chain.from_iterable(wl.cycles(seed)):
        jobs.append(job)
        attempted += 1
        before = cache.cache_info() if cache else None
        elapsed, plain, _, bad = _run_checked(wl, job, wl.run)
        if cache:
            after = cache.cache_info()
            hits += after.hits - before.hits
            misses += after.misses - before.misses
        untraced += elapsed
        with tracer.installed(), tracer.job(len(jobs) - 1):
            try:
                out = wl.run(job)
            except Exception:
                out = None
                bad.append(traceback.format_exc())
        traced += tracer.job_walls[-1]
        if out is not None:
            out = wl.finish(job, out)
            if plain is None or not wl.same(plain, out):
                bad.append("traced output differs from the untraced output")
        if bad:
            failed += 1
            problems += bad
        if time.perf_counter() - loop_start >= seconds:
            break
    import_s, share, bad = import_probes()
    problems += bad
    extra = {
        "cli.import_s": import_s,
        "cli.import.scipy_share": share,
        "spaces.weights.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "trace.overhead_s": (traced - untraced) / max(tracer.jobs, 1),
    }
    layer, detail = metrics.layer_metrics(tracer, extra)
    spans_path = OUT / f"spans-{wl.name}-seed{seed}.json"
    tracer.dump(spans_path)
    detail.update({"untraced_s": untraced, "traced_s": traced,
                   "spans": len(tracer.spans), "spans_file": str(spans_path)})
    return {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": layer,
        "detail": detail,
        "jobs": jobs,
        "problems": problems,
    }


# ---------------------------------------------------------------------------


def _print_result(wl, args, result):
    print(f"# perfbench workload={wl.name} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}")
    print("# env " + json.dumps(envinfo.environment(wl.max_n)))
    print("# jobs " + json.dumps(result["jobs"]))
    print("# detail " + json.dumps(result["detail"]))
    shown = dict(result["metrics"])
    shown.update(result.get("reported", {}))
    for name, m in shown.items():
        print(f"# {name} = {m['value']!r} {m['unit']}")
    for problem in result["problems"][:20]:
        _log("problem:", problem)
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        use_source_tree()
    except MissingSource as exc:
        _log(f"perfbench: {exc}")
        return 2
    import holospace  # noqa: F401  (set-up; timed separately by the probes)

    wl = workloads.make(args.workload)
    if args.trace:
        result = trace_run(wl, args.seed, args.seconds)
    else:
        result = measure(wl, args.seed, args.seconds)
    _print_result(wl, args, result)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
