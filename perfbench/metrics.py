"""Metric definitions and the statistics the benchmark reports.

END_TO_END and PER_LAYER are the lists BENCHMARK.json declares; the
self-test checks that the two agree.  Per-layer ``calls`` and ``self_s``
are means per traced job.  A per-layer metric whose layer a workload
does not exercise reads 0 on that workload.
"""

from __future__ import annotations

import statistics

from spans import BOOKKEEPING, BUILDERS, FAMILIES, OPERATOR_FUNCS, ROOT_SPAN

# (name, unit, better, bound).  holospace is a library and a CLI, not a
# server, so its end-to-end speed is work done per second; in a closed loop
# with one client that is also the inverse of the mean job latency.  On a
# shared 2-core machine the host's speed drifts by up to a third for tens
# of seconds at a time, and a percentile of one run's latencies jumps
# between the fast and the slow mode (check) or between job classes
# (norm_large, 24 jobs a run); the mean averages both.
END_TO_END = [
    ("jobs_per_s", "1/s", "higher", 0.24),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
]

# printed with every untraced result but not declared: the latency
# percentiles for the reason above, fail_ratio because it is 0 on a correct
# run, and worst_margin because it moves with the seed's random draws
REPORTED = [("job_p50_s", "s"), ("job_tail_s", "s"), ("fail_ratio", "1"),
            ("worst_margin", "1")]


def _per_layer():
    out = []

    def add(name, unit, better="lower"):
        out.append((name, unit, better))

    for fn in OPERATOR_FUNCS:
        add(f"operators.{fn}.calls", "count")
        add(f"operators.{fn}.self_s", "s")
    add("operators.build.entries", "count")
    add("operators.build.ns_per_entry", "ns")
    add("operators.build.unique_ratio", "1", "higher")
    add("operators.build.subnormal_share", "1")
    add("operators.power_table.unique_ratio", "1", "higher")
    add("operators.singular_values.ns_per_n3", "ns")
    for op in ("mul", "div", "log_series", "exp_series"):
        add(f"series.{op}.calls", "count")
        add(f"series.{op}.self_s", "s")
    for fn in ("kernel", "inner_product"):
        add(f"spaces.{fn}.calls", "count")
        add(f"spaces.{fn}.self_s", "s")
    add("spaces.weights.hit_ratio", "1", "higher")
    for part in ("certify", "series"):
        add(f"maps.{part}.calls", "count")
        add(f"maps.{part}.self_s", "s")
    for family in FAMILIES:
        add(f"verify.{family}.self_s", "s")
        add(f"verify.{family}.margin", "1")
    add("cli.import_s", "s")
    add("cli.import.scipy_share", "1")
    add("cli.main.self_s", "s")
    add("trace.overhead_s", "s")
    return out


PER_LAYER = _per_layer()


def tail(values) -> tuple[float, float]:
    """(percentile, latency) at the highest percentile with at least ten
    samples beyond it: the 11th-largest latency, at percentile
    100 (n - 10) / n.  With 20 samples or fewer that percentile is at or
    below the median, so the median is reported with percentile 50."""
    n = len(values)
    if n <= 20:
        return 50.0, median(values)
    return 100.0 * (n - 10) / n, sorted(values)[n - 11]


def median(values) -> float:
    return statistics.median(values) if values else 0.0


def layer_metrics(tracer, extra: dict) -> tuple[dict, dict]:
    """Per-layer values from the tracer's spans and counters, and a detail
    record (untraced remainder and tracer bookkeeping per job).

    ``extra`` carries the values measured outside the tracer (import
    probes, weight-cache hit ratio, overhead).
    """
    spans = tracer.summary()
    jobs = max(tracer.jobs, 1)
    counts = tracer.counts
    values = {}

    def per_job(span, field="self_s"):
        return spans.get(span, {}).get(field, 0) / jobs

    def ratio(num, den):
        return num / den if den else 0.0

    for fn in OPERATOR_FUNCS:
        values[f"operators.{fn}.calls"] = per_job(f"operators.{fn}", "calls")
        values[f"operators.{fn}.self_s"] = per_job(f"operators.{fn}")
    # builders never nest, so their total time includes the series
    # products they make and nothing else counted twice
    build_s = sum(spans.get(f"operators.{fn}", {}).get("total_s", 0.0)
                  for fn in BUILDERS)
    entries, build_calls = counts["build.entries"], counts["build.calls"]
    values["operators.build.entries"] = entries / jobs
    values["operators.build.ns_per_entry"] = ratio(1e9 * build_s, entries)
    values["operators.build.unique_ratio"] = ratio(counts["build.distinct"], build_calls)
    values["operators.build.subnormal_share"] = ratio(counts["build.subnormal"], entries)
    values["operators.power_table.unique_ratio"] = ratio(counts["power.distinct"], build_calls)
    values["operators.singular_values.ns_per_n3"] = ratio(
        1e9 * spans.get("operators.singular_values", {}).get("self_s", 0.0),
        counts["sv.n3"])
    for span in ("series.mul", "series.div", "series.log_series",
                 "series.exp_series", "spaces.kernel", "spaces.inner_product",
                 "maps.certify", "maps.series"):
        values[f"{span}.calls"] = per_job(span, "calls")
        values[f"{span}.self_s"] = per_job(span)
    for family in FAMILIES:
        values[f"verify.{family}.self_s"] = per_job(f"verify.{family}")
        values[f"verify.{family}.margin"] = tracer.margins.get(family, 0.0)
    values["cli.main.self_s"] = per_job("cli.main")
    values.update(extra)
    metrics = {name: {"value": float(values.get(name, 0.0)), "unit": unit}
               for name, unit, _ in PER_LAYER}
    detail = {"untraced_remainder_s_per_job": per_job(ROOT_SPAN),
              "bookkeeping_s_per_job": per_job(BOOKKEEPING),
              "self_s_per_job": {k: v["self_s"] / jobs for k, v in spans.items()}}
    return metrics, detail
