"""Self-test of the benchmark.

    python3 -m pytest -q perfbench/test_perfbench.py

Runs every workload briefly, corrupts outputs on purpose to show
that the oracles catch it, and checks that the spans of a traced job
account for its wall time.  Takes about a minute.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
if str(HERE) not in sys.path:
    sys.path.insert(0, str(HERE))

import common  # noqa: E402

common.use_source_tree()

import metrics  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from spans import BOOKKEEPING, ROOT_SPAN, Tracer  # noqa: E402

BENCH = json.loads((common.ROOT / "BENCHMARK.json").read_text())


def tiny(name):
    if name == "check":
        return workloads.Check()
    # smallest sizes at which every monomial norm is exact
    return workloads.NormLarge(sizes=(64, 96))


def test_benchmark_json_declares_the_reported_metrics():
    declared = [(m["name"], m["unit"], m["better"], m["bound"])
                for m in BENCH["end_to_end"]]
    assert declared == [tuple(m) for m in metrics.END_TO_END]
    layers = [(m["name"], m["unit"], m["better"]) for m in BENCH["per_layer"]]
    assert layers == [tuple(m) for m in metrics.PER_LAYER]
    assert [w["name"] for w in BENCH["workloads"]] == list(workloads.NAMES)
    setup = [m for m in BENCH["end_to_end"] if m["name"] == "setup_s"][0]
    assert setup["bound"] == max(m["bound"] for m in BENCH["end_to_end"])


@pytest.mark.parametrize("name", workloads.NAMES)
def test_untraced_run_reports_every_metric(name):
    result = run.measure(tiny(name), seed=3, seconds=0.01, probes=1)
    assert result["correct"], result["problems"]
    units = {k: v["unit"] for k, v in result["metrics"].items()}
    assert units == {n: u for n, u, _, _ in metrics.END_TO_END}
    assert all(v["value"] > 0 for v in result["metrics"].values())
    reported = result["reported"]
    assert {k: v["unit"] for k, v in reported.items()} == dict(metrics.REPORTED)
    assert reported["fail_ratio"]["value"] == 0
    assert reported["worst_margin"]["value"] < 1


@pytest.mark.parametrize("name", workloads.NAMES)
def test_traced_run_reports_every_layer_metric(name):
    result = run.trace_run(tiny(name), seed=3, seconds=0.01)
    assert result["correct"], result["problems"]
    units = {k: v["unit"] for k, v in result["metrics"].items()}
    assert units == {n: u for n, u, _ in metrics.PER_LAYER}


def test_command_line_contract():
    p = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "check", "--seed", "4",
         "--seconds", "1", "--trace", "0"],
        cwd=common.ROOT, capture_output=True, text=True, timeout=170)
    assert p.returncode == 0, p.stderr
    result = json.loads(p.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] >= 1 and result["failed"] == 0
    assert set(result["metrics"]) == {m["name"] for m in BENCH["end_to_end"]}
    lines = p.stdout.splitlines()
    for name, unit in metrics.REPORTED:
        assert any(line.startswith(f"# {name} = ") and line.endswith(f" {unit}")
                   for line in lines)


def test_refuses_to_run_without_the_source_tree():
    bare = common.OUT / f"bare-{time.monotonic_ns()}"
    try:
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(common.ROOT / "BENCHMARK.json", bare)
        p = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "check", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=170)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert p.returncode != 0
    assert "correct" not in p.stdout


# -- the oracles bite --------------------------------------------------------


def test_corrupted_matrix_entry_fails_norm_large(monkeypatch):
    import holospace.operators as ops

    original = ops.build_D_phi

    def corrupted(*args, **kwargs):
        m = original(*args, **kwargs)
        entries = np.array(m.entries)
        entries[1, 2] += 1e-3
        return ops.OpMatrix(entries, m.domain, m.codomain, m.label)

    wl = tiny("norm_large")
    monkeypatch.setattr(ops, "build_D_phi", corrupted)
    result = run.measure(wl, seed=3, seconds=0.01, probes=0)
    assert not result["correct"]
    assert result["reported"]["fail_ratio"]["value"] > 0
    assert result["reported"]["worst_margin"]["value"] > 1


def test_perturbed_singular_values_fail_check(monkeypatch):
    import holospace.operators as ops

    original = ops.singular_values
    monkeypatch.setattr(ops, "singular_values",
                        lambda a: original(a) * (1 + 1e-6))
    result = run.measure(tiny("check"), seed=3, seconds=0.01, probes=0)
    assert result["reported"]["fail_ratio"]["value"] > 0


def test_tampered_check_output_fails_check():
    class Tampered(workloads.Check):
        def run(self, job):
            out = super().run(job)
            lines = out.stdout.splitlines()
            record = json.loads(lines[0])
            record["discrepancy"] = 2 * record["tolerance"]
            lines[0] = json.dumps(record)
            out.stdout = "\n".join(lines)
            return out

    result = run.measure(Tampered(), seed=3, seconds=0.01, probes=0)
    assert result["reported"]["fail_ratio"]["value"] > 0
    assert result["reported"]["worst_margin"]["value"] > 1


# -- spans account for the job --------------------------------------------


def test_self_times_sum_to_the_traced_job_wall_time():
    wl = tiny("check")
    job = next(wl.cycles(5))[0]
    wl.run(job)
    started = time.perf_counter()
    plain = wl.run(job)
    untraced = time.perf_counter() - started
    tracer = Tracer()
    with tracer.installed(), tracer.job(0):
        traced = wl.run(job)
    assert wl.same(plain, traced)
    wall = tracer.job_walls[0]
    summary = tracer.summary()
    layers = {k: v["self_s"] for k, v in summary.items()
              if k not in (ROOT_SPAN, BOOKKEEPING)}
    remainder = summary[ROOT_SPAN]["self_s"]
    bookkeeping = summary[BOOKKEEPING]["self_s"]
    # every nanosecond of the traced job is in exactly one span's self time
    assert sum(layers.values()) + remainder + bookkeeping == pytest.approx(wall, abs=1e-6)
    assert min(layers.values()) >= 0
    # the layers cover the job: what no span explains is under 5 percent
    assert remainder < 0.05 * wall
    # layers plus remainder match the untraced wall time within the
    # stated overhead (wrapper cost plus bookkeeping), with 25 percent
    # allowed for timing noise on a shared machine
    overhead = wall - untraced
    assert abs(sum(layers.values()) + remainder - untraced) <= (
        abs(overhead) + bookkeeping + 0.25 * untraced)
    assert overhead < 0.5 * untraced
    for fn in ("build_D_phi", "singular_values"):
        assert summary[f"operators.{fn}"]["calls"] > 0
    assert summary["series.mul"]["calls"] > 0
