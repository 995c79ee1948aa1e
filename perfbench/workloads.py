"""The benchmark's workloads: seeded jobs, how to run one, and oracles.

Both are closed loops: one client in one process, and the next job
starts only when the previous one has finished.  Jobs come in cycles; a
run measures whole cycles, so every run sees the same mix of job classes
and only the seeded parameters change between seeds.

Every workload object offers
  cycles(seed)          endless iterator of job lists (plain dicts)
  warmup(seed)          the untimed warm-up job
  run(job)              the timed call into holospace, in this process
  finish(job, out)      untimed post-processing of run's output
  verify(job, out)      (worst error/tolerance, list of problems)
  same(a, b)            whether two outputs of one job are identical
  setup_argv(seed)      the child command whose wall time is one setup_s sample
  peak_rss_mb()         peak resident memory of the program so far

The oracles use closed forms and numpy only; none calls holospace.
"""

from __future__ import annotations

import cmath
import io
import json
import math
import os
import random
import resource
import sys
from contextlib import redirect_stderr, redirect_stdout

import numpy as np
from numpy.polynomial import polynomial as P

from spans import FAMILIES

PROBE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "probe.py")
CHILD_TIMEOUT_S = 120


def formula_norm(r: float, power: int) -> float:
    """Closed-form norm of f -> f'(a z^M) on the derivative Hardy space:
    max(1, M (nu-1) r^(nu-1)) with nu = floor((2-r)/(1-r)), r = |a|."""
    nu = math.floor((2.0 - r) / (1.0 - r))
    return max(1.0, power * (nu - 1) * r ** (nu - 1))


def _margin(err: float, tol: float) -> float:
    m = err / tol
    return m if math.isfinite(m) else math.inf


def _self_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ---------------------------------------------------------------------------
# check: `holospace check --format json` in process
# ---------------------------------------------------------------------------


class CliOutput:
    __slots__ = ("code", "stdout", "stderr")

    def __init__(self, code, stdout, stderr):
        self.code, self.stdout, self.stderr = code, stdout, stderr


class Check:
    """``holospace check``: the whole verification suite per job, through
    the CLI entry point in this process.  The CLI runs
    ``default_suite(seed)`` on its default serial path; the benchmark never
    sets ``HOLOSPACE_THREADS``."""

    name = "check"
    max_n = 256

    @staticmethod
    def _job(suite_seed):
        return {"suite_seed": suite_seed,
                "argv": ["check", "--seed", str(suite_seed), "--format", "json"]}

    def cycles(self, seed):
        rng = random.Random(f"check:{seed}")
        while True:
            yield [self._job(rng.getrandbits(32))]

    def warmup(self, seed):
        return self._job(random.Random(f"check:{seed}:warmup").getrandbits(32))

    def run(self, job):
        import holospace.cli as cli
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(list(job["argv"]))
        return CliOutput(code, out.getvalue(), err.getvalue())

    def finish(self, job, out):
        return out

    def verify(self, job, out):
        if out.code != 0:
            return math.inf, [f"{job['argv']} exited {out.code}: {out.stderr.strip()[-300:]}"]
        try:
            records = [json.loads(line) for line in out.stdout.splitlines()]
        except ValueError as exc:
            return math.inf, [f"unreadable check output ({exc!r})"]
        problems = []
        worst = 0.0
        families = set()
        for r in records:
            families.add(r["check_id"].split("[", 1)[0])
            m = _margin(r["discrepancy"], r["tolerance"])
            worst = max(worst, m)
            if r["passed"] is not True or not m <= 1.0:
                problems.append(f"{r['check_id']}: passed={r['passed']} margin={m:.3g}")
        missing = sorted(set(FAMILIES) - families)
        if missing:
            problems.append(f"suite ran no check of {missing}")
        return worst, problems

    def same(self, a, b):
        def strip(out):
            records = [json.loads(line) for line in out.stdout.splitlines()]
            for r in records:
                r.pop("runtime_ms")
            return out.code, records
        return strip(a) == strip(b)

    def setup_argv(self, seed):
        """A cold ``holospace check`` of the warm-up job."""
        return [sys.executable, "-m", "holospace.cli", *self.warmup(seed)["argv"]]

    peak_rss_mb = staticmethod(_self_rss_mb)


# ---------------------------------------------------------------------------
# norm_large: one large operator matrix and its norm per job
# ---------------------------------------------------------------------------

OPERATORS = ("D_phi", "composition", "DC_phi")
KINDS = ("moebius", "monomial")

#: fixed low-degree test polynomial the built matrices are applied to
TEST_POLY = np.array([0.7, -1.1 + 0.4j, 0.9j, 0.5, -0.3 - 0.6j,
                      0.25, 0.2j, -0.15, 0.1 + 0.1j])
TEST_POLY_D = P.polyder(TEST_POLY)


#: |p| strata for the three Moebius symbols of one size in a pass over the
#: classes.  The pole sits at 1/|p|, and |p| sets where the coefficients of
#: phi^j fall below the normal range, which moves build time severalfold;
#: one draw per stratum keeps that mix the same in every cycle.
POLE_STRATA = ((0.2, 0.37), (0.37, 0.53), (0.53, 0.7))


def _moebius_params(rng: random.Random, p_range) -> list:
    """A strict self-map w0 + A (z - p)/(1 - conj(p) z), sup-norm
    |w0| + |A| < 0.8, as [a_re, a_im, b_re, b_im, c_re, c_im, d_re, d_im]."""
    r = rng.uniform(0.15, 0.45)
    amp = r * cmath.exp(2j * math.pi * rng.random())
    w0 = (0.8 - r) * rng.uniform(0.15, 0.95) * cmath.exp(2j * math.pi * rng.random())
    p = rng.uniform(*p_range) * cmath.exp(2j * math.pi * rng.random())
    coeffs = (amp - w0 * p.conjugate(), w0 - amp * p, -p.conjugate(), 1.0 + 0j)
    return [x for v in coeffs for x in (v.real, v.imag)]


def _closed_forms(job):
    """phi and phi' of the job's symbol, from its parameters."""
    q = job["params"]
    if job["kind"] == "moebius":
        a, b, c, d = (complex(q[i], q[i + 1]) for i in range(0, 8, 2))
        return (lambda z: (a * z + b) / (c * z + d),
                lambda z: (a * d - b * c) / (c * z + d) ** 2)
    a, m = complex(q[0], q[1]), int(q[2])
    return (lambda z: a * z ** m, lambda z: m * a * z ** (m - 1))


def _weights(space: str, n: int) -> np.ndarray:
    """beta(0..n): 1 on hardy; 1, 1, 2, ..., n on s2."""
    if space == "hardy":
        return np.ones(n + 1)
    return np.maximum(np.arange(n + 1, dtype=float), 1.0)


# (domain, codomain) of each operator
_SPACES = {"D_phi": ("s2", "s2"), "composition": ("hardy", "s2"),
           "DC_phi": ("hardy", "hardy")}


class NormLarge:
    """``holospace norm`` at large truncation: build one matrix, take its
    norm.  A cycle holds every (kind, N, operator) class twice in seeded
    order, each job with a fresh seeded symbol."""

    name = "norm_large"

    def __init__(self, sizes=(512, 1024)):
        self.sizes = tuple(sizes)
        self.max_n = max(self.sizes)

    def _job(self, rng, kind, n, op, audit, p_range=None):
        if kind == "moebius":
            params = _moebius_params(rng, p_range)
        else:
            r = rng.uniform(0.1, 0.95)
            t = 2 * math.pi * rng.random()
            params = [r * math.cos(t), r * math.sin(t), rng.choice((1, 2, 3))]
        points = []
        for _ in range(3):
            z = rng.uniform(0.1, 0.5) * cmath.exp(2j * math.pi * rng.random())
            points.append([z.real, z.imag])
        return {"kind": kind, "params": params, "n": n, "op": op,
                "points": points, "norm_oracle": audit}

    def cycles(self, seed):
        rng = random.Random(f"norm_large:{seed}")
        seen = set()
        classes = [(k, n, op) for k in KINDS for n in self.sizes for op in OPERATORS]
        while True:
            # Every class twice, each time with its own pole stratum.  A
            # cycle then takes longer than a run's --seconds, so every run
            # is exactly one cycle and sees the same job count.
            cycle = []
            for _ in range(2):
                # the full-SVD norm oracle runs on every smaller job and on
                # one seeded job of the largest size per pass
                audit = rng.choice([c for c in classes if c[1] == self.max_n])
                strata = {n: rng.sample(POLE_STRATA, len(OPERATORS)) for n in self.sizes}
                for kind, n, op in classes:
                    while True:
                        job = self._job(rng, kind, n, op,
                                        audit=n < self.max_n or (kind, n, op) == audit,
                                        p_range=strata[n][OPERATORS.index(op)])
                        key = (job["kind"], tuple(job["params"]), job["n"])
                        if key not in seen:
                            break
                    seen.add(key)
                    cycle.append(job)
            rng.shuffle(cycle)
            yield cycle

    def warmup(self, seed):
        rng = random.Random(f"norm_large:{seed}:warmup")
        return self._job(rng, "monomial", min(self.sizes), "D_phi", audit=False)

    def run(self, job):
        import holospace.maps as maps
        import holospace.operators as ops
        import holospace.spaces as spaces

        q = job["params"]
        if job["kind"] == "moebius":
            symbol = maps.MoebiusMap(*(complex(q[i], q[i + 1]) for i in range(0, 8, 2)))
        else:
            symbol = maps.MonomialMap(complex(q[0], q[1]), int(q[2]))
        n, op = job["n"], job["op"]
        s2, hardy = spaces.SpaceSpec.s2(), spaces.SpaceSpec.hardy()
        if op == "D_phi":
            a = ops.build_D_phi(symbol, n, domain=s2)
        elif op == "composition":
            a = ops.build_composition(symbol, n, domain=hardy, codomain=s2)
        else:
            a = ops.build_DC_phi(symbol, n, domain=hardy)
        return a.entries, ops.operator_norm(a)

    def finish(self, job, out):
        return out

    def verify(self, job, out):
        entries, norm = out
        n, op = job["n"], job["op"]
        if entries.shape != (n + 1, n + 1):
            return math.inf, [f"matrix shape {entries.shape}, expected N={n}"]
        problems = []
        worst = 0.0
        # apply the matrix to the test polynomial and compare, at interior
        # points, with the operator applied in closed form
        phi, dphi = _closed_forms(job)
        k = TEST_POLY.size
        image = entries[:, :k] @ TEST_POLY
        scale = np.abs(entries[:, :k]) @ np.abs(TEST_POLY)
        for re, im in job["points"]:
            z = complex(re, im)
            w = phi(z)
            if op == "composition":
                want = P.polyval(w, TEST_POLY)
            else:
                want = P.polyval(w, TEST_POLY_D)
                if op == "DC_phi":
                    want *= dphi(z)
            got = P.polyval(z, image)
            tol = 1e-10 * max(1.0, float(P.polyval(abs(z), scale)))
            m = _margin(abs(got - want), tol)
            worst = max(worst, m)
            if not m <= 1.0:
                problems.append(f"{op} image at z={z:.3g}: {got} vs {want}")
        if job["kind"] == "monomial" and op == "D_phi":
            q = job["params"]
            ref = formula_norm(abs(complex(q[0], q[1])), int(q[2]))
            m = _margin(abs(norm - ref), 1e-10)
        elif job["norm_oracle"]:
            dom, cod = _SPACES[op]
            weighted = entries * _weights(cod, n)[:, None] / _weights(dom, n)[None, :]
            ref = float(np.linalg.norm(weighted, 2))
            m = _margin(abs(norm - ref), 1e-10 * max(1.0, ref))
        else:
            m = 0.0
        worst = max(worst, m)
        if not m <= 1.0:
            problems.append(f"{op} norm {norm!r} vs oracle {ref!r}")
        return worst, problems

    def same(self, a, b):
        return a[1] == b[1] and np.array_equal(a[0], b[0])

    def setup_argv(self, seed):
        return [sys.executable, PROBE, "setup", self.name, str(seed)]

    peak_rss_mb = staticmethod(_self_rss_mb)


def make(name: str):
    return {"check": Check, "norm_large": NormLarge}[name]()


NAMES = ("check", "norm_large")
