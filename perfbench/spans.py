"""Outside-in tracing of holospace.

The tracer records a span around calls into the public functions of the
six modules, by replacing each function where callers look it up: every
holospace module namespace that holds the function object, or the class
that holds the method.  Nothing inside ``src/holospace`` is changed;
``uninstall`` restores every original object.

A span is ``[job, parent, name, start_ns, end_ns]``.  Spans stay in
memory and are written out once, at the end of the run.  A layer's self
time is its span's duration minus the durations of its child spans.
Bookkeeping the tracer does after a call (counting entries, subnormals)
is itself a ``trace.bookkeeping`` span, so it is not charged to any
layer.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

BUILDERS = ("build_D_phi", "build_composition", "build_DC_phi")
OPERATOR_FUNCS = BUILDERS + ("build_multiplication", "singular_values",
                             "spectrum", "weighted_adjoint")
FAMILIES = ("norm-formula", "spectrum", "adjoint-intertwine",
            "adjoint-residual-renormed", "adjoint-residual-compact",
            "bounded-trio", "kernels", "multiplier-bounded", "factorization")

ROOT_SPAN = "job"
BOOKKEEPING = "trace.bookkeeping"

_TINY = np.finfo(np.float64).tiny


def _subnormal_count(a: np.ndarray) -> int:
    """Entries whose real or imaginary part is a nonzero subnormal."""
    def sub(x):
        ax = np.abs(x)
        return (ax > 0) & (ax < _TINY)
    return int(np.count_nonzero(sub(a.real) | sub(a.imag)))


def _symbol_key(symbol):
    coeffs = getattr(symbol, "coeffs", None)
    if coeffs is not None:
        return (type(symbol).__name__, np.asarray(coeffs).tobytes())
    return repr(symbol)


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


class Tracer:
    """Collects spans and counters for a sequence of jobs (single thread)."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._job = -1
        self._patches: list[tuple] = []
        self.jobs = 0
        self.counts = defaultdict(float)
        self.margins: dict[str, float] = {}
        self._build_keys: set = set()
        self._power_keys: set = set()
        self.job_walls: list[float] = []

    # -- spans -----------------------------------------------------------

    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(idx)
        self.spans.append([self._job, parent, name, time.perf_counter_ns(), 0])
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][4] = time.perf_counter_ns()
        self._stack.pop()

    @contextmanager
    def job(self, index: int):
        """Root span of one job; the wrappers must be installed around it."""
        self._job = index
        self._build_keys, self._power_keys = set(), set()
        root = self.open(ROOT_SPAN)
        try:
            yield
        finally:
            self.close(root)
            self.job_walls.append((self.spans[root][4] - self.spans[root][3]) / 1e9)
            self.jobs += 1
            self.counts["build.distinct"] += len(self._build_keys)
            self.counts["power.distinct"] += len(self._power_keys)

    def _wrap(self, fn, name: str, hook=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
            if hook is not None:
                book = tracer.open(BOOKKEEPING)
                try:
                    hook(idx, args, kwargs, result)
                finally:
                    tracer.close(book)
            return result

        return traced

    # -- hooks -------------------------------------------------------------

    def _on_build(self, builder):
        def hook(idx, args, kwargs, result):
            key = _symbol_key(_arg(args, kwargs, 0, "symbol"))
            n = _arg(args, kwargs, 1, "n")
            self._build_keys.add((builder, key, n))
            self._power_keys.add((key, n))
            self.counts["build.calls"] += 1
            self.counts["build.entries"] += result.entries.size
            self.counts["build.subnormal"] += _subnormal_count(result.entries)
        return hook

    def _on_singular_values(self, idx, args, kwargs, result):
        dim = _arg(args, kwargs, 0, "a").entries.shape[0]
        self.counts["sv.n3"] += float(dim) ** 3

    def _on_check(self, idx, args, kwargs, report):
        family = report.check_id.split("[", 1)[0]
        self.spans[idx][2] = "verify." + family
        margin = report.discrepancy / report.tolerance
        self.margins[family] = max(self.margins.get(family, 0.0), margin)

    # -- installing --------------------------------------------------------

    def _patch_function(self, module, attr: str, name: str, hook=None):
        original = getattr(module, attr)
        wrapper = self._wrap(original, name, hook)
        for modname, mod in list(sys.modules.items()):
            if modname != "holospace" and not modname.startswith("holospace."):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, key, original))
                    setattr(mod, key, wrapper)

    def _patch_method(self, cls, attr: str, name: str):
        original = cls.__dict__[attr]
        self._patches.append((cls, attr, original))
        setattr(cls, attr, self._wrap(original, name))

    def install(self) -> None:
        import holospace.maps as maps
        import holospace.operators as operators
        import holospace.series as series
        import holospace.spaces as spaces
        import holospace.verify as verify

        for fn in OPERATOR_FUNCS:
            hook = None
            if fn in BUILDERS:
                hook = self._on_build(fn)
            elif fn == "singular_values":
                hook = self._on_singular_values
            self._patch_function(operators, fn, f"operators.{fn}", hook)
        cls = series.TruncatedSeries
        for attr, name in (("__mul__", "series.mul"), ("__rmul__", "series.mul"),
                           ("__truediv__", "series.div")):
            self._patch_method(cls, attr, name)
        for fn in ("log_series", "exp_series"):
            self._patch_function(series, fn, f"series.{fn}")
        for fn in ("kernel", "inner_product"):
            self._patch_function(spaces, fn, f"spaces.{fn}")
        for cls in (maps.MoebiusMap, maps.MonomialMap, maps.PolynomialMap):
            self._patch_method(cls, "certify_strict", "maps.certify")
            self._patch_method(cls, "certify_self_map", "maps.certify")
            self._patch_method(cls, "series", "maps.series")
        for fn in [k for k in vars(verify) if k.startswith("check_")]:
            self._patch_function(verify, fn, "verify.check", self._on_check)
        cli = sys.modules.get("holospace.cli")
        if cli is not None:
            self._patch_function(cli, "main", "cli.main")

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield
        finally:
            self.uninstall()

    # -- results -------------------------------------------------------------

    def summary(self) -> dict:
        """Per span name, over all jobs: calls, total seconds and self
        seconds (total minus the time covered by child spans)."""
        child = [0] * len(self.spans)
        for job, parent, name, start, end in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        for i, (job, parent, name, start, end) in enumerate(self.spans):
            entry = out[name]
            entry["calls"] += 1
            entry["total_s"] += (end - start) / 1e9
            entry["self_s"] += (end - start - child[i]) / 1e9
        return dict(out)

    def dump(self, path) -> None:
        """Write every span as JSON, names interned."""
        names: dict[str, int] = {}
        rows = []
        for job, parent, name, start, end in self.spans:
            rows.append([job, parent, names.setdefault(name, len(names)),
                         start, end])
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            json.dump({"columns": ["job", "parent", "name", "start_ns", "end_ns"],
                       "names": list(names), "spans": rows}, fh,
                      separators=(",", ":"))
