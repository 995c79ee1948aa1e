"""Command-line front end: norms, spectra, adjoint checks, kernel
validation, the verification suite, and figure-data emission.

Exit codes: 0 success, 1 a check ran and failed, 2 usage error,
3 symbol could not be certified, 4 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import __version__
from .errors import (
    CertificationError,
    DomainError,
    NumericalFailureError,
    PoleInDiskError,
    PreconditionError,
    UnsupportedOperationError,
)
from .maps import MoebiusMap, MonomialMap, parse_symbol
from .operators import build_D_phi, operator_norm, spectrum
from .spaces import SpaceSpec, parse_space
from .verify import (
    DEFAULT_SEED,
    _collapse,
    check_adjoint_intertwine,
    check_adjoint_s2_compact,
    check_adjoint_s2tilde,
    check_kernels,
    default_suite,
    reports_to_json_lines,
    reports_to_table,
    strict_json,
)

DEFAULT_TRUNC = 64
MAX_TRUNC = 4096

FIGURE_POWERS = (1, 2, 3)
FIGURE_STEPS = 189  # |a| = 0.01 (0.005) 0.95


def _fmt(x: float) -> str:
    return f"{x:.12g}"


def _fmt_complex(z: complex) -> str:
    if z.imag == 0:
        return _fmt(z.real)
    return f"{_fmt(z.real)}{z.imag:+.12g}j"


def _trunc_arg(text: str) -> int:
    try:
        n = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"trunc must be an integer, got {text!r}")
    if not 8 <= n <= MAX_TRUNC:
        raise argparse.ArgumentTypeError(f"trunc must lie in [8, {MAX_TRUNC}], got {n}")
    return n


def _tol_arg(text: str) -> float:
    try:
        t = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"tol must be a real number, got {text!r}")
    if not 0.0 < t < 1.0:
        raise argparse.ArgumentTypeError(f"tol must lie in (0, 1), got {t}")
    return t


def _seed_arg(text: str) -> int:
    try:
        s = int(text, 0)
    except ValueError:
        raise argparse.ArgumentTypeError(f"seed must be an integer, got {text!r}")
    if s < 0:
        raise argparse.ArgumentTypeError("seed must be nonnegative")
    return s


def _emit(text: str, out: str | None):
    if out in (None, "-"):
        sys.stdout.write(text if text.endswith("\n") else text + "\n")
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text if text.endswith("\n") else text + "\n")


def _emit_report(report, args) -> int:
    if args.format == "json":
        _emit(report.to_json_line(), args.out)
    else:
        _emit(reports_to_table([report]), args.out)
    if not report.passed:
        print(f"check failed: {report.check_id}", file=sys.stderr)
        return 1
    return 0


# -- subcommands ------------------------------------------------------


def cmd_norm(args) -> int:
    symbol = parse_symbol(args.symbol)
    sp = parse_space(args.space)
    n = args.trunc
    if n is None:
        n = DEFAULT_TRUNC
        if isinstance(symbol, MonomialMap):
            n = max(n, symbol.required_trunc_degree())
        if n > MAX_TRUNC:
            raise PreconditionError(
                f"an exact norm for {symbol.spelling()} needs trunc {n}, "
                f"above the limit {MAX_TRUNC}; pass --trunc to choose one")
    val = operator_norm(build_D_phi(symbol, n, domain=sp))
    payload = {
        "command": "norm",
        "symbol": symbol.spelling(),
        "space": sp.spelling(),
        "trunc_degree": n,
        "norm_svd": val,
    }
    if isinstance(symbol, MonomialMap):
        payload["nu"] = symbol.nu
        payload["norm_formula"] = symbol.norm_formula()
    if args.format == "json":
        _emit(strict_json(payload), args.out)
    else:
        lines = [f"norm_svd = {_fmt(val)}"]
        if "norm_formula" in payload:
            lines.append(f"norm_formula = {_fmt(payload['norm_formula'])}")
            lines.append(f"nu = {payload['nu']}")
        _emit("\n".join(lines), args.out)
    return 0


def cmd_spectrum(args) -> int:
    symbol = parse_symbol(args.symbol)
    sp = parse_space(args.space)
    n = args.trunc or DEFAULT_TRUNC
    eig = spectrum(build_D_phi(symbol, n, domain=sp))
    distinct = _collapse(eig, args.tol)
    reference = None
    if isinstance(symbol, MonomialMap):
        reference = sorted(symbol.exact_spectrum(), key=abs)
    elif isinstance(symbol, MoebiusMap) and symbol.c == 0 and symbol.sup_norm() < 1:
        reference = [0.0]
    payload = {
        "command": "spectrum",
        "symbol": symbol.spelling(),
        "space": sp.spelling(),
        "trunc_degree": n,
        "distinct_eigenvalues": [[v.real, v.imag] for v in distinct],
        "reference": None if reference is None
        else [[complex(v).real, complex(v).imag] for v in reference],
    }
    if args.format == "json":
        _emit(strict_json(payload), args.out)
    else:
        lines = ["spectrum = {" + ", ".join(_fmt_complex(v) for v in distinct) + "}"]
        if reference is not None:
            lines.append("reference = {"
                         + ", ".join(_fmt_complex(complex(v)) for v in reference)
                         + "}")
        _emit("\n".join(lines), args.out)
    return 0


def cmd_adjoint(args) -> int:
    symbol = parse_symbol(args.symbol)
    if not isinstance(symbol, MoebiusMap):
        raise UnsupportedOperationError(
            "adjoint checks need a moebius symbol (the Krein adjoint is "
            "defined for linear fractional maps)")
    sp = parse_space(args.space)
    n = args.trunc or 128
    seed = args.seed
    if args.alpha is not None:
        report = check_adjoint_intertwine(symbol, args.alpha, n)
    elif sp.kind == "s2tilde":
        report = check_adjoint_s2tilde(symbol, n, seed=seed)
    elif sp.kind == "s2":
        report = check_adjoint_s2_compact(symbol, truncs=(max(16, n // 2), n))
    elif sp.kind == "hardy":
        report = check_adjoint_intertwine(symbol, -1.0, n)
    elif sp.kind == "dirichlet":
        report = check_adjoint_intertwine(symbol, -2.0, n)
    else:
        # bergman:a and equiv:a carry their own alpha
        report = check_adjoint_intertwine(symbol, sp.alpha, n)
    return _emit_report(report, args)


def cmd_kernel(args) -> int:
    sp = parse_space(args.space)
    n = args.trunc or DEFAULT_TRUNC
    report = check_kernels(sp, trials=10, trunc=n, seed=args.seed)
    return _emit_report(report, args)


def cmd_check(args) -> int:
    reports = sorted(default_suite(seed=args.seed), key=lambda r: r.check_id)
    if args.format == "json":
        _emit(reports_to_json_lines(reports), args.out)
    else:
        _emit(reports_to_table(reports), args.out)
    failing = [r.check_id for r in reports if not r.passed]
    for check_id in failing:
        print(f"check failed: {check_id}", file=sys.stderr)
    return 1 if failing else 0


def cmd_figure(args) -> int:
    sp = SpaceSpec.s2()
    rows = ["M,abs_a,nu,norm_formula,norm_svd"]
    for power in FIGURE_POWERS:
        for i in range(FIGURE_STEPS):
            a = 0.005 * (i + 2)  # 0.01, 0.015, ..., 0.95
            m = MonomialMap(a, power)
            n = m.required_trunc_degree()
            svd = operator_norm(build_D_phi(m, n, domain=sp))
            rows.append(",".join([
                str(power), _fmt(a), str(m.nu),
                _fmt(m.norm_formula()), _fmt(svd),
            ]))
    _emit("\n".join(rows), args.out)
    return 0


def cmd_info(args) -> int:
    lines = [
        f"holospace {__version__}",
        "",
        "spaces: hardy | bergman:alpha | dirichlet | s2 | s2tilde | equiv:alpha",
        "symbols: moebius:a_re,a_im,b_re,b_im,c_re,c_im,d_re,d_im",
        "         monomial:a_re,a_im,M",
        "         poly:c0_re,c0_im,...",
        "",
        f"defaults: trunc = {DEFAULT_TRUNC}, seed = {DEFAULT_SEED:#x}",
        "exit codes: 0 ok, 1 check failed, 2 usage, 3 uncertified, 4 numerical",
    ]
    _emit("\n".join(lines), args.out)
    return 0


# -- parser -----------------------------------------------------------


_FLAGS = {
    "symbol": dict(required=True,
                   help="symbol grammar string, e.g. monomial:0.3,0,2"),
    "space": dict(default="s2", help="space spelling (default s2)"),
    "trunc": dict(type=_trunc_arg, default=None,
                  help="truncation degree in [8, 4096]"),
    "tol": dict(type=_tol_arg, default=1e-9,
                help="eigenvalue merge tolerance in (0, 1) (default 1e-9)"),
    "alpha": dict(type=float, default=None,
                  help="kernel exponent; overrides the space's own alpha"),
    "seed": dict(type=_seed_arg, default=DEFAULT_SEED,
                 help="seed for random trials (default 0x5EED)"),
    "out": dict(default=None, help="output path (default stdout)"),
    "format": dict(choices=["json", "table"], default="table"),
}

# (name, handler, help, flags honoured); nothing else is accepted
_COMMANDS = (
    ("norm", cmd_norm, "operator norm of f -> f'(phi)",
     ("symbol", "space", "trunc", "out", "format")),
    ("spectrum", cmd_spectrum, "eigenvalues of the truncation",
     ("symbol", "space", "trunc", "tol", "out", "format")),
    ("adjoint", cmd_adjoint, "adjoint identity check for the space",
     ("symbol", "space", "trunc", "alpha", "seed", "out", "format")),
    ("kernel", cmd_kernel, "validate reproducing kernels",
     ("space", "trunc", "seed", "out", "format")),
    ("check", cmd_check, "run the full verification suite",
     ("seed", "out", "format")),
    ("figure", cmd_figure, "norm curves CSV for monomial symbols", ("out",)),
    ("info", cmd_info, "version, grammar, and defaults", ("out",)),
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="holospace",
        description="composition-differentiation operators on weighted "
                    "Hardy spaces: norms, spectra, adjoints, checks",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, func, text, flags in _COMMANDS:
        p = sub.add_parser(name, help=text)
        for flag in flags:
            p.add_argument(f"--{flag}", **_FLAGS[flag])
        p.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        return args.func(args)
    except (CertificationError, PoleInDiskError) as e:
        print(f"uncertified symbol: {e}", file=sys.stderr)
        return 3
    except NumericalFailureError as e:
        print(f"numerical failure: {e}", file=sys.stderr)
        if e.diagnostics:
            print(json.dumps(e.diagnostics), file=sys.stderr)
        return 4
    except (DomainError, PreconditionError, UnsupportedOperationError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except OSError as e:
        print(f"error: cannot write output: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
