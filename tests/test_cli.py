"""End-to-end tests of the command-line front end.

main() returns the exit code instead of raising SystemExit, so every
path (including argparse usage errors) is testable in process.
"""

import io
import json
import re
from contextlib import redirect_stderr, redirect_stdout

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from holospace.cli import main

THRESHOLD_M1 = 3.0 ** (-1.0 / 3.0)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _reject_constant(name):
    raise ValueError(f"{name} is not strict JSON")


# -- norm -------------------------------------------------------------


def test_norm_below_threshold_is_one(capsys):
    code, out, _ = run(capsys, "norm", "--symbol", "monomial:0.3,0,2",
                       "--space", "s2")
    assert code == 0
    assert "norm_svd = 1" in out
    assert "norm_formula = 1" in out


def test_norm_json_payload(capsys):
    code, out, _ = run(capsys, "norm", "--symbol", "monomial:0.8,0,1",
                       "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["norm_formula"] == pytest.approx(1.6384, abs=1e-15)
    assert payload["norm_svd"] == pytest.approx(1.6384, abs=1e-10)
    assert payload["nu"] == 6


def test_norm_writes_to_file(capsys, tmp_path):
    target = tmp_path / "norm.json"
    code, out, _ = run(capsys, "norm", "--symbol", "monomial:0.5,0,2",
                       "--format", "json", "--out", str(target))
    assert code == 0
    assert out == ""
    json.loads(target.read_text())


def test_norm_auto_trunc_above_limit_exits_2(capsys, monkeypatch):
    # monomial:0.9999,0,3 needs N = 30002; refuse before building anything
    import holospace.cli as cli

    def no_build(*args, **kwargs):
        raise AssertionError("no matrix may be built")

    monkeypatch.setattr(cli, "build_D_phi", no_build)
    code, out, err = run(capsys, "norm", "--symbol", "monomial:0.9999,0,3")
    assert code == 2
    assert out == ""
    assert "error:" in err and "30002" in err and "--trunc" in err


# -- spectrum ----------------------------------------------------------


def test_spectrum_monomial_with_reference(capsys):
    code, out, _ = run(capsys, "spectrum", "--symbol", "monomial:0.3,0,2")
    assert code == 0
    assert "spectrum = {0, 0.6}" in out
    assert "reference = {0, 0.6}" in out


def test_spectrum_affine_reference_is_zero(capsys):
    code, out, _ = run(capsys, "spectrum", "--symbol",
                       "moebius:0.4,0,0.2,0,0,0,1,0", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["reference"] == [[0.0, 0.0]]
    assert payload["distinct_eigenvalues"] == [[0.0, 0.0]]


def test_spectrum_general_map_has_no_reference(capsys):
    code, out, _ = run(capsys, "spectrum", "--symbol",
                       "moebius:2,0,1,0,1,0,4,0", "--format", "json")
    assert code == 0
    assert json.loads(out)["reference"] is None


def test_spectrum_tol_controls_collapse(capsys):
    code, out, _ = run(capsys, "spectrum", "--symbol", "monomial:0.3,0,2",
                       "--tol", "0.9")
    assert code == 0
    assert "0.6" not in out.splitlines()[0]


# -- adjoint and kernel -------------------------------------------------


def test_adjoint_dispatches_by_space(capsys):
    for space in ("s2tilde", "s2", "hardy", "dirichlet", "bergman:1"):
        code, out, _ = run(capsys, "adjoint", "--symbol",
                           "moebius:2,0,1,0,1,0,4,0", "--space", space,
                           "--trunc", "64")
        assert code == 0, (space, out)
        assert "pass" in out


def test_adjoint_alpha_override(capsys):
    code, out, _ = run(capsys, "adjoint", "--symbol",
                       "moebius:2,0,1,0,1,0,4,0", "--alpha", "0",
                       "--trunc", "64", "--format", "json")
    assert code == 0
    report = json.loads(out)
    assert report["passed"] is True
    assert "alpha=0" in report["check_id"]


def test_adjoint_out_of_regime_alpha_is_usage_error(capsys):
    code, _, err = run(capsys, "adjoint", "--symbol",
                       "moebius:2,0,1,0,1,0,4,0", "--alpha", "-2.5")
    assert code == 2
    assert "regime" in err


def test_adjoint_needs_moebius(capsys):
    code, _, err = run(capsys, "adjoint", "--symbol", "monomial:0.3,0,2")
    assert code == 2
    assert "moebius" in err


@pytest.mark.parametrize("space", ["hardy", "s2", "s2tilde", "dirichlet",
                                   "bergman:0"])
def test_kernel_subcommand(capsys, space):
    code, out, _ = run(capsys, "kernel", "--space", space, "--trunc", "48")
    assert code == 0
    assert "pass" in out


def test_kernel_nan_pairings_fail_closed(capsys):
    # equiv:-300 overflows the weights, so every inner product is nan
    with np.errstate(over="ignore", invalid="ignore"):
        code, out, err = run(capsys, "kernel", "--space", "equiv:-300",
                             "--trunc", "64", "--format", "json")
    assert code == 1
    payload = json.loads(out, parse_constant=_reject_constant)
    assert payload["passed"] is False
    assert payload["discrepancy"] is None
    assert "check failed" in err


# -- check ------------------------------------------------------------


def test_check_runs_clean_and_sorted(capsys, tmp_path):
    target = tmp_path / "suite.jsonl"
    code, _, err = run(capsys, "check", "--format", "json",
                       "--out", str(target))
    assert code == 0
    assert err == ""
    rows = [json.loads(line) for line in target.read_text().splitlines()]
    assert all(r["passed"] for r in rows)
    ids = [r["check_id"] for r in rows]
    assert ids == sorted(ids)
    assert len(rows) >= 25


# -- figure -----------------------------------------------------------


@pytest.fixture(scope="module")
def figure_rows(tmp_path_factory):
    target = tmp_path_factory.mktemp("fig") / "norms.csv"
    code = main(["figure", "--out", str(target)])
    assert code == 0
    lines = target.read_text().splitlines()
    assert lines[0] == "M,abs_a,nu,norm_formula,norm_svd"
    rows = []
    for line in lines[1:]:
        power, abs_a, nu, formula, svd = line.split(",")
        rows.append((int(power), float(abs_a), int(nu),
                     float(formula), float(svd)))
    return rows


def test_figure_grid_shape(figure_rows):
    assert len(figure_rows) == 3 * 189
    for power in (1, 2, 3):
        sweep = [r for r in figure_rows if r[0] == power]
        assert sweep[0][1] == pytest.approx(0.01)
        assert sweep[-1][1] == pytest.approx(0.95)


def test_figure_formula_matches_svd(figure_rows):
    worst = max(abs(r[3] - r[4]) for r in figure_rows)
    assert worst <= 1e-9


def test_figure_flat_then_monotone(figure_rows):
    thresholds = {1: THRESHOLD_M1, 2: 0.5, 3: 1.0 / 3.0}
    for power in (1, 2, 3):
        sweep = [r for r in figure_rows if r[0] == power]
        flat = [r[3] for r in sweep if r[1] <= thresholds[power]]
        assert all(v == 1.0 for v in flat)
        values = [r[3] for r in sweep]
        assert all(b >= a for a, b in zip(values, values[1:]))
        beyond = [r[3] for r in sweep
                  if r[1] > thresholds[power] + 1e-6]
        assert all(b > a for a, b in zip(beyond, beyond[1:]))
        assert beyond[-1] > 1.0


def test_figure_deterministic(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["figure", "--out", str(a)]) == 0
    assert main(["figure", "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


# -- usage and failure exits -------------------------------------------


def test_unknown_command_exits_2(capsys):
    assert run(capsys, "bogus")[0] == 2


def test_missing_symbol_exits_2(capsys):
    assert run(capsys, "norm")[0] == 2


@pytest.mark.parametrize("argv", [
    ("norm", "--symbol", "monomial:0.3,0,2", "--trunc", "5"),
    ("norm", "--symbol", "monomial:0.3,0,2", "--trunc", "5000"),
    ("spectrum", "--symbol", "monomial:0.3,0,2", "--tol", "2"),
    ("spectrum", "--symbol", "monomial:0.3,0,2", "--tol", "0"),
    ("norm", "--symbol", "garbage:1,2,3"),
    ("norm", "--symbol", "monomial:0.3,0,2", "--space", "nosuch"),
    ("norm", "--symbol", "monomial:0.3,0,nan"),
    ("norm", "--symbol", "monomial:0.3,0,inf"),
    ("norm", "--symbol", "moebius:nan,0,0,0,0,0,1,0"),
    ("norm", "--symbol", "poly:nan,0,0.1,0"),
    # flags the subcommand does not honour
    ("info", "--trunc", "9"),
    ("figure", "--format", "json"),
    ("check", "--trunc", "64"),
    ("norm", "--symbol", "monomial:0.3,0,2", "--seed", "1"),
    ("norm", "--symbol", "monomial:0.3,0,2", "--format", "csv"),
])
def test_usage_errors_exit_2(capsys, argv):
    code, _, err = run(capsys, *argv)
    assert code == 2
    assert "error:" in err


@pytest.mark.parametrize("command,flags", [
    ("norm", {"symbol", "space", "trunc", "out", "format"}),
    ("spectrum", {"symbol", "space", "trunc", "tol", "out", "format"}),
    ("adjoint", {"symbol", "space", "trunc", "alpha", "seed", "out", "format"}),
    ("kernel", {"space", "trunc", "seed", "out", "format"}),
    ("check", {"seed", "out", "format"}),
    ("figure", {"out"}),
    ("info", {"out"}),
])
def test_help_lists_exactly_the_honoured_flags(capsys, command, flags):
    code, out, _ = run(capsys, command, "--help")
    assert code == 0
    assert set(re.findall(r"--([a-z]+)", out)) == flags | {"help"}
    if "format" in flags:
        assert "{json,table}" in out


def test_unwritable_out_path_exits_2(capsys, tmp_path):
    code, _, err = run(capsys, "norm", "--symbol", "monomial:0.3,0,2",
                       "--out", str(tmp_path / "missing" / "x.json"))
    assert code == 2
    assert "cannot write output" in err


def test_non_self_map_exits_3(capsys):
    code, _, err = run(capsys, "norm", "--symbol",
                       "moebius:1,0,0.5,0,0,0,1,0")
    assert code == 3
    assert "uncertified" in err


def test_pole_in_disk_exits_3(capsys):
    code, _, err = run(capsys, "norm", "--symbol",
                       "moebius:0,0,1,0,1,0,0.5,0")
    assert code == 3


def test_seed_accepts_hex(capsys):
    code, _, _ = run(capsys, "kernel", "--space", "s2",
                     "--seed", "0x5EED", "--trunc", "32")
    assert code == 0


def test_info(capsys):
    code, out, _ = run(capsys, "info")
    assert code == 0
    assert "0x5eed" in out
    assert "exit codes" in out


def test_help_exits_zero(capsys):
    assert run(capsys, "--help")[0] == 0


# -- no input escapes main ----------------------------------------------

_NUMBERS = ["0.3", "0", "-0.2", "2", "0.5", "1", "1e200", "nan", "inf",
            "-inf", "x"]

_SYMBOLS = st.one_of(
    st.sampled_from([
        "monomial:0.3,0,2", "monomial:0.8,0,1", "moebius:2,0,1,0,1,0,4,0",
        "moebius:0.4,0,0.2,0,0,0,1,0", "poly:0.1,0,0.3,0",
        "moebius:1,0,0.5,0,0,0,1,0", "moebius:0,0,1,0,1,0,0.5,0",
        "monomial:0.3,0,nan", "monomial:0.3,0,inf",
        "moebius:nan,0,0,0,0,0,1,0", "poly:nan,0,0.1,0",
        "", ":", "poly:", "garbage:1,2", "monomial:a,b,2",
    ]),
    # every kind with any count of numbers, finite or not
    st.builds(lambda kind, nums: f"{kind}:{','.join(nums)}",
              st.sampled_from(["monomial", "moebius", "poly", "blaschke"]),
              st.lists(st.sampled_from(_NUMBERS), max_size=9)),
    st.text(max_size=12),
)

_TRUNCS = st.sampled_from(["8", "16", "32", "5", "5000", "x", "-1"])

# honoured and out-of-range values, plus flags no drawn command honours
_FLAGS = st.sampled_from([
    ("--space", "s2"), ("--space", "hardy"), ("--space", "s2tilde"),
    ("--space", "bergman:0"), ("--space", "equiv:-1.5"),
    ("--space", "nosuch"), ("--space", "bergman"), ("--space", "bergman:-3"),
    ("--space", "bergman:nan"), ("--space", "equiv:inf"),
    ("--format", "json"), ("--format", "table"), ("--format", "csv"),
    ("--tol", "0.5"), ("--tol", "0"), ("--tol", "2"), ("--tol", "nan"),
    ("--seed", "7"), ("--seed", "0x5EED"), ("--seed", "-1"),
    ("--out", "-"), ("--alpha", "0"),
])


@settings(max_examples=150, deadline=None)
@given(command=st.sampled_from(["norm", "spectrum", "kernel", "info"]),
       symbol=st.none() | _SYMBOLS,
       trunc=st.none() | _TRUNCS,
       flags=st.lists(_FLAGS, max_size=3))
def test_no_cli_input_raises_out_of_main(command, symbol, trunc, flags):
    argv = [command]
    if symbol is not None:
        argv += ["--symbol", symbol]
    # norm without --trunc sizes the matrix from the symbol; keep it small
    if trunc is not None or command == "norm":
        argv += ["--trunc", trunc or "32"]
    for flag, value in flags:
        argv += [flag, value]
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        code = main(argv)
    assert code in (0, 1, 2, 3, 4), argv
