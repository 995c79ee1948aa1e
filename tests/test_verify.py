"""Checks for the verification harness itself.

The harness wraps the library's invariants; these tests pin down the
report contract (passed iff discrepancy <= tolerance, JSON-safe,
deterministic) and exercise each check on symbols whose outcome is
known in advance, including the ones that must fail or refuse to run.
"""

import json
import math

import numpy as np
import pytest

import holospace.verify as verify
from holospace.errors import (
    CertificationError,
    PreconditionError,
    UnsupportedOperationError,
)
from holospace.maps import MoebiusMap, MonomialMap, PolynomialMap
from holospace.series import TruncatedSeries
from holospace.spaces import SpaceSpec
from holospace.verify import (
    check_adjoint_intertwine,
    check_adjoint_s2_compact,
    check_adjoint_s2tilde,
    check_bounded_trio,
    check_factorization,
    check_kernels,
    check_multiplier_bounded,
    check_norm_formula,
    check_spectrum,
    default_suite,
    reports_to_json_lines,
    reports_to_table,
)

M_SHIFT = MoebiusMap(2, 1, 0, 4)      # (2z+1)/4, b != 0, c = 0
M_FULL = MoebiusMap(2, 1, 1, 4)       # generic: b != 0, c != 0
M_HALF = MoebiusMap(1, 0, 0, 2)       # z/2, b = c = 0
M_B0 = MoebiusMap(1, 0, -0.3, 2)      # b = 0, c != 0


# -- report contract --------------------------------------------------


def test_report_passed_iff_within_tolerance():
    r = check_norm_formula(0.5, 2)
    assert r.passed == (r.discrepancy <= r.tolerance)
    assert r.runtime_ms >= 0.0
    assert r.trunc_degree >= 2


def test_report_json_line_round_trips():
    r = check_norm_formula(0.8, 1, trunc=32)
    back = json.loads(r.to_json_line())
    assert back["check_id"] == r.check_id
    assert back["passed"] is True
    assert back["discrepancy"] == r.discrepancy
    assert back["computed"]["svd_norm"] == pytest.approx(1.6384, abs=1e-12)


def test_every_suite_report_is_json_safe():
    reports = default_suite(quick=True)
    for line in reports_to_json_lines(reports).splitlines():
        json.loads(line)


# -- norm and spectrum ------------------------------------------------


@pytest.mark.parametrize("a,power", [(0.3, 1), (0.5, 2), (0.8, 1), (0.9, 3)])
def test_norm_formula_passes_on_grid(a, power):
    r = check_norm_formula(a, power)
    assert r.passed
    assert r.discrepancy <= 1e-10


def test_norm_formula_requires_enough_degrees():
    # a = 0.9 gives nu = 11, so M = 3 needs trunc >= 32
    with pytest.raises(PreconditionError, match="32"):
        check_norm_formula(0.9, 3, trunc=20)


def test_spectrum_monomial_and_affine_pass():
    for symbol in (MonomialMap(0.3, 2), MonomialMap(0.5, 3),
                   MonomialMap(0.5j, 4), MoebiusMap(0.4, 0.2, 0, 1)):
        r = check_spectrum(symbol)
        assert r.passed, r.check_id
        assert r.discrepancy <= 1e-9


def test_spectrum_refuses_unsupported_symbols():
    with pytest.raises(UnsupportedOperationError):
        check_spectrum(M_FULL)   # c != 0: no exact reference
    with pytest.raises(UnsupportedOperationError):
        check_spectrum(TruncatedSeries.z(16))
    with pytest.raises(PreconditionError):
        check_spectrum(MonomialMap(0.3, 2), trunc=4)


# -- adjoint identities -----------------------------------------------


@pytest.mark.parametrize("alpha", [1.0, 0.0, -1.0, -2.0])
def test_intertwine_exact_regime(alpha):
    r = check_adjoint_intertwine(M_FULL, alpha, trunc=64)
    assert r.passed
    assert r.discrepancy <= 1e-9


def test_intertwine_honest_failure_between_integer_points():
    # the norm-equivalent weight family matches a true kernel structure
    # only at alpha = -1 and alpha = -2; in between the identity is
    # genuinely false and the check must say so
    r = check_adjoint_intertwine(M_FULL, -1.5, trunc=64)
    assert not r.passed
    assert r.discrepancy > 1e-3


def test_intertwine_alpha_minus_three_is_a_decay_signature():
    r = check_adjoint_intertwine(M_SHIFT, -3.0, trunc=64)
    assert r.passed
    assert "signature" in r.note


def test_intertwine_rejects_out_of_regime_alpha():
    with pytest.raises(UnsupportedOperationError):
        check_adjoint_intertwine(M_SHIFT, -2.5)
    with pytest.raises(UnsupportedOperationError):
        check_adjoint_intertwine(M_SHIFT, -4.0)


def test_intertwine_rejects_non_strict_symbol():
    with pytest.raises(CertificationError):
        check_adjoint_intertwine(MoebiusMap(1, 0, 0, 1), 0.0)


def test_s2tilde_rank_profile():
    # generic symbol: rank exactly 2
    r = check_adjoint_s2tilde(M_FULL, trunc=96)
    assert r.passed
    assert r.computed["numerical_rank"] == 2
    # b = 0, c != 0: one tensor factor collapses, rank 1
    r = check_adjoint_s2tilde(M_B0, trunc=96)
    assert r.passed
    assert r.computed["numerical_rank"] == 1
    # b != 0, c = 0: the eta factor is constant, rank 1 again
    r = check_adjoint_s2tilde(M_SHIFT, trunc=96)
    assert r.passed
    assert r.computed["numerical_rank"] == 1
    # b = c = 0: branch constants cancel, residual vanishes
    r = check_adjoint_s2tilde(M_HALF, trunc=96)
    assert r.passed
    assert r.computed["numerical_rank"] == 0
    assert "vanishes" in r.note


def test_s2tilde_kernel_action_matches_closed_form():
    r = check_adjoint_s2tilde(M_FULL, trunc=96)
    assert r.computed["kernel_action_worst"] <= 1e-10


def test_s2_compact_signature_passes_and_says_signature():
    r = check_adjoint_s2_compact(M_SHIFT, truncs=(64, 128))
    assert r.passed
    assert r.computed["sigma20_over_sigma1"] < 1e-3
    assert "not a proof" in r.note


def test_s2_compact_vanishing_residual():
    r = check_adjoint_s2_compact(M_HALF, truncs=(64, 128))
    assert r.passed
    assert "vanishes" in r.note


# -- boundedness ------------------------------------------------------


def test_bounded_trio_stable_for_strict_symbol():
    r = check_bounded_trio(M_SHIFT, truncs=(32, 64, 128))
    assert r.passed
    norms = r.computed["norms"]
    assert set(norms["32"]) == {"diff_compose", "compose_cross",
                                "compose_then_diff"}


def test_bounded_trio_constant_symbol():
    # a constant symbol: DC_phi is the zero operator and C_phi has rank
    # one, but all three norms are finite and stable
    constant = PolynomialMap([0.3])
    r = check_bounded_trio(constant, truncs=(32, 64, 128))
    assert r.passed
    assert r.computed["norms"]["128"]["compose_then_diff"] == 0.0
    from holospace.operators import (
        build_composition,
        rank_from_singular_values,
        singular_values,
    )
    from holospace.spaces import SpaceSpec
    comp = build_composition(constant, 64, domain=SpaceSpec.hardy(),
                             codomain=SpaceSpec.s2())
    assert rank_from_singular_values(singular_values(comp), 1e-10) == 1


def test_bounded_trio_fails_jointly_at_the_boundary():
    # the identity map has sup-norm 1; all three truncated norms must
    # grow without bound and the stability check must fail
    identity = PolynomialMap([0, 1])
    r = check_bounded_trio(identity, truncs=(32, 64, 128))
    assert not r.passed
    norms = r.computed["norms"]
    for key in ("diff_compose", "compose_cross", "compose_then_diff"):
        assert norms["128"][key] > 1.5 * norms["32"][key]


# -- kernels, multipliers, factorization ------------------------------


@pytest.mark.parametrize("sp", [
    SpaceSpec.hardy(), SpaceSpec.s2(), SpaceSpec.s2tilde(),
    SpaceSpec.dirichlet(), SpaceSpec.bergman(0.0), SpaceSpec.bergman(1.0),
], ids=lambda sp: sp.spelling())
def test_kernels_pass_everywhere(sp):
    r = check_kernels(sp)
    assert r.passed, (sp.spelling(), r.computed)


def test_s2_derivative_kernel_norm_is_at_rounding_level():
    # compared with the exact geometric partial sum, not the full-series
    # closed form, so the part sits far below its tolerance
    r = check_kernels(SpaceSpec.s2())
    assert r.computed["parts"]["deriv_kernel_norm_identity"] < 0.01
    assert "partial sum" in r.note


def test_kernels_requires_enough_trials():
    with pytest.raises(PreconditionError):
        check_kernels(SpaceSpec.s2(), trials=3)


def test_multiplier_bounded():
    for psi in (TruncatedSeries.z(8), TruncatedSeries([0.5, 0.25, 0.125])):
        r = check_multiplier_bounded(psi, truncs=(32, 64, 128))
        assert r.passed


def test_factorization_passes():
    for m in (M_SHIFT, M_FULL, M_B0):
        r = check_factorization(m)
        assert r.passed
        assert r.discrepancy <= 1e-12


# -- suite ------------------------------------------------------------


def _strip_runtime(reports):
    out = []
    for r in reports:
        d = r.to_dict()
        d.pop("runtime_ms")
        out.append(d)
    return out


def test_default_suite_all_pass():
    reports = default_suite()
    failed = [r.check_id for r in reports if not r.passed]
    assert failed == []
    assert len(reports) >= 25


def test_default_suite_is_deterministic():
    a = default_suite(quick=True)
    b = default_suite(quick=True)
    assert _strip_runtime(a) == _strip_runtime(b)


def test_suite_seed_changes_random_draws_not_outcomes():
    a = default_suite(quick=True, seed=0x5EED)
    b = default_suite(quick=True, seed=12345)
    assert all(r.passed for r in a)
    assert all(r.passed for r in b)
    assert _strip_runtime(a) != _strip_runtime(b)


def test_table_rendering():
    reports = default_suite(quick=True)
    table = reports_to_table(reports)
    lines = table.splitlines()
    assert lines[0].startswith("check")
    assert len(lines) == len(reports) + 2
    assert all("pass" in ln or "FAIL" in ln for ln in lines[2:])


# -- nan fails closed ---------------------------------------------------
# Each check reduces its parts with a worst-case max.  The builtin max
# keeps whichever of a nan and a number comes first, so where the order
# is known each test puts the nan after a finite value.


def _assert_fails_on_nan(report):
    assert math.isnan(report.discrepancy)
    assert not report.passed


def test_spectrum_fails_on_nan_eigenvalue(monkeypatch):
    monkeypatch.setattr(verify, "spectrum",
                        lambda a: np.array([0.0, 0.6, np.nan]))
    _assert_fails_on_nan(check_spectrum(MonomialMap(0.3, 2)))


def test_s2tilde_fails_on_nan_kernel_action(monkeypatch):
    monkeypatch.setattr(MoebiusMap, "log_eta_conj_at",
                        lambda self, w: complex("nan"))
    _assert_fails_on_nan(check_adjoint_s2tilde(M_FULL, 64))


def test_s2_compact_fails_on_nan_drift(monkeypatch):
    original = verify.singular_values

    def nan_at_low_truncation(a):
        s = original(a)
        if a.trunc_degree == 64:
            s[4] = np.nan
        return s

    monkeypatch.setattr(verify, "singular_values", nan_at_low_truncation)
    _assert_fails_on_nan(check_adjoint_s2_compact(M_SHIFT, (32, 64, 128)))


def test_bounded_trio_fails_on_nan_norm(monkeypatch):
    original = verify.operator_norm

    def nan_for_dc_phi(a):
        return math.nan if a.label.startswith("compose-diff") else original(a)

    monkeypatch.setattr(verify, "operator_norm", nan_for_dc_phi)
    _assert_fails_on_nan(check_bounded_trio(M_HALF, (16, 32)))


def test_kernels_fail_on_nan_inner_products():
    # equiv:-300 weights square to inf, so every pairing is nan
    with np.errstate(over="ignore", invalid="ignore"):
        report = check_kernels(SpaceSpec.equivalent_weight(-300.0))
    _assert_fails_on_nan(report)


def test_factorization_fails_on_nan_series(monkeypatch):
    original = verify.exp_series
    calls = []

    def nan_after_first(total):
        calls.append(1)
        out = original(total)
        return out if len(calls) == 1 else out * math.nan

    monkeypatch.setattr(verify, "exp_series", nan_after_first)
    _assert_fails_on_nan(check_factorization(M_FULL, trials=3))
