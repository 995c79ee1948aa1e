"""Symbol classes: exact sup-norms against grid oracles, Krein adjoint
data, monomial norm and spectrum formulas, parsing."""

import numpy as np
import pytest

from holospace import (
    CertificationError,
    DomainError,
    PoleInDiskError,
    TruncatedSeries,
    exp_series,
    log_series,
)
from holospace.maps import (
    MoebiusMap,
    MonomialMap,
    PolynomialMap,
    parse_symbol,
    random_strict_moebius,
    symbol_from_dict,
)

# one shared million-point circle grid; the oracle for every sup-norm
_THETA = np.linspace(0.0, 2.0 * np.pi, 1_000_000, endpoint=False)
_CIRCLE = np.exp(1j * _THETA)


def _grid_sup(m: MoebiusMap) -> float:
    vals = (m.a * _CIRCLE + m.b) / (m.c * _CIRCLE + m.d)
    return float(np.max(np.abs(vals)))


# ---------------------------------------------------------------------
# Sup-norm of linear fractional maps
# ---------------------------------------------------------------------


def test_sup_norm_dilation():
    assert MoebiusMap(1, 0, 0, 2).sup_norm() == 0.5


def test_sup_norm_shifted_dilation():
    m = MoebiusMap(2, 1, 0, 4)
    assert abs(m.sup_norm() - 0.75) < 1e-15
    assert abs(m.sup_norm() - _grid_sup(m)) <= 1e-9


def test_sup_norm_identity_boundary():
    m = MoebiusMap(1, 0, 0, 1)
    assert m.sup_norm() == 1.0
    assert m.is_self_map()
    assert not m.is_strict()
    with pytest.raises(CertificationError):
        m.certify_strict()


def test_sup_norm_pole_inside_raises():
    with pytest.raises(PoleInDiskError):
        MoebiusMap(1, 2, 1, 0.5).sup_norm()
    assert not MoebiusMap(1, 2, 1, 0.5).is_self_map()


def test_sup_norm_against_grid_oracle():
    rng = np.random.default_rng(0x5EED)
    for _ in range(100):
        m = random_strict_moebius(rng)
        s = m.sup_norm()
        assert s < 0.8
        assert abs(s - _grid_sup(m)) <= 1e-9


def test_degenerate_coefficients_rejected():
    with pytest.raises(DomainError):
        MoebiusMap(1, 2, 2, 4)


# ---------------------------------------------------------------------
# Krein adjoint
# ---------------------------------------------------------------------


def test_krein_adjoint_frozen_example():
    m = MoebiusMap(2, 1, 0, 4)
    s = m.krein_adjoint()
    assert (s.a, s.b, s.c, s.d) == (2 + 0j, 0j, -1 + 0j, 4 + 0j)
    assert abs(s.sup_norm() - 2.0 / 3.0) < 1e-12
    assert abs(s.sup_norm() - _grid_sup(s)) <= 1e-9


def test_krein_adjoint_of_real_dilation_is_itself():
    m = MoebiusMap(0.4, 0, 0, 1)
    s = m.krein_adjoint()
    assert (s.a, s.b, s.c, s.d) == (0.4 + 0j, 0j, 0j, 1 + 0j)


def test_krein_involution_pointwise():
    rng = np.random.default_rng(21)
    for _ in range(10):
        m = random_strict_moebius(rng)
        back = m.krein_adjoint().krein_adjoint()
        for _ in range(10):
            z = 0.9 * rng.uniform() * np.exp(2j * np.pi * rng.uniform())
            assert abs(back(z) - m(z)) <= 1e-14


# ---------------------------------------------------------------------
# Series data: phi, mu, eta, branch-normalized logs
# ---------------------------------------------------------------------


def test_series_matches_pointwise_evaluation():
    rng = np.random.default_rng(33)
    for _ in range(10):
        m = random_strict_moebius(rng)
        f = m.series(48)
        for _ in range(5):
            z = 0.35 * rng.uniform() * np.exp(2j * np.pi * rng.uniform())
            assert abs(f(z) - m(z)) <= 1e-12


def test_series_pole_in_disk_raises():
    with pytest.raises(PoleInDiskError):
        MoebiusMap(1, 2, 1, 0.5).series(8)


def test_mu_eta_log_mu_frozen():
    # phi = (2z+1)/(z+4): mu = -z+4, eta = (1/4) sum (-z/4)^n,
    # log mu = log 4 - sum (1/4)^n z^n / n
    m = MoebiusMap(2, 1, 1, 4)
    assert m.is_strict()
    n = 12
    mu = m.mu_series(n)
    want_mu = np.zeros(n + 1, dtype=complex)
    want_mu[0], want_mu[1] = 4, -1
    assert np.array_equal(mu.coeffs, want_mu)

    eta = m.eta_series(n)
    want_eta = 0.25 * (-0.25) ** np.arange(n + 1)
    np.testing.assert_allclose(eta.coeffs, want_eta, rtol=1e-14)

    lm = m.log_mu(n)
    want_lm = np.zeros(n + 1, dtype=complex)
    want_lm[0] = np.log(4)
    want_lm[1:] = -(0.25 ** np.arange(1, n + 1)) / np.arange(1, n + 1)
    np.testing.assert_allclose(lm.coeffs, want_lm, rtol=1e-13, atol=1e-16)
    # oracle: log_series applied to the mu coefficients directly
    oracle = log_series(mu, np.log(4 + 0j))
    np.testing.assert_allclose(lm.coeffs, oracle.coeffs, rtol=1e-15)


def test_log_mu_vanishes_without_b():
    m = MoebiusMap(0.5, 0, 0.2, 1)
    assert m.is_strict()
    assert np.array_equal(m.log_mu(8).coeffs, np.zeros(9, dtype=complex))


def test_log_eta_conj_cancels_constant_of_log_mu():
    rng = np.random.default_rng(44)
    for _ in range(10):
        m = random_strict_moebius(rng)
        assert abs(m.log_mu(4)[0] + m.log_eta_conj_at(0.0)) < 1e-15


def test_mu_series_requires_strict_map():
    with pytest.raises(CertificationError):
        MoebiusMap(1, 0, 0, 1).mu_series(4)


def test_factorization_at_a_point():
    m = MoebiusMap(2, 1, 0, 4)
    s = m.krein_adjoint()
    z, w = 0.3 + 0.2j, -0.4j
    n = 64
    val = (m.log_mu(n)(z)
           + np.log(1 - np.conj(w) * s(z))
           + m.log_eta_conj_at(w))
    lhs = np.exp(val)
    rhs = 1 - np.conj(m(w)) * z
    assert abs(lhs - rhs) <= 1e-12


def test_factorization_coefficientwise():
    # both sides of 1 - conj(phi(w)) z as series in z, matched branches
    rng = np.random.default_rng(0x5EED)
    n = 16
    for _ in range(10):
        m = random_strict_moebius(rng)
        s = m.krein_adjoint()
        sig = s.series(n)
        for _ in range(20):
            w = 0.85 * rng.uniform() * np.exp(2j * np.pi * rng.uniform())
            inner = 1 - np.conj(w) * sig
            branch = np.log(inner[0])
            total = (m.log_mu(n) + log_series(inner, branch)
                     + m.log_eta_conj_at(w))
            got = exp_series(total)
            want = np.zeros(n + 1, dtype=complex)
            want[0] = 1.0
            want[1] = -np.conj(m(w))
            np.testing.assert_allclose(got.coeffs, want, atol=1e-12)


# ---------------------------------------------------------------------
# Monomial maps
# ---------------------------------------------------------------------


def test_nu_values():
    assert MonomialMap(0.5, 2).nu == 3
    assert MonomialMap(0.8, 1).nu == 6
    assert MonomialMap(0.9, 3).nu == 11
    assert MonomialMap(0.1, 1).nu == 2


def test_norm_formula_flat_region():
    # norm is 1 up to |a| = 1/M for M >= 2 and up to 3^(-1/3) for M = 1
    assert MonomialMap(0.5, 2).norm_formula() == 1.0
    assert MonomialMap(0.3, 2).norm_formula() == 1.0
    assert abs(MonomialMap(3 ** (-1 / 3), 1).norm_formula() - 1.0) < 1e-12
    assert MonomialMap(3 ** (-1 / 3) + 0.01, 1).norm_formula() > 1 + 1e-6
    assert MonomialMap(0.51, 2).norm_formula() > 1 + 1e-6


def test_norm_formula_frozen_values():
    m = MonomialMap(0.8, 1)
    assert abs(m.norm_formula() - 5 * 0.8 ** 5) < 1e-15
    m = MonomialMap(0.9, 3)
    assert abs(m.norm_formula() - 30 * 0.9 ** 10) < 1e-12


def test_supremum_scan_matches_formula_index():
    # direct scan of M (n-1) |a|^(n-1) up to n = 10 nu; ties at integer
    # (2-|a|)/(1-|a|) give bit-identical values, so equality is exact
    for a in (0.8, 0.9, 0.95, 0.37, 0.62):
        for M in (1, 2, 3):
            m = MonomialMap(a, M)
            v = m.nu
            scan = max(M * (n - 1) * a ** (n - 1) for n in range(2, 10 * v))
            assert scan == M * (v - 1) * a ** (v - 1)


def test_norm_formula_monotone_in_modulus():
    for M in (1, 2, 3):
        grid = np.arange(0.001, 1.0, 0.001)
        vals = [MonomialMap(x, M).norm_formula() for x in grid]
        assert all(b >= a for a, b in zip(vals, vals[1:]))
        assert all(v >= 1 for v in vals)
        assert all(MonomialMap(x, M).nu >= 2 for x in grid[::37])


def test_exact_spectrum():
    assert MonomialMap(0.3, 2).exact_spectrum() == {0.0, 0.6}
    assert MonomialMap(0.5, 3).exact_spectrum() == {0.0}
    assert MonomialMap(0.5, 1).exact_spectrum() == {0.0}
    assert MonomialMap(0.5j, 2).exact_spectrum() == {0.0, 1.0j}


def test_monomial_domain_errors():
    with pytest.raises(DomainError):
        MonomialMap(0.0, 2)
    with pytest.raises(DomainError):
        MonomialMap(1.0, 2)
    with pytest.raises(DomainError):
        MonomialMap(0.5, 0)


def test_monomial_series_and_required_degree():
    m = MonomialMap(0.5, 2)
    f = m.series(6)
    want = np.zeros(7, dtype=complex)
    want[2] = 0.5
    assert np.array_equal(f.coeffs, want)
    assert m.required_trunc_degree() == 2 * (3 - 1) + 2
    with pytest.raises(DomainError):
        m.series(1)


# ---------------------------------------------------------------------
# Polynomial symbols
# ---------------------------------------------------------------------


def test_polynomial_certification():
    p = PolynomialMap([0.5, 0, 0.3])
    assert abs(p.sup_norm() - 0.8) < 1e-7
    assert p.is_strict()
    q = PolynomialMap([0, 1])
    assert q.is_self_map()
    assert not q.is_strict()
    with pytest.raises(CertificationError):
        q.certify_strict()
    with pytest.raises(CertificationError):
        PolynomialMap([0, 1.2]).certify_self_map()


def test_polynomial_series_and_eval():
    p = PolynomialMap([0.1, 0.2, 0.3j])
    f = p.series(5)
    assert f.trunc_degree == 5
    z = 0.4 - 0.1j
    assert abs(f(z) - p(z)) < 1e-15
    with pytest.raises(DomainError):
        p.series(1)


# ---------------------------------------------------------------------
# Parsing, serialization, generation
# ---------------------------------------------------------------------


def test_parse_symbol_roundtrips():
    m = MoebiusMap(2, 1, 0, 4)
    m2 = parse_symbol(m.spelling())
    assert (m2.a, m2.b, m2.c, m2.d) == (m.a, m.b, m.c, m.d)

    mono = MonomialMap(0.3 - 0.25j, 3)
    mono2 = parse_symbol(mono.spelling())
    assert mono2.a == mono.a and mono2.power == 3

    p = PolynomialMap([0.1, 0.2j])
    p2 = parse_symbol(p.spelling())
    assert np.array_equal(p2.coeffs, p.coeffs)


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize("make", [
    lambda: MoebiusMap(NAN, 0, 0, 1),
    lambda: MoebiusMap(1, 0, 0, complex(2, INF)),
    lambda: MonomialMap(complex(0.3, NAN), 2),
    lambda: MonomialMap(0.3, NAN),
    lambda: MonomialMap(0.3, INF),
    lambda: PolynomialMap([NAN, 0.1]),
    lambda: PolynomialMap([0.1, -INF]),
])
def test_non_finite_parameters_rejected(make):
    # nan > 1 is False, so a nan parameter must be stopped before any
    # sup-norm comparison can wave it through
    with pytest.raises(DomainError):
        make()


def test_overflowing_coefficients_fail_certification():
    # finite coefficients whose sup-norm arithmetic overflows to nan
    m = MoebiusMap(1e200, 0, 0, 1e200)
    assert not m.is_strict()
    with pytest.raises(CertificationError):
        m.certify_self_map()


def test_parse_symbol_errors():
    for bad in ("moebius:1,2,3", "monomial:0.5,0,1.5", "poly:", "poly:1",
                "blaschke:1,2", "monomial:a,b,2", "monomial:0.3,0,nan",
                "monomial:0.3,0,inf", "moebius:nan,0,0,0,0,0,1,0",
                "poly:nan,0,0.1,0", "poly:0.1,-inf"):
        with pytest.raises(DomainError):
            parse_symbol(bad)


def test_symbol_dict_roundtrip():
    for sym in (MoebiusMap(2, 1, 0, 4), MonomialMap(0.5, 2),
                PolynomialMap([0.25, 0.5])):
        back = symbol_from_dict(sym.to_dict())
        assert type(back) is type(sym)
        assert back.spelling() == sym.spelling()


def test_random_strict_moebius_draws():
    rng = np.random.default_rng(7)
    for bound in (0.8, 0.7, 0.5):
        for _ in range(25):
            m = random_strict_moebius(rng, sup_bound=bound)
            assert m.is_strict()
            assert m.sup_norm() < bound
            assert m.c != 0 and m.b != 0


def test_random_strict_moebius_bad_bound():
    with pytest.raises(DomainError):
        random_strict_moebius(np.random.default_rng(1), sup_bound=1.5)
