"""Weight sequences, inner products, and kernels against quadrature and
closed-form oracles."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import roots_jacobi

from holospace import DomainError, TruncatedSeries, log_series
from holospace.spaces import (
    KernelKind,
    SpaceSpec,
    inner_product,
    kernel,
    multiplier_g_alpha,
    norm,
    parse_space,
)

ALL_SPACES = [
    SpaceSpec.hardy(),
    SpaceSpec.s2(),
    SpaceSpec.s2tilde(),
    SpaceSpec.dirichlet(),
    SpaceSpec.bergman(0.0),
    SpaceSpec.bergman(1.5),
    SpaceSpec.equivalent_weight(-1.5),
]


# ---------------------------------------------------------------------
# Quadrature oracle for the disk-integral monomial norms.  With the
# normalized area measure, ||z^n||^2 = (alpha+1) * Int_0^1 t^n (1-t)^alpha dt,
# which an m-point Gauss-Jacobi rule integrates exactly once 2m-1 >= n.
# ---------------------------------------------------------------------


def _disk_monomial_norm_sq(n, alpha):
    m = n // 2 + 2
    nodes, wts = roots_jacobi(m, alpha, 0.0)
    vals = ((1.0 + nodes) / 2.0) ** n
    integral = np.sum(wts * vals) / 2.0 ** (alpha + 1)
    return (alpha + 1) * integral


@pytest.mark.parametrize("alpha", [0.0, 1.0, 2.5, -0.5])
def test_bergman_weights_match_disk_quadrature(alpha):
    sp = SpaceSpec.bergman(alpha)
    w = sp.weights(24)
    for n in range(25):
        want = _disk_monomial_norm_sq(n, alpha)
        assert abs(w[n] ** 2 - want) <= 1e-13 * max(1.0, want)


def test_bergman_alpha_zero_z_norm():
    # (alpha+1) Int |z|^2 dA over the disk with alpha = 0 gives 1/2
    sp = SpaceSpec.bergman(0.0)
    f = TruncatedSeries.z(4)
    assert abs(inner_product(f, f, sp) - 0.5) < 1e-15


def test_s2_monomial_norms():
    sp = SpaceSpec.s2()
    for n in range(1, 12):
        f = TruncatedSeries.monomial(n, 12)
        assert abs(inner_product(f, f, sp) - n * n) < 1e-12


def test_monomials_orthogonal_everywhere():
    for sp in ALL_SPACES:
        f = TruncatedSeries.monomial(3, 8)
        g = TruncatedSeries.monomial(5, 8)
        assert inner_product(f, g, sp) == 0


def test_weight_identities():
    n = np.arange(0, 33)
    assert np.array_equal(SpaceSpec.hardy().weights(32), np.ones(33))
    d = SpaceSpec.dirichlet().weights(32)
    np.testing.assert_allclose(d[1:], np.sqrt(n[1:]), rtol=1e-15)
    # the equivalent-weight family reproduces hardy at alpha=-1 and
    # dirichlet at alpha=-2
    np.testing.assert_allclose(
        SpaceSpec.equivalent_weight(-1.0).weights(32), np.ones(33), rtol=1e-15)
    np.testing.assert_allclose(
        SpaceSpec.equivalent_weight(-2.0).weights(32), d, rtol=1e-15)
    s2t = SpaceSpec.s2tilde().weights(32)
    assert s2t[0] == 1 and s2t[1] == 1
    np.testing.assert_allclose(s2t[2:] ** 2, n[2:] * (n[2:] - 1), rtol=1e-15)


@pytest.mark.parametrize("sp", ALL_SPACES, ids=lambda s: s.spelling())
def test_weights_are_prefixes(sp):
    # operator_norm reads weights(k - 1) for a leading block of weights(n)
    full = sp.weights(1024)
    for k in (1, 2, 3, 59, 195, 1024):
        assert np.array_equal(sp.weights(k - 1), full[:k])


def test_weight_growth_is_subexponential():
    # liminf beta(n)^(1/n) = 1 shows up as beta(N)^(1/N) near 1 at desk N
    for sp in ALL_SPACES:
        b = sp.weight(256)
        assert 0.9 <= b ** (1 / 256.0) <= 1.1


def test_s2tilde_weight_ratio_monotone_from_below():
    n = 256
    r = SpaceSpec.s2tilde().weights(n)[2:] / SpaceSpec.s2().weights(n)[2:]
    assert np.all(r < 1)
    assert np.all(np.diff(r) > 0)
    assert r[-1] > 0.998


# ---------------------------------------------------------------------
# Reproducing identities
# ---------------------------------------------------------------------


def _random_poly(rng, deg, n):
    c = np.zeros(n + 1, dtype=complex)
    c[: deg + 1] = rng.standard_normal(deg + 1) + 1j * rng.standard_normal(deg + 1)
    return TruncatedSeries(c)


@pytest.mark.parametrize("sp", ALL_SPACES, ids=lambda s: s.spelling())
def test_point_evaluation_reproduced(sp):
    rng = np.random.default_rng(7)
    n = 48
    for _ in range(10):
        f = _random_poly(rng, n // 2, n)
        w = 0.8 * rng.uniform() * np.exp(2j * np.pi * rng.uniform())
        k = kernel(sp, KernelKind.POINT_EVAL, w, n)
        assert abs(inner_product(f, k, sp) - f(w)) <= 1e-12


@pytest.mark.parametrize("sp", ALL_SPACES, ids=lambda s: s.spelling())
def test_derivative_evaluation_reproduced(sp):
    rng = np.random.default_rng(11)
    n = 48
    for _ in range(10):
        f = _random_poly(rng, n // 2, n)
        w = 0.8 * rng.uniform() * np.exp(2j * np.pi * rng.uniform())
        k = kernel(sp, KernelKind.DERIV_EVAL, w, n)
        assert abs(inner_product(f, k, sp) - f.derivative()(w)) <= 1e-12


def test_s2_derivative_kernel_norm_identity():
    # || K_w^(1) ||^2 = 1/(1-|w|^2); the truncation misses exactly the
    # geometric tail, bounded by |w|^(2N)/(1-|w|^2)
    n = 64
    sp = SpaceSpec.s2()
    for w in (0.6, 0.3 - 0.45j, 0.88j):
        k = kernel(sp, KernelKind.DERIV_EVAL, w, n)
        got = inner_product(k, k, sp).real
        want = 1.0 / (1.0 - abs(w) ** 2)
        tail = abs(w) ** (2 * n) / (1.0 - abs(w) ** 2)
        assert abs(got - want) <= tail + 1e-14


def test_s2_derivative_kernel_at_zero_is_z():
    k = kernel(SpaceSpec.s2(), KernelKind.DERIV_EVAL, 0.0, 8)
    assert np.array_equal(k.coeffs, TruncatedSeries.z(8).coeffs)


def test_point_kernel_at_zero_is_one():
    for sp in ALL_SPACES:
        k = kernel(sp, KernelKind.POINT_EVAL, 0.0, 8)
        assert np.array_equal(k.coeffs, TruncatedSeries.one(8).coeffs)


def test_s2tilde_closed_forms():
    # point kernel: 1 + 2 conj(w) z + (1 - conj(w) z) log(1 - conj(w) z)
    # derivative kernel: z - z log(1 - conj(w) z)
    n = 48
    sp = SpaceSpec.s2tilde()
    for w in (0.5, -0.35 + 0.6j, 0.77j):
        cw = np.conj(w)
        one_minus = TruncatedSeries([1, -cw] + [0] * (n - 1))
        lg = log_series(one_minus, 0.0)
        z = TruncatedSeries.z(n)
        point_closed = 1 + 2 * cw * z + one_minus * lg
        deriv_closed = z - z * lg
        np.testing.assert_allclose(
            kernel(sp, KernelKind.POINT_EVAL, w, n).coeffs,
            point_closed.coeffs, atol=1e-12)
        np.testing.assert_allclose(
            kernel(sp, KernelKind.DERIV_EVAL, w, n).coeffs,
            deriv_closed.coeffs, atol=1e-12)


def test_bergman_derivative_kernel_closed_form():
    # (alpha+2) z / (1 - conj(w) z)^(alpha+3) against the generic formula
    n = 40
    for alpha in (0.0, 1.0, -0.5):
        sp = SpaceSpec.bergman(alpha)
        for w in (0.4, 0.2 - 0.55j):
            closed = (alpha + 2) * multiplier_g_alpha(w, alpha, n)
            got = kernel(sp, KernelKind.DERIV_EVAL, w, n)
            np.testing.assert_allclose(got.coeffs, closed.coeffs, atol=1e-12)


@settings(deadline=None, max_examples=25)
@given(
    st.integers(0, 5),
    st.floats(0.0, 0.8),
    st.floats(0.0, 2 * np.pi),
)
def test_reproducing_property_randomized(space_idx, r, theta):
    sp = ALL_SPACES[space_idx]
    w = r * np.exp(1j * theta)
    n = 32
    rng = np.random.default_rng(space_idx + 1)
    f = _random_poly(rng, 16, n)
    k = kernel(sp, KernelKind.POINT_EVAL, w, n)
    assert abs(inner_product(f, k, sp) - f(w)) <= 1e-12


# ---------------------------------------------------------------------
# Multipliers
# ---------------------------------------------------------------------


def test_multiplier_alpha_minus2_is_szego_type():
    # z/(1 - c z): coefficient of z^n is c^(n-1)
    c = 0.3 - 0.2j
    g = multiplier_g_alpha(c, -2.0, 10)
    want = np.zeros(11, dtype=complex)
    want[1:] = np.conj(c) ** np.arange(10)
    np.testing.assert_allclose(g.coeffs, want, rtol=1e-14)


def test_multiplier_alpha_minus1_squared_pole():
    # z/(1 - c z)^2: coefficient of z^n is n c^(n-1)
    c = 0.45
    g = multiplier_g_alpha(c, -1.0, 10)
    want = np.zeros(11, dtype=complex)
    want[1:] = np.arange(1, 11) * c ** np.arange(10)
    np.testing.assert_allclose(g.coeffs, want, rtol=1e-14)


def test_multiplier_at_origin_is_z():
    for alpha in (-2.0, -1.0, 0.0, 3.0):
        g = multiplier_g_alpha(0.0, alpha, 6)
        assert np.array_equal(g.coeffs, TruncatedSeries.z(6).coeffs)


# ---------------------------------------------------------------------
# Domain errors, parsing, serialization
# ---------------------------------------------------------------------


def test_kernel_outside_disk_rejected():
    with pytest.raises(DomainError):
        kernel(SpaceSpec.hardy(), KernelKind.POINT_EVAL, 1.0, 8)
    with pytest.raises(DomainError):
        multiplier_g_alpha(1.2, 0.0, 8)


def test_bergman_alpha_at_or_below_minus_one_rejected():
    with pytest.raises(DomainError):
        SpaceSpec.bergman(-1.0)
    with pytest.raises(DomainError):
        SpaceSpec("bergman")


@pytest.mark.parametrize("spelling", ["bergman:nan", "bergman:inf",
                                      "equiv:nan", "equiv:-inf"])
def test_non_finite_alpha_rejected(spelling):
    with pytest.raises(DomainError):
        parse_space(spelling)


def test_parse_space_spellings():
    assert parse_space("hardy") == SpaceSpec.hardy()
    assert parse_space("s2") == SpaceSpec.s2()
    assert parse_space("s2tilde") == SpaceSpec.s2tilde()
    assert parse_space("dirichlet") == SpaceSpec.dirichlet()
    assert parse_space("bergman:0.5") == SpaceSpec.bergman(0.5)
    assert parse_space("equiv:-1.5") == SpaceSpec.equivalent_weight(-1.5)
    with pytest.raises(DomainError):
        parse_space("bergman")
    with pytest.raises(DomainError):
        parse_space("hardy:1")
    with pytest.raises(DomainError):
        parse_space("blochspace")
    with pytest.raises(DomainError):
        parse_space("equiv:xyz")


def test_space_json_roundtrip():
    for sp in ALL_SPACES:
        back = SpaceSpec.from_json(sp.to_json())
        assert back == sp
    assert SpaceSpec.bergman(0.0).to_dict() == {"kind": "bergman", "alpha": 0.0}
    assert SpaceSpec.hardy().to_dict() == {"kind": "hardy"}


def test_norm_is_real_nonnegative():
    rng = np.random.default_rng(5)
    f = _random_poly(rng, 10, 20)
    for sp in ALL_SPACES:
        v = norm(f, sp)
        assert v >= 0
        assert abs(v ** 2 - inner_product(f, f, sp).real) <= 1e-10 * v ** 2
