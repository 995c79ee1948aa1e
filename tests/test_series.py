"""Truncated series arithmetic against exact rational oracles."""

import json
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from holospace import (
    DegreeMismatchError,
    DomainError,
    SingularInputError,
    TruncatedSeries,
    binomial_kernel,
    exp_series,
    log_series,
)

# ---------------------------------------------------------------------
# Exact complex-rational oracles.  Coefficients are (Fraction, Fraction)
# pairs; these never touch floating point until the final comparison.
# ---------------------------------------------------------------------


def _cadd(a, b):
    return (a[0] + b[0], a[1] + b[1])


def _cmul(a, b):
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def _cdiv(a, b):
    den = b[0] * b[0] + b[1] * b[1]
    return ((a[0] * b[0] + a[1] * b[1]) / den, (a[1] * b[0] - a[0] * b[1]) / den)


def _conv_exact(f, g):
    n = len(f) - 1
    out = []
    for k in range(n + 1):
        acc = (Fraction(0), Fraction(0))
        for j in range(k + 1):
            acc = _cadd(acc, _cmul(f[j], g[k - j]))
        out.append(acc)
    return out


def _div_exact(f, g):
    n = len(f) - 1
    h = [_cdiv(f[0], g[0])]
    for k in range(1, n + 1):
        acc = f[k]
        for j in range(1, k + 1):
            acc = _cadd(acc, _cmul((-g[j][0], -g[j][1]), h[k - j]))
        h.append(_cdiv(acc, g[0]))
    return h


def _compose_exact(f, g):
    n = len(f) - 1
    power = [(Fraction(1), Fraction(0))] + [(Fraction(0), Fraction(0))] * n
    acc = [_cmul(f[0], power[0])] + [(Fraction(0), Fraction(0))] * n
    for k in range(1, n + 1):
        power = _conv_exact(power, g)
        for i in range(n + 1):
            acc[i] = _cadd(acc[i], _cmul(f[k], power[i]))
    return acc


def _to_complex(pairs):
    return np.array([complex(p[0], p[1]) for p in pairs])


def _rational_series(rng, n, denom=16, span=16):
    pairs = [
        (Fraction(int(rng.integers(-span, span + 1)), denom),
         Fraction(int(rng.integers(-span, span + 1)), denom))
        for _ in range(n + 1)
    ]
    return pairs


def _as_series(pairs):
    return TruncatedSeries(_to_complex(pairs))


# ---------------------------------------------------------------------
# Multiplication
# ---------------------------------------------------------------------


def test_mul_binomial_square():
    f = TruncatedSeries([1, 1, 0])
    p = f * f
    assert np.array_equal(p.coeffs, np.array([1, 2, 1], dtype=complex))


def test_mul_identity_element():
    f = TruncatedSeries([2.0, -1.5, 0.25, 3j])
    assert np.array_equal((f * TruncatedSeries.one(3)).coeffs, f.coeffs)


def test_mul_telescoping_geometric():
    n = 8
    geom = TruncatedSeries(np.ones(n + 1))
    onemz = TruncatedSeries([1, -1] + [0] * (n - 1))
    prod = geom * onemz
    assert np.array_equal(prod.coeffs, TruncatedSeries.one(n).coeffs)


def test_mul_matches_exact_rational_oracle():
    rng = np.random.default_rng(101)
    for _ in range(5):
        f = _rational_series(rng, 12)
        g = _rational_series(rng, 12)
        want = _to_complex(_conv_exact(f, g))
        got = (_as_series(f) * _as_series(g)).coeffs
        np.testing.assert_allclose(got, want, rtol=1e-13, atol=1e-15)


def test_mul_degree_mismatch():
    with pytest.raises(DegreeMismatchError):
        TruncatedSeries([1, 2]) * TruncatedSeries([1, 2, 3])


@given(
    st.lists(st.integers(-64, 64), min_size=9, max_size=9),
    st.lists(st.integers(-64, 64), min_size=9, max_size=9),
)
def test_mul_dyadic_inputs_exact(fa, ga):
    # dyadic coefficients keep the whole convolution inside exact
    # double-precision arithmetic, so equality must be bitwise
    f = [(Fraction(k, 64), Fraction(0)) for k in fa]
    g = [(Fraction(k, 64), Fraction(0)) for k in ga]
    want = _to_complex(_conv_exact(f, g))
    got = (_as_series(f) * _as_series(g)).coeffs
    assert np.array_equal(got, want)


# ---------------------------------------------------------------------
# Derivative / antiderivative
# ---------------------------------------------------------------------


def test_derivative_monomial():
    f = TruncatedSeries([0, 0, 0.5])
    d = f.derivative()
    assert np.array_equal(d.coeffs, np.array([0, 1, 0], dtype=complex))
    assert d.top_dropped


def test_derivative_constant():
    d = TruncatedSeries.constant(7.0, 4).derivative()
    assert np.array_equal(d.coeffs, np.zeros(5, dtype=complex))


def test_derivative_termwise():
    n = 10
    c = np.zeros(n + 1, dtype=complex)
    c[1:] = 1.0 / np.arange(1, n + 1)
    d = TruncatedSeries(c).derivative()
    want = np.ones(n + 1, dtype=complex)
    want[n] = 0.0
    np.testing.assert_allclose(d.coeffs, want, rtol=1e-15)


def test_antiderivative_basics():
    assert np.array_equal(
        TruncatedSeries.one(3).antiderivative().coeffs,
        TruncatedSeries.z(3).coeffs,
    )
    np.testing.assert_allclose(
        TruncatedSeries.z(3).antiderivative().coeffs,
        np.array([0, 0, 0.5, 0], dtype=complex),
    )


def test_antiderivative_geometric():
    n, c = 9, 0.5
    geom = TruncatedSeries(c ** np.arange(n + 1))
    got = geom.antiderivative()
    want = np.zeros(n + 1, dtype=complex)
    want[1:] = c ** np.arange(n) / np.arange(1, n + 1)
    np.testing.assert_allclose(got.coeffs, want, rtol=1e-15)


@given(st.lists(st.integers(-64, 64), min_size=6, max_size=12))
def test_derivative_of_antiderivative_restores(fa):
    f = TruncatedSeries(np.array(fa, dtype=complex) / 64)
    back = f.antiderivative().derivative()
    n = f.trunc_degree
    # divide by k then multiply by k costs at most one ulp per entry
    np.testing.assert_allclose(back.coeffs[:n], f.coeffs[:n], rtol=1e-15, atol=0)
    assert back.coeffs[n] == 0


# ---------------------------------------------------------------------
# Composition
# ---------------------------------------------------------------------


def test_compose_square_with_dilation():
    a = 0.5 + 0.25j
    f = TruncatedSeries.monomial(2, 4)
    g = TruncatedSeries.monomial(1, 4, scale=a)
    got = f.compose(g)
    want = np.zeros(5, dtype=complex)
    want[2] = a * a
    np.testing.assert_allclose(got.coeffs, want, rtol=1e-15)


def test_compose_with_coordinate_is_identity():
    f = TruncatedSeries([1.0, -2.0, 0.5j, 3.0, 0.0])
    assert np.array_equal(f.compose(TruncatedSeries.z(4)).coeffs, f.coeffs)


def test_compose_cube_with_halfplane_map():
    # inner = z/(2-z) = sum z^n/2^n (n >= 1); cube of it is
    # sum C(n+2,2) z^(n+3)/2^(n+3), frozen below through degree 6
    n = 6
    inner = TruncatedSeries(np.concatenate([[0.0], 0.5 ** np.arange(1, n + 1)]))
    got = TruncatedSeries.monomial(3, n).compose(inner)
    frozen = np.array([0, 0, 0, 0.125, 0.1875, 0.1875, 0.15625], dtype=complex)
    np.testing.assert_allclose(got.coeffs, frozen, rtol=1e-15)


def test_compose_matches_exact_rational_oracle():
    rng = np.random.default_rng(202)
    for _ in range(3):
        f = _rational_series(rng, 10)
        g = _rational_series(rng, 10, denom=32, span=8)
        want = _to_complex(_compose_exact(f, g))
        got = _as_series(f).compose(_as_series(g)).coeffs
        np.testing.assert_allclose(got, want, rtol=1e-13, atol=1e-13)


# ---------------------------------------------------------------------
# Division
# ---------------------------------------------------------------------


def test_div_roundtrip_geometric():
    n = 8
    onemz = TruncatedSeries([1, -0.5] + [0] * (n - 1))
    q = TruncatedSeries.one(n) / onemz
    np.testing.assert_allclose(q.coeffs, 0.5 ** np.arange(n + 1), rtol=1e-14)
    back = q * onemz
    np.testing.assert_allclose(back.coeffs, TruncatedSeries.one(n).coeffs, atol=1e-15)


def test_div_matches_exact_rational_oracle():
    rng = np.random.default_rng(303)
    for _ in range(5):
        f = _rational_series(rng, 12)
        g = _rational_series(rng, 12)
        g[0] = (Fraction(3, 2), Fraction(1, 4))  # keep the division well away from 0
        want = _to_complex(_div_exact(f, g))
        got = (_as_series(f) / _as_series(g)).coeffs
        np.testing.assert_allclose(got, want, rtol=1e-13, atol=1e-13)


def test_div_zero_constant_term_raises():
    with pytest.raises(SingularInputError):
        TruncatedSeries.one(3) / TruncatedSeries.z(3)


# ---------------------------------------------------------------------
# log / exp
# ---------------------------------------------------------------------


def test_log_mercator():
    n, c = 10, 0.7
    f = TruncatedSeries([1, -c] + [0] * (n - 1))
    got = log_series(f, 0.0)
    want = np.zeros(n + 1, dtype=complex)
    want[1:] = -(c ** np.arange(1, n + 1)) / np.arange(1, n + 1)
    np.testing.assert_allclose(got.coeffs, want, rtol=1e-14, atol=1e-16)


def test_log_of_constant():
    d = -1.5 + 2.0j
    got = log_series(TruncatedSeries.constant(d, 5), np.log(complex(d)))
    want = np.zeros(6, dtype=complex)
    want[0] = np.log(abs(d)) + 1j * np.angle(d)
    np.testing.assert_allclose(got.coeffs, want, rtol=1e-15, atol=0)


def test_log_additivity():
    n = 16
    f = TruncatedSeries([1, -0.3] + [0] * (n - 1))
    g = TruncatedSeries([1, -0.4] + [0] * (n - 1))
    lhs = log_series(f * g, 0.0)
    rhs = log_series(f, 0.0) + log_series(g, 0.0)
    np.testing.assert_allclose(lhs.coeffs, rhs.coeffs, atol=1e-14)


def test_log_zero_constant_raises():
    with pytest.raises(SingularInputError):
        log_series(TruncatedSeries.z(4), 0.0)


@settings(deadline=None)
@given(
    st.lists(st.tuples(st.integers(-19, 19), st.integers(-19, 19)),
             min_size=13, max_size=13),
    st.integers(32, 128),
    st.integers(-31, 31),
)
def test_exp_log_roundtrip(tail, r_num, ang_num):
    # f has |f(0)| in [0.5, 2] and small higher coefficients
    f0 = (r_num / 64.0) * np.exp(1j * np.pi * ang_num / 32.0)
    coeffs = np.array([complex(a, b) / 64.0 for a, b in tail])
    coeffs[0] = f0
    f = TruncatedSeries(coeffs)
    back = exp_series(log_series(f, np.log(f0)))
    np.testing.assert_allclose(back.coeffs, f.coeffs, rtol=1e-12, atol=1e-13)


def test_exp_of_zero_is_one():
    assert np.array_equal(exp_series(TruncatedSeries.zero(6)).coeffs,
                          TruncatedSeries.one(6).coeffs)


# ---------------------------------------------------------------------
# binomial_kernel
# ---------------------------------------------------------------------


def test_binomial_kernel_geometric():
    got = binomial_kernel(0.5, 1, 4)
    assert np.array_equal(got.coeffs,
                          np.array([1, 0.5, 0.25, 0.125, 0.0625], dtype=complex))


def test_binomial_kernel_geometric_squared():
    c, n = 0.4 + 0.3j, 12
    got = binomial_kernel(c, 2, n)
    want = (np.arange(n + 1) + 1) * c ** np.arange(n + 1)
    np.testing.assert_allclose(got.coeffs, want, rtol=1e-14)


def test_binomial_kernel_modulus_raises():
    with pytest.raises(DomainError):
        binomial_kernel(1.0, 2, 4)


# ---------------------------------------------------------------------
# Evaluation, serialization, value semantics
# ---------------------------------------------------------------------


def test_evaluate_horner():
    f = TruncatedSeries([1, 2, 3])
    z = 0.5 - 0.25j
    assert abs(f(z) - (1 + 2 * z + 3 * z * z)) < 1e-15


def test_json_roundtrip():
    f = TruncatedSeries([1.5, -2j, 0.25 + 0.125j])
    back = TruncatedSeries.from_json(f.to_json())
    assert back.trunc_degree == f.trunc_degree
    assert np.array_equal(back.coeffs, f.coeffs)
    parsed = json.loads(f.to_json())
    assert parsed["trunc_degree"] == 2
    assert parsed["coeffs"][1] == [0.0, -2.0]
    assert not back.top_dropped
    d = TruncatedSeries([1, 2, 3]).derivative()
    back = TruncatedSeries.from_dict(d.to_dict())
    assert back.top_dropped
    assert np.array_equal(back.coeffs, d.coeffs)
    # dicts written without the flag still load, unflagged
    legacy = {"trunc_degree": 1, "coeffs": [[1, 0], [2, 0]]}
    assert not TruncatedSeries.from_dict(legacy).top_dropped


def test_json_length_mismatch_rejected():
    with pytest.raises(ValueError):
        TruncatedSeries.from_dict({"trunc_degree": 3, "coeffs": [[1, 0]]})


def test_coeffs_are_read_only():
    f = TruncatedSeries([1, 2, 3])
    with pytest.raises(ValueError):
        f.coeffs[0] = 5


def test_scalar_arithmetic():
    f = TruncatedSeries([1, 2])
    np.testing.assert_allclose((2 * f).coeffs, [2, 4])
    np.testing.assert_allclose((f + 1).coeffs, [2, 2])
    np.testing.assert_allclose((1 - f).coeffs, [0, -2])
    np.testing.assert_allclose((f / 2).coeffs, [0.5, 1])


def test_scalar_over_series_is_reciprocal():
    # 1/(2 - z) has coefficients 2^(-k-1)
    f = 1 / (2 - TruncatedSeries.z(6))
    np.testing.assert_allclose(
        f.coeffs, [0.5 ** (k + 1) for k in range(7)], rtol=1e-15)
    with pytest.raises(SingularInputError):
        1 / TruncatedSeries.z(4)


def test_truncate_is_explicit_and_checked():
    f = TruncatedSeries([1, 2, 3, 4])
    assert f.truncate(1).trunc_degree == 1
    with pytest.raises(DegreeMismatchError):
        f.truncate(9)


def test_top_dropped_flag_is_sticky():
    f = TruncatedSeries([0, 1, 2]).derivative()
    assert (f * TruncatedSeries.one(2)).top_dropped
    assert (f + TruncatedSeries.zero(2)).top_dropped
    assert not TruncatedSeries([1, 2, 3]).top_dropped
