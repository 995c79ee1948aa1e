"""Builders, weighted adjoints, norms, spectra, and matrix algebra of
operator matrices."""

import cmath

import mpmath
import numpy as np
import pytest

from holospace import (
    CertificationError,
    DegreeMismatchError,
    NumericalFailureError,
    PreconditionError,
    TruncatedSeries,
    UnsupportedOperationError,
)
import holospace.operators as operators
from holospace.maps import (
    MoebiusMap,
    MonomialMap,
    PolynomialMap,
    random_strict_moebius,
)
from holospace.operators import (
    FULL_SVD_MAX_DEGREE,
    OpMatrix,
    build_composition,
    build_D_phi,
    build_DC_phi,
    build_differentiation,
    build_multiplication,
    operator_norm,
    rank_from_singular_values,
    singular_values,
    spectrum,
    weighted_adjoint,
)
from holospace.spaces import KernelKind, SpaceSpec, inner_product, kernel

S2 = SpaceSpec.s2()
HARDY = SpaceSpec.hardy()


def _phi_prime_series(m, n):
    ext = m.series(n + 1)
    return TruncatedSeries(ext.coeffs[1:] * np.arange(1, n + 2))


# ---------------------------------------------------------------------
# Builders
# ---------------------------------------------------------------------


def test_composition_with_coordinate_is_identity():
    a = build_composition(MoebiusMap(1, 0, 0, 1), 12)
    assert np.array_equal(a.entries, np.eye(13))


def test_composition_columns_are_symbol_powers():
    m = MoebiusMap(2, 1, 1, 4)
    n = 16
    a = build_composition(m, n)
    phi = m.series(n)
    assert np.array_equal(a.entries[:, 0], np.eye(n + 1)[0])
    np.testing.assert_allclose(a.entries[:, 1], phi.coeffs, rtol=1e-15)
    np.testing.assert_allclose(a.entries[:, 3], (phi * phi * phi).coeffs,
                               rtol=1e-13, atol=1e-16)


def test_multiplication_is_lower_triangular_toeplitz():
    psi = TruncatedSeries([1, 2, 3, 0, 0])
    a = build_multiplication(psi, 4)
    want = np.array([
        [1, 0, 0, 0, 0],
        [2, 1, 0, 0, 0],
        [3, 2, 1, 0, 0],
        [0, 3, 2, 1, 0],
        [0, 0, 3, 2, 1],
    ], dtype=complex)
    assert np.array_equal(a.entries, want)


def test_multiplication_by_one_is_identity():
    a = build_multiplication(TruncatedSeries.one(8), 8)
    assert np.array_equal(a.entries, np.eye(9))


def test_differentiation_applies():
    d = build_differentiation(6)
    out = d.apply(TruncatedSeries([0, 0, 0.5, 0, 0, 0, 0]))
    assert np.array_equal(out.coeffs, TruncatedSeries.z(6).coeffs)


def test_D_phi_monomial_single_entry_columns():
    # phi = a z^2: column n carries n a^(n-1) at row 2(n-1)
    a0 = 0.4 - 0.3j
    m = MonomialMap(a0, 2)
    n = 14
    mat = build_D_phi(m, n).entries
    for col in range(1, n + 1):
        row = 2 * (col - 1)
        want = np.zeros(n + 1, dtype=complex)
        if row <= n:
            want[row] = col * a0 ** (col - 1)
        np.testing.assert_allclose(mat[:, col], want, rtol=1e-14)


def test_D_phi_equals_composition_times_differentiation():
    rng = np.random.default_rng(3)
    for _ in range(5):
        m = random_strict_moebius(rng)
        n = 24
        lhs = build_D_phi(m, n).entries
        rhs = (build_composition(m, n) @ build_differentiation(n)).entries
        np.testing.assert_allclose(lhs, rhs, atol=1e-13)


def test_D_phi_affine_strictly_upper_triangular():
    a = build_D_phi(MoebiusMap(0.4, 0.2, 0, 1), 20).entries
    assert np.all(np.abs(np.tril(a)) == 0)


def test_DC_phi_leibniz():
    rng = np.random.default_rng(5)
    n = 24
    for _ in range(5):
        m = random_strict_moebius(rng)
        lhs = build_DC_phi(m, n).entries
        phip = _phi_prime_series(m, n)
        rhs = (build_multiplication(phip, n) @ build_D_phi(m, n)).entries
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)


def test_DC_phi_bare_series_needs_one_extra_degree():
    phi = MoebiusMap(1, 0, 0, 2).series(16)
    with pytest.raises(PreconditionError):
        build_DC_phi(phi, 16)
    out = build_DC_phi(MoebiusMap(1, 0, 0, 2).series(17), 16)
    assert out.trunc_degree == 16


def test_composition_functoriality():
    # composing the symbols multiplies the matrices in reverse order
    rng = np.random.default_rng(9)
    n = 32
    for _ in range(3):
        m1 = random_strict_moebius(rng, sup_bound=0.7)
        m2 = random_strict_moebius(rng, sup_bound=0.7)
        composed = MoebiusMap(
            m1.a * m2.a + m1.b * m2.c,
            m1.a * m2.b + m1.b * m2.d,
            m1.c * m2.a + m1.d * m2.c,
            m1.c * m2.b + m1.d * m2.d,
        )
        lhs = build_composition(composed, n).entries
        rhs = (build_composition(m2, n) @ build_composition(m1, n)).entries
        k = n // 2
        np.testing.assert_allclose(lhs[:k, :k], rhs[:k, :k], atol=1e-11)


def test_builders_reject_uncertified_symbols():
    with pytest.raises(CertificationError):
        build_composition(TruncatedSeries([0, 1.5, 0, 0]), 3)
    with pytest.raises(PreconditionError):
        build_composition(TruncatedSeries([0, 0.5]), 8)


# ---------------------------------------------------------------------
# Power table against a 50-digit oracle
# ---------------------------------------------------------------------


def _strict_moebius(pole: float) -> MoebiusMap:
    """w0 + A (z - p)/(1 - conj(p) z) with |p| = pole and sup-norm 0.7,
    the construction of random_strict_moebius."""
    amp = 0.3 * cmath.exp(0.7j)
    w0 = 0.4 * cmath.exp(2.1j)
    p = pole * cmath.exp(1.3j)
    return MoebiusMap(amp - w0 * p.conjugate(), w0 - amp * p,
                      -p.conjugate(), 1.0)


def _mp_powers(m: MoebiusMap, rows: int, cols: int) -> list:
    """P[k][j] = z^k coefficient of phi^j at 50 digits, from
    (c z + d) phi^j = (a z + b) phi^(j-1) solved for the z^k coefficient."""
    with mpmath.workdps(50):
        a, b, c, d = (mpmath.mpc(v) for v in (m.a, m.b, m.c, m.d))
        p = [[mpmath.mpc(0)] * cols for _ in range(rows)]
        p[0][0] = mpmath.mpc(1)
        for j in range(1, cols):
            for k in range(rows):
                acc = b * p[k][j - 1]
                if k:
                    acc += a * p[k - 1][j - 1] - c * p[k - 1][j]
                p[k][j] = acc / d
        return [[complex(v) for v in row] for row in p]


def _column_relative_error(got: np.ndarray, want: np.ndarray) -> float:
    scale = np.abs(want).max(axis=0)
    assert np.all(got[:, scale == 0] == 0)
    live = scale > 0
    return float((np.abs(got - want)[:, live].max(axis=0) / scale[live]).max())


@pytest.mark.parametrize("pole", [0.3, 0.45, 0.65])
def test_builders_match_mpmath_power_table(pole):
    # one symbol per |p| band of the large-N benchmark; |p| decides how
    # deep the coefficients of phi^j fall
    m = _strict_moebius(pole)
    assert m.is_strict()
    n = 96
    p = np.array(_mp_powers(m, n + 2, n + 1))
    # the first column of the oracle is the closed-form Taylor series of
    # (az + b)/(cz + d), which pins the num/den order independently
    k = np.arange(1, n + 2)
    taylor = (m.a * m.d - m.b * m.c) * (-m.c) ** (k - 1) / m.d ** (k + 1)
    np.testing.assert_allclose(p[1:, 1], taylor, rtol=1e-14)
    assert p[0, 1] == pytest.approx(m.b / m.d, rel=1e-15)

    want_c = p[: n + 1]
    want_d = np.zeros((n + 1, n + 1), dtype=complex)
    want_d[:, 1:] = p[: n + 1, :n] * np.arange(1, n + 1)
    want_dc = p[1:] * np.arange(1, n + 2)[:, None]
    for got, want in ((build_composition(m, n).entries, want_c),
                      (build_D_phi(m, n).entries, want_d),
                      (build_DC_phi(m, n).entries, want_dc)):
        assert _column_relative_error(got, want) <= 1e-14


@pytest.mark.parametrize("a,power", [(0.7 - 0.4j, 1), (0.93 + 0.1j, 2),
                                     (-0.5 + 0.77j, 3)])
def test_monomial_power_table_is_exact(a, power):
    # phi = a z^M: P[M j, j] = a^j, every other entry exactly zero
    n = 96
    got = build_composition(MonomialMap(a, power), n).entries
    want = np.zeros((n + 1, n + 1), dtype=complex)
    value = 1 + 0j
    for j in range(n + 1):
        if power * j <= n:
            want[power * j, j] = value
        value *= a
    assert np.array_equal(got, want)


# ---------------------------------------------------------------------
# Norms on both sides of the full-SVD / Lanczos crossover
# ---------------------------------------------------------------------


def _svd_norm(a: OpMatrix) -> float:
    return float(np.linalg.svd(operators._weighted(a), compute_uv=False)[0])


@pytest.mark.parametrize("n", [FULL_SVD_MAX_DEGREE // 8,
                               FULL_SVD_MAX_DEGREE + 1])
def test_operator_norm_matches_full_svd(n):
    m = _strict_moebius(0.45)
    cases = [build_D_phi(m, n, domain=S2),
             build_composition(MonomialMap(0.6 + 0.3j, 2), n,
                               domain=HARDY, codomain=S2)]
    for a in cases:
        want = _svd_norm(a)
        assert abs(operator_norm(a) - want) <= 1e-12 * want


@pytest.mark.parametrize("n", [FULL_SVD_MAX_DEGREE // 8,
                               FULL_SVD_MAX_DEGREE + 1])
def test_operator_norm_tied_and_zero(n):
    # phi = z/2: DC_phi has singular values j / 2^j, so sigma_1 = sigma_2
    tied = build_DC_phi(MoebiusMap(1, 0, 0, 2), n, domain=HARDY)
    assert abs(operator_norm(tied) - 0.5) <= 1e-12 * 0.5
    # a constant symbol makes DC_phi the zero operator
    zero = build_DC_phi(PolynomialMap([0.3]), n, domain=HARDY)
    assert operator_norm(zero) == 0.0


def test_operator_norm_above_crossover_is_repeatable():
    a = build_DC_phi(_strict_moebius(0.3), FULL_SVD_MAX_DEGREE + 1,
                     domain=HARDY)
    assert operator_norm(a) == operator_norm(a)


def test_operator_norm_above_crossover_rejects_non_finite_weights():
    a = build_D_phi(MonomialMap(0.5, 1), FULL_SVD_MAX_DEGREE + 1,
                    domain=SpaceSpec.equivalent_weight(-300))
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(NumericalFailureError):
        operator_norm(a)


# ---------------------------------------------------------------------
# The tail rule and the exact path for one nonzero per row and column
# ---------------------------------------------------------------------


@pytest.mark.parametrize("power", [1, 2, 3])
@pytest.mark.parametrize("r", [0.3, 0.95])
def test_monomial_singular_values_are_exact(r, power):
    m = MonomialMap(r * cmath.exp(0.7j), power)
    for a in (build_D_phi(m, 96, domain=S2),
              build_composition(m, 96, domain=HARDY, codomain=S2),
              build_DC_phi(m, 96, domain=HARDY)):
        want = np.linalg.svd(operators._weighted(a), compute_uv=False)
        got = singular_values(a)
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= 1e-13 * want[0]


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_one_per_line_non_finite_fails_closed(bad):
    entries = np.diag(np.arange(1.0, 10.0))[[4, 0, 7, 2, 8, 1, 3, 6, 5]]
    entries[2, 7] = bad
    a = OpMatrix(entries, HARDY, HARDY, "permuted-diagonal")
    with np.errstate(invalid="ignore"):
        with pytest.raises(NumericalFailureError):
            singular_values(a)
        with pytest.raises(NumericalFailureError):
            operator_norm(a)


@pytest.mark.parametrize("alpha", [-300.0, 300.0])
def test_one_per_line_zeros_under_overflowing_weights_fail_closed(alpha):
    # the nonzeros sit where the weights are finite and positive, but past
    # degree ~115 equiv:-300 weights are inf and equiv:300 weights are 0,
    # so the zeros of W there are 0 * inf or 0 / 0, as LAPACK would see
    sp = SpaceSpec.equivalent_weight(alpha)
    entries = np.zeros((201, 201))
    entries[np.arange(60), np.arange(60)] = np.arange(1.0, 61.0)
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        a = OpMatrix(entries, sp, sp, "short-diagonal")
        with pytest.raises(NumericalFailureError):
            singular_values(a)


@pytest.mark.parametrize("scale", [1e-200, 1e200])
def test_operator_norm_is_scale_invariant(scale):
    # the squared entries would underflow or overflow without rescaling
    for a in (build_DC_phi(_strict_moebius(0.45), 128, domain=HARDY),
              build_D_phi(MonomialMap(0.9, 2), 128, domain=S2)):
        want = scale * operator_norm(a)
        scaled = OpMatrix(a.entries * scale, a.domain, a.codomain, a.label)
        assert abs(operator_norm(scaled) - want) <= 1e-13 * want


@pytest.mark.parametrize("where", ["row", "column"])
def test_tail_rule_keeps_a_dominant_last_line(where):
    n = 64
    entries = np.diag(0.5 ** np.arange(n + 1))
    if where == "row":
        entries[n, 1] = 5.0
    else:
        entries[1, n] = 5.0
    a = OpMatrix(entries, HARDY, HARDY, "geometric")
    want = _svd_norm(a)
    assert want > 5
    assert abs(operator_norm(a) - want) <= 1e-13 * want


def _count_singular_values(monkeypatch):
    calls = []
    original = operators.singular_values

    def counted(a):
        calls.append(a.trunc_degree)
        return original(a)

    monkeypatch.setattr(operators, "singular_values", counted)
    return calls


def _dense_block(kind: str) -> OpMatrix:
    if kind == "toeplitz-s2":
        # banded Toeplitz in S2: no negligible tail, two nonzeros per line
        return build_multiplication(TruncatedSeries([1.0, -0.5, 0.3]), 800,
                                    domain=S2)
    # a pole near the circle leaves the Moebius table without a tail
    return build_DC_phi(_strict_moebius(0.99), FULL_SVD_MAX_DEGREE + 1,
                        domain=HARDY)


@pytest.mark.parametrize("kind", ["toeplitz-s2", "moebius-pole-0.99"])
def test_dense_block_above_crossover_uses_lanczos(monkeypatch, kind):
    a = _dense_block(kind)
    calls = _count_singular_values(monkeypatch)
    got = operator_norm(a)
    assert calls == []
    want = _svd_norm(a)
    assert abs(got - want) <= 1e-12 * want
    assert operator_norm(a) == got


def test_clustered_dense_block_falls_back_to_full_svd(monkeypatch):
    # over the Hardy space the top singular values of a Toeplitz matrix
    # cluster near sup |psi|, so Lanczos stops after three restarts
    a = build_multiplication(TruncatedSeries([1.0, -0.5, 0.3]),
                             FULL_SVD_MAX_DEGREE + 1, domain=HARDY)
    calls = _count_singular_values(monkeypatch)
    got = operator_norm(a)
    assert calls == [FULL_SVD_MAX_DEGREE + 1]
    want = _svd_norm(a)
    assert abs(got - want) <= 1e-12 * want


def test_monomial_norm_at_large_n_goes_through_singular_values(monkeypatch):
    m = MonomialMap(0.95, 3)
    a = build_D_phi(m, 1024, domain=S2)
    calls = _count_singular_values(monkeypatch)
    # one nonzero per line: the exact path, without a Lanczos attempt
    monkeypatch.setattr(operators, "_lanczos_sigma_1", None)
    got = operator_norm(a)
    assert len(calls) == 1
    assert abs(got - m.norm_formula()) <= 1e-13 * got


def _mp_monomial_norm(r: float, power: int):
    """max(1, max_n M n r^n) in 50 digits, by brute force over n; n r^n
    decreases once n > 1/(1 - r)."""
    with mpmath.workdps(50):
        rr = mpmath.mpf(r)
        last = int(4 / (1 - r)) + 8
        return max([mpmath.mpf(1)]
                   + [power * n * rr ** n for n in range(1, last)])


@pytest.mark.parametrize("power", [1, 2, 3])
def test_norm_formula_against_mpmath_at_the_nu_jumps(power):
    # nu jumps at r = 1 - 1/q; 3^(-1/3) and 1/M (for M > 1) are where
    # two terms tie
    radii = [1 - 1 / q + d for q in range(2, 11) for d in (-1e-9, 1e-9)]
    radii += [t + d for t in (3.0 ** (-1 / 3), 1 / power) if t < 1
              for d in (-1e-9, 0.0, 1e-9)]
    for r in radii:
        m = MonomialMap(r, power)
        got = operator_norm(build_D_phi(m, m.required_trunc_degree()))
        want = _mp_monomial_norm(r, power)
        assert abs(got - want) <= 1e-13 * want, (r, power)


# ---------------------------------------------------------------------
# Weighted adjoints
# ---------------------------------------------------------------------


def test_hardy_adjoint_is_conjugate_transpose():
    m = MoebiusMap(2, 1, 0, 4)
    a = build_D_phi(m, 12, domain=HARDY)
    adj = weighted_adjoint(a)
    assert np.array_equal(adj.entries, a.entries.conj().T)


def test_adjoint_involution():
    m = MoebiusMap(2, 1, 1, 4)
    for sp in (S2, SpaceSpec.s2tilde(), SpaceSpec.bergman(0.0)):
        a = build_D_phi(m, 16, domain=sp)
        back = weighted_adjoint(weighted_adjoint(a))
        np.testing.assert_allclose(back.entries, a.entries, atol=1e-14)


def test_adjoint_defining_relation():
    rng = np.random.default_rng(17)
    n = 24
    m = random_strict_moebius(rng)
    for sp in (S2, SpaceSpec.s2tilde(), SpaceSpec.bergman(1.0),
               SpaceSpec.dirichlet()):
        a = build_D_phi(m, n, domain=sp)
        astar = weighted_adjoint(a)
        for _ in range(13):
            f = TruncatedSeries(rng.standard_normal(n + 1)
                                + 1j * rng.standard_normal(n + 1))
            g = TruncatedSeries(rng.standard_normal(n + 1)
                                + 1j * rng.standard_normal(n + 1))
            lhs = inner_product(a.apply(f), g, sp)
            rhs = inner_product(f, astar.apply(g), sp)
            fn = np.sqrt(inner_product(f, f, sp).real)
            gn = np.sqrt(inner_product(g, g, sp).real)
            assert abs(lhs - rhs) <= 1e-11 * fn * gn


def test_adjoint_sends_point_kernel_to_derivative_kernel():
    # pairing <f, adj(D) K_w> = <D f, K_w> = f'(phi(w)) identifies
    # adj(D) K_w with the derivative kernel at phi(w)
    rng = np.random.default_rng(23)
    n = 64
    for sp in (S2, SpaceSpec.s2tilde(), SpaceSpec.bergman(0.0)):
        for _ in range(4):
            m = random_strict_moebius(rng)
            a = weighted_adjoint(build_D_phi(m, n, domain=sp))
            w = 0.6 * rng.uniform() * np.exp(2j * np.pi * rng.uniform())
            got = a.apply(kernel(sp, KernelKind.POINT_EVAL, w, n))
            want = kernel(sp, KernelKind.DERIV_EVAL, m(w), n)
            half = n // 2 + 1
            np.testing.assert_allclose(got.coeffs[:half], want.coeffs[:half],
                                       atol=1e-10)


def test_toeplitz_adjoint_scales_point_kernel():
    rng = np.random.default_rng(29)
    n = 64
    psi = TruncatedSeries([0.3, -0.2, 0.5j, 0.1, 0, 0][:6])
    psi_full = TruncatedSeries(np.concatenate([psi.coeffs,
                                               np.zeros(n - 5, dtype=complex)]))
    for sp in (S2, SpaceSpec.bergman(0.0)):
        astar = weighted_adjoint(build_multiplication(psi_full, n, domain=sp))
        for _ in range(5):
            w = 0.6 * rng.uniform() * np.exp(2j * np.pi * rng.uniform())
            got = astar.apply(kernel(sp, KernelKind.POINT_EVAL, w, n))
            want = np.conj(psi_full(w)) * kernel(sp, KernelKind.POINT_EVAL, w, n)
            half = n // 2 + 1
            np.testing.assert_allclose(got.coeffs[:half], want.coeffs[:half],
                                       atol=1e-10)


def test_cross_space_adjoint_unsupported():
    a = build_composition(MoebiusMap(1, 0, 0, 2), 8, domain=HARDY, codomain=S2)
    with pytest.raises(UnsupportedOperationError):
        weighted_adjoint(a)


# ---------------------------------------------------------------------
# Norms, spectra, ranks
# ---------------------------------------------------------------------


def test_identity_norm_and_spectrum():
    for sp in (S2, SpaceSpec.bergman(0.5), SpaceSpec.dirichlet()):
        a = build_composition(MoebiusMap(1, 0, 0, 1), 10, domain=sp)
        assert abs(operator_norm(a) - 1) < 1e-14
        np.testing.assert_allclose(spectrum(a), np.ones(11), atol=1e-14)


def test_norm_of_dilation_D_phi_matches_formula():
    # phi = 0.8 z: the weighted matrix is diagonal-like with entries
    # (n-1) 0.8^(n-1); the peak 5 * 0.8^5 = 1.6384 appears once n >= 6
    m = MonomialMap(0.8, 1)
    a = build_D_phi(m, 8, domain=S2)
    assert abs(operator_norm(a) - 1.6384) < 1e-12


def test_spectrum_of_square_monomial():
    a = build_D_phi(MonomialMap(0.3, 2), 24, domain=S2)
    eig = spectrum(a)
    assert np.min(np.abs(eig - 0.6)) < 1e-9
    others = np.sort(np.abs(eig))[:-1]
    assert np.all(others < 1e-9)


def test_unboundedness_signature_for_differentiation_symbol():
    norms = {}
    for n in (64, 256):
        a = build_D_phi(MoebiusMap(1, 0, 0, 1), n, domain=S2)
        norms[n] = operator_norm(a)
    assert norms[256] / norms[64] > 1.5


def test_compactness_signature_strict_symbol():
    a = build_D_phi(MoebiusMap(2, 1, 0, 4), 256, domain=S2)
    s = singular_values(a)
    assert s[49] / s[0] < 1e-8
    k = np.arange(5, 50)
    slope = np.polyfit(k, np.log(s[5:50]), 1)[0]
    assert slope < 0


def test_cross_norm_stable_for_dilation():
    vals = {}
    for n in (64, 256):
        a = build_composition(MoebiusMap(1, 0, 0, 2), n,
                              domain=HARDY, codomain=S2)
        vals[n] = operator_norm(a)
    assert abs(vals[256] - vals[64]) / vals[64] < 0.01


def test_constant_symbol_composition_is_rank_one():
    a = build_composition(TruncatedSeries([0.3] + [0] * 16), 16,
                          domain=HARDY, codomain=S2)
    assert rank_from_singular_values(singular_values(a), 1e-12) == 1
    assert np.isfinite(operator_norm(a))


def test_numerical_rank_zero_matrix():
    a = OpMatrix(np.zeros((5, 5)), S2, S2, "null")
    assert rank_from_singular_values(singular_values(a), 1e-10) == 0


# ---------------------------------------------------------------------
# Matrix algebra plumbing
# ---------------------------------------------------------------------


def test_matmul_space_mismatch_rejected():
    a = build_composition(MoebiusMap(1, 0, 0, 2), 8, domain=HARDY, codomain=S2)
    b = build_composition(MoebiusMap(1, 0, 0, 2), 8, domain=HARDY, codomain=S2)
    with pytest.raises(UnsupportedOperationError):
        a @ b
    with pytest.raises(UnsupportedOperationError):
        a - build_composition(MoebiusMap(1, 0, 0, 2), 8, domain=S2)


def test_apply_degree_mismatch():
    a = build_differentiation(8)
    with pytest.raises(DegreeMismatchError):
        a.apply(TruncatedSeries.one(9))


def test_entries_read_only():
    a = build_differentiation(4)
    with pytest.raises(ValueError):
        a.entries[0, 0] = 3


def test_read_only_entries_are_shared_and_writeable_ones_copied():
    a = build_differentiation(6)
    block = OpMatrix(a.entries[:3, :3], a.domain, a.codomain, a.label)
    assert np.shares_memory(block.entries, a.entries)
    raw = np.eye(4)
    b = OpMatrix(raw, S2, S2, "eye")
    raw[0, 0] = 5
    assert b.entries[0, 0] == 1
    assert not b.entries.flags.writeable
