"""Dense operator matrices in the monomial basis.

Builders produce raw coefficient-space matrices: entry (i, j) is the
z^i coefficient of the operator applied to z^j.  Weights enter at a
single similarity point inside norm, singular value, and adjoint
routines, never inside the builders.

Truncation policy: the composition, D_phi and DC_phi builders read
their columns off one power table P[:, j] = phi^j, exact through its
last row, so each stored entry equals the true infinite-matrix entry.
With phi = num/den (coefficients from degree 0 up), each column solves
den * P[:, j] = num * P[:, j-1] by a short convolution and, for the
Moebius den, a lower-bidiagonal solve.

    Moebius (az + b)/(cz + d)     num = (b, a)           den = (d, c)
    monomial a z^M                num = a z^M            den = 1
    polynomial, bare series       num = coefficients     den = 1

Products of truncations are then exact wherever a triangular factor
confines the contamination; theorem-level checks compare top-left
blocks for that reason.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg.blas import ztbsv

from .errors import (
    DegreeMismatchError,
    NumericalFailureError,
    PreconditionError,
    UnsupportedOperationError,
)
from .maps import MoebiusMap, PolynomialMap
from .series import TruncatedSeries
from .spaces import SpaceSpec

#: largest degree of a block whose norm is read off singular_values alone;
#: above it a dense block first tries Lanczos for sigma_1 (crossover sweep
#: in CHANGES.md)
FULL_SVD_MAX_DEGREE = 768

#: relative Frobenius mass of the rows and columns that operator_norm
#: drops before it takes sigma_1 (tail rule in its docstring)
TAIL_TOL = 2.0 ** -60


@dataclass(frozen=True)
class OpMatrix:
    """(N+1)x(N+1) complex matrix tagged with domain and codomain spaces.

    The entries are read-only.  A read-only complex array is taken as it
    is, not copied, so OpMatrix(b.entries[:k, :k], ...) shares b's
    entries; whoever passes one must not change it afterwards.  Any other
    input is copied.
    """

    entries: np.ndarray
    domain: SpaceSpec
    codomain: SpaceSpec
    label: str = ""

    def __post_init__(self):
        arr = np.asarray(self.entries, dtype=np.complex128)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise ValueError(f"entries must be square, got {arr.shape}")
        if arr.flags.writeable:
            arr = arr.copy()
            arr.setflags(write=False)
        object.__setattr__(self, "entries", arr)

    @property
    def trunc_degree(self) -> int:
        return self.entries.shape[0] - 1

    def apply(self, f: TruncatedSeries) -> TruncatedSeries:
        if f.trunc_degree != self.trunc_degree:
            raise DegreeMismatchError(self.trunc_degree, f.trunc_degree)
        return TruncatedSeries(self.entries @ f.coeffs)

    def top_left(self, size: int) -> np.ndarray:
        """Copy of the leading size x size block."""
        return np.array(self.entries[:size, :size])

    def __matmul__(self, other: "OpMatrix") -> "OpMatrix":
        if self.trunc_degree != other.trunc_degree:
            raise DegreeMismatchError(self.trunc_degree, other.trunc_degree)
        if self.domain != other.codomain:
            raise UnsupportedOperationError(
                f"cannot compose: left domain {self.domain.spelling()} != "
                f"right codomain {other.codomain.spelling()}")
        return OpMatrix(self.entries @ other.entries, other.domain,
                        self.codomain, f"{self.label}.{other.label}")

    def __sub__(self, other: "OpMatrix") -> "OpMatrix":
        if self.trunc_degree != other.trunc_degree:
            raise DegreeMismatchError(self.trunc_degree, other.trunc_degree)
        if (self.domain, self.codomain) != (other.domain, other.codomain):
            raise UnsupportedOperationError("space tags differ under subtraction")
        return OpMatrix(self.entries - other.entries, self.domain,
                        self.codomain, f"{self.label}-{other.label}")


# -- symbol plumbing --------------------------------------------------------


def _label_of(symbol) -> str:
    if isinstance(symbol, TruncatedSeries):
        return "series"
    return symbol.spelling()


def _power_table(symbol, out: np.ndarray) -> None:
    """Certify a symbol, then write phi^j into column j of out, exact
    through degree rows - 1, by the recurrence of the module docstring.

    A bare series is certified by polynomial grid search on its
    coefficients.  Trailing zeros are cut from num.
    """
    rows, cols = out.shape
    band = None
    if isinstance(symbol, TruncatedSeries):
        if symbol.trunc_degree < rows - 1:
            raise PreconditionError(
                f"symbol series has degree {symbol.trunc_degree}, need >= {rows - 1}")
        PolynomialMap(symbol.coeffs).certify_self_map()
        num = symbol.coeffs[:rows]
    else:
        symbol.certify_self_map()
        if isinstance(symbol, MoebiusMap):
            num = np.array([symbol.b, symbol.a])
            band = np.asfortranarray(np.outer([symbol.d, symbol.c], np.ones(rows)))
        else:
            num = symbol.series(rows - 1).coeffs
    num = num[: max(np.flatnonzero(num), default=0) + 1]
    col = np.zeros(rows, dtype=np.complex128)
    col[0] = 1.0
    for j in range(cols):
        out[:, j] = col
        col = np.convolve(num, col)[:rows]
        if band is not None:
            col = ztbsv(1, band, col, lower=1, overwrite_x=1)


# -- builders ---------------------------------------------------------------


def build_composition(symbol, n: int,
                      domain: SpaceSpec | None = None,
                      codomain: SpaceSpec | None = None) -> OpMatrix:
    """Matrix of f -> f(phi): column j holds the coefficients of phi^j."""
    domain = domain or SpaceSpec.s2()
    codomain = codomain or domain
    a = np.empty((n + 1, n + 1), dtype=np.complex128)
    _power_table(symbol, a)
    return OpMatrix(a, domain, codomain, f"compose({_label_of(symbol)})")


def build_differentiation(n: int,
                          domain: SpaceSpec | None = None,
                          codomain: SpaceSpec | None = None) -> OpMatrix:
    """Matrix of f -> f': entry (j-1, j) = j."""
    domain = domain or SpaceSpec.s2()
    codomain = codomain or domain
    a = np.zeros((n + 1, n + 1), dtype=np.complex128)
    for j in range(1, n + 1):
        a[j - 1, j] = j
    return OpMatrix(a, domain, codomain, "differentiate")


def build_D_phi(symbol, n: int,
                domain: SpaceSpec | None = None,
                codomain: SpaceSpec | None = None) -> OpMatrix:
    """Matrix of f -> f'(phi): column j holds j * phi^(j-1)."""
    domain = domain or SpaceSpec.s2()
    codomain = codomain or domain
    a = np.zeros((n + 1, n + 1), dtype=np.complex128)
    _power_table(symbol, a[:, 1:])
    a[:, 1:] *= np.arange(1, n + 1)
    return OpMatrix(a, domain, codomain, f"diff-compose({_label_of(symbol)})")


def build_DC_phi(symbol, n: int,
                 domain: SpaceSpec | None = None,
                 codomain: SpaceSpec | None = None) -> OpMatrix:
    """Matrix of f -> (f(phi))' = f'(phi) phi'.

    Column j is (phi^j)', read off a power table with one extra row, so
    a bare series symbol must come in at trunc degree >= n + 1.
    """
    domain = domain or SpaceSpec.s2()
    codomain = codomain or domain
    p = np.empty((n + 2, n + 1), dtype=np.complex128)
    _power_table(symbol, p)
    p[1:] *= np.arange(1, n + 2)[:, None]
    return OpMatrix(p[1:], domain, codomain, f"compose-diff({_label_of(symbol)})")


def build_multiplication(psi: TruncatedSeries, n: int,
                         domain: SpaceSpec | None = None,
                         codomain: SpaceSpec | None = None) -> OpMatrix:
    """Matrix of f -> psi f: lower triangular Toeplitz, entry (i, j) =
    psi_(i-j).  The multiplier needs no certification."""
    domain = domain or SpaceSpec.s2()
    codomain = codomain or domain
    c = np.zeros(n + 1, dtype=np.complex128)
    m = min(n, psi.trunc_degree)
    c[: m + 1] = psi.coeffs[: m + 1]
    a = np.zeros((n + 1, n + 1), dtype=np.complex128)
    for j in range(n + 1):
        a[j:, j] = c[: n + 1 - j]
    return OpMatrix(a, domain, codomain, "multiply")


# -- adjoints, norms, spectra ------------------------------------------------


def weighted_adjoint(a: OpMatrix) -> OpMatrix:
    """Adjoint in the weighted inner product: W^(-1) A^H W, W = diag(beta^2).

    Requires domain == codomain; a cross-space adjoint would live in a
    different matrix size bookkeeping and is not supported.
    """
    if a.domain != a.codomain:
        raise UnsupportedOperationError(
            "adjoint across different spaces is not supported")
    w = a.domain.weights(a.trunc_degree) ** 2
    adj = (a.entries.conj().T * w[None, :]) / w[:, None]
    return OpMatrix(adj, a.domain, a.codomain, f"adj({a.label})")


def _weighted(a: OpMatrix) -> np.ndarray:
    """B_cod A B_dom^(-1): the matrix of A between the weighted l2 spaces."""
    bd = a.domain.weights(a.trunc_degree)
    bc = a.codomain.weights(a.trunc_degree)
    w = a.entries * bc[:, None]
    return np.divide(w, bd[None, :], out=w)


def _line_nonzeros(x: np.ndarray):
    """(rows, cols) of the nonzeros of x when every row and every column
    holds at most one of them, else None."""
    nz = x != 0
    if np.count_nonzero(nz) > min(x.shape):
        return None
    rows, cols = np.divmod(np.flatnonzero(nz), x.shape[1])
    if np.unique(rows).size < rows.size or np.unique(cols).size < cols.size:
        return None
    return rows, cols


def singular_values(a: OpMatrix) -> np.ndarray:
    """Singular values of the weighted matrix W = B_cod A B_dom^(-1),
    nonincreasing.

    When every row and column of A has at most one nonzero, so has W:
    W = P D Q for permutations P, Q and a diagonal D, and the singular
    values are the moduli of the nonzeros of W, padded with zeros.  They
    are read off those entries, with no N^2 copy and no decomposition.
    Otherwise LAPACK computes the full profile.  A non-finite W raises
    NumericalFailureError on both paths.
    """
    n = a.trunc_degree
    info = {"label": a.label, "n": n}
    lines = _line_nonzeros(a.entries)
    if lines is not None:
        rows, cols = lines
        bd, bc = a.domain.weights(n), a.codomain.weights(n)
        # the same complex arithmetic as _weighted, entry by entry
        moduli = np.abs(a.entries[rows, cols] * bc[rows] / bd[cols])
        # the zeros of W are 0 * bc / bd: finite when bc is finite, bd > 0
        if not (np.isfinite(moduli).all() and np.isfinite(bc).all()
                and (bd > 0).all()):
            raise NumericalFailureError("weighted matrix is not finite", info)
        s = np.zeros(n + 1)
        s[: moduli.size] = np.sort(moduli)[::-1]
        return s
    w = _weighted(a)
    if not np.isfinite(w).all():
        raise NumericalFailureError("weighted matrix is not finite", info)
    try:
        return np.linalg.svd(w, compute_uv=False)
    except np.linalg.LinAlgError as e:
        raise NumericalFailureError(
            "SVD did not converge", {**info, "reason": str(e)}) from e


def _lanczos_sigma_1(a: OpMatrix) -> float | None:
    """sigma_1 of the weighted matrix by ARPACK's Lanczos iteration (svds,
    k = 1) from a fixed start vector, so that repeated calls agree bit for
    bit; None when ARPACK fails, above all when it has not converged
    within three restarts."""
    from scipy.sparse.linalg import ArpackError, LinearOperator, svds

    w = _weighted(a)
    v0 = np.random.default_rng(0).standard_normal(w.shape[0])
    # rmatvec as conj(conj(x) w) spares svds an adjoint copy of w
    op = LinearOperator(w.shape, matvec=w.dot, dtype=w.dtype,
                        rmatvec=lambda x: (x.conj() @ w).conj())
    try:
        s = svds(op, k=1, v0=v0, maxiter=3, return_singular_vectors=False)
    except ArpackError:
        return None
    return float(s[0])


def operator_norm(a: OpMatrix) -> float:
    """Largest singular value sigma_1 of the weighted matrix W.

    Tail rule: c, the largest column 2-norm of W, is at most sigma_1.
    The norm is sigma_1 of the smallest leading k x k block such that
    the squared Frobenius mass of the rows >= k plus that of the columns
    >= k is at most (TAIL_TOL c)^2.  By Weyl's inequality the dropped
    rest moves sigma_1 by at most its Frobenius norm, TAIL_TOL sigma_1,
    far below rounding.  Both tail sums are non-increasing in k.

    The block goes to singular_values, which alone decides between its
    exact path (one nonzero per row and column) and the full SVD.  A
    block of degree above FULL_SVD_MAX_DEGREE with more nonzeros than
    rows, which cannot take the exact path, first tries Lanczos for
    sigma_1 alone; when that has not converged within three restarts
    (clustered top singular values, as for a Toeplitz matrix over the
    Hardy space) the block goes to singular_values as well.  The
    crossover reads the block size, not N.  The zero operator has norm
    exactly 0.0, and a non-finite W raises NumericalFailureError.
    """
    n = a.trunc_degree
    info = {"label": a.label, "n": n}
    # |W| scaled to max 1 and squared in place: one real N^2 array
    m = np.abs(a.entries)
    m *= a.codomain.weights(n)[:, None]
    m /= a.domain.weights(n)[None, :]
    top = m.max()
    if not np.isfinite(top):
        raise NumericalFailureError("weighted matrix is not finite", info)
    if top == 0:
        return 0.0
    m /= top
    m *= m
    rows, cols = m.sum(axis=1), m.sum(axis=0)
    del m
    # tail[k]: mass of the rows >= k plus that of the columns >= k
    tail = np.zeros(n + 2)
    tail[:-1] = np.cumsum(rows[::-1] + cols[::-1])[::-1]
    k = int(np.argmax(tail <= TAIL_TOL ** 2 * cols.max()))
    # every SpaceSpec computes its weights elementwise, so the raw leading
    # block over the same spaces is the leading block of W; it is a view
    block = OpMatrix(a.entries[:k, :k], a.domain, a.codomain, a.label)
    if (block.trunc_degree > FULL_SVD_MAX_DEGREE
            and np.count_nonzero(block.entries) > k):
        s1 = _lanczos_sigma_1(block)
        if s1 is not None:
            return s1
    return float(singular_values(block)[0])


def spectrum(a: OpMatrix) -> np.ndarray:
    """Eigenvalues of the raw matrix.

    The weighted similarity diag(beta) leaves eigenvalues unchanged, so
    the monomial-basis eigenvalues are the spectrum of the truncation in
    every space over the same coefficients.
    """
    try:
        return np.linalg.eigvals(a.entries)
    except np.linalg.LinAlgError as e:
        raise NumericalFailureError(
            "eigenvalue iteration did not converge",
            {"label": a.label, "n": a.trunc_degree, "reason": str(e)}) from e


def rank_from_singular_values(s: np.ndarray, tol: float) -> int:
    """Count of singular values above tol times the largest; s is
    nonincreasing."""
    if s.size == 0 or s[0] == 0:
        return 0
    return int(np.count_nonzero(s > tol * s[0]))
