"""Dense operator matrices in the monomial basis.

Builders produce raw coefficient-space matrices: entry (i, j) is the
z^i coefficient of the operator applied to z^j.  Weights enter at a
single similarity point inside norm, singular value, and adjoint
routines, never inside the builders.

Truncation policy: every builder computes its columns from exactly
truncated series, so each stored entry equals the true infinite-matrix
entry.  Products of truncations are then exact wherever a triangular
factor confines the contamination; theorem-level checks compare
top-left blocks for that reason.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DegreeMismatchError,
    NumericalFailureError,
    PreconditionError,
    UnsupportedOperationError,
)
from .maps import PolynomialMap
from .series import TruncatedSeries
from .spaces import SpaceSpec


@dataclass(frozen=True)
class OpMatrix:
    """(N+1)x(N+1) complex matrix tagged with domain and codomain spaces."""

    entries: np.ndarray
    domain: SpaceSpec
    codomain: SpaceSpec
    label: str = ""

    def __post_init__(self):
        arr = np.asarray(self.entries, dtype=np.complex128)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise ValueError(f"entries must be square, got {arr.shape}")
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


def _symbol_series(symbol, n: int, strict: bool = False) -> TruncatedSeries:
    """Certify a symbol and return its series at exactly degree n.

    Accepts the map classes (which carry their own certification) or a
    bare TruncatedSeries, certified by polynomial grid search on its
    coefficients.
    """
    if isinstance(symbol, TruncatedSeries):
        if symbol.trunc_degree < n:
            raise PreconditionError(
                f"symbol series has degree {symbol.trunc_degree}, need >= {n}")
        p = PolynomialMap(symbol.coeffs)
        p.certify_strict() if strict else p.certify_self_map()
        return symbol.truncate(n)
    if strict:
        symbol.certify_strict()
    else:
        symbol.certify_self_map()
    return symbol.series(n)


def _label_of(symbol) -> str:
    if isinstance(symbol, TruncatedSeries):
        return "series"
    return symbol.spelling()


# -- builders ---------------------------------------------------------------


def build_composition(symbol, n: int,
                      domain: SpaceSpec | None = None,
                      codomain: SpaceSpec | None = None) -> OpMatrix:
    """Matrix of f -> f(phi): column j holds the coefficients of phi^j."""
    domain = domain or SpaceSpec.s2()
    codomain = codomain or domain
    phi = _symbol_series(symbol, n)
    a = np.zeros((n + 1, n + 1), dtype=np.complex128)
    a[0, 0] = 1.0
    power = TruncatedSeries.one(n)
    for j in range(1, n + 1):
        power = power * phi
        a[:, j] = power.coeffs
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
    phi = _symbol_series(symbol, n)
    a = np.zeros((n + 1, n + 1), dtype=np.complex128)
    power = TruncatedSeries.one(n)
    if n >= 1:
        a[0, 1] = 1.0
    for j in range(2, n + 1):
        power = power * phi
        a[:, j] = j * power.coeffs
    return OpMatrix(a, domain, codomain, f"diff-compose({_label_of(symbol)})")


def build_DC_phi(symbol, n: int,
                 domain: SpaceSpec | None = None,
                 codomain: SpaceSpec | None = None) -> OpMatrix:
    """Matrix of f -> (f(phi))' = f'(phi) phi'.

    Exactness of row n needs the degree-(n+1) coefficient of phi, so a
    bare series symbol must come in at trunc degree >= n + 1.
    """
    domain = domain or SpaceSpec.s2()
    codomain = codomain or domain
    if isinstance(symbol, TruncatedSeries) and symbol.trunc_degree < n + 1:
        raise PreconditionError(
            f"(f(phi))' at truncation {n} needs the symbol to degree {n + 1}")
    ext = _symbol_series(symbol, n + 1)
    phi = ext.truncate(n)
    # derivative of the degree-(n+1) series is exact through degree n
    dcoeffs = ext.coeffs[1:] * np.arange(1, n + 2)
    phip = TruncatedSeries(dcoeffs)
    a = np.zeros((n + 1, n + 1), dtype=np.complex128)
    power = TruncatedSeries.one(n)
    for j in range(1, n + 1):
        col = power * phip
        a[:, j] = j * col.coeffs
        power = power * phi
    return OpMatrix(a, domain, codomain, f"compose-diff({_label_of(symbol)})")


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
    return (a.entries * bc[:, None]) / bd[None, :]


def singular_values(a: OpMatrix) -> np.ndarray:
    """Singular values of the weighted matrix, nonincreasing."""
    try:
        return np.linalg.svd(_weighted(a), compute_uv=False)
    except np.linalg.LinAlgError as e:
        raise NumericalFailureError(
            "SVD did not converge",
            {"label": a.label, "n": a.trunc_degree, "reason": str(e)}) from e


def operator_norm(a: OpMatrix) -> float:
    """Largest singular value of the weighted matrix."""
    return float(singular_values(a)[0])


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


def numerical_rank(a: OpMatrix, tol: float) -> int:
    return rank_from_singular_values(singular_values(a), tol)


@dataclass(frozen=True)
class SpectralSummary:
    eigenvalues: tuple
    singular_values: tuple
    numerical_rank: int
    trunc_degree: int
    rank_tol: float

    def to_dict(self) -> dict:
        return {
            "eigenvalues": [[v.real, v.imag] for v in self.eigenvalues],
            "singular_values": list(self.singular_values),
            "numerical_rank": self.numerical_rank,
            "trunc_degree": self.trunc_degree,
            "rank_tol": self.rank_tol,
        }


def spectral_summary(a: OpMatrix, rank_tol: float = 1e-10) -> SpectralSummary:
    s = singular_values(a)
    eig = spectrum(a)
    return SpectralSummary(
        eigenvalues=tuple(complex(v) for v in eig),
        singular_values=tuple(float(v) for v in s),
        numerical_rank=rank_from_singular_values(s, rank_tol),
        trunc_degree=a.trunc_degree,
        rank_tol=rank_tol,
    )
