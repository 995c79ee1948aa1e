"""Truncated power series arithmetic.

Every analytic function in this package lives here as a coefficient
vector c_0..c_N modulo z^(N+1).  The ring operations are degreewise
exact: coefficient k of a sum, product, quotient, or composition depends
only on coefficients 0..k of the operands, so truncating first and
operating after yields the same coefficients 0..N as operating exactly
and truncating last.

Branch constants for logarithms are always supplied by the caller; this
module never guesses a branch.
"""

from __future__ import annotations

import json

import numpy as np
from scipy.linalg import solve_triangular, toeplitz

from .errors import DegreeMismatchError, DomainError, SingularInputError


class TruncatedSeries:
    """An analytic function modulo z^(N+1).

    Immutable value type.  Arithmetic requires equal truncation degrees;
    operands are never resized implicitly.

    Attributes
    ----------
    coeffs : ndarray of complex128, read-only, length trunc_degree + 1
    trunc_degree : int
    top_dropped : bool
        True when the top coefficient is a zero pad standing in for
        information lost to differentiation.  The flag is sticky: any
        arithmetic involving a flagged operand flags the result.
    """

    __slots__ = ("_coeffs", "_top_dropped")

    # keep numpy scalars from broadcasting over us; defer to __rmul__ etc.
    __array_ufunc__ = None

    def __init__(self, coeffs, top_dropped: bool = False):
        arr = np.array(coeffs, dtype=np.complex128)
        if arr.ndim != 1 or arr.size == 0:
            raise ValueError("coeffs must be a nonempty one-dimensional sequence")
        arr.setflags(write=False)
        self._coeffs = arr
        self._top_dropped = bool(top_dropped)

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, n: int) -> "TruncatedSeries":
        return cls(np.zeros(n + 1))

    @classmethod
    def one(cls, n: int) -> "TruncatedSeries":
        return cls.constant(1.0, n)

    @classmethod
    def constant(cls, value, n: int) -> "TruncatedSeries":
        c = np.zeros(n + 1, dtype=np.complex128)
        c[0] = value
        return cls(c)

    @classmethod
    def monomial(cls, k: int, n: int, scale=1.0) -> "TruncatedSeries":
        """scale * z^k at truncation degree n.  Requires 0 <= k <= n."""
        if not 0 <= k <= n:
            raise ValueError(f"monomial degree {k} outside [0, {n}]")
        c = np.zeros(n + 1, dtype=np.complex128)
        c[k] = scale
        return cls(c)

    @classmethod
    def z(cls, n: int) -> "TruncatedSeries":
        """The coordinate function z."""
        return cls.monomial(1, n)

    # -- basic queries -------------------------------------------------

    @property
    def coeffs(self) -> np.ndarray:
        return self._coeffs

    @property
    def trunc_degree(self) -> int:
        return self._coeffs.size - 1

    @property
    def top_dropped(self) -> bool:
        return self._top_dropped

    def __len__(self):
        return self._coeffs.size

    def __getitem__(self, k):
        return complex(self._coeffs[k])

    def __repr__(self):
        head = np.array2string(self._coeffs[:4], precision=6, separator=", ")
        tail = ", ..." if self.trunc_degree > 3 else ""
        flag = ", top_dropped" if self._top_dropped else ""
        return f"TruncatedSeries(N={self.trunc_degree}, coeffs={head[:-1]}{tail}]{flag})"

    def _check_degree(self, other: "TruncatedSeries"):
        if self.trunc_degree != other.trunc_degree:
            raise DegreeMismatchError(self.trunc_degree, other.trunc_degree)

    # -- ring operations -----------------------------------------------

    def __add__(self, other):
        if isinstance(other, TruncatedSeries):
            self._check_degree(other)
            return TruncatedSeries(
                self._coeffs + other._coeffs,
                self._top_dropped or other._top_dropped,
            )
        c = self._coeffs.copy()
        c[0] += other
        return TruncatedSeries(c, self._top_dropped)

    __radd__ = __add__

    def __neg__(self):
        return TruncatedSeries(-self._coeffs, self._top_dropped)

    def __sub__(self, other):
        return self + (-other if isinstance(other, TruncatedSeries) else -complex(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        """Cauchy product truncated at the common degree."""
        if isinstance(other, TruncatedSeries):
            self._check_degree(other)
            n = self.trunc_degree
            prod = np.convolve(self._coeffs, other._coeffs)[: n + 1]
            return TruncatedSeries(prod, self._top_dropped or other._top_dropped)
        return TruncatedSeries(self._coeffs * other, self._top_dropped)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, TruncatedSeries):
            self._check_degree(other)
            if other._coeffs[0] == 0:
                raise SingularInputError("division by a series with zero constant term")
            # Solve the lower triangular Toeplitz system T_g x = f; x is
            # the quotient because T_g is exactly convolution by g.
            t = toeplitz(other._coeffs, np.zeros_like(other._coeffs))
            q = solve_triangular(t, self._coeffs, lower=True)
            return TruncatedSeries(q, self._top_dropped or other._top_dropped)
        return TruncatedSeries(self._coeffs / other, self._top_dropped)

    def __rtruediv__(self, other):
        return TruncatedSeries.constant(other, self.trunc_degree) / self

    # -- calculus ------------------------------------------------------

    def derivative(self) -> "TruncatedSeries":
        """Termwise derivative, zero-padded back to the same degree.

        The degree-N coefficient of the result is unrecoverable from a
        truncation, so the pad is recorded via top_dropped.
        """
        n = self.trunc_degree
        c = np.zeros(n + 1, dtype=np.complex128)
        if n >= 1:
            c[:n] = self._coeffs[1:] * np.arange(1, n + 1)
        return TruncatedSeries(c, top_dropped=True)

    def antiderivative(self) -> "TruncatedSeries":
        """Termwise antiderivative vanishing at 0, same degree."""
        n = self.trunc_degree
        c = np.zeros(n + 1, dtype=np.complex128)
        if n >= 1:
            c[1:] = self._coeffs[:n] / np.arange(1, n + 1)
        return TruncatedSeries(c, self._top_dropped)

    # -- composition and evaluation -------------------------------------

    def compose(self, inner: "TruncatedSeries") -> "TruncatedSeries":
        """Substitute a series into this one: returns sum a_n * inner^n.

        Horner evaluation over the truncated ring.  When inner(0) = 0 the
        result coefficients 0..N are exactly those of the analytic
        composition; when inner(0) != 0 they equal the truncated Horner
        sum (the tail sum_{n>N} a_n inner^n is dropped).
        """
        self._check_degree(inner)
        a = self._coeffs
        acc = TruncatedSeries.constant(a[-1], self.trunc_degree)
        for k in range(len(a) - 2, -1, -1):
            acc = acc * inner + a[k]
        if self._top_dropped or inner._top_dropped:
            acc = TruncatedSeries(acc.coeffs, top_dropped=True)
        return acc

    def __call__(self, point) -> complex:
        """Horner evaluation at a complex point.

        Meaningful for |point| <= 1; values further out amplify the
        truncation tail and are the caller's responsibility.
        """
        return complex(np.polynomial.polynomial.polyval(point, self._coeffs))

    def truncate(self, n: int) -> "TruncatedSeries":
        """Explicit downsize to degree n <= trunc_degree."""
        if n > self.trunc_degree:
            raise DegreeMismatchError(self.trunc_degree, n)
        return TruncatedSeries(self._coeffs[: n + 1], self._top_dropped)

    # -- serialization ---------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "trunc_degree": self.trunc_degree,
            "coeffs": [[float(c.real), float(c.imag)] for c in self._coeffs],
            "top_dropped": self._top_dropped,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict())

    @classmethod
    def from_dict(cls, data: dict) -> "TruncatedSeries":
        n = int(data["trunc_degree"])
        pairs = data["coeffs"]
        if len(pairs) != n + 1:
            raise ValueError(
                f"coeffs length {len(pairs)} does not match trunc_degree {n}"
            )
        return cls([complex(re, im) for re, im in pairs],
                   bool(data.get("top_dropped", False)))

    @classmethod
    def from_json(cls, text: str) -> "TruncatedSeries":
        return cls.from_dict(json.loads(text))


# -- module-level transcendental helpers --------------------------------


def log_series(f: TruncatedSeries, branch_constant: complex) -> TruncatedSeries:
    """Logarithm of a series with nonzero constant term.

    Returns branch_constant + L where L(0) = 0 and L' = f'/f.  With
    branch_constant equal to a logarithm of f(0), exp of the result
    reproduces f degreewise.  The branch is never inferred here.
    """
    if f.coeffs[0] == 0:
        raise SingularInputError("log of a series with zero constant term")
    n = f.trunc_degree
    out = np.zeros(n + 1, dtype=np.complex128)
    out[0] = branch_constant
    if n >= 1:
        fp = np.zeros(n + 1, dtype=np.complex128)
        fp[:n] = f.coeffs[1:] * np.arange(1, n + 1)
        t = toeplitz(f.coeffs, np.zeros(n + 1))
        q = solve_triangular(t, fp, lower=True)
        # q_{n-1} is exact, so the integral is exact through degree n
        out[1:] = q[:n] / np.arange(1, n + 1)
    return TruncatedSeries(out)


def exp_series(f: TruncatedSeries) -> TruncatedSeries:
    """Exponential of a series, via g' = f' g."""
    n = f.trunc_degree
    g = np.zeros(n + 1, dtype=np.complex128)
    g[0] = np.exp(f.coeffs[0])
    kf = f.coeffs * np.arange(n + 1)
    for k in range(1, n + 1):
        g[k] = np.dot(kf[1 : k + 1], g[:k][::-1]) / k
    return TruncatedSeries(g)


def binomial_kernel(c: complex, s: float, n: int) -> TruncatedSeries:
    """Coefficients of (1 - cz)^(-s) to degree n, for real s and |c| < 1.

    coeff_0 = 1 and coeff_k = coeff_{k-1} * c * (s + k - 1) / k.
    """
    if abs(c) >= 1:
        raise DomainError(f"binomial kernel parameter |c| = {abs(c)} is not < 1")
    s = float(s)
    out = np.empty(n + 1, dtype=np.complex128)
    out[0] = 1.0
    for k in range(1, n + 1):
        out[k] = out[k - 1] * c * (s + k - 1) / k
    return TruncatedSeries(out)
