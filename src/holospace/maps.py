"""Disk self-map symbols.

Three symbol classes drive the operator builders: linear fractional maps
with their Krein adjoint data, monomial maps a z^M with closed-form norm
and spectrum, and general polynomial symbols certified by grid search.

Linear fractional sup-norms are exact: a Moebius map sends the unit
circle to a circle whose center and radius are rational in the
coefficients, so the sup over the closed disk is |center| + radius by
the maximum principle.  The circle-image formula is the implementation;
the brute-force grid lives in the tests as an oracle.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import CertificationError, DomainError, PoleInDiskError
from .series import TruncatedSeries, log_series

#: sup-norm slack accepted when certifying a non-strict self-map
SELF_MAP_TOL = 1e-12

#: grid certification margin for polynomial symbols
GRID_MARGIN = 1e-6

_GRID_POINTS = 1 << 15


@dataclass(frozen=True)
class MoebiusMap:
    """z -> (az + b)/(cz + d) with ad - bc != 0."""

    a: complex
    b: complex
    c: complex
    d: complex

    def __post_init__(self):
        for name in "abcd":
            object.__setattr__(self, name, complex(getattr(self, name)))
        if not all(cmath.isfinite(v) for v in (self.a, self.b, self.c, self.d)):
            raise DomainError("non-finite moebius coefficient")
        if self.a * self.d - self.b * self.c == 0:
            raise DomainError("degenerate coefficients: ad - bc = 0")

    def __call__(self, z: complex) -> complex:
        return (self.a * z + self.b) / (self.c * z + self.d)

    # -- certification --------------------------------------------------

    def sup_norm(self) -> float:
        """Exact sup of |phi| over the closed disk.

        The unit circle maps to the circle centered at
        (b conj(d) - a conj(c)) / (|d|^2 - |c|^2) with radius
        |ad - bc| / (|d|^2 - |c|^2); requires the pole -d/c outside the
        closed disk, i.e. |d| > |c|.
        """
        # products, not float **, so huge coefficients overflow to inf or
        # nan (which certification rejects) instead of raising
        denom = abs(self.d) * abs(self.d) - abs(self.c) * abs(self.c)
        if denom <= 0:
            raise PoleInDiskError(
                f"pole at -d/c with |d| = {abs(self.d)} <= |c| = {abs(self.c)}")
        center = (self.b * np.conj(self.d) - self.a * np.conj(self.c)) / denom
        radius = abs(self.a * self.d - self.b * self.c) / denom
        return abs(center) + radius

    def is_self_map(self) -> bool:
        try:
            return self.sup_norm() <= 1.0 + SELF_MAP_TOL
        except PoleInDiskError:
            return False

    def is_strict(self) -> bool:
        try:
            return self.sup_norm() < 1.0
        except PoleInDiskError:
            return False

    def certify_self_map(self):
        s = self.sup_norm()
        # negated so that a nan sup-norm fails, here and below
        if not s <= 1.0 + SELF_MAP_TOL:
            raise CertificationError(f"sup-norm {s} exceeds 1", sup_norm=s)

    def certify_strict(self):
        s = self.sup_norm()
        if not s < 1.0:
            raise CertificationError(f"sup-norm {s} is not < 1", sup_norm=s)

    # -- adjoint data ------------------------------------------------------

    def krein_adjoint(self) -> "MoebiusMap":
        """sigma(z) = (conj(a) z - conj(c)) / (-conj(b) z + conj(d)).

        The result is again a self-map; that fact is re-certified here
        rather than assumed.
        """
        self.certify_self_map()
        adj = MoebiusMap(
            np.conj(self.a), -np.conj(self.c), -np.conj(self.b), np.conj(self.d))
        adj.certify_self_map()
        return adj

    def series(self, n: int) -> TruncatedSeries:
        """Taylor coefficients to degree n; needs the pole outside the
        closed disk."""
        if abs(self.d) <= abs(self.c):
            raise PoleInDiskError("series diverges on the disk: |d| <= |c|")
        num = np.zeros(n + 1, dtype=np.complex128)
        den = np.zeros(n + 1, dtype=np.complex128)
        num[0] = self.b
        den[0] = self.d
        if n >= 1:
            num[1] = self.a
            den[1] = self.c
        return TruncatedSeries(num) / TruncatedSeries(den)

    def mu_series(self, n: int) -> TruncatedSeries:
        """mu(z) = -conj(b) z + conj(d)."""
        self.certify_strict()
        c = np.zeros(n + 1, dtype=np.complex128)
        c[0] = np.conj(self.d)
        if n >= 1:
            c[1] = -np.conj(self.b)
        return TruncatedSeries(c)

    def eta_series(self, n: int) -> TruncatedSeries:
        """eta(z) = 1/(cz + d)."""
        self.certify_strict()
        den = np.zeros(n + 1, dtype=np.complex128)
        den[0] = self.d
        if n >= 1:
            den[1] = self.c
        return TruncatedSeries.one(n) / TruncatedSeries(den)

    def log_mu(self, n: int) -> TruncatedSeries:
        """log mu with branch constant log(conj d), the principal value.

        Equals log(conj d) - sum_k (conj(b)/conj(d))^k z^k / k, which is
        the normalization that makes the kernel factorization an exact
        formal identity.
        """
        return log_series(self.mu_series(n), np.log(np.conj(self.d)))

    def log_eta_conj_at(self, w: complex) -> complex:
        """log of conj(eta(w)) = -log(conj d) - log1p(conj(c/d * w)).

        The -log(conj d) constant cancels the +log(conj d) in log_mu, so
        the two branch choices are matched by construction.
        """
        self.certify_strict()
        ratio = np.conj(self.c) / np.conj(self.d)
        return complex(-np.log(np.conj(self.d)) - np.log1p(ratio * np.conj(complex(w))))

    # -- serialization -----------------------------------------------------

    def spelling(self) -> str:
        parts = []
        for v in (self.a, self.b, self.c, self.d):
            parts += [f"{v.real:g}", f"{v.imag:g}"]
        return "moebius:" + ",".join(parts)

    def to_dict(self) -> dict:
        return {
            "kind": "moebius",
            "params": [x for v in (self.a, self.b, self.c, self.d)
                       for x in (v.real, v.imag)],
        }


@dataclass(frozen=True)
class MonomialMap:
    """z -> a z^M with 0 < |a| < 1 and integer M >= 1."""

    a: complex
    power: int

    def __post_init__(self):
        object.__setattr__(self, "a", complex(self.a))
        try:
            object.__setattr__(self, "power", int(self.power))
        except (OverflowError, ValueError):
            raise DomainError(f"power {self.power!r} is not a finite integer") from None
        if not 0 < abs(self.a) < 1:
            raise DomainError(f"|a| = {abs(self.a)} outside (0, 1)")
        if self.power < 1:
            raise DomainError(f"power {self.power} must be >= 1")

    def __call__(self, z: complex) -> complex:
        return self.a * z ** self.power

    def sup_norm(self) -> float:
        return abs(self.a)

    def is_self_map(self) -> bool:
        return True

    def is_strict(self) -> bool:
        return True

    def certify_self_map(self):
        pass

    def certify_strict(self):
        pass

    @property
    def nu(self) -> int:
        """floor((2 - |a|)/(1 - |a|)); always >= 2 on 0 < |a| < 1.

        When the ratio is an integer two indices tie for the supremum
        with equal values, so the floor choice does not affect the norm.
        """
        r = abs(self.a)
        return math.floor((2.0 - r) / (1.0 - r))

    def norm_formula(self) -> float:
        """max(1, M (nu-1) |a|^(nu-1)), the exact operator norm of the
        induced composition-differentiation operator on the derivative
        Hardy space."""
        r = abs(self.a)
        v = self.nu
        return max(1.0, self.power * (v - 1) * r ** (v - 1))

    def exact_spectrum(self) -> set:
        """{0, 2a} when M = 2, otherwise {0}."""
        if self.power == 2:
            return {0.0, 2 * self.a}
        return {0.0}

    def required_trunc_degree(self) -> int:
        """Smallest N at which the truncated operator norm is exact."""
        return self.power * (self.nu - 1) + 2

    def series(self, n: int) -> TruncatedSeries:
        if self.power > n:
            raise DomainError(
                f"truncation degree {n} cannot represent z^{self.power}")
        return TruncatedSeries.monomial(self.power, n, scale=self.a)

    def spelling(self) -> str:
        return f"monomial:{self.a.real:g},{self.a.imag:g},{self.power}"

    def to_dict(self) -> dict:
        return {"kind": "monomial",
                "params": [self.a.real, self.a.imag, self.power]}


class PolynomialMap:
    """General polynomial symbol, certified only by grid search.

    The sup-norm is the maximum of |p| over a dense circle grid, a lower
    bound on the true sup; strict certification therefore demands
    grid sup <= 1 - GRID_MARGIN.  Fine for the diagnostics this class
    serves; not sharp near sup-norm 1.
    """

    def __init__(self, coeffs):
        arr = np.asarray(coeffs, dtype=np.complex128)
        if arr.ndim != 1 or arr.size == 0:
            raise DomainError("polynomial symbol needs at least one coefficient")
        if not np.all(np.isfinite(arr)):
            raise DomainError("non-finite polynomial coefficient")
        self.coeffs = arr
        self.coeffs.setflags(write=False)

    def __call__(self, z: complex) -> complex:
        return complex(np.polynomial.polynomial.polyval(z, self.coeffs))

    def sup_norm(self) -> float:
        theta = np.linspace(0.0, 2 * np.pi, _GRID_POINTS, endpoint=False)
        vals = np.polynomial.polynomial.polyval(np.exp(1j * theta), self.coeffs)
        return float(np.max(np.abs(vals)))

    def is_self_map(self) -> bool:
        return self.sup_norm() <= 1.0 + SELF_MAP_TOL

    def is_strict(self) -> bool:
        return self.sup_norm() <= 1.0 - GRID_MARGIN

    def certify_self_map(self):
        s = self.sup_norm()
        if not s <= 1.0 + SELF_MAP_TOL:
            raise CertificationError(f"grid sup-norm {s} exceeds 1", sup_norm=s)

    def certify_strict(self):
        s = self.sup_norm()
        if not s <= 1.0 - GRID_MARGIN:
            raise CertificationError(
                f"grid sup-norm {s} not below 1 - {GRID_MARGIN}", sup_norm=s)

    def series(self, n: int) -> TruncatedSeries:
        if self.coeffs.size - 1 > n:
            raise DomainError(
                f"truncation degree {n} below polynomial degree {self.coeffs.size - 1}")
        c = np.zeros(n + 1, dtype=np.complex128)
        c[: self.coeffs.size] = self.coeffs
        return TruncatedSeries(c)

    def spelling(self) -> str:
        parts = []
        for v in self.coeffs:
            parts += [f"{v.real:g}", f"{v.imag:g}"]
        return "poly:" + ",".join(parts)

    def to_dict(self) -> dict:
        return {"kind": "poly",
                "params": [x for v in self.coeffs for x in (v.real, v.imag)]}

    def __repr__(self):
        return f"PolynomialMap({list(self.coeffs)})"


# -- parsing and generation ----------------------------------------------


def parse_symbol(text: str):
    """Parse a symbol spelling.

    Grammar: moebius:a_re,a_im,b_re,b_im,c_re,c_im,d_re,d_im
             monomial:a_re,a_im,M
             poly:c0_re,c0_im,c1_re,c1_im,...
    """
    kind, _, arg = text.strip().partition(":")
    kind = kind.lower()
    try:
        nums = [float(x) for x in arg.split(",")] if arg else []
    except ValueError:
        raise DomainError(f"unparseable symbol numbers in {text!r}") from None
    if not all(math.isfinite(x) for x in nums):
        raise DomainError(f"non-finite symbol number in {text!r}")
    if kind == "moebius":
        if len(nums) != 8:
            raise DomainError("moebius symbol needs 8 numbers (4 complex pairs)")
        a, b, c, d = (complex(nums[i], nums[i + 1]) for i in range(0, 8, 2))
        return MoebiusMap(a, b, c, d)
    if kind == "monomial":
        if len(nums) != 3 or nums[2] != int(nums[2]):
            raise DomainError("monomial symbol needs a_re,a_im,M with integer M")
        return MonomialMap(complex(nums[0], nums[1]), int(nums[2]))
    if kind == "poly":
        if len(nums) < 2 or len(nums) % 2:
            raise DomainError("poly symbol needs an even, positive number count")
        return PolynomialMap([complex(nums[i], nums[i + 1])
                              for i in range(0, len(nums), 2)])
    raise DomainError(f"unknown symbol kind {kind!r}")


def symbol_from_dict(data: dict):
    params = ",".join(f"{float(x):g}" for x in data["params"])
    return parse_symbol(f"{data['kind']}:{params}")


def random_strict_moebius(rng: np.random.Generator,
                          sup_bound: float = 0.8,
                          min_radius: float = 0.15,
                          max_radius: float = 0.45) -> MoebiusMap:
    """Draw a strict self-map with exactly known sup-norm below sup_bound.

    Construction: w0 + A (z - p)/(1 - conj(p) z) with |A| = r.  The
    Blaschke factor has unit modulus on the circle and covers the full
    circle, so the sup-norm is exactly |w0| + r.  Generic draws have all
    four coefficients nonzero, which the adjoint residual checks need.
    """
    if not 0 < sup_bound < 1:
        raise DomainError("sup_bound must lie in (0, 1)")
    max_radius = min(max_radius, 0.9 * sup_bound)
    min_radius = min(min_radius, 0.5 * max_radius)
    r = rng.uniform(min_radius, max_radius)
    amp = r * np.exp(2j * np.pi * rng.uniform())
    w0 = (sup_bound - r) * rng.uniform(0.15, 0.95) * np.exp(2j * np.pi * rng.uniform())
    p = rng.uniform(0.2, 0.7) * np.exp(2j * np.pi * rng.uniform())
    return MoebiusMap(
        a=amp - w0 * np.conj(p),
        b=w0 - amp * p,
        c=-np.conj(p),
        d=1.0,
    )
