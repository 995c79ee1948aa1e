"""Weighted Hardy spaces: weight sequences, inner products, kernels.

A space H^2(beta) is determined by its weight sequence beta(n) > 0 with
beta(0) = 1; monomials are orthogonal with ||z^n|| = beta(n).  Kernel
coefficients always come from the generic weighted-Hardy formula; the
closed forms that exist for particular spaces live in the test suite as
oracles, never here.
"""

from __future__ import annotations

import enum
import json
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.special import gammaln

from .errors import DegreeMismatchError, DomainError
from .series import TruncatedSeries, binomial_kernel


class KernelKind(enum.Enum):
    POINT_EVAL = "point"
    DERIV_EVAL = "deriv"


_KINDS = ("hardy", "bergman", "dirichlet", "s2", "s2tilde", "equiv")


@dataclass(frozen=True)
class SpaceSpec:
    """A weighted Hardy space identified by its weight sequence.

    kind is one of hardy | bergman | dirichlet | s2 | s2tilde | equiv;
    alpha parametrizes bergman (alpha > -1) and equiv (any real alpha)
    and is None otherwise.
    """

    kind: str
    alpha: float | None = None

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise DomainError(f"unknown space kind {self.kind!r}")
        if self.kind == "bergman":
            if self.alpha is None or not -1 < self.alpha < math.inf:
                raise DomainError("bergman requires a finite alpha > -1")
        elif self.kind == "equiv":
            if self.alpha is None or not math.isfinite(self.alpha):
                raise DomainError("equiv requires a finite real alpha")
        elif self.alpha is not None:
            raise DomainError(f"{self.kind} does not take an alpha")

    # -- constructors ---------------------------------------------------

    @classmethod
    def hardy(cls):
        return cls("hardy")

    @classmethod
    def bergman(cls, alpha: float):
        return cls("bergman", float(alpha))

    @classmethod
    def dirichlet(cls):
        return cls("dirichlet")

    @classmethod
    def s2(cls):
        return cls("s2")

    @classmethod
    def s2tilde(cls):
        return cls("s2tilde")

    @classmethod
    def equivalent_weight(cls, alpha: float):
        return cls("equiv", float(alpha))

    # -- weights ----------------------------------------------------------

    def weights(self, n: int) -> np.ndarray:
        """beta(0..n) as a read-only vector."""
        return _weight_array(self.kind, self.alpha, n)

    def weight(self, n: int) -> float:
        return float(self.weights(n)[n])

    # -- serialization ------------------------------------------------------

    def spelling(self) -> str:
        """The CLI spelling, e.g. 'bergman:0.5'."""
        if self.alpha is not None:
            return f"{self.kind}:{self.alpha:g}"
        return self.kind

    def to_dict(self) -> dict:
        d = {"kind": self.kind}
        if self.alpha is not None:
            d["alpha"] = self.alpha
        return d

    def to_json(self) -> str:
        return json.dumps(self.to_dict())

    @classmethod
    def from_dict(cls, data: dict) -> "SpaceSpec":
        return cls(data["kind"], data.get("alpha"))

    @classmethod
    def from_json(cls, text: str) -> "SpaceSpec":
        return cls.from_dict(json.loads(text))


def parse_space(text: str) -> SpaceSpec:
    """Parse a CLI space spelling: hardy | bergman:a | dirichlet | s2 |
    s2tilde | equiv:a."""
    t = text.strip().lower()
    if ":" in t:
        kind, _, arg = t.partition(":")
        try:
            alpha = float(arg)
        except ValueError:
            raise DomainError(f"bad space parameter {arg!r} in {text!r}") from None
        if kind not in ("bergman", "equiv"):
            raise DomainError(f"space kind {kind!r} does not take a parameter")
        return SpaceSpec(kind, alpha)
    if t in ("bergman", "equiv"):
        raise DomainError(f"space kind {t!r} requires a parameter, e.g. {t}:0")
    return SpaceSpec(t)


@lru_cache(maxsize=256)
def _weight_array(kind: str, alpha, n: int) -> np.ndarray:
    k = np.arange(n + 1, dtype=float)
    w = np.ones(n + 1)
    if kind == "hardy":
        pass
    elif kind == "s2":
        w[1:] = k[1:]
    elif kind == "s2tilde":
        if n >= 2:
            w[2:] = np.sqrt(k[2:] * (k[2:] - 1))
    elif kind == "dirichlet":
        w[1:] = np.sqrt(k[1:])
    elif kind == "equiv":
        w[1:] = k[1:] ** (-(alpha + 1) / 2)
    elif kind == "bergman":
        # beta(n)^2 = n! Gamma(alpha+2) / Gamma(n+alpha+2), in log space
        # to survive large n
        w = np.exp(0.5 * (gammaln(k + 1) + gammaln(alpha + 2) - gammaln(k + alpha + 2)))
    w.setflags(write=False)
    return w


# -- inner products and kernels -------------------------------------------


def inner_product(f: TruncatedSeries, g: TruncatedSeries, sp: SpaceSpec) -> complex:
    """<f, g> = sum f_n conj(g_n) beta(n)^2."""
    if f.trunc_degree != g.trunc_degree:
        raise DegreeMismatchError(f.trunc_degree, g.trunc_degree)
    w2 = sp.weights(f.trunc_degree) ** 2
    return complex(np.sum(f.coeffs * np.conj(g.coeffs) * w2))


def norm(f: TruncatedSeries, sp: SpaceSpec) -> float:
    w = sp.weights(f.trunc_degree)
    return float(np.linalg.norm(f.coeffs * w))


def kernel(sp: SpaceSpec, kind: KernelKind, w: complex, n: int) -> TruncatedSeries:
    """Reproducing kernel of the space as a truncated series.

    POINT_EVAL gives K_w with coefficients conj(w)^k / beta(k)^2, so that
    <f, K_w> = f(w).  DERIV_EVAL gives the derivative-evaluation kernel
    with coefficient k * conj(w)^(k-1) / beta(k)^2 at degree k >= 1, so
    that pairing f against it returns f'(w).

    Requires |w| < 1.
    """
    if abs(w) >= 1:
        raise DomainError(f"kernel point |w| = {abs(w)} is not inside the disk")
    cw = np.conj(complex(w))
    beta2 = sp.weights(n) ** 2
    c = np.zeros(n + 1, dtype=np.complex128)
    if kind is KernelKind.POINT_EVAL:
        c[0] = 1.0
        if n >= 1:
            c[1:] = cw ** np.arange(1, n + 1)
    elif kind is KernelKind.DERIV_EVAL:
        if n >= 1:
            c[1:] = np.arange(1, n + 1) * cw ** np.arange(0, n)
    else:
        raise DomainError(f"unknown kernel kind {kind!r}")
    return TruncatedSeries(c / beta2)


def multiplier_g_alpha(phi0: complex, alpha: float, n: int) -> TruncatedSeries:
    """z / (1 - conj(phi0) z)^(alpha+3) to degree n, for |phi0| < 1."""
    if abs(phi0) >= 1:
        raise DomainError(f"multiplier point |phi0| = {abs(phi0)} is not < 1")
    b = binomial_kernel(np.conj(complex(phi0)), alpha + 3, n - 1)
    c = np.zeros(n + 1, dtype=np.complex128)
    c[1:] = b.coeffs
    return TruncatedSeries(c)
