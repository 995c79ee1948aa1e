"""Numerical operator theory on weighted Hardy spaces.

Truncated power series, weight sequences and reproducing kernels, disk
self-map symbols, dense operator matrices in the monomial basis, and a
verification harness for the norm, spectrum, boundedness, and adjoint
identities of composition-differentiation operators.
"""

from .errors import (
    CertificationError,
    DegreeMismatchError,
    DomainError,
    HolospaceError,
    NumericalFailureError,
    PoleInDiskError,
    PreconditionError,
    SingularInputError,
    UnsupportedOperationError,
)
from .maps import (
    MoebiusMap,
    MonomialMap,
    PolynomialMap,
    parse_symbol,
    random_strict_moebius,
)
from .operators import (
    OpMatrix,
    build_composition,
    build_D_phi,
    build_DC_phi,
    build_differentiation,
    build_multiplication,
    operator_norm,
    singular_values,
    spectrum,
    weighted_adjoint,
)
from .series import TruncatedSeries, binomial_kernel, exp_series, log_series
from .spaces import (
    KernelKind,
    SpaceSpec,
    inner_product,
    kernel,
    norm,
    parse_space,
)
from .verify import CheckReport, default_suite

__version__ = "0.1.0"

__all__ = [
    "TruncatedSeries",
    "binomial_kernel",
    "exp_series",
    "log_series",
    "SpaceSpec",
    "KernelKind",
    "kernel",
    "inner_product",
    "norm",
    "parse_space",
    "MoebiusMap",
    "MonomialMap",
    "PolynomialMap",
    "parse_symbol",
    "random_strict_moebius",
    "OpMatrix",
    "build_composition",
    "build_differentiation",
    "build_D_phi",
    "build_DC_phi",
    "build_multiplication",
    "weighted_adjoint",
    "operator_norm",
    "singular_values",
    "spectrum",
    "CheckReport",
    "default_suite",
    "HolospaceError",
    "DegreeMismatchError",
    "SingularInputError",
    "DomainError",
    "PoleInDiskError",
    "CertificationError",
    "UnsupportedOperationError",
    "NumericalFailureError",
    "PreconditionError",
    "__version__",
]
