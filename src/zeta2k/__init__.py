"""Exact rational coefficients c_k with zeta(2k) = c_k * pi^(2k).

The coefficients come from a Bernoulli-free recursion over exact
rationals, are cross-checked against the classical Bernoulli-number
route, and are tied back to analysis through the cosine-series
expansion of (x - pi)^(2k) and through high-precision decimal
evaluation with an independent direct-summation oracle.
"""

from .bench import (
    DEFAULT_SWEEP,
    BackendMismatchError,
    BenchReport,
    BenchRow,
    bench_compare,
)
from .bernoulli import BernoulliTable, zeta_coeff_via_bernoulli
from .exact import format_rational
from .fourier import (
    CosineCoeff,
    CosineTerm,
    PiTerm,
    QuadratureError,
    b_factor,
    b_product_closed,
    cosine_coeff_closed,
    cosine_coeff_quadrature,
    cosine_coeff_recursive,
    mean_coeff,
    reconstruct,
    reconstruction_residual,
)
from .precision import (
    HighPrecReal,
    InfeasiblePrecisionError,
    PrecisionConfig,
    direct_sum_terms,
    feasible_digits,
    format_real,
    pi_digits,
    pi_value,
    zeta_direct_sum,
    zeta_eval,
)
from .recursive import ZetaCoeffTable, consistency_residual

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "format_rational",
    "ZetaCoeffTable",
    "consistency_residual",
    "BernoulliTable",
    "zeta_coeff_via_bernoulli",
    "CosineTerm",
    "CosineCoeff",
    "PiTerm",
    "QuadratureError",
    "mean_coeff",
    "cosine_coeff_closed",
    "cosine_coeff_recursive",
    "b_factor",
    "b_product_closed",
    "cosine_coeff_quadrature",
    "reconstruct",
    "reconstruction_residual",
    "PrecisionConfig",
    "HighPrecReal",
    "InfeasiblePrecisionError",
    "pi_value",
    "pi_digits",
    "zeta_eval",
    "zeta_direct_sum",
    "direct_sum_terms",
    "feasible_digits",
    "format_real",
    "BenchRow",
    "BenchReport",
    "BackendMismatchError",
    "bench_compare",
    "DEFAULT_SWEEP",
]
