"""Exact rational coefficients c_k with zeta(2k) = c_k * pi^(2k).

The coefficients come from a Bernoulli-free recursion over exact
rationals, are cross-checked against the classical Bernoulli-number
route, and are tied back to analysis through the cosine-series
expansion of (x - pi)^(2k) and through high-precision decimal
evaluation with an independent direct-summation oracle.

Every public name is imported from its submodule on first access
(PEP 562), so ``import zeta2k`` and the integer-only parts of the package
load neither mpmath nor numpy.
"""

import importlib

__version__ = "0.1.0"

# public name -> submodule that defines it, in the order of __all__
_SUBMODULE = {
    "format_rational": "exact",
    "ZetaCoeffTable": "recursive",
    "consistency_residual": "recursive",
    "BernoulliTable": "bernoulli",
    "zeta_coeff_via_bernoulli": "bernoulli",
    "CosineTerm": "fourier",
    "CosineCoeff": "fourier",
    "PiTerm": "fourier",
    "QuadratureError": "fourier",
    "mean_coeff": "fourier",
    "cosine_coeff_closed": "fourier",
    "cosine_coeff_recursive": "fourier",
    "b_factor": "fourier",
    "b_product_closed": "fourier",
    "cosine_coeff_quadrature": "fourier",
    "reconstruct": "fourier",
    "reconstruction_residual": "fourier",
    "PrecisionConfig": "precision",
    "HighPrecReal": "precision",
    "InfeasiblePrecisionError": "precision",
    "pi_value": "precision",
    "pi_digits": "precision",
    "zeta_eval": "precision",
    "zeta_direct_sum": "precision",
    "direct_sum_terms": "precision",
    "feasible_digits": "precision",
    "format_real": "precision",
    "BenchRow": "bench",
    "BenchReport": "bench",
    "BackendMismatchError": "bench",
    "bench_compare": "bench",
    "DEFAULT_SWEEP": "bench",
}

__all__ = ["__version__", *_SUBMODULE]


def __getattr__(name):
    try:
        submodule = _SUBMODULE[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(importlib.import_module(f"{__name__}.{submodule}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_SUBMODULE))
