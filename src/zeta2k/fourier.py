"""Cosine-series coefficients of g_k(x) = (x - pi)^(2k) on [0, pi].

g_k is expanded in a half-range cosine series (the even 2*pi-periodic
extension of g_k), so sine terms vanish by construction.  The mean term
is pi^(2k)/(2k+1) and the n-th cosine coefficient has the closed form

    A(n, 2k) = sum_{j=0}^{k-1} 2*(2k)! * (-1)^j / (2k-2j-1)!
               * pi^(2k-2-2j) / n^(2+2j)

which this module also rebuilds two independent ways: by the recursion

    A(n, 2) = 4/n^2,
    A(n, 2m) = (4m/n^2) * pi^(2m-2) + b_m * A(n, 2m-2),
    b_m = -(2m)(2m-1)/n^2

and by adaptive Gauss-Legendre quadrature of (2/pi) * integral of
g_k(x)*cos(nx) over [0, pi].  Partial sums of the series evaluated at
x = 0 converge to pi^(2k), which is what links these coefficients to
the zeta values handled elsewhere in the package.

Products of consecutive b factors collapse to the closed form

    prod_{i=0}^{j} b_{k-i} = (-1)^(j+1) * 2^(j+1) / n^(2j+2)
                             * [k(k-1)...(k-j)]
                             * [(2k-1)(2k-3)...(2k-2j-1)]

with j+1 factors in each bracket; `b_product_closed` implements it and
the test suite checks it against the literal product.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from fractions import Fraction
from math import factorial
from typing import TYPE_CHECKING

from .exact import _int_str

if TYPE_CHECKING:
    from .precision import HighPrecReal

__all__ = [
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
]


@dataclass(frozen=True)
class CosineTerm:
    """One term coeff * pi^pi_power / n^inv_n_power, symbolic in n."""

    pi_power: int
    inv_n_power: int
    coeff: Fraction


@dataclass(frozen=True)
class CosineCoeff:
    """A(n, 2k) as a k-term sum, symbolic in n."""

    k: int
    terms: tuple[CosineTerm, ...]

    def substitute(self, n: int) -> dict[int, Fraction]:
        """Map pi_power -> rational coefficient with n plugged in."""
        if n < 1:
            raise ValueError(f"n must be >= 1, got {n}")
        return {t.pi_power: t.coeff / n**t.inv_n_power for t in self.terms}


@dataclass(frozen=True)
class PiTerm:
    """One monomial coeff * pi^pi_power of a polynomial in pi."""

    pi_power: int
    coeff: Fraction


class QuadratureError(Exception):
    """Panel doubling ran out of budget; carries the best estimate seen."""

    def __init__(self, best_estimate: HighPrecReal, tol: float, panels: int):
        self.best_estimate = best_estimate
        self.tol = tol
        self.panels = panels
        super().__init__(
            f"quadrature did not reach tol={tol} within {panels} panels"
        )


def mean_coeff(k: int) -> Fraction:
    """Mean of (x-pi)^(2k) over [0, pi], as the coefficient of pi^(2k)."""
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")
    return Fraction(1, 2 * k + 1)


def cosine_coeff_closed(k: int) -> CosineCoeff:
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    f2k = factorial(2 * k)
    terms = tuple(
        CosineTerm(
            pi_power=2 * k - 2 - 2 * j,
            inv_n_power=2 + 2 * j,
            coeff=Fraction(2 * f2k * (-1) ** j, factorial(2 * k - 2 * j - 1)),
        )
        for j in range(k)
    )
    return CosineCoeff(k=k, terms=terms)


def cosine_coeff_recursive(k: int, n: int) -> tuple[PiTerm, ...]:
    """A(n, 2k) via the two-term recursion, as a polynomial in pi.

    n is substituted numerically; coefficients stay exact rationals.
    Highest pi power first.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    # nums[i] / n^(2m) is the coefficient of pi^(2i) after step m: b_m
    # multiplies every numerator by -(2m)(2m-1), and the new lead 4m/n^2 is
    # 4m * n^(2m-2) over the common denominator
    n2 = n * n
    nums = [4]
    den = n2
    for m in range(2, k + 1):
        factor = -(2 * m) * (2 * m - 1)
        nums = [num * factor for num in nums]
        nums.append(4 * m * den)
        den *= n2
    return tuple(
        PiTerm(2 * i, Fraction(nums[i], den)) for i in reversed(range(k))
    )


def b_factor(m: int, n: int) -> Fraction:
    """b_m = -(2m)(2m-1)/n^2, the damping factor of the recursion."""
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    return Fraction(-(2 * m) * (2 * m - 1), n * n)


def b_product_closed(k: int, j: int, n: int) -> Fraction:
    """Closed form of b_k * b_(k-1) * ... * b_(k-j)."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if not 0 <= j <= k - 1:
        raise ValueError(f"j must satisfy 0 <= j <= k-1, got j={j}, k={k}")
    falling = 1
    odd = 1
    for i in range(j + 1):
        falling *= k - i
        odd *= 2 * (k - i) - 1
    sign = -1 if j % 2 == 0 else 1
    return Fraction(sign * 2 ** (j + 1) * falling * odd, n ** (2 * (j + 1)))


# ---------------------------------------------------------------------------
# numerical oracle

# get_nodes sets mp.prec while it builds nodes and the estimates run under
# mp.workdps; one quadrature at a time keeps each at its own precision
_QUADRATURE_LOCK = threading.Lock()
# mpmath's GaussLegendre rule, which caches its nodes per precision; built
# under the lock by the first quadrature, so only the oracle loads mpmath
_gauss_legendre = None


def _quad_dps(k: int, tol: float) -> int:
    # |A| reaches ~2*(2k)!*pi^(2k-2), far past float64 for larger k, and
    # tol is absolute; size the working precision off both.
    magnitude_digits = len(_int_str(2 * factorial(2 * k))) + k
    tol_digits = max(12, -math.floor(math.log10(tol)))
    return magnitude_digits + tol_digits + 16


def cosine_coeff_quadrature(
    k: int, n: int, tol: float, max_doublings: int = 20
) -> HighPrecReal:
    """(2/pi) * integral of (x-pi)^(2k) cos(nx) over [0, pi], adaptively.

    Composite 24-point Gauss-Legendre panels, doubling the panel count
    until two successive estimates differ by less than tol/2.  Runs in
    software arbitrary precision so tol is honored even where the
    coefficient magnitude exceeds float range.  Summation order is fixed,
    so results are reproducible run to run.

    The work runs at mpmath's process-wide precision, so calls hold one
    module lock and concurrent quadratures cannot see each other's
    precision.  Another thread that sets ``mp.prec`` itself (directly or
    through ``mp.workdps``) while a quadrature runs still changes its
    result.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if not tol > 0:
        raise ValueError(f"tol must be > 0, got {tol}")
    from mpmath import mp
    from mpmath.calculus.quadrature import GaussLegendre
    from mpmath.libmp import dps_to_prec

    from .precision import HighPrecReal

    global _gauss_legendre
    dps = _quad_dps(k, tol)
    digits = max(1, -math.floor(math.log10(tol)))
    with _QUADRATURE_LOCK, mp.workdps(dps):
        if _gauss_legendre is None:
            _gauss_legendre = GaussLegendre(mp)
        # degree 4 is 3 * 2**3 = 24 nodes on [-1, 1], built 10 digits past dps.
        # mpmath lists them in +-x pairs; they are summed from x = 1 down, and
        # that order fixes the last bits of every estimate.
        nodes = sorted(
            _gauss_legendre.get_nodes(-1, 1, 4, dps_to_prec(dps + 10)), reverse=True
        )
        pi = +mp.pi
        two_k = 2 * k
        tol_half = mp.mpf(tol) / 2

        def estimate(panels: int):
            h = pi / panels
            half = h / 2
            acc = mp.mpf(0)
            for p in range(panels):
                mid = p * h + half
                for x, w in nodes:
                    t = mid + half * x
                    acc += w * (t - pi) ** two_k * mp.cos(n * t)
            return acc * half

        best = estimate(1)
        panels = 1
        for _ in range(max_doublings):
            panels *= 2
            current = estimate(panels)
            if abs(current - best) < tol_half:
                return HighPrecReal(digits=digits, value=2 / pi * current)
            best = current
        raise QuadratureError(
            HighPrecReal(digits=digits, value=2 / pi * best), tol, panels
        )


# ---------------------------------------------------------------------------
# series reconstruction (double precision by design; the exact layer above
# already guarantees identities, this layer only watches convergence)


def reconstruct(k: int, x: float, n_terms: int) -> float:
    """Partial sum mean + sum_{n=1}^{n_terms} A(n,2k) cos(nx) at float width.

    Term values come from the closed form; the final reduction is
    compensated so the only real error left is the series tail.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if n_terms < 1:
        raise ValueError(f"n_terms must be >= 1, got {n_terms}")
    if not 0 <= x <= math.pi:
        raise ValueError(f"x must be in [0, pi], got {x}")
    import numpy as np

    n = np.arange(1, n_terms + 1, dtype=np.float64)
    series = np.zeros_like(n)
    scratch = np.empty_like(n)
    for term in cosine_coeff_closed(k).terms:
        np.power(n, -float(term.inv_n_power), out=scratch)
        scratch *= float(term.coeff) * math.pi**term.pi_power
        series += scratch
    if x != 0:  # cos(0.0) is exactly 1.0, so x = 0 needs no cos pass
        np.multiply(n, x, out=scratch)
        series *= np.cos(scratch, out=scratch)
    mean = math.pi ** (2 * k) / (2 * k + 1)
    # a memoryview yields plain floats, which fsum reads faster than numpy
    # scalars, and builds no list; fsum rounds exactly once, so the sum is
    # the same
    return mean + math.fsum(memoryview(series))


def reconstruction_residual(k: int, n_terms: int) -> float:
    """|pi^(2k) - reconstruct(k, 0, n_terms)|; shrinks like 1/n_terms."""
    return abs(math.pi ** (2 * k) - reconstruct(k, 0.0, n_terms))
