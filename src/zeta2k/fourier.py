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
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
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
# numerical oracle, on plain ints in binary fixed point: an int v stands for
# v / 2**bits

_NODES = 24  # Gauss-Legendre points per panel, exact to degree 47
_GUARD_BITS = 40  # working bits past the precision of the result
_HALVINGS = 8  # cos takes its Taylor series at 1/2**_HALVINGS of its argument
_RULES = 64  # node sets kept, one per working precision, about 2 KB each


def _quad_dps(k: int, tol: float) -> int:
    # |A| reaches ~2*(2k)!*pi^(2k-2), far past float64 for larger k, and
    # tol is absolute; size the working precision off both.
    magnitude_digits = len(_int_str(2 * factorial(2 * k))) + k
    tol_digits = max(12, -math.floor(math.log10(tol)))
    return magnitude_digits + tol_digits + 16


def _legendre(x: int, bits: int) -> tuple[int, int]:
    """P_24(x) and P_23(x) by the three-term recurrence."""
    p_prev, p = 1 << bits, x
    for j in range(1, _NODES):
        p_prev, p = p, ((2 * j + 1) * (x * p >> bits) - j * p_prev) // (j + 1)
    return p, p_prev


@lru_cache(maxsize=_RULES)
def _legendre_rule(bits: int) -> tuple[tuple[int, int], ...]:
    """The 24-point Gauss-Legendre rule on [-1, 1]: its 12 positive nodes, x = 1 down.

    Each is a (node, weight) pair; the negative nodes mirror them, with
    the same weights.  Each positive root of P_24 is found by Newton's
    method from its float asymptotic value,
    x -= P_24(x) * (1 - x^2) / (24 * (P_23(x) - x*P_24(x))), until a step
    is below 16 units of the last place; its weight is
    2 * (1 - x^2) / (24 * P_23(x))^2, which is 2 / ((1 - x^2) * P_24'(x)^2)
    at a root.
    """
    one = 1 << bits
    half = []
    for i in range(1, _NODES // 2 + 1):
        guess = math.cos(math.pi * (4 * i - 1) / (4 * _NODES + 2))
        x = int(math.ldexp(guess, 53)) << (bits - 53)
        while True:
            p, q = _legendre(x, bits)
            dx = p * ((one * one - x * x) >> bits) // (_NODES * (q - (x * p >> bits)))
            x -= dx
            if abs(dx) < 16:
                break
        _, q = _legendre(x, bits)
        weight = ((one * one - x * x) << (bits + 1)) // (_NODES * _NODES * q * q)
        half.append((x, weight))
    return tuple(half)


def _fixed_pow(u: int, e: int, bits: int) -> int:
    """u**e for e >= 1 by square and multiply, each product cut to bits."""
    result = None
    while True:
        if e & 1:
            result = u if result is None else result * u >> bits
        e >>= 1
        if not e:
            return result
        u = u * u >> bits


def _fixed_cos(v: int, pi: int, bits: int) -> int:
    """cos(v) for v >= 0: reduced into [0, pi], halved, Taylor, doubled back."""
    one = 1 << bits
    v %= 2 * pi
    if v > pi:
        v = 2 * pi - v
    z2 = v * v >> (bits + 2 * _HALVINGS)  # (v / 2**_HALVINGS)**2
    total = term = one
    m = 0
    while term:
        m += 2
        term = (term * z2 >> bits) // ((m - 1) * m)
        total += -term if m & 2 else term
    for _ in range(_HALVINGS):
        total = (total * total >> (bits - 1)) - one  # cos 2a = 2 cos^2 a - 1
    return total


def cosine_coeff_quadrature(
    k: int, n: int, tol: float, max_doublings: int = 20
) -> HighPrecReal:
    """(2/pi) * integral of (x-pi)^(2k) cos(nx) over [0, pi], adaptively.

    Composite 24-point Gauss-Legendre panels, doubling the panel count
    until two successive estimates of the integral differ by less than
    tol/2.  The work runs on plain ints in binary fixed point with W
    fractional bits, W the bit precision of _quad_dps + 10 digits plus 40
    guard bits, so tol is honored even where the coefficient magnitude
    exceeds float range, and results are the same from run to run.  It
    has no lock and needs none: it shares nothing between calls but the
    memos of pi and of the node sets, and it never reads or sets mpmath's
    working precision, so it is safe to call from several threads at
    once.  pi is the package's ``pi_value``, one Chudnovsky run with a
    proven error bound, cut to W bits.  The value is a raw mpf at the bit
    precision of _quad_dps digits, so mpmath loads only when ``.value`` is
    read.

    Error bound, in units of 2^-W.  At each point t, u = pi - t is off by
    at most 3, so u^(2k), by square and multiply with one cut per product,
    is off by at most (6k + 2*log2(2k)) * pi^(2k).  cos(nu) is off by at
    most 3n from the reduction of nu mod 2*pi and 2T + 3 from its T-term
    Taylor series, which the eight double-angle steps c -> 2c^2 - 1 can
    amplify fourfold each, 2^16 in all.  The nodes and weights are exact
    to 2^16.  Products are summed exactly, and of the up to 24 * 2^21
    points summed, each counts its weight over P, the panel count, with
    weights adding up to 2 in each panel.  So the estimate of the
    coefficient is off by at most about 2^(20-W) * (2T + k + n) * pi^(2k),
    which is about 10^-(dps+17) * (2T + k + n) * 10^k: as dps counts k
    digits past tol's, far below tol.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if not tol > 0:
        raise ValueError(f"tol must be > 0, got {tol}")
    from .precision import HighPrecReal, PrecisionConfig, _dps_to_prec, _normalize, pi_value

    dps = _quad_dps(k, tol)
    digits = max(1, -math.floor(math.log10(tol)))
    prec = _dps_to_prec(dps)
    bits = _dps_to_prec(dps + 10) + _GUARD_BITS
    rule = _legendre_rule(bits)
    # bits/3 digits, with pi_value's 15 guard digits, are more than bits
    _, man, exp, _ = pi_value(PrecisionConfig(digits=bits // 3))._raw
    pi = (man << bits) >> -exp
    two_k = 2 * k
    tol_num, tol_den = float(tol).as_integer_ratio()

    def estimate(doubling: int) -> int:
        # P = 2**doubling panels; the sum is scaled by 2**(3*bits).  Node x of
        # panel p is t = pi*(2p + 1 + x)/(2P), and node -x of panel P - 1 - p
        # is pi - t; with u = pi - t the pair adds
        # w * ((-1)^n u^(2k) + (pi - u)^(2k)) * cos(nu), one cos for both.
        panels = 1 << doubling
        shift = bits + doubling + 1
        acc = 0
        for p in range(panels):
            base = (2 * (panels - p) - 1) << bits
            for x, w in rule:
                u = pi * (base - x) >> shift
                near = _fixed_pow(u, two_k, bits)
                far = _fixed_pow(pi - u, two_k, bits)
                acc += w * (far - near if n & 1 else far + near) * _fixed_cos(n * u, pi, bits)
        return acc

    def coefficient(acc: int, doubling: int) -> HighPrecReal:
        value = _normalize(int(acc < 0), abs(acc), -3 * bits - doubling, prec)
        return HighPrecReal(digits=digits, value=value)

    doubling = 0
    best = estimate(doubling)
    while doubling < max_doublings:
        doubling += 1
        current = estimate(doubling)
        # the integrals are pi/2 times the coefficients, acc / (P * 2**(3*bits))
        if pi * abs(current - 2 * best) * tol_den < tol_num << (4 * bits + doubling):
            return coefficient(current, doubling)
        best = current
    raise QuadratureError(coefficient(best, doubling), tol, 1 << doubling)


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
