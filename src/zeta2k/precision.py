"""Decimal evaluation of zeta(2k) plus an independent summation oracle.

Two routes to the same number:

* ``zeta_eval`` multiplies an exact coefficient c_k by pi^(2k), with pi
  computed in-house (Chudnovsky binary splitting over plain integers) and
  self-checked by a second run at a higher guard level.  The check runs
  once per precision per process: the longest checked pi so far is kept
  and shorter requests are sliced from it, bit-identical to a fresh run,
  so repeated evaluations pay for the power and the rendering only.
  ``pi_digits`` prints from the same checked source.
* ``zeta_direct_sum`` sums the defining series sum(1/n^(2k)) and never
  touches a coefficient, pi or a Bernoulli number.  Plain truncation comes
  first: the cutoff N is the smallest integer with
  N^(1-2k)/(2k-1) < 10^-(D+2), the integral bound on the dropped tail.
  When N is over the term budget, the tail is enclosed instead: for the
  convex decreasing f(x) = x^(-2k) the trapezoid and midpoint rules give

      int_{M+1}^inf f + f(M+1)/2  <=  sum_{n>M} f(n)  <=  int_{M+1/2}^inf f,

  two elementary rationals, so M terms plus the bracket midpoint reach D
  digits with M far below N (1.9e6 instead of 3.2e10 at k=2, D=30).
  Either way the result sits within 10^-(D+2) of the true value.  When
  both routes are over budget the error raised reports the largest D
  plain truncation can reach and the M the enclosure would need.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import isqrt
from typing import Any

from mpmath import mp
from mpmath.libmp import dps_to_prec, from_int, mpf_div, mpf_mul, mpf_pow_int, round_nearest

from .exact import _int_str

__all__ = [
    "PrecisionConfig",
    "HighPrecReal",
    "InfeasiblePrecisionError",
    "pi_value",
    "pi_digits",
    "zeta_eval",
    "direct_sum_terms",
    "feasible_digits",
    "zeta_direct_sum",
    "format_real",
]


@dataclass(frozen=True)
class PrecisionConfig:
    """Requested digits D, guard digits, and the oracle's term budget."""

    digits: int
    guard: int = 15
    max_sum_terms: int = 10**8

    def __post_init__(self):
        if self.digits < 1:
            raise ValueError(f"digits must be >= 1, got {self.digits}")
        if self.guard < 15:
            raise ValueError(f"guard must be >= 15, got {self.guard}")
        if self.max_sum_terms < 1:
            raise ValueError("max_sum_terms must be >= 1")


@dataclass(frozen=True)
class HighPrecReal:
    """An arbitrary-precision value tagged with its requested digit count."""

    digits: int
    value: Any  # mpmath.mpf carrying comfortably more than `digits` digits


class InfeasiblePrecisionError(Exception):
    """Both summation routes need more terms than the configured budget.

    ``required_terms``, ``max_sum_terms`` and ``feasible_digits`` describe
    plain truncation: its cutoff N, the budget it is over, and the largest
    D it reaches within that budget.  The message also gives the term
    count M the tail enclosure would need, which is over the budget too.
    """

    def __init__(
        self,
        k: int,
        digits: int,
        required_terms: int,
        max_sum_terms: int,
        enclosure_terms: int,
    ):
        self.k = k
        self.digits = digits
        self.required_terms = required_terms
        self.max_sum_terms = max_sum_terms
        self.feasible_digits = feasible_digits(k, max_sum_terms)
        super().__init__(
            f"direct sum for k={k} at {digits} digits needs N={required_terms} "
            f"terms by plain truncation and M={enclosure_terms} with the tail "
            f"enclosure, both over the budget of {max_sum_terms}; "
            f"largest feasible digits for plain truncation at this k: "
            f"{self.feasible_digits}"
        )


# ---------------------------------------------------------------------------
# pi by Chudnovsky binary splitting, over plain integers

_C3_OVER_24 = 640320**3 // 24


def _chud_split(a: int, b: int) -> tuple[int, int, int]:
    if b - a == 1:
        if a == 0:
            p = q = 1
        else:
            p = (6 * a - 5) * (2 * a - 1) * (6 * a - 1)
            q = a * a * a * _C3_OVER_24
        t = p * (13591409 + 545140134 * a)
        return p, q, -t if a & 1 else t
    m = (a + b) // 2
    p1, q1, t1 = _chud_split(a, m)
    p2, q2, t2 = _chud_split(m, b)
    return p1 * p2, q1 * q2, q2 * t1 + p1 * t2


def _pi_scaled(frac_digits: int) -> int:
    """floor(pi * 10**frac_digits). Each series term adds ~14.18 digits."""
    work = frac_digits + 10
    _, q, t = _chud_split(0, work // 14 + 2)
    root = isqrt(10005 * 10 ** (2 * work))
    return (q * 426880 * root // t) // 10**10


# The largest checked pi so far: (c1, c2, floor(pi * 10**c2)), whose first
# c1 fractional digits two Chudnovsky runs of different lengths agreed on.
# Replaced whole, under the lock, and only by a longer one.
_pi_cache: tuple[int, int, int] = (0, 0, 3)
_pi_cache_lock = threading.Lock()


def _pi_checked(d1: int, d2: int) -> int:
    """floor(pi * 10**d2), with at least its first d1 < d2 digits cross-checked.

    Served by slicing the cache when it covers both lengths.  Otherwise
    pi is computed to d1 and to d2 fractional digits, the two runs must
    agree on the first d1, and the result replaces a shorter cache.
    """
    global _pi_cache
    c1, c2, scaled = _pi_cache
    if d1 <= c1 and d2 <= c2:
        return scaled // 10 ** (c2 - d2)
    first = _pi_scaled(d1)
    second = _pi_scaled(d2)
    if second // 10 ** (d2 - d1) != first:
        raise RuntimeError(
            f"pi self-check failed: {d1}- and {d2}-digit runs disagree"
        )
    with _pi_cache_lock:
        c1, c2, _ = _pi_cache
        if (d2, d1) > (c2, c1):
            _pi_cache = (d1, d2, second)
    return second


def pi_digits(frac_digits: int) -> str:
    """pi truncated to the given number of fractional digits, as text.

    Every digit is cross-checked: the text is the checked part of a run
    15 digits longer (see ``pi_value``).
    """
    if frac_digits < 1:
        raise ValueError("frac_digits must be >= 1")
    s = _int_str(_pi_checked(frac_digits, frac_digits + 15) // 10**15)
    return f"{s[0]}.{s[1:]}"


def pi_value(cfg: PrecisionConfig) -> HighPrecReal:
    """pi to digits+2*guard, its first digits+guard digits cross-checked.

    The check (two Chudnovsky runs, at digits+guard and digits+2*guard,
    must agree) runs once per precision per process: a request that the
    longest checked pi so far covers is sliced from it, bit-identical to
    a fresh run.  The mpf is shared between calls; mpf is immutable.
    """
    return HighPrecReal(
        digits=cfg.digits,
        value=_pi_mpf(cfg.digits + cfg.guard, cfg.digits + 2 * cfg.guard),
    )


@lru_cache(maxsize=16)
def _pi_mpf(d1: int, d2: int):
    # pi_scaled / 10**d2 at d2+10 digits; both ints fit that exactly
    return mp.make_mpf(_quotient(_pi_checked(d1, d2), 10**d2, dps_to_prec(d2 + 10)))


def _quotient(num: int, den: int, prec: int) -> tuple:
    """Raw mpf of mp.mpf(num) / den with mp.prec = prec, rounding to nearest.

    The precision is explicit, so mpmath's process-wide one, which other
    threads may be changing, plays no part.
    """
    return mpf_div(from_int(num, prec, round_nearest), from_int(den), prec, round_nearest)


# ---------------------------------------------------------------------------
# the two evaluation routes


def zeta_eval(k: int, cfg: PrecisionConfig, c_k: Fraction) -> HighPrecReal:
    """zeta(2k) = c_k * pi^(2k) to cfg.digits decimal places.

    c_k must be the verified coefficient for this k; it is trusted here.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    pi = pi_value(cfg)
    # a small buffer past digits+guard so the guard digits are themselves
    # clean; the power loses only ~log10(2k) digits
    prec = dps_to_prec(cfg.digits + cfg.guard + 10)
    power = mpf_pow_int(pi.value._mpf_, 2 * k, prec, round_nearest)
    value = mpf_mul(_quotient(c_k.numerator, c_k.denominator, prec), power, prec, round_nearest)
    return HighPrecReal(digits=cfg.digits, value=mp.make_mpf(value))


def direct_sum_terms(k: int, cfg: PrecisionConfig) -> int:
    """Smallest N whose tail bound N^(1-2k)/(2k-1) is below 10^-(digits+2).

    Exact integer arithmetic throughout: the float seed is only a starting
    point and the answer is adjusted against the bound itself.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    e = 2 * k - 1
    target = 10 ** (cfg.digits + 2)
    n = max(1, _floor_nth_root(target // e, e))
    while e * n**e <= target:
        n += 1
    while n > 1 and e * (n - 1) ** e > target:
        n -= 1
    return n


def _floor_nth_root(x: int, e: int) -> int:
    if x <= 0:
        return 0
    r = 1 << -(-x.bit_length() // e)  # power of two at or above the root
    while True:
        nr = ((e - 1) * r + x // r ** (e - 1)) // e
        if nr >= r:
            return r
        r = nr


def feasible_digits(k: int, max_sum_terms: int) -> int:
    """Largest D the truncation bound can reach within the term budget."""
    if k < 1 or max_sum_terms < 1:
        raise ValueError("k and max_sum_terms must be >= 1")
    m = (2 * k - 1) * max_sum_terms ** (2 * k - 1)
    t = len(_int_str(m)) - 1
    if m == 10**t:
        t -= 1  # the bound is strict
    return max(0, t - 2)


def _tail_bracket(k: int, m: int) -> tuple[Fraction, Fraction]:
    """Exact (lower, upper) bounds on sum(1/n^(2k), n > m).

    With a = m+1 and e = 2k-1: lower = a^-e/e + a^-(e+1)/2 (trapezoid
    rule) and upper = (a - 1/2)^-e/e (midpoint rule), both valid because
    x^(-2k) is convex and decreasing.
    """
    a, e = m + 1, 2 * k - 1
    lower = Fraction(2 * a + e, 2 * e * a ** (e + 1))
    upper = Fraction(2**e, e * (2 * a - 1) ** e)
    return lower, upper


def _enclosure_terms(k: int, cfg: PrecisionConfig) -> int:
    """Smallest M whose tail bracket is narrow enough for cfg.digits.

    The bracket half-width must be at most 10^-(D+2) - 10^-(D+guard+2),
    leaving 10^-(D+guard+2) for the M+1 truncated fixed-point terms.  The
    width is about k*(M+1)^-(2k+1)/4 and shrinks as M grows, so an integer
    root seeds the search and the exact rational test settles it.
    """
    scale = 10 ** (cfg.digits + cfg.guard + 2)
    allowed = 2 * (10**cfg.guard - 1)

    def narrow(m: int) -> bool:
        lower, upper = _tail_bracket(k, m)
        return (upper - lower) * scale <= allowed

    m = max(1, _floor_nth_root(k * scale // (4 * allowed), 2 * k + 1) - 1)
    while not narrow(m):
        m += 1
    while m > 1 and narrow(m - 1):
        m -= 1
    return m


def zeta_direct_sum(k: int, cfg: PrecisionConfig) -> HighPrecReal:
    """sum(1/n^(2k)) to cfg.digits, without coefficients, pi or Bernoulli numbers.

    If the plain cutoff N = direct_sum_terms(k, cfg) fits cfg.max_sum_terms
    the result is the partial sum to N.  Otherwise it is the partial sum to
    the enclosure cutoff M plus the midpoint of the exact tail bracket,
    which is within half the bracket width of the dropped tail.  Both
    routes sum in truncating fixed-point arithmetic: each term is
    10^P // n^(2k), so per-term error is below 10^-P and the total
    truncation error stays far inside the 10^-(digits+2) budget.  Raises
    InfeasiblePrecisionError when both N and M are over the budget.
    """
    n_terms = direct_sum_terms(k, cfg)
    tail = Fraction(0)
    if n_terms > cfg.max_sum_terms:
        m = _enclosure_terms(k, cfg)
        if m > cfg.max_sum_terms:
            raise InfeasiblePrecisionError(
                k, cfg.digits, n_terms, cfg.max_sum_terms, m
            )
        n_terms = m
        lower, upper = _tail_bracket(k, m)
        tail = (lower + upper) / 2
    p = cfg.digits + cfg.guard + len(str(n_terms)) + 2
    scale = 10**p
    e = 2 * k
    total = sum(scale // n**e for n in range(1, n_terms + 1))
    total += tail.numerator * scale // tail.denominator
    value = _quotient(total, scale, dps_to_prec(p + 10))
    return HighPrecReal(digits=cfg.digits, value=mp.make_mpf(value))


# ---------------------------------------------------------------------------
# rendering


def format_real(x: HighPrecReal) -> str:
    """Fixed point with exactly x.digits fractional digits.

    Values with 0 < |x| < 1e-4 switch to scientific notation, keeping
    x.digits fractional digits in the mantissa.  A value that falls short
    of 1e-4 by less than half a unit in its (digits+25)-th significant
    digit counts as 1e-4 and stays fixed point, so a 1e-4 parsed at a
    higher working precision prints as 0.0001.  The value is rounded
    once, exactly, half to even: an mpf is the rational man*2^exp, so the
    printed digits are an integer quotient and the scientific exponent is
    found by integer comparison.
    """
    d = x.digits
    negative, num, den = _exact_parts(x.value)
    sign = "-" if negative else ""
    # bit lengths at least 12 apart downwards put |x| above 2^-13 > 1e-4,
    # so only values near the threshold pay for the exact comparison
    if num and (
        num.bit_length() - den.bit_length() < -12
        and 2 * num * 10 ** (d + 29) < (2 * 10 ** (d + 25) - 1) * den
    ):
        # 10**exp <= |x| < 10**(exp+1); exp <= -5 here, and the bit
        # lengths put the seed within a step or two of it
        exp = min(-5, int((num.bit_length() - den.bit_length()) * 0.30103))
        while num * 10**-exp < den:
            exp -= 1
        while num * 10 ** (-exp - 1) >= den:
            exp += 1
        scaled = _round_half_even(num * 10 ** (d - exp), den)
        if scaled == 10 ** (d + 1):  # rounding pushed the mantissa to 10
            exp += 1
            scaled //= 10
        s = _int_str(scaled)
        mant = f"{s[0]}.{s[1:]}" if d else s
        return f"{sign}{mant}e{exp:+03d}"
    s = _int_str(_round_half_even(num * 10**d, den)).rjust(d + 1, "0")
    return f"{sign}{s[:-d]}.{s[-d:]}" if d else f"{sign}{s}"


def _exact_parts(value) -> tuple[bool, int, int]:
    """(is negative, numerator, denominator) of |value|, exactly."""
    parts = getattr(value, "_mpf_", None)
    if parts is None:  # int, float or str, as mp.mpf would take
        q = Fraction(value)
        return q < 0, abs(q.numerator), q.denominator
    sign, man, exp, _ = parts
    if not man and exp:  # inf and nan carry a zero mantissa
        raise ValueError(f"cannot format the non-finite value {value}")
    man = int(man)
    if exp >= 0:
        return bool(sign), man << exp, 1
    return bool(sign), man, 1 << -exp


def _round_half_even(num: int, den: int) -> int:
    if den & (den - 1):
        q, r = divmod(num, den)
        return q + bool(2 * r > den or (2 * r == den and q & 1))
    # den = 2^shift, the mpf case: shifts and a mask, no long division
    shift = den.bit_length() - 1
    if not shift:
        return num
    halves = num >> (shift - 1)  # floor(2 * num / den)
    q = halves >> 1
    sticky = num & ((1 << (shift - 1)) - 1)
    return q + bool(halves & 1 and (sticky or q & 1))
