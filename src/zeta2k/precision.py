"""Decimal evaluation of zeta(2k) plus an independent summation oracle.

Two routes to the same number:

* ``zeta_eval`` multiplies an exact coefficient c_k by pi^(2k), with pi
  computed in-house by one Chudnovsky run (binary splitting over plain
  integers) whose error is proven under 2 units in its last digit.  pi is
  memoized in binary for the 16 most recent precisions, so repeated
  evaluations pay for the power and the rendering only.  ``pi_digits``
  prints from its own run.  The power is
  libmp's square and multiply: a ladder of repeated squares of pi, each
  cut to a working precision that depends only on the precision and
  the bit length of 2k, and one multiply per set bit of 2k.  Ladders are
  memoized by value, so one ladder serves every k of that bit length: a
  sweep zeta(2)..zeta(2K) at D digits squares pi about log2(2K)^2/2
  times, not K*log2(2K) times.  The memo keeps the 86 ladders used most
  recently: for k <= 2000, at most 1032 rungs of about 3.32 * (D + 25)
  bits.
* ``zeta_direct_sum`` sums the defining series sum(1/n^(2k)) and never
  touches a coefficient, pi or a Bernoulli number.  It sums M terms and
  adds the midpoint of an exact bracket on the rest: for the convex
  decreasing f(x) = x^(-2k) the trapezoid and midpoint rules give

      int_{M+1}^inf f + f(M+1)/2  <=  sum_{n>M} f(n)  <=  int_{M+1/2}^inf f,

  two elementary rationals.  The smallest M whose bracket is narrow
  enough puts the result within 10^-(D+2) of zeta(2k), with M far below
  the cutoff N of plain truncation (1.9e6 instead of 3.2e10 at k=2,
  D=30).  When M is over the term budget the error raised says so.

Both routes round in binary floating point over plain integers, bit for
bit as mpmath would, and return mpmath's raw float; mpmath itself is
imported only when a result's ``value`` is first read, and it is not a
runtime dependency: the package's commands, ``format_real`` and the raw
values run without it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import isqrt
from typing import Any

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


class _LazyMpf:
    """The ``value`` field of HighPrecReal: a raw mpf becomes an mpf when read.

    A raw mpf is mpmath's ``(sign, man, exp, bc)`` tuple.  mpmath is
    imported, and the ``mpmath.mpf`` built and kept, on the first read, so
    the evaluation routes and ``format_real`` run without it.  mpmath is in
    the ``test`` extra, not a runtime dependency: without it, that first
    read raises ImportError.
    """

    def __get__(self, obj, owner=None):
        if obj is None:
            raise AttributeError("value")  # to dataclass: the field has no default
        value = obj.__dict__["value"]
        if type(value) is tuple:
            from mpmath import mp

            value = obj.__dict__["value"] = mp.make_mpf(value)
        return value

    def __set__(self, obj, value):
        obj.__dict__["value"] = value


@dataclass(frozen=True)
class HighPrecReal:
    """An arbitrary-precision value tagged with its requested digit count.

    ``value`` carries comfortably more than ``digits`` digits.  It may be
    given as an ``mpmath.mpf``, which reads back as itself; as a raw mpf
    tuple, which is how ``zeta_eval``, ``pi_value`` and ``zeta_direct_sum``
    return it and which reads as an mpf built on the first read of
    ``value`` (the mpmath import waits for it too, so that read, and only
    that read, needs mpmath installed); or as an int, float or str, which
    reads back unchanged and which ``format_real`` renders from its exact
    decimal value (``"0.05"`` at 1 digit prints ``0.0``, where
    ``mp.mpf("0.05")``, a binary approximation, prints ``0.1``).  For a raw
    mpf, ``value`` is ``mp.make_mpf(raw)``: an mpf with exactly its bits.
    """

    digits: int
    value: Any = _LazyMpf()

    @property
    def _raw(self):
        """The stored value, as a raw mpf tuple when it is an mpf or one."""
        value = self.__dict__["value"]
        return getattr(value, "_mpf_", value)


class InfeasiblePrecisionError(Exception):
    """The direct sum needs more terms M than the configured budget.

    ``required_terms``, ``max_sum_terms`` and ``feasible_digits`` describe
    the integral bound on plain truncation: its cutoff N (at least M),
    the budget, and the largest D whose N fits that budget.  The message
    also gives M.
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
            f"direct sum for k={k} at {digits} digits needs N={_int_str(required_terms)} "
            f"terms by plain truncation and M={_int_str(enclosure_terms)} with the tail "
            f"enclosure, both over the budget of {max_sum_terms}; "
            f"largest feasible digits for plain truncation at this k: "
            f"{self.feasible_digits}"
        )


# ---------------------------------------------------------------------------
# binary floating point over plain ints
#
# Values are raw mpfs (sign, man, exp, bc) = (-1)**sign * man * 2**exp,
# with man odd (or the zero (0, 0, 0, 0)) and bc its bit length.  These
# round as mpmath.libmp does at round_nearest, bit for bit (the tests
# compare them): _dps_to_prec is dps_to_prec, _normalize is from_man_exp,
# _mpf_pow_int is mpf_pow_int for finite bases and n >= 1, and _quotient
# is mpf_div(from_int(num, prec), from_int(den), prec).


def _dps_to_prec(dps: int) -> int:
    return max(1, int(round((int(dps) + 1) * 3.3219280948873626)))


def _shift_half_even(man: int, n: int) -> int:
    """man / 2**n rounded half to even, for man >= 0 and n >= 1."""
    t = man >> (n - 1)  # the kept bits and the first dropped one
    return (t >> 1) + bool(t & 1 and (t & 2 or man & ((1 << (n - 1)) - 1)))


def _normalize(sign: int, man: int, exp: int, prec: int) -> tuple:
    """man * 2**exp rounded to prec bits half to even (prec 0: exact), made odd."""
    if not man:
        return (0, 0, 0, 0)
    n = man.bit_length() - prec
    if prec and n > 0:
        man = _shift_half_even(man, n)
        exp += n
    zeros = (man & -man).bit_length() - 1
    man >>= zeros
    return sign, man, exp + zeros, man.bit_length()


def _mpf_pow_int(s: tuple, n: int, prec: int) -> tuple:
    sign, man, exp, bc = s
    if n == 1:
        return _normalize(sign, man, exp, prec)
    sign &= n  # even powers are positive
    if n == 2 or bc * n < 1000:  # where libmp takes the exact power
        return _normalize(sign, man**n, exp * n, prec)
    # square and multiply: one multiply per set bit of n, lowest first, each
    # partial product cut to workprec bits, as libmp does
    workprec = prec + 4 * n.bit_length() + 4
    pm, pe = 1, 0
    for rung_man, rung_exp in _ladder(man, exp, n.bit_length() - 1, workprec):
        if n & 1:
            pm, pe = pm * rung_man, pe + rung_exp
            cut = pm.bit_length() - workprec
            if cut > 0:
                pm, pe = pm >> cut, pe + cut
        n >>= 1
    return _normalize(sign, pm, pe, prec)


# ladders memoized, the least recently used dropped first
_LADDERS = 86


@lru_cache(maxsize=_LADDERS)
def _ladder(man: int, exp: int, steps: int, workprec: int) -> tuple:
    """(man, exp) and its next ``steps`` squares, each cut to workprec bits.

    Rung i is the base to the power 2**i as the square-and-multiply loop
    holds it; it depends on n only through workprec and the rung count.
    Memoized by value: pi's mantissa is one shared object per precision,
    so a repeat costs a hash of the arguments.  For pi^(2k) with
    k <= 2000 (every ``eval -k``) a ladder has at most 12 rungs, the base
    and 11 squares, so the _LADDERS = 86 kept hold at most 1032 ints of
    about workprec bits: 2.2 MB at D = 5200 digits, 43 MB at D = 10^5 and
    171 MB at D = 4*10^5, the ``eval -d`` cap.
    """
    rungs = [(man, exp)]
    for _ in range(steps):
        man, exp = man * man, exp + exp
        cut = man.bit_length() - workprec
        if cut > 0:
            man, exp = man >> cut, exp + cut
        rungs.append((man, exp))
    return tuple(rungs)


def _quotient(num: int, den: int, prec: int) -> tuple:
    """Raw mpf of num / den at prec bits, rounding to nearest.

    num is first rounded to prec bits and den taken exactly, as libmp's
    from_int does; a sticky bit below the quotient's rounding point keeps
    a nonzero remainder from reading as a tie.
    """
    _, man, exp, bc = _normalize(0, abs(num), 0, prec)
    _, dman, dexp, dbc = _normalize(0, abs(den), 0, 0)
    extra = max(5, prec - bc + dbc + 5)
    quot, rem = divmod(man << extra, dman)
    if rem:
        quot = (quot << 1) + 1
        extra += 1
    return _normalize(int((num < 0) ^ (den < 0)), quot, exp - dexp - extra, prec)


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
    """S with |pi * 10**f - S| < _PI_ERROR = 2 (f = frac_digits), in one run.

    So S is floor(pi * 10**f) or one unit either side.  With work = f + 10
    the run sums t_a, a < N = work // 14 + 2, as T/Q, where the whole series
    is 426880 * sqrt(10005) / pi.  Errors, in units of 10**-work (so "pi"
    below is pi * 10**work):

    * Series tail.  t_a alternates in sign; |t_(a+1) / t_a| is
      8(6a+1)(6a+3)(6a+5)/(a+1)^3 (under 1728) times L_(a+1)/L_a (at most
      1.5 from a = 2; L_a = 13591409 + 545140134a) over 640320^3: below
      1.9e-14 at a = 0, and below 1e-14 after (about 1369/640320^3 at a = 1).
      So T/Q > t_0 * (1 - 2e-14), and the tail is under
      |t_N| < 1.9 * 10**(-14N) * t_0 <= 1.9 * 10**-(work+15) * t_0, as
      14N >= work + 15: the pi of the sum, 426880 * sqrt(10005) * Q/T, is
      within 7e-15 of pi.
    * ``isqrt`` is low by under 1, which lowers q*426880*root/t by under
      426880 * q/t < 0.0315; the floor of ``// t`` drops under 1 more.
      So the quotient is in (pi - 1.04, pi + 1e-14).
    * ``// 10**10`` floors it to units of 10**-f:
      -1e-24 < pi * 10**f - S < 1 + 1.04e-10.
    """
    work = frac_digits + 10
    _, q, t = _chud_split(0, work // 14 + 2)
    root = isqrt(10005 * 10 ** (2 * work))
    return (q * 426880 * root // t) // 10**10


_PI_ERROR = 2  # the bound proven in _pi_scaled's docstring


def pi_digits(frac_digits: int) -> str:
    """pi truncated to the given number of fractional digits, as text.

    One run 15 digits longer, cut to length: the cut is the floor of pi
    unless the digits cut off are within _PI_ERROR of 0 or of 10**15, where
    pi may lie on either side of it; then the run is redone 15 digits
    longer, until the cut is sure.
    """
    if frac_digits < 1:
        raise ValueError("frac_digits must be >= 1")
    extra = 15
    while True:
        scaled = _pi_scaled(frac_digits + extra)
        if _PI_ERROR <= scaled % 10**extra <= 10**extra - _PI_ERROR:
            break
        extra += 15
    s = _int_str(scaled // 10**extra)
    return f"{s[0]}.{s[1:]}"


def pi_value(cfg: PrecisionConfig) -> HighPrecReal:
    """pi from one run to digits+2*guard digits, within 2 units of the last.

    The run is made once per precision while that precision is among the
    16 most recently used: the raw mpf is memoized and shared between calls.
    """
    return HighPrecReal(digits=cfg.digits, value=_pi_mpf(cfg.digits + 2 * cfg.guard))


# pi is kept in binary for this many lengths d
_PI_PRECISIONS = 16


@lru_cache(maxsize=_PI_PRECISIONS)
def _pi_mpf(d: int) -> tuple:
    # raw mpf of pi_scaled / 10**d at d+10 digits; both ints fit that exactly
    return _quotient(_pi_scaled(d), 10**d, _dps_to_prec(d + 10))


# ---------------------------------------------------------------------------
# the two evaluation routes


def zeta_eval(k: int, cfg: PrecisionConfig, c_k: Fraction) -> HighPrecReal:
    """zeta(2k) = c_k * pi^(2k) to cfg.digits decimal places.

    c_k must be the verified coefficient for this k; it is trusted here.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    pi = pi_value(cfg)._raw
    # a small buffer past digits+guard so the guard digits are themselves
    # clean; the power loses only ~log10(2k) digits
    prec = _dps_to_prec(cfg.digits + cfg.guard + 10)
    num, den = c_k.numerator, c_k.denominator
    q_sign, q_man, q_exp, _ = _quotient(num, den, prec)
    p_sign, p_man, p_exp, _ = _mpf_pow_int(pi, 2 * k, prec)
    man = _times_quotient(abs(num), den, q_man, q_exp, p_man)
    value = _normalize(q_sign ^ p_sign, man, q_exp + p_exp, prec)
    return HighPrecReal(digits=cfg.digits, value=value)


def _times_quotient(num: int, den: int, q_man: int, q_exp: int, p_man: int) -> int:
    """q_man * p_man, exactly, where q_man * 2**q_exp is num / den rounded.

    With s = max(0, -q_exp) and t = max(0, q_exp), the rounding error
    r = num * 2**s - den * q_man * 2**t is at most den * 2**t / 2, so

        q_man * p_man = (num * p_man * 2**s - r * p_man) / (den * 2**t),

    a division that is exact by construction.  For c_k the numerator and
    denominator are far shorter than the mantissas (at most 241 bits for
    k <= 30, against 12-17k bits at D = 3500-5200), so every product here is
    short by long and the division is by a short number: linear in the
    mantissa's length, where q_man * p_man is a long by long product.
    """
    s, t = max(0, -q_exp), max(0, q_exp)
    r = (num << s) - ((den * q_man) << t)
    return (((num * p_man) << s) - r * p_man) // den >> t


def direct_sum_terms(k: int, cfg: PrecisionConfig) -> int:
    """Smallest N whose tail bound N^(1-2k)/(2k-1) is below 10^-(digits+2).

    Plain truncation's cutoff, reported when ``zeta_direct_sum`` refuses.
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
    """sum(1/n^(2k)) within 10^-(digits+2), with no coefficient, pi or Bernoulli number.

    The partial sum to M = _enclosure_terms(k, cfg) plus the midpoint of
    the exact tail bracket, in truncating fixed point: each term is
    10^P // n^(2k), and the M+1 truncations stay below the
    10^-(digits+guard+2) that M leaves for them.  Raises
    InfeasiblePrecisionError when M is over cfg.max_sum_terms.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    m = _enclosure_terms(k, cfg)
    if m > cfg.max_sum_terms:
        raise InfeasiblePrecisionError(
            k, cfg.digits, direct_sum_terms(k, cfg), cfg.max_sum_terms, m
        )
    lower, upper = _tail_bracket(k, m)
    tail = (lower + upper) / 2
    p = cfg.digits + cfg.guard + len(str(m)) + 2
    scale = 10**p
    e = 2 * k
    total = sum(scale // n**e for n in range(1, m + 1))
    total += tail.numerator * scale // tail.denominator
    value = _quotient(total, scale, _dps_to_prec(p + 10))
    return HighPrecReal(digits=cfg.digits, value=value)


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
    found by integer comparison.  Both notations scale through
    _scaled_half_even: by 5^m and one half-even shift when the denominator
    is a power of two, by the divmod rule otherwise.
    """
    d = x.digits
    if d < 0:
        raise ValueError(f"digits must be >= 0, got {d}")
    negative, num, den = _exact_parts(x._raw)
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
        scaled = _scaled_half_even(num, den, d - exp)
        if scaled == 10 ** (d + 1):  # rounding pushed the mantissa to 10
            exp += 1
            scaled //= 10
        s = _int_str(scaled)
        mant = f"{s[0]}.{s[1:]}" if d else s
        return f"{sign}{mant}e{exp:+03d}"
    s = _int_str(_scaled_half_even(num, den, d)).rjust(d + 1, "0")
    return f"{sign}{s[:-d]}.{s[-d:]}" if d else f"{sign}{s}"


def _scaled_half_even(num: int, den: int, d: int) -> int:
    """num * 10**d / den rounded half to even, for d >= 0.

    A dyadic den = 2**t (every mpf) takes num * 5**d and a half-even shift
    of t - d bits, since 10**d / 2**t = 5**d / 2**(t - d): a shorter product
    than num * 10**d, and 5**d is memoized.  Any other den (an int, float
    or str value) takes the divmod rule.
    """
    if den & (den - 1):
        q, r = divmod(num * 10**d, den)
        return q + bool(2 * r > den or (2 * r == den and q & 1))
    shift = den.bit_length() - 1 - d
    scaled = num * _pow5(d)
    return _shift_half_even(scaled, shift) if shift > 0 else scaled << -shift


@lru_cache(maxsize=_PI_PRECISIONS)
def _pow5(d: int) -> int:
    # one per digit count, kept for as many digit counts as pi is
    return 5**d


def _exact_parts(value) -> tuple[bool, int, int]:
    """(is negative, numerator, denominator) of |value|, a raw mpf or a number."""
    if type(value) is not tuple:  # int, float or str, as mp.mpf would take
        q = Fraction(value)
        return q < 0, abs(q.numerator), q.denominator
    sign, man, exp, _ = value
    if not man and exp:  # inf and nan carry a zero mantissa
        raise ValueError(f"cannot format the non-finite value {value}")
    man = int(man)
    if exp >= 0:
        return bool(sign), man << exp, 1
    return bool(sign), man, 1 << -exp

