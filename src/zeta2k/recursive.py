"""Exact coefficients c_k of zeta(2k) = c_k * pi^(2k), without Bernoulli numbers.

Evaluating the cosine expansion of (x - pi)^(2k) at x = 0 gives, for every
k >= 1, the exact rational identity

    k/(2k+1)!  =  sum_{m=1}^{k} (-1)^(m-1) * c_m / (2k-2m+1)!

whose m = k term is (-1)^(k-1) * c_k, so each c_k follows from the ones
before it.  The empty sum at k = 1 gives c_1 = 1/3! = 1/6, i.e.
zeta(2) = pi^2/6.

The table runs this recursion on integers, over scales

    Lambda(K) = 2 * odd((2K)!) * prod p,  over the odd primes p <= 2K+1
                                          with 2K mod (p-1) <= 2K mod p,

where odd(n) is n with its factors 2 removed.  Every P_m = Lambda(K) * c_m
with m <= K is an integer.  (2m)! * c_m = 2^(2m-1) * |B_2m|, and by von
Staudt-Clausen the denominator of B_2m is exactly the product of the
primes p with (p-1) | 2m, 2 among them.  So the odd part of c_m's
denominator divides odd((2m)!) * prod_{p odd, (p-1) | 2m} p.  Over
m <= K, the exponent of an odd prime p in these bounds is at most
v_p((2K)!) + 1, and it is that when some m <= K with (p-1) | 2m has
v_p((2m)!) = v_p((2K)!).  v_p(n!) is constant for n from p*floor(2K/p)
to 2K and smaller below, so that holds when the largest multiple of p-1
not above 2K, which is 2K - 2K mod (p-1), is at least
2K - 2K mod p: the mod test.  (p-1 <= 2K, so that multiple is 2m for
some m >= 1; a prime p > 2K+1 divides none of the bounds.)  Lambda(K)'s
odd part is thus the lcm of the bounds over m <= K, so it is a multiple of
the odd part of every c_m's denominator, and it divides
odd(lcm(1..2K+1) * (2K)!): 1795 against 2170 bits at K = 150, and 17,165
against 19,928 at K = 1000.  And B_2m has exactly one 2 in its denominator
and an odd numerator, so with v2((2m)!) = 2m - s2(m) (Legendre; s2 is the
binary digit sum), v2(c_m) = (2m-1) - 1 - (2m - s2(m)) = s2(m) - 2 >= -1:
no c_m has more than one 2 in its denominator, and Lambda(K) keeps one.
The bounds over m <= k are some of those over m <= K, so for k <= K the
odd part of Lambda(k), their lcm, divides that of Lambda(K), and both keep
one 2: Lambda(k) divides Lambda(K).

c_1 .. c_k need only Lambda(k), 760 bits at k = 75 against 1795 at
K = 150, and every cost of a step grows with the scale's length.  So the
table is solved in blocks, whose ends fall from K by a factor 4/5 down to
a floor of 32 (K = 150: 38, 48, 60, 76, 96, 120, 150; every K < 40 keeps
one scale), each block over Lambda(end).  Entering a block multiplies each
stored P_m by the exact quotient of the two scales, and each c_k is
reduced against its own block's scale.  With Lambda for the scale of k's
block, multiplying the identity by Lambda * (2k+1)! gives

    k * Lambda  =  sum_{m=1}^{k} (-1)^(m-1) * P_m * g_m,
    g_m = (2k+1)!/(2k-2m+1)!,

with g_1 = (2k+1)(2k) and g_(m+1) = g_m * (2k+1-2m)(2k-2m).  So the sum
over m < k is (2k+1)(2k) * acc, where acc = P_m - (2k+1-2m)(2k-2m) * acc
for m = k-1 down to 1 (Horner's rule): every product is big by small, as
in Brent & Harvey's tangent-number triangle (arXiv:1108.0286).  The m = k
term has g_k = (2k+1)!, so each new P_k costs one exact division, and
c_k = P_k / Lambda is reduced once.  A reduced rational does not depend
on the scale it was reduced from, so every c_k is the same on any ladder.
A table is built once, at the size asked for, and never changes after
that.  All arithmetic is exact; pi never enters (it is reattached at
evaluation time by :mod:`zeta2k.precision`).

:func:`consistency_residual` checks the identity on the stored c_m as
literal rationals.  It sums the same terms by Horner's rule, over its own
common multiple, so it catches entries corrupted after the build; it is
not an independent route.  Those are the Bernoulli numbers for the c_k
(:mod:`zeta2k.bernoulli`), the cosine and b-product identities behind
the recursion and the quadrature oracle (:mod:`zeta2k.fourier`), and the
direct sum for zeta(2k) (:mod:`zeta2k.precision`).
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial, isqrt, lcm
from operator import is_

from .exact import _num_den_row, _require_int, _table_text

__all__ = ["ZetaCoeffTable", "consistency_residual"]

_COEFF_HEADER = ("k", "num", "den")

# Block ends fall from K by this factor, rounded down.  An entry's block
# scale is then at most 1.4 times as long as Lambda(k) (K <= 2000), while a
# block costs one _scale and one multiply per stored P_m, about one step's
# Horner sum; ratios from 2/3 to 5/6 built tables to K = 60-600 in alike times.
_RUNG = Fraction(4, 5)
# No block ends below this: a table to K = 32 takes about 0.2 ms over a
# 250-bit scale, so a shorter scale saves less than a block costs.
_FLOOR = 32


class ZetaCoeffTable:
    """c_1 .. c_max_k, exact, built once. Immutable after construction.

    c_k depends on every earlier entry, so the constructor solves the whole
    table in one pass, block by block over a ladder of growing scales: each
    block runs over Lambda(end) of its last k (see the module docstring).
    The entries never change after that, and :func:`consistency_residual`
    only swaps in a whole cache tuple, so threads may share one table
    without a lock.
    """

    def __init__(self, max_k: int):
        _require_int("max_k", max_k, 1)
        ends = [max_k]  # block ends, from max_k down to the floor
        while (lower := ends[-1] * _RUNG.numerator // _RUNG.denominator) >= _FLOOR:
            ends.append(lower)
        scale = 1  # Lambda(end) of the block being solved
        scaled = []  # P_m = scale * c_m
        coeffs = []
        fact = 1  # (2k+1)!, advanced at the top of each step
        # (2j+1)(2j) for j = 1 .. max_k-1: the ratio of g_(k-j+1) to g_(k-j)
        steps = [(2 * j + 1) * (2 * j) for j in range(1, max_k)]
        for end in reversed(ends):
            ratio, rem = divmod(_scale(end), scale)
            if rem:
                raise ArithmeticError(f"Lambda({end}) is not a multiple of the last scale")
            scaled = [p * ratio for p in scaled]
            scale *= ratio
            for k in range(len(scaled) + 1, end + 1):
                fact *= 2 * k * (2 * k + 1)
                acc = 0
                for p, f in zip(reversed(scaled), steps):
                    acc = p - f * acc
                p_k, rem = divmod(k * scale - (2 * k + 1) * (2 * k) * acc, fact)
                if rem:
                    raise ArithmeticError(f"P_{k} is not an integer")
                if not k % 2:
                    p_k = -p_k
                scaled.append(p_k)
                coeffs.append(Fraction(p_k, scale))
        self._coeffs = coeffs
        # (coefficients seen, Lambda, P) for consistency_residual
        self._residual_cache: tuple | None = None

    @property
    def max_k(self) -> int:
        return len(self._coeffs)

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """c_1 .. c_max_k; index k-1 holds c_k."""
        return tuple(self._coeffs)

    def coeff(self, k: int) -> Fraction:
        """Return c_k for 1 <= k <= max_k."""
        _require_int("k", k, 1)
        if k > len(self._coeffs):
            raise ValueError(f"k must be <= max_k = {len(self._coeffs)}, got {k}")
        return self._coeffs[k - 1]

    def rows(self) -> list[dict[str, object]]:
        """Export rows {"k": int, "num": str, "den": str} in ascending k."""
        return [_num_den_row("k", k, c) for k, c in enumerate(self._coeffs, start=1)]

    def to_json(self) -> str:
        return _table_text(_COEFF_HEADER, self.rows(), "json")

    def to_csv(self) -> str:
        return _table_text(_COEFF_HEADER, self.rows(), "csv")


def _scale(max_k: int) -> int:
    """Lambda = 2 * odd((2K)!) * prod p over the odd primes p <= 2K+1 with
    2K mod (p-1) <= 2K mod p, for K = max_k (see the module docstring)."""
    n = 2 * max_k
    fact = factorial(n)
    scale = fact >> ((fact & -fact).bit_length() - 2)  # one factor 2 kept
    sieve = bytearray([1]) * (n + 2)  # sieve[p] for odd p <= n+1: p is prime
    for p in range(3, isqrt(n + 1) + 1, 2):
        if sieve[p]:
            sieve[p * p :: 2 * p] = bytes(len(range(p * p, n + 2, 2 * p)))
    for p in range(3, n + 2, 2):
        if sieve[p] and n % (p - 1) <= n % p:
            scale *= p
    return scale


def consistency_residual(table: ZetaCoeffTable, k: int) -> Fraction:
    """Exact residual of the defining identity at a given k.

    Returns k/(2k+1)! - sum_{j=0}^{k-1} (-1)^j c_{j+1}/(2k-2j-1)!, which
    must be exactly 0/1 for a correct table.  Nonzero residuals pinpoint
    the first broken entry when hunting a fault.

    The terms are the literal fractions c_{j+1}/(2k-2j-1)!, taken over the
    common multiple Lambda * (2k+1)!, where Lambda is the lcm of the
    denominators stored in the table and P_j = Lambda * c_{j+1} are
    integers.  With f_j = (2k+1-2j)(2k-2j) = (2k-2j+1)!/(2k-2j-1)!, the
    numerator sum_j (-1)^j P_j * (2k+1)!/(2k-2j-1)! follows by Horner's
    rule, acc = f_j * (P_j - acc) for j = k-1 down to 0, so a call costs k
    small-by-big products; Lambda and P are kept per table (see
    :func:`_scaled_coeffs`).  The result is the same reduced rational as
    the sum of the fractions themselves: only the common multiple differs.
    The :class:`ZetaCoeffTable` constructor sums these terms by Horner's
    rule too; the two stay separate code, so that one fault cannot zero
    every residual.
    """
    _require_int("k", k, 1)
    if k > table.max_k:
        raise ValueError(f"k must be <= max_k = {table.max_k}, got {k}")
    scale, scaled = _scaled_coeffs(table, k)
    acc = 0
    for j in reversed(range(k)):
        acc = (2 * k + 1 - 2 * j) * (2 * k - 2 * j) * (scaled[j] - acc)
    return Fraction(k * scale - acc, scale * factorial(2 * k + 1))


def _scaled_coeffs(table: ZetaCoeffTable, k: int) -> tuple[int, tuple[int, ...]]:
    """(Lambda, P) for the table's current c_1 .. c_k, built once per table.

    The cache is one tuple (the coefficient objects it saw, Lambda, P),
    replaced whole and read without a lock.  Tables do not change, but an
    entry replaced in ``_coeffs`` (as fault injection does) must show: the
    cache serves k only while its first k objects are the table's current
    entries, and is rebuilt from a snapshot otherwise.
    """
    cache = table._residual_cache
    if cache is not None:
        seen, scale, scaled = cache
        if all(map(is_, seen, table._coeffs[:k])):
            return scale, scaled
    seen = tuple(table._coeffs)
    scale = lcm(*(c.denominator for c in seen))
    scaled = tuple(c.numerator * (scale // c.denominator) for c in seen)
    table._residual_cache = (seen, scale, scaled)
    return scale, scaled
