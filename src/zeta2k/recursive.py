"""Exact coefficients c_k of zeta(2k) = c_k * pi^(2k), without Bernoulli numbers.

Evaluating the cosine expansion of (x - pi)^(2k) at x = 0 gives, for every
k >= 1, the exact rational identity

    k/(2k+1)!  =  sum_{m=1}^{k} (-1)^(m-1) * c_m / (2k-2m+1)!

whose m = k term is (-1)^(k-1) * c_k, so each c_k follows from the ones
before it.  The empty sum at k = 1 gives c_1 = 1/3! = 1/6, i.e.
zeta(2) = pi^2/6.

The table runs this recursion on integers.  With K the largest k wanted
and L = lcm(1, ..., 2K+1), multiplying the identity by (2k+1)! * L gives

    k * L  =  sum_{m=1}^{k} (-1)^(m-1) * C(2k+1, 2m) * E_m,
    E_m = L * (2m)! * c_m,

and every E_m is an integer: (2m)! * c_m = 2^(2m-1) * |B_2m|, and the
denominator of B_2m is a product of distinct primes p <= 2m+1.  The m = k
term has C(2k+1, 2k) = 2k+1, so each new E_k costs one exact division of
an integer sum, and c_k = E_k / (L * (2k)!) is reduced once.  Fractions,
and the gcds their sums pay for, stay out of the inner loop.

The binomials come from the lower half of Pascal's row n = 2k+1,
C(n, 0..k): its even entries give C(n, 2m) for 2m <= k, and its odd
entries, read backwards, give the rest through C(n, 2m) = C(n, n-2m).
Two Pascal steps, additions only, carry the half row from n - 2 to n,
and each row sum is one ``sum(map(mul, ...))``, so the loop over m runs
in the interpreter's C code.  A table that grows seeds the half row with
``math.comb`` at its current size.  All arithmetic is exact; pi never
enters (it is reattached at evaluation time by :mod:`zeta2k.precision`).

:func:`consistency_residual` checks the identity itself on the stored c_m,
as literal rationals.  With Lambda the lcm of the table's denominators
and P_j = Lambda * c_(j+1) (integers, kept per table), it takes the terms
over Lambda * (2k+1)! and sums their numerators by Horner's rule, one
small-by-big product per term.  It uses no L, E_m or binomials.
"""

from __future__ import annotations

import threading
from fractions import Fraction
from math import comb, factorial, lcm
from operator import add, is_, mul

from .exact import _num_den_row, _table_text

__all__ = ["ZetaCoeffTable", "consistency_residual"]

_COEFF_HEADER = ("k", "num", "den")


class ZetaCoeffTable:
    """Memoized table of c_1 .. c_max_k.

    Construction is inherently sequential (c_k depends on every earlier
    entry), so :meth:`extend` holds a lock; :meth:`coeff` and
    :func:`consistency_residual` may grow a table shared between threads.
    Extension reuses all existing entries, so growing a table costs
    O(growth * max_k) integer operations rather than a fresh rebuild.
    """

    def __init__(self, max_k: int):
        if max_k < 1:
            raise ValueError(f"max_k must be >= 1, got {max_k}")
        self._coeffs: list[Fraction] = []
        self._lock = threading.Lock()
        # (coefficients seen, Lambda, P) for consistency_residual
        self._residual_cache: tuple | None = None
        self.extend(max_k)

    @property
    def max_k(self) -> int:
        return len(self._coeffs)

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """c_1 .. c_max_k; index k-1 holds c_k."""
        return tuple(self._coeffs)

    def extend(self, new_max_k: int) -> None:
        """Grow the table so that c_1 .. c_new_max_k are available."""
        with self._lock:
            c = self._coeffs
            if new_max_k <= len(c):
                return
            scale = lcm(*range(1, 2 * new_max_k + 2))  # L
            # signed[m-1] = (-1)^(m-1) * E_m, so the row sums need no signs
            signed = []
            fact = 1  # (2m)!
            for m, q in enumerate(c, start=1):
                fact *= (2 * m - 1) * (2 * m)
                multiple, rem = divmod(scale * fact, q.denominator)
                if rem:
                    raise ArithmeticError(f"c_{m} is not a zeta coefficient")
                e_m = q.numerator * multiple
                signed.append(e_m if m % 2 else -e_m)
            start = len(c) + 1
            half = [comb(2 * start - 1, j) for j in range(start)]
            for k in range(start, new_max_k + 1):
                # half = C(2k-1, 0..k-1), and C(2k-1, k) = C(2k-1, k-1): two
                # Pascal steps give C(n, 0..k), the lower half of row n = 2k+1
                half = [1, *map(add, half, half[1:]), 2 * half[k - 1]]
                half = [1, *map(add, half, half[1:])]
                n = 2 * k + 1
                # C(n, 2m) for m = 1 .. k-1: the even entries of the half row,
                # then the rest mirrored, since C(n, 2m) = C(n, n-2m)
                binoms = half[2 : k + 1 : 2] + half[n - 2 * (k // 2 + 1) : 2 : -2]
                e_k, rem = divmod(k * scale - sum(map(mul, binoms, signed)), n)
                if rem:
                    raise ArithmeticError(f"E_{k} is not an integer")
                signed.append(e_k)
                fact *= (2 * k - 1) * (2 * k)
                c.append(Fraction(e_k if k % 2 else -e_k, scale * fact))

    def coeff(self, k: int) -> Fraction:
        """Return c_k, growing the table if k exceeds max_k."""
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        if k > len(self._coeffs):
            self.extend(k)
        return self._coeffs[k - 1]

    def rows(self) -> list[dict[str, object]]:
        """Export rows {"k": int, "num": str, "den": str} in ascending k."""
        return [_num_den_row("k", k, c) for k, c in enumerate(self._coeffs, start=1)]

    def to_json(self) -> str:
        return _table_text(_COEFF_HEADER, self.rows(), "json")

    def to_csv(self) -> str:
        return _table_text(_COEFF_HEADER, self.rows(), "csv")


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
    Nothing of the table's own integer recursion (L, E_m, binomials) is
    used, so the check stays independent of it.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    table.extend(k)
    scale, scaled = _scaled_coeffs(table, k)
    acc = 0
    for j in reversed(range(k)):
        acc = (2 * k + 1 - 2 * j) * (2 * k - 2 * j) * (scaled[j] - acc)
    return Fraction(k * scale - acc, scale * factorial(2 * k + 1))


def _scaled_coeffs(table: ZetaCoeffTable, k: int) -> tuple[int, tuple[int, ...]]:
    """(Lambda, P) for the table's current c_1 .. c_k, built once per table.

    The cache is one tuple (the coefficient objects it saw, Lambda, P),
    replaced whole and read without a lock.  It serves k only while its
    first k objects are the table's current entries, so growth, or an
    entry replaced in ``_coeffs``, rebuilds it from a snapshot.
    """
    cache = table._residual_cache
    if cache is not None:
        seen, scale, scaled = cache
        if len(seen) >= k and all(map(is_, seen, table._coeffs[:k])):
            return scale, scaled
    seen = tuple(table._coeffs)
    scale = lcm(*(c.denominator for c in seen))
    scaled = tuple(c.numerator * (scale // c.denominator) for c in seen)
    table._residual_cache = (seen, scale, scaled)
    return scale, scaled
