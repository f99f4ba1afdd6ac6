"""Bernoulli-number baseline for the zeta coefficients.

The classical recurrence (first-kind convention, B_1 = -1/2):

    B_0 = 1,   sum_{j=0}^{m-1} C(m, j) B_j = 0   for every m >= 2,

solved for B_{m-1}.  Odd indices >= 3 vanish.  The even entries reach the
zeta coefficients through the closed form

    c_k = (-1)^(k+1) * B_{2k} * 2^(2k-1) / (2k)!

so this module is a fully independent oracle for :mod:`zeta2k.recursive`.
The naive O(max_index^2) recurrence is kept on purpose: it is the honest
baseline the recursion is measured against in :mod:`zeta2k.bench`.

Like the recursion, it runs on integers.  B_0, B_2, B_4, ... are held as
numerators over one running common denominator, which grows to the lcm
with each new entry's reduced denominator whenever that does not divide
it (no von Staudt-Clausen: the table finds its denominators itself).
Each m then costs one Pascal row of C(m, j), one integer dot product and
the single reduction that turns -s/m into B_{m-1}, so no gcd is paid per
term.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial, lcm
from operator import add, mul

from .exact import _num_den_row, _table_text

__all__ = ["BernoulliTable", "zeta_coeff_via_bernoulli"]

_BERNOULLI_HEADER = ("m", "num", "den")


class BernoulliTable:
    """B_0 .. B_max_index, exact, built once. Immutable after construction."""

    def __init__(self, max_index: int):
        if max_index < 0:
            raise ValueError(f"max_index must be >= 0, got {max_index}")
        values = [Fraction(1)]
        # even[i] / den == B_(2i); den starts even, so B_1 = -(den // 2) / den
        den = 2
        even = [den]
        row = [1, 1]  # C(m, 0..m), advanced one m per step
        for m in range(2, max_index + 2):
            row = [1, *map(add, row, row[1:]), 1]
            s = sum(map(mul, row[0 : m - 1 : 2], even))
            if m > 2:
                s -= m * (den // 2)  # C(m, 1) * B_1
            b = Fraction(-s, m * den)  # B_(m-1)
            values.append(b)
            if m % 2:  # m - 1 is even: store B_(m-1) over den
                q = b.denominator
                if den % q:
                    grown = lcm(den, q)
                    even = [e * (grown // den) for e in even]
                    den = grown
                even.append(b.numerator * (den // q))
        self._values = values

    @property
    def max_index(self) -> int:
        return len(self._values) - 1

    @property
    def values(self) -> tuple[Fraction, ...]:
        """B_0 .. B_max_index; index m holds B_m."""
        return tuple(self._values)

    def value(self, m: int) -> Fraction:
        if not 0 <= m <= self.max_index:
            raise ValueError(f"index {m} outside table (max_index={self.max_index})")
        return self._values[m]

    def rows(self) -> list[dict[str, object]]:
        """Export rows {"m": int, "num": str, "den": str} in ascending m."""
        return [_num_den_row("m", m, b) for m, b in enumerate(self._values)]

    def to_json(self) -> str:
        return _table_text(_BERNOULLI_HEADER, self.rows(), "json")

    def to_csv(self) -> str:
        return _table_text(_BERNOULLI_HEADER, self.rows(), "csv")


def zeta_coeff_via_bernoulli(k: int, table: BernoulliTable) -> Fraction:
    """c_k from B_{2k}; the table must already cover index 2k."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if table.max_index < 2 * k:
        raise ValueError(
            f"table covers B_0..B_{table.max_index}, need B_{2 * k}"
        )
    # one Fraction, so one gcd: (-1)^(k+1) * B_2k * 2^(2k-1) / (2k)!
    b = table.value(2 * k)
    num = b.numerator << (2 * k - 1)
    return Fraction(num if k % 2 else -num, b.denominator * factorial(2 * k))
