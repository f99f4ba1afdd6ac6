"""Exact rational plumbing shared by every other module.

All coefficients in this package are `fractions.Fraction` values, which
already maintain the canonical form the cross-backend equality tests rely
on: positive denominator, coprime numerator/denominator, zero stored as
0/1, equality structural.  Values are immutable and safe to share across
threads.  This module adds the pieces the stdlib does not pin down: a
strict ``num/den`` text form, decimal text for integers of any size, and a
binomial that rejects out-of-range arguments instead of returning 0.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import comb, factorial

__all__ = [
    "Rational",
    "rational",
    "factorial",
    "binomial",
    "format_rational",
    "parse_rational",
]

# The one rational type used throughout the package.
Rational = Fraction

_RATIONAL_RE = re.compile(r"^([+-]?\d+)(?:/([+-]?\d+))?$")


def rational(num: int, den: int = 1) -> Fraction:
    """Canonical fraction num/den; raises ZeroDivisionError for den = 0."""
    return Fraction(num, den)


def binomial(n: int, m: int) -> int:
    """Exact C(n, m) for 0 <= m <= n; out-of-range m is an error."""
    if n < 0:
        raise ValueError(f"binomial: n must be >= 0, got {n}")
    if m < 0 or m > n:
        raise ValueError(f"binomial: need 0 <= m <= n, got m={m}, n={n}")
    return comb(n, m)


def format_rational(q: Fraction) -> str:
    """Render as ``num/den``, always including the denominator ("0/1", "-1/30")."""
    return f"{_int_str(q.numerator)}/{_int_str(q.denominator)}"


# Below Python's smallest allowed int->str limit (640 digits): 1900 bits
# is at most 572 digits, so str() is safe on every piece.
_STR_PIECE_BITS = 1900


def _int_str(n: int) -> str:
    """Decimal text of n, like str(n) but for any number of digits.

    Python 3.11 (and 3.10.7 on) refuses str() on ints longer than
    sys.get_int_max_str_digits(), 4300 digits by default.  Splitting at a power
    of ten near half the digits keeps every str() call small; the
    divisions cost about what one unlimited str() would.
    """
    if n < 0:
        return "-" + _int_str(-n)
    if n.bit_length() <= _STR_PIECE_BITS:
        return str(n)
    half = n.bit_length() * 3 // 20  # about half the digits (log10 2 > 3/10)
    high, low = divmod(n, 10**half)
    return _int_str(high) + _int_str(low).rjust(half, "0")


def parse_rational(text: str) -> Fraction:
    """Parse the ``num/den`` form (bare integers allowed); canonicalizes."""
    m = _RATIONAL_RE.match(text.strip())
    if m is None:
        raise ValueError(f"not a rational: {text!r}")
    num = int(m.group(1))
    den = int(m.group(2)) if m.group(2) is not None else 1
    if den == 0:
        raise ZeroDivisionError(f"zero denominator in {text!r}")
    return Fraction(num, den)
