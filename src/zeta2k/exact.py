"""Exact values as text, and the one rule for the package's size arguments.

This is the one place that knows the package's output formats, and the
one place that refuses an argument that is not an int or is below its
least allowed value (:func:`_require_int`).

All coefficients in this package are `fractions.Fraction` values, which
already maintain the canonical form the cross-backend equality tests rely
on: positive denominator, coprime numerator/denominator, zero stored as
0/1, equality structural.  Values are immutable and safe to share across
threads.  This module adds what the stdlib does not pin down: a strict
``num/den`` text form, decimal text for integers of any size, and the
CSV (``\\n`` line ends) and JSON (a list of row objects) forms of every
exported table.
"""

from __future__ import annotations

import json
from fractions import Fraction
from functools import lru_cache
from operator import itemgetter

__all__ = ["format_rational"]


def format_rational(q: Fraction) -> str:
    """Render as ``num/den``, always including the denominator ("0/1", "-1/30")."""
    return f"{_int_str(q.numerator)}/{_int_str(q.denominator)}"


def _require_int(name: str, value, low: int) -> None:
    """Refuse a value that is not an int, or is below low, naming the argument.

    A float would pass a range test, then fail deep in the arithmetic or
    silently count a wrong number of steps, so the type is checked first.
    """
    if not isinstance(value, int):
        raise TypeError(f"{name} must be an int, got {type(value).__name__}")
    if value < low:
        raise ValueError(f"{name} must be >= {low}, got {value}")


def _num_den_row(key: str, index: int, q: Fraction) -> dict[str, object]:
    """One row of an exact table: {key: index, "num": str, "den": str}."""
    return {key: index, "num": _int_str(q.numerator), "den": _int_str(q.denominator)}


def _table_text(header, rows, fmt: str) -> str:
    """Rows (dicts keyed by the header's names) as CSV, or as a JSON list if fmt is "json"."""
    if fmt == "json":
        return json.dumps(rows)
    # Every field is an int, a digit string, an identifier or a plain
    # decimal, none of which CSV quotes; every header has 2+ names, so
    # itemgetter yields tuples.
    lines = [",".join(header)]
    lines += [",".join(map(str, fields)) for fields in map(itemgetter(*header), rows)]
    return "\n".join(lines) + "\n"


# Below Python's smallest allowed int->str limit (640 digits), so str() is
# safe on every piece.
_PIECE_DIGITS = 512


@lru_cache(maxsize=None)
def _ten_power(i: int) -> int:
    """10**(512 * 2**i), each level the square of the one below, shared by every call."""
    return 10**_PIECE_DIGITS if i == 0 else _ten_power(i - 1) ** 2


def _int_str(n: int) -> str:
    """Decimal text of n, like str(n) but for any number of digits.

    Python 3.11 (and 3.10.7 on) refuses str() on ints longer than
    sys.get_int_max_str_digits(), 4300 digits by default.  n is split at the
    largest power of ten in a memoized tower of squares 10**(512 * 2**i) that
    is at most n, and each remainder below 10**(512 * 2**i) is split in
    halves down the tower into zero-padded pieces of 512 digits, so every
    str() call is small and no call computes a power of ten that an earlier
    one already did (Brent and Zimmermann, "Modern Computer Arithmetic",
    2010, section 1.7).
    """
    if n < 0:
        return "-" + _int_str(-n)
    if n < _ten_power(0):
        return str(n)
    i = 0
    # 10**(512 * 2**(i+1)) has at least 2 * bit_length(10**(512 * 2**i)) - 1
    # bits, so no level is squared to find it above a shorter n
    while n.bit_length() >= 2 * _ten_power(i).bit_length() - 1 and _ten_power(i + 1) <= n:
        i += 1
    high, low = divmod(n, _ten_power(i))
    return _int_str(high) + _padded_str(low, i)


def _padded_str(n: int, i: int) -> str:
    """n < 10**(512 * 2**i) as exactly 512 * 2**i digits."""
    if not i:
        return str(n).rjust(_PIECE_DIGITS, "0")
    high, low = divmod(n, _ten_power(i - 1))
    return _padded_str(high, i - 1) + _padded_str(low, i - 1)
