"""Exact values as text: the one place that knows the package's output formats.

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
from operator import itemgetter

__all__ = ["format_rational"]


def format_rational(q: Fraction) -> str:
    """Render as ``num/den``, always including the denominator ("0/1", "-1/30")."""
    return f"{_int_str(q.numerator)}/{_int_str(q.denominator)}"


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
