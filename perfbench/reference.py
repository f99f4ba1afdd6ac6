"""References the benchmark gates zeta2k against, built without zeta2k.

* Bernoulli numbers by the Akiyama-Tanigawa algorithm, a different
  recurrence from both zeta2k.recursive and zeta2k.bernoulli.
* Decimal values from mpmath's own pi (``mp.pi``) and ``mp.zeta``, never
  from zeta2k's Chudnovsky pi.
* The closed form of the cosine coefficients, written out here from the
  formula rather than taken from zeta2k.fourier.

Nothing here converts an integer of more than 4300 digits to or from
text, so the references work under Python's default int/str limit.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import factorial

from mpmath import mp

# Python's default int<->str limit is 4300 digits; stay well below it.
_CHUNK = 1000


def bernoulli_numbers(max_index: int) -> list[Fraction]:
    """B_0 .. B_max_index, first-kind convention (B_1 = -1/2)."""
    a: list[Fraction] = []
    out = []
    for m in range(max_index + 1):
        a.append(Fraction(1, m + 1))
        for j in range(m, 0, -1):
            a[j - 1] = j * (a[j - 1] - a[j])
        out.append(a[0])
    if max_index >= 1:
        out[1] = -out[1]  # Akiyama-Tanigawa yields B_1 = +1/2
    return out


def zeta_coeffs(max_k: int) -> list[Fraction]:
    """c_1 .. c_max_k with zeta(2k) = c_k pi^(2k), from Bernoulli numbers."""
    b = bernoulli_numbers(2 * max_k)
    return [
        (1 if k % 2 else -1) * b[2 * k] * Fraction(2 ** (2 * k - 1), factorial(2 * k))
        for k in range(1, max_k + 1)
    ]


def digits_to_int(digits: str) -> int:
    """int(digits) for a string of decimal digits of any length."""
    value = 0
    for i in range(0, len(digits), _CHUNK):
        chunk = digits[i : i + _CHUNK]
        value = value * 10 ** len(chunk) + int(chunk)
    return value


_FIXED_RE = re.compile(r"(\d+)\.(\d+)")


def scaled_floor(c_k: Fraction, k: int, digits: int) -> int:
    """floor(c_k * pi^(2k) * 10^digits), with mpmath's pi."""
    with mp.workdps(digits + 40):
        value = mp.mpf(c_k.numerator) / c_k.denominator * mp.pi ** (2 * k)
        return int(mp.floor(value * mp.mpf(10) ** digits))


def fixed_point_matches(text: str, digits: int, floor_ref: int) -> bool:
    """True when text is a fixed-point number with exactly `digits`
    fractional digits within one unit in its last digit of the true value.

    floor_ref is floor(true * 10^digits); as the true value is irrational,
    the admissible printed integers are floor_ref and floor_ref + 1.
    """
    m = _FIXED_RE.fullmatch(text)
    if m is None or len(m.group(2)) != digits:
        return False
    printed = digits_to_int(m.group(1) + m.group(2))
    return printed in (floor_ref, floor_ref + 1)


def cosine_coeff(k: int, n: int, dps: int = 80):
    """A(n, 2k) = sum_j 2 (2k)! (-1)^j / (2k-2j-1)! * pi^(2k-2-2j) / n^(2+2j)."""
    with mp.workdps(dps):
        return mp.fsum(
            mp.mpf(2 * factorial(2 * k) * (-1) ** j)
            / factorial(2 * k - 2 * j - 1)
            * mp.pi ** (2 * k - 2 - 2 * j)
            / mp.mpf(n) ** (2 + 2 * j)
            for j in range(k)
        )


def zeta_value(k: int, dps: int):
    """zeta(2k) from mpmath, at dps digits."""
    with mp.workdps(dps):
        return +mp.zeta(2 * k)


def classify(message: str) -> str:
    """Short failure reason for an exception text or a CLI's stderr."""
    if "integer string conversion" in message:
        return "int_str_limit"
    lines = [line for line in message.strip().splitlines() if line.strip()]
    return lines[-1][:120] if lines else "no message"
