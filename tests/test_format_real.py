"""Property tests for format_real against an exact Fraction reference.

The reference works on the exact rational value of the mpf and rounds with
``round(Fraction, d)``, which is exact and half to even, so it shares no
code or arithmetic with format_real's integer rounding.
"""

import math
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from mpmath import mp
from mpmath.libmp import from_man_exp, to_str

from zeta2k.fourier import _format_sig17
from zeta2k.precision import (
    HighPrecReal,
    _exact_parts,
    _scaled_half_even,
    format_real,
)

def _threshold(d: int) -> Fraction:
    """Values below 1e-4 less half a unit in its (d+25)-th digit print scientific."""
    return Fraction(1, 10**4) * (1 - Fraction(1, 2 * 10 ** (d + 25)))


def _digits_text(r: Fraction, d: int) -> str:
    """A non-negative multiple of 10^-d written out with exactly d decimals."""
    n = r * 10**d
    assert n.denominator == 1
    return f"{Decimal((0, tuple(int(c) for c in str(n.numerator)), -d)):f}"


def reference(q: Fraction, d: int) -> str:
    sign = "-" if q < 0 else ""
    a = abs(q)
    if 0 < a < _threshold(d):
        e = -5
        while a < Fraction(10) ** e:
            e -= 1
        m = round(a / Fraction(10) ** e, d)
        if m == 10:
            e, m = e + 1, Fraction(1)
        return f"{sign}{_digits_text(m, d)}e{e:+03d}"
    return f"{sign}{_digits_text(round(a, d), d)}"


def _mpf(man: int, exp: int):
    return mp.make_mpf(from_man_exp(man, exp))


def _exact(v) -> Fraction:
    sign, man, exp, _ = v._mpf_
    q = Fraction(int(man)) * Fraction(2) ** exp
    return -q if sign else q


def _check(v, d: int) -> None:
    assert format_real(HighPrecReal(d, v)) == reference(_exact(v), d)


@settings(max_examples=300, deadline=None)
@given(
    man=st.integers(-(2**160), 2**160),
    exp=st.integers(-400, 40),
    d=st.integers(0, 40),
)
def test_matches_exact_reference(man, exp, d):
    _check(_mpf(man, exp), d)


@st.composite
def near_half_units(draw, scientific: bool, carry: bool = False):
    """A binary value within two ulps of a half-unit in the last printed digit.

    The half-unit is (q + 1/2) * 10^(e-d) with q the d+1 printed digits
    (scientific, e the exponent) or the scaled fixed-point value (e = 0).
    With carry, q is all nines, so rounding up carries into a new digit.
    """
    d = draw(st.integers(0, 30))
    if scientific:
        e = draw(st.integers(-40, -5))
        q = 10 ** (d + 1) - 1 if carry else draw(st.integers(10**d, 10 ** (d + 1) - 1))
    else:
        e = 0
        low = 10 ** max(0, d - 4)  # keep |x| >= 1e-4
        if carry:
            q = 10 ** (d + draw(st.integers(0, 3))) - 1
        else:
            q = draw(st.integers(low, 10 ** (d + 4)))
    half = Fraction(2 * q + 1, 2) * Fraction(10) ** (e - d)
    shift = draw(st.integers(0, 120)) + 4 * (d - e) + 8  # bits below the point
    man = half.numerator * 2**shift // half.denominator + draw(st.integers(-2, 2))
    sign = -1 if draw(st.booleans()) else 1
    return _mpf(sign * man, -shift), d


@settings(max_examples=300, deadline=None)
@given(near_half_units(scientific=False))
def test_fixed_point_near_half_units(case):
    _check(*case)


@settings(max_examples=300, deadline=None)
@given(near_half_units(scientific=True))
def test_scientific_near_half_units(case):
    _check(*case)


@settings(max_examples=100, deadline=None)
@given(st.one_of(near_half_units(False, carry=True), near_half_units(True, carry=True)))
@example((_mpf(19999, -1), 0))  # 9999.5 exactly: a tie, rounds to the even 10000
def test_carry_into_a_new_digit(case):
    _check(*case)


def test_no_double_rounding():
    """Values a hair below a half-unit round down, in both branches."""
    with mp.workdps(60):
        fixed = mp.mpf("2.71499999999999999999999999999999999")
        tiny = mp.mpf("0.0000123549999999999999999999999999999999999")
    assert format_real(HighPrecReal(2, fixed)) == "2.71"
    assert format_real(HighPrecReal(3, tiny)) == "1.235e-05"


def test_int_float_and_str_values_are_rounded_exactly():
    assert format_real(HighPrecReal(1, 2)) == "2.0"
    assert format_real(HighPrecReal(2, 2.675)) == "2.67"  # the double is below 2.675
    assert format_real(HighPrecReal(2, "0.125")) == "0.12"  # a tie, to even
    assert format_real(HighPrecReal(3, "0.0015")) == "0.002"  # a tie, to even
    assert format_real(HighPrecReal(2, "-0.0000333333")) == "-3.33e-05"
    # ties in scientific notation, to even
    assert format_real(HighPrecReal(0, "0.000015")) == "2e-05"
    assert format_real(HighPrecReal(0, "0.000025")) == "2e-05"
    assert format_real(HighPrecReal(1, "0.0000125")) == "1.2e-05"


@pytest.mark.parametrize("bad", [mp.inf, -mp.inf, mp.nan])
def test_non_finite_values_are_refused(bad):
    with pytest.raises(ValueError):
        format_real(HighPrecReal(3, bad))


@settings(max_examples=500, deadline=None)
@given(
    man=st.integers(-(2**3000), 2**3000) | st.integers(-300, 300),
    exp=st.integers(-3000, 200),
    d=st.integers(0, 1000),
    tie=st.booleans(),
)
@example(man=3, exp=5, d=2, tie=False)  # exp >= 0: an integer
@example(man=7, exp=-3, d=3, tie=False)  # t = d: exact, no shift
@example(man=7, exp=-2, d=9, tie=False)  # t < d: a left shift
@example(man=1, exp=-1, d=0, tie=False)  # 0.5: a tie, to even 0
@example(man=3, exp=-1, d=0, tie=False)  # 1.5: a tie, to even 2
def test_scaled_by_five_is_the_ten_power_rule(man, exp, d, tie):
    """format_real's fixed point: 5**d and a shift of t - d bits, as num * 10**d over 2**t."""
    if tie:  # odd * 2**-(d+1) is 5**d * odd / 2 at d digits: a half-unit tie
        man, exp = 2 * man + 1, -(d + 1)
    _, num, den = _exact_parts(from_man_exp(man, exp))
    q, r = divmod(num * 10**d, den)
    assert _scaled_half_even(num, den, d) == q + bool(2 * r > den or (2 * r == den and q & 1))


def test_negative_digits_are_refused():
    with pytest.raises(ValueError, match="digits must be >= 0, got -1"):
        format_real(HighPrecReal(digits=-1, value="1.5"))
    with pytest.raises(TypeError, match="digits must be an int, got float"):
        format_real(HighPrecReal(digits=2.5, value="1.5"))
    assert format_real(HighPrecReal(digits=0, value="2.5")) == "2"


@st.composite
def raw_mpfs(draw):
    """A signed mantissa of 1-2000 bits whose leading bit's exponent is within 3500."""
    bits = draw(st.integers(1, 2000))
    man = draw(st.integers(2 ** (bits - 1), 2**bits - 1))
    lead = draw(st.integers(-3500, 3500))
    return from_man_exp(man if draw(st.booleans()) else -man, lead - bits)


@st.composite
def near_digit_edges(draw):
    """A binary value within two ulps of 21 chosen digits times 10^(e-20).

    The 17 digits kept and the 4 after them are drawn to sit on or beside
    a rounding edge of the 18th digit (with all nines, a carry to a new
    power of ten), and e on or beside the switch from fixed notation.
    """
    e = draw(st.sampled_from([-6, -5, -4, 0, 16, 17]) | st.integers(-60, 60))
    head = draw(st.sampled_from([10**17 - 1, 10**16]) | st.integers(10**16, 10**17 - 1))
    tail = draw(st.sampled_from([0, 4999, 5000, 5001, 9999]) | st.integers(0, 9999))
    q = Fraction(head * 10**4 + tail) * Fraction(10) ** (e - 20)
    shift = draw(st.integers(60, 200)) - (q.numerator.bit_length() - q.denominator.bit_length())
    man = math.floor(q * Fraction(2) ** shift) + draw(st.integers(-2, 2))
    return from_man_exp(man if draw(st.booleans()) else -man, -shift)


@settings(max_examples=500, deadline=None)
@given(st.one_of(raw_mpfs(), near_digit_edges()))
@example((0, 0, 0, 0))
@example(mp.mpf("9.99999999999999995e16")._mpf_)  # a carry out of fixed notation
@example(mp.mpf("-1.2345678901234567e-5")._mpf_)
@example(mp.mpf("1.2345678901234567e16")._mpf_)  # fixed, with nothing after the point
@example(from_man_exp(1, 3499))  # exp + bc = 3500
@example(from_man_exp(3, -3502))  # exp + bc = -3500
def test_sig17_is_mpmaths_to_str(raw):
    assert _format_sig17(raw) == to_str(raw, 17, strip_zeros=False)


@pytest.mark.parametrize(
    "raw",
    [from_man_exp(1, 3500), from_man_exp(3, -3503), mp.inf._mpf_, mp.nan._mpf_],
    ids=["exp+bc=3501", "exp+bc=-3501", "inf", "nan"],
)
def test_sig17_refuses_what_it_does_not_port(raw):
    with pytest.raises(ValueError):
        _format_sig17(raw)
