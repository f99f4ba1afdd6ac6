"""precision.py's integer binary floats against mpmath.libmp, bit for bit.

``zeta_eval``, ``pi_value`` and ``zeta_direct_sum`` round with a private
port of what they need of libmp (``dps_to_prec``, ``from_man_exp``,
``mpf_pow_int``, and ``mpf_div`` of two ints) so that they run without
mpmath.  Every case here compares the port's raw ``(sign, man, exp, bc)``
tuple with libmp's at ``round_nearest``; the port must agree exactly, not
just in value.  ``format_real`` shares the port's half-even cut.
"""

import dataclasses
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from mpmath.libmp import (
    dps_to_prec,
    from_int,
    from_man_exp,
    mpf_div,
    mpf_mul,
    mpf_pow_int,
    round_nearest,
)

from zeta2k import precision
from zeta2k.precision import PrecisionConfig, format_real, zeta_eval

# signed integers from a few bits to a few thousand, often with trailing
# zero bits, so rounding, carries and trailing-zero stripping all occur
ints = st.builds(
    lambda man, shift: man << shift,
    st.integers(-(1 << 3000), 1 << 3000) | st.integers(-300, 300),
    st.integers(0, 64),
)
nonzero = ints.filter(bool)
precs = st.integers(1, 4000)


def raw(n: int) -> tuple:
    return from_int(n)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 10**6))
@example(0)
def test_dps_to_prec(dps):
    assert precision._dps_to_prec(dps) == dps_to_prec(dps)


@settings(max_examples=300, deadline=None)
@given(ints, st.integers(-200, 200), st.integers(0, 4000))
@example(0, 0, 10)
@example(-(2**70 - 1), 0, 53)  # all ones: rounding carries into a new bit
@example(-(3 << 200), 0, 0)  # prec 0 keeps every bit
@example(0b1001, 0, 3)  # a tie, to even: down
@example(-0b1011, 0, 3)  # a tie, to even: up
@example(9, 0, 3)  # 3 * 3 = 0b1001, a tie
@example(-21, 0, 1)  # -7 * 3
def test_normalize(man, exp, prec):
    expected = from_man_exp(man, exp, prec, round_nearest)
    assert precision._normalize(int(man < 0), abs(man), exp, prec) == expected


@settings(max_examples=200, deadline=None)
@given(st.integers(-(10**60), 10**60) | ints, st.integers(1, 10**60) | nonzero, precs)
@example(-1, 3, 53)  # a negative numerator
@example(1, 1 << 40, 10)  # a power-of-two denominator
@example(-(5 << 900), 1 << 3, 7)
@example(6 * 10**50, 3 * 10**50, 20)  # an exact quotient
@example(10**400, -(5**400), 1300)  # a negative denominator
@example(0, 9, 5)
@example(27, 3, 3)  # an exact tie
@example(624139, 9579, 11)  # the remainder alone lifts it above a tie
def test_quotient_is_from_int_then_mpf_div(num, den, prec):
    expected = mpf_div(from_int(num, prec, round_nearest), from_int(den), prec, round_nearest)
    assert precision._quotient(num, den, prec) == expected


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 1 << 3000) | st.integers(0, 300), st.integers(1, 200), st.booleans())
@example(0, 1, False)
@example(1, 1, True)  # 3/2: a tie, to even: up
@example(2, 10, True)  # 5/2: a tie, to even: down
@example((1 << 10) - 1, 10, False)  # just under 1: up to 1
def test_round_half_even_by_power_of_two_is_the_divmod_rule(num, shift, tie):
    """_shift_half_even, the package's one half-even cut, divides as divmod rounds."""
    if tie:  # num + 1/2, so the parity of num decides
        num = (2 * num + 1) << (shift - 1)
    den = 1 << shift
    q, r = divmod(num, den)
    expected = q + bool(2 * r > den or (2 * r == den and q & 1))
    assert precision._shift_half_even(num, shift) == expected


def _pow_branch(bc: int, n: int) -> str:
    if n == 1:
        return "n=1"
    if n == 2:
        return "n=2"
    return "exact" if bc * n < 1000 else "loop"


@pytest.mark.parametrize(
    "base,n,prec,branch",
    [
        (-(2**1500 + 1), 1, 300, "n=1"),  # rounds the base itself
        # above a tie by 2^-1500: the loop's truncation would make it a tie
        (2**1500 + 2**1200 + 1, 1, 300, "n=1"),
        (3, 1, 1, "n=1"),
        (-(2**700 + 3), 2, 800, "n=2"),  # bc * n past 1000, still squared exactly
        (12345, 2, 5, "n=2"),
        (-12345, 3, 20, "exact"),  # an odd power keeps the sign
        (2**90 - 1, 11, 40, "exact"),
        (-(2**90 - 1), 10, 40, "exact"),  # an even power drops it
        # bc * n = 930: exact, where the loop would round differently
        (0x1348071B4F060050CE3E4E67A8927CA5E698E78C2473DACAF1CBF501566154B18DD48AE4506B, 3, 2,
         "exact"),
        (2**333 + 1, 3, 100, "loop"),
        (-(3**700), 5, 2000, "loop"),
        (-(3**700), 6, 64, "loop"),
        (7 * 2**60 + 1, 400, 13000, "loop"),  # pi^(2k) at k=200 is n=400
        (10**40 + 7, 2**10 + 1, 300, "loop"),
        (2**53 - 1, 999, 53, "loop"),
        # the loop's truncation changes the rounding: not the exact power
        (0x2C4E709DA59EDB48934D393EC2C3D3117208650DC288D172C64707B1E3AF67309DAD764316AA315AE726873,
         3, 10, "loop"),
        (0x1B79ECF1765AAEC0662521CFC7A6796768B1ED8099E59EDEE8E01, 5, 29, "loop"),
    ],
)
def test_mpf_pow_int_each_branch(base, n, prec, branch):
    s = raw(base)
    assert _pow_branch(s[3], n) == branch
    assert precision._mpf_pow_int(s, n, prec) == mpf_pow_int(s, n, prec, round_nearest)


@settings(max_examples=200, deadline=None)
@given(nonzero, st.integers(-200, 200), st.integers(1, 500), precs)
def test_mpf_pow_int(man, exp, n, prec):
    s = mpf_mul(raw(man), (0, 1, exp, 1), 0)  # man * 2**exp, exactly
    assert precision._mpf_pow_int(s, n, prec) == mpf_pow_int(s, n, prec, round_nearest)


def test_zeta_eval_result_supports_dataclasses_replace():
    value = zeta_eval(2, PrecisionConfig(digits=30), Fraction(1, 90))
    shorter = dataclasses.replace(value, digits=10)
    assert shorter.value == value.value
    assert format_real(shorter) == "1.0823232337"
    assert dataclasses.replace(value) == value
    with pytest.raises(dataclasses.FrozenInstanceError):
        value.value = 0
