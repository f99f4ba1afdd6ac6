import random
from fractions import Fraction

import pytest

from zeta2k.exact import binomial, format_rational, parse_rational, rational


def test_rational_is_canonical():
    q = rational(2, 4)
    assert q.numerator == 1 and q.denominator == 2
    assert rational(-3, -6) == Fraction(1, 2)
    assert rational(3, -6).denominator == 2  # sign moves to the numerator
    assert rational(0, 7) == Fraction(0, 1)


def test_rational_zero_denominator():
    with pytest.raises(ZeroDivisionError):
        rational(1, 0)


@pytest.mark.parametrize(
    "q,text",
    [
        (Fraction(1, 6), "1/6"),
        (Fraction(691, 638512875), "691/638512875"),
        (Fraction(-1, 30), "-1/30"),
        (Fraction(5), "5/1"),
        (Fraction(0), "0/1"),
    ],
)
def test_format_rational(q, text):
    assert format_rational(q) == text


def test_parse_rational_accepts_integers():
    assert parse_rational("7") == Fraction(7)
    assert parse_rational("-4") == Fraction(-4)
    assert parse_rational("+3/9") == Fraction(1, 3)


@pytest.mark.parametrize("text", ["", "1/", "/2", "a/b", "1.5", "1 / 2", "1/2/3"])
def test_parse_rational_rejects_garbage(text):
    with pytest.raises(ValueError):
        parse_rational(text)


def test_parse_rational_zero_denominator():
    with pytest.raises(ZeroDivisionError):
        parse_rational("3/0")


def test_format_parse_round_trip_randomized():
    rng = random.Random(20260817)
    for _ in range(500):
        num = rng.randint(-10**12, 10**12)
        den = rng.randint(1, 10**12)
        q = Fraction(num, den)
        assert parse_rational(format_rational(q)) == q


def test_binomial_matches_pascal():
    # C(n, m) = C(n-1, m-1) + C(n-1, m) away from the edges
    for n in range(2, 40):
        for m in range(1, n):
            assert binomial(n, m) == binomial(n - 1, m - 1) + binomial(n - 1, m)


@pytest.mark.parametrize("n,m", [(5, 6), (3, -1), (-2, 0)])
def test_binomial_domain_errors(n, m):
    with pytest.raises(ValueError):
        binomial(n, m)


def test_rational_arithmetic_field_axioms_randomized():
    """Fraction supplies exact field arithmetic; spot-check the axioms."""
    rng = random.Random(1729)

    def draw():
        return Fraction(rng.randint(-999, 999), rng.randint(1, 999))

    for _ in range(200):
        a, b, c = draw(), draw(), draw()
        assert a + b == b + a
        assert (a + b) + c == a + (b + c)
        assert a * (b + c) == a * b + a * c
        assert a - a == 0
        if b != 0:
            assert (a / b) * b == a
        assert a ** 3 == a * a * a


def test_int_str_beyond_the_int_to_str_limit():
    from decimal import Decimal

    from zeta2k.exact import _int_str

    rng = random.Random(4301)
    values = [0, 7, -7, 10**5000, 10**5000 - 1, -(10**4301)]
    values += [rng.getrandbits(rng.randint(14000, 40000)) for _ in range(20)]
    values += [-rng.getrandbits(20000) for _ in range(5)]
    for n in values:
        text = _int_str(n)
        assert text == str(Decimal(n))
        assert int(Decimal(text)) == n


def test_format_rational_beyond_the_int_to_str_limit():
    from decimal import Decimal

    q = Fraction(-(3**9500), 2**15001)
    num, den = format_rational(q).split("/")
    assert len(num) > 4300 and len(den) > 4300
    assert (num, den) == (str(Decimal(q.numerator)), str(Decimal(q.denominator)))
