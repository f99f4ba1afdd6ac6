import json
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from zeta2k.bernoulli import BernoulliTable, zeta_coeff_via_bernoulli
from zeta2k.recursive import ZetaCoeffTable

FIRST_THIRTEEN = [
    Fraction(1),
    Fraction(-1, 2),
    Fraction(1, 6),
    Fraction(0),
    Fraction(-1, 30),
    Fraction(0),
    Fraction(1, 42),
    Fraction(0),
    Fraction(-1, 30),
    Fraction(0),
    Fraction(5, 66),
    Fraction(0),
    Fraction(-691, 2730),
]


def test_first_values():
    assert list(BernoulliTable(12).values) == FIRST_THIRTEEN


def test_odd_indices_vanish():
    table = BernoulliTable(101)
    for m in range(3, 102, 2):
        assert table.value(m) == 0


def test_even_denominators_start():
    table = BernoulliTable(8)
    assert [table.value(m).denominator for m in (2, 4, 6, 8)] == [6, 30, 42, 30]


def test_defining_recurrence_holds():
    """sum_{j<m} C(m,j) B_j == 0 for every m >= 2, by construction."""
    from math import comb

    table = BernoulliTable(40)
    for m in range(2, 41):
        assert sum(comb(m, j) * table.value(j) for j in range(m)) == 0


def test_max_index_zero_is_allowed():
    table = BernoulliTable(0)
    assert table.values == (Fraction(1),)


def test_negative_max_index_rejected():
    with pytest.raises(ValueError):
        BernoulliTable(-1)


def test_value_range_checked():
    table = BernoulliTable(6)
    with pytest.raises(ValueError):
        table.value(7)
    with pytest.raises(ValueError):
        table.value(-1)


@pytest.mark.parametrize(
    "k,expected",
    [(1, Fraction(1, 6)), (2, Fraction(1, 90)), (6, Fraction(691, 638512875))],
)
def test_zeta_coeff_via_bernoulli_knowns(k, expected):
    assert zeta_coeff_via_bernoulli(k, BernoulliTable(2 * k)) == expected


def test_zeta_coeff_needs_table_coverage():
    with pytest.raises(ValueError):
        zeta_coeff_via_bernoulli(4, BernoulliTable(7))
    with pytest.raises(ValueError):
        zeta_coeff_via_bernoulli(0, BernoulliTable(4))


def test_backends_agree_to_k40():
    table = ZetaCoeffTable(40)
    bernoulli = BernoulliTable(80)
    for k in range(1, 41):
        assert table.coeff(k) == zeta_coeff_via_bernoulli(k, bernoulli)


def test_rows_keyed_by_m():
    rows = BernoulliTable(2).rows()
    assert rows == [
        {"m": 0, "num": "1", "den": "1"},
        {"m": 1, "num": "-1", "den": "2"},
        {"m": 2, "num": "1", "den": "6"},
    ]


def test_csv_and_json_exports():
    table = BernoulliTable(4)
    assert table.to_csv() == "m,num,den\n0,1,1\n1,-1,2\n2,1,6\n3,0,1\n4,-1,30\n"
    payload = json.loads(table.to_json())
    assert payload[4] == {"m": 4, "num": "-1", "den": "30"}


def _bernoulli_over_fractions(max_index):
    """The Fraction loop BernoulliTable ran before it moved to integers."""
    from math import comb

    values = [Fraction(1)]
    for m in range(2, max_index + 2):
        s = Fraction(0)
        for j in range(m - 1):
            if j > 1 and j % 2 == 1:
                continue  # odd entries >= 3 are zero, nothing to add
            bj = values[j]
            if bj:
                s += comb(m, j) * bj
        values.append(-s / m)
    return values[: max_index + 1]


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=250))
@example(0)
@example(1)
@example(2)
@example(250)
def test_integer_table_equals_the_fraction_recurrence(max_index):
    got = BernoulliTable(max_index).values
    want = _bernoulli_over_fractions(max_index)
    assert [(b.numerator, b.denominator) for b in got] == [
        (b.numerator, b.denominator) for b in want
    ]


def _coeff_as_a_product(k, table):
    """zeta_coeff_via_bernoulli as it was: sign * B_2k * 2^(2k-1)/(2k)!."""
    from math import factorial

    sign = 1 if k % 2 == 1 else -1
    return sign * table.value(2 * k) * Fraction(2 ** (2 * k - 1), factorial(2 * k))


def test_coeff_equals_the_old_product_up_to_k300():
    table = BernoulliTable(600)
    for k in range(1, 301):
        got, want = zeta_coeff_via_bernoulli(k, table), _coeff_as_a_product(k, table)
        assert (got.numerator, got.denominator) == (want.numerator, want.denominator)
