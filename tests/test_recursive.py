import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zeta2k.recursive import ZetaCoeffTable, consistency_residual

KNOWN = {
    1: Fraction(1, 6),
    2: Fraction(1, 90),
    3: Fraction(1, 945),
    4: Fraction(1, 9450),
    5: Fraction(1, 93555),
    6: Fraction(691, 638512875),
}


@pytest.mark.parametrize("k,expected", sorted(KNOWN.items()))
def test_known_coefficients(k, expected):
    assert ZetaCoeffTable(6).coeff(k) == expected


def test_k6_equals_691_times_2p11_over_15_factorial():
    from math import factorial

    assert ZetaCoeffTable(6).coeff(6) == Fraction(691 * 2**11, factorial(15))


def test_constructor_rejects_nonpositive():
    with pytest.raises(ValueError):
        ZetaCoeffTable(0)
    with pytest.raises(ValueError):
        ZetaCoeffTable(-3)


def test_coeff_grows_table_on_demand():
    table = ZetaCoeffTable(2)
    assert table.max_k == 2
    assert table.coeff(5) == KNOWN[5]
    assert table.max_k == 5


def test_extend_is_idempotent_and_preserves_prefix():
    table = ZetaCoeffTable(8)
    before = table.coeffs
    table.extend(4)  # shrinking is a no-op
    assert table.coeffs == before
    table.extend(12)
    assert table.coeffs[:8] == before
    assert table.max_k == 12


def test_all_coefficients_positive():
    # zeta(2k) > 1 and pi^(2k) > 0, so every c_k must be positive
    for c in ZetaCoeffTable(60).coeffs:
        assert c > 0


def test_consistency_identity_holds_exactly():
    table = ZetaCoeffTable(40)
    for k in range(1, 41):
        assert consistency_residual(table, k) == 0


def test_consistency_residual_detects_corruption():
    table = ZetaCoeffTable(5)
    # residual is computed from the table's entries, so a wrong table
    # must produce a nonzero residual somewhere
    table._coeffs[2] += Fraction(1, 7)
    assert any(consistency_residual(table, k) != 0 for k in range(1, 6))


def test_rows_shape():
    rows = ZetaCoeffTable(3).rows()
    assert rows == [
        {"k": 1, "num": "1", "den": "6"},
        {"k": 2, "num": "1", "den": "90"},
        {"k": 3, "num": "1", "den": "945"},
    ]


def test_json_round_trips():
    payload = json.loads(ZetaCoeffTable(4).to_json())
    assert [row["k"] for row in payload] == [1, 2, 3, 4]
    assert Fraction(int(payload[3]["num"]), int(payload[3]["den"])) == KNOWN[4]


def test_csv_layout():
    text = ZetaCoeffTable(2).to_csv()
    assert text == "k,num,den\n1,1,6\n2,1,90\n"


def test_growing_one_entry_at_a_time_matches_fresh_table():
    table = ZetaCoeffTable(1)
    for k in range(2, 201):
        table.extend(k)
    assert table.coeffs == ZetaCoeffTable(200).coeffs


def test_growing_in_uneven_steps_matches_fresh_table():
    # L = lcm(1..2K+1) changes at every step, so existing entries are
    # rescaled each time the table grows
    table = ZetaCoeffTable(5)
    for step in (17, 64, 150, 200):
        table.extend(step)
    assert table.coeffs == ZetaCoeffTable(200).coeffs


def test_growing_from_odd_and_even_sizes_matches_fresh_table():
    # each extend rescales the stored entries to the new Lambda = L * (2K)!
    # from the table's current size, here odd and even sizes alike
    table = ZetaCoeffTable(6)
    for step in (7, 8, 41, 150):
        table.extend(step)
    assert table.coeffs == ZetaCoeffTable(150).coeffs


def test_extending_a_table_of_non_coefficients_raises():
    table = ZetaCoeffTable(5)
    table._coeffs[2] += Fraction(1, 10**6)
    with pytest.raises(ArithmeticError):
        table.extend(12)


@settings(max_examples=40, deadline=None)
@given(
    st.integers(min_value=1, max_value=150),
    st.lists(st.integers(min_value=1, max_value=150), min_size=1, max_size=5),
)
def test_growing_in_random_steps_matches_fresh_table(size, steps):
    # Lambda = lcm(1..2K+1) * (2K)! changes with every growth, so the stored
    # entries are rescaled at arbitrary sizes, odd and even
    table = ZetaCoeffTable(size)
    for step in steps:
        table.extend(step)
    assert table.coeffs == ZetaCoeffTable(max(size, *steps)).coeffs


@pytest.mark.parametrize(
    "size,new_max_k,m,delta", [(5, 12, 3, Fraction(1, 10**6)), (5, 10, 1, Fraction(1, 49))]
)
def test_growth_refuses_entries_that_are_not_zeta_coefficients(size, new_max_k, m, delta):
    from math import factorial, lcm

    table = ZetaCoeffTable(size)
    table._coeffs[m - 1] += delta
    before = table.coeffs
    bad = before[m - 1]
    # Lambda * c_m is still an integer, L * (2m)! * c_m is not
    lcm_all = lcm(*range(1, 2 * new_max_k + 2))
    assert (lcm_all * factorial(2 * new_max_k) * bad).denominator == 1
    assert (lcm_all * factorial(2 * m) * bad).denominator != 1
    with pytest.raises(ArithmeticError, match=f"c_{m} is not a zeta coefficient"):
        table.extend(new_max_k)
    assert table.coeffs == before


def test_shared_table_grows_safely_under_concurrent_readers():
    import random
    import sys
    import threading

    expected = ZetaCoeffTable(80).coeffs
    table = ZetaCoeffTable(1)
    start = threading.Barrier(4)
    wrong = []

    def reader(seed):
        ks = random.Random(seed).sample(range(1, 81), 30)
        start.wait(timeout=10)
        for k in ks:
            if table.coeff(k) != expected[k - 1]:
                wrong.append(k)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=reader, args=(seed,)) for seed in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert wrong == []
    assert table.coeffs == expected


def _residual_over_fractions(table, k):
    """consistency_residual as it was: one Fraction addition per term."""
    s = Fraction(0)
    fact = 1  # (2k-2j-1)!, one running product as j falls from k-1 to 0
    for j in reversed(range(k)):
        term = table.coeff(j + 1) / fact
        s += term if j % 2 == 0 else -term
        fact *= (2 * k - 2 * j) * (2 * k - 2 * j + 1)
    return Fraction(k, fact) - s  # fact is (2k+1)! here


def test_residual_equals_the_fraction_sum_on_a_correct_table():
    table = ZetaCoeffTable(60)
    for k in range(1, 61):
        got, want = consistency_residual(table, k), _residual_over_fractions(table, k)
        assert (got.numerator, got.denominator) == (want.numerator, want.denominator) == (0, 1)


@pytest.mark.parametrize(
    "m,delta", [(1, Fraction(1, 7)), (2, Fraction(-3, 10**12)), (21, Fraction(1, 10**6)), (60, Fraction(5))]
)
def test_residual_equals_the_fraction_sum_on_a_perturbed_table(m, delta):
    from math import factorial

    table = ZetaCoeffTable(60)
    table._coeffs[m - 1] += delta
    for k in range(1, 61):
        got, want = consistency_residual(table, k), _residual_over_fractions(table, k)
        assert (got.numerator, got.denominator) == (want.numerator, want.denominator)
        # only the c_m term moves: by (-1)^(m-1) delta / (2k-2m+1)!, subtracted
        expected = 0 if k < m else (-1) ** m * delta / factorial(2 * k - 2 * m + 1)
        assert got == expected


_STEPS = st.lists(
    st.one_of(
        st.tuples(st.just("extend"), st.integers(min_value=1, max_value=60)),
        st.tuples(
            st.just("perturb"),
            st.integers(min_value=1, max_value=60),
            st.fractions(max_denominator=10**12).filter(bool),
        ),
    ),
    min_size=1,
    max_size=4,
)


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=1, max_value=30), st.integers(min_value=1, max_value=30), _STEPS)
def test_cached_residual_follows_edits_and_growth(size, first, steps):
    """After a residual has filled the cache, edits and growth must show."""
    table = ZetaCoeffTable(size)
    consistency_residual(table, min(first, size))
    originals = {}  # index -> the true entry a perturbation replaced
    for step in steps:
        if step[0] == "extend":
            # only true entries extend, so put them back (as the same objects)
            for i, c in originals.items():
                table._coeffs[i] = c
            originals.clear()
            table.extend(step[1])
        else:
            _, m, delta = step
            i = (m - 1) % table.max_k
            originals.setdefault(i, table._coeffs[i])
            table._coeffs[i] += delta
        for k in range(1, table.max_k + 1):
            got, want = consistency_residual(table, k), _residual_over_fractions(table, k)
            assert (got.numerator, got.denominator) == (want.numerator, want.denominator)


def test_residuals_stay_zero_while_a_shared_table_grows():
    import sys
    import threading

    table = ZetaCoeffTable(5)
    start = threading.Barrier(5)
    results = []

    def sweep():
        start.wait(timeout=10)
        for k in range(1, 91):
            r = consistency_residual(table, k)
            results.append((r.numerator, r.denominator))

    def grow():
        start.wait(timeout=10)
        for size in range(10, 121, 5):
            table.extend(size)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=sweep) for _ in range(4)]
        threads.append(threading.Thread(target=grow))
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert results == [(0, 1)] * (4 * 90)
    assert table.coeffs == ZetaCoeffTable(120).coeffs
