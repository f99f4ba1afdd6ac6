import json
from fractions import Fraction
from math import factorial, lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zeta2k import recursive
from zeta2k.recursive import ZetaCoeffTable, _scale, consistency_residual

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
    assert ZetaCoeffTable(6).coeff(6) == Fraction(691 * 2**11, factorial(15))


def test_constructor_rejects_nonpositive():
    with pytest.raises(ValueError):
        ZetaCoeffTable(0)
    with pytest.raises(ValueError):
        ZetaCoeffTable(-3)


def test_coeff_and_residual_past_max_k_raise_and_leave_table_unchanged():
    table = ZetaCoeffTable(5)
    before = table.coeffs
    for k in (6, 7, 50):
        with pytest.raises(ValueError, match=f"k must be <= max_k = 5, got {k}"):
            table.coeff(k)
        with pytest.raises(ValueError, match=f"k must be <= max_k = 5, got {k}"):
            consistency_residual(table, k)
    assert table.max_k == 5
    assert table.coeffs == before
    assert table.coeff(5) == KNOWN[5] and consistency_residual(table, 5) == 0


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


def _odd_part(n):
    return n >> (n & -n).bit_length() - 1


def test_scale_is_a_common_multiple_under_5_bits_past_the_least():
    # the lcm Q of the stored denominators is the least scale that makes
    # every P_m an integer; Lambda is a multiple of it, and barely longer
    # (Lambda = Q at 250 of these sizes; the largest quotient is 25, at K = 125,
    # where by Adams' theorem 5^3 divides the numerator of B_250)
    for size in range(1, 260):
        scale = _scale(size)
        least = lcm(*(c.denominator for c in ZetaCoeffTable(size).coeffs))
        assert scale % least == 0, size
        assert scale < least << 5, size


def test_scale_divides_the_lcm_times_factorial_scale():
    # 2 * odd(lcm(1..2K+1) * (2K)!), a common multiple by von Staudt-Clausen
    # alone, without the mod test on each prime
    for size in range(1, 260):
        wide = 2 * _odd_part(lcm(*range(1, 2 * size + 2)) * factorial(2 * size))
        assert wide % _scale(size) == 0, size


def test_scale_of_a_smaller_size_divides_the_scale():
    # the kernel's ladder carries P_m from Lambda(k) to Lambda(K) by their
    # exact quotient, so Lambda(k) must divide Lambda(K) for every k < K
    scales = [_scale(size) for size in range(1, 260)]
    for big, scale in enumerate(scales, start=1):
        for small in range(1, big):
            assert scale % scales[small - 1] == 0, (small, big)


def test_kernel_refuses_a_scale_that_is_not_a_common_multiple(monkeypatch):
    # the two exact checks of the ladder: a scale that cannot carry the last
    # block's P_m, and one too short to make every P_k an integer
    real = recursive._scale
    # 101 is prime and over 2 * 40 + 1, so it divides no Lambda(40)
    monkeypatch.setattr(recursive, "_scale", lambda end: real(end) * (101 if end == 32 else 1))
    with pytest.raises(ArithmeticError, match=r"Lambda\(40\) is not a multiple"):
        ZetaCoeffTable(40)
    monkeypatch.setattr(recursive, "_scale", lambda end: real(end) // 3)
    with pytest.raises(ArithmeticError, match=r"P_\d+ is not an integer"):
        ZetaCoeffTable(39)


def _assert_each_size_is_a_prefix(sizes):
    # tables are built once, so a table "grows" by building the next size
    # afresh; each solves its last block over its own Lambda, computed from K
    # (see _scale), so equal prefixes show that no c_k depends on Lambda
    largest = ZetaCoeffTable(max(sizes)).coeffs
    for size in sizes:
        assert ZetaCoeffTable(size).coeffs == largest[:size]


def test_growing_one_entry_at_a_time_matches_fresh_table():
    _assert_each_size_is_a_prefix(range(1, 201))


def test_growing_in_uneven_steps_matches_fresh_table():
    # Lambda differs at each of these sizes
    _assert_each_size_is_a_prefix((5, 17, 64, 150, 200))


def test_growing_from_odd_and_even_sizes_matches_fresh_table():
    _assert_each_size_is_a_prefix((6, 7, 8, 41, 150))


@settings(max_examples=40, deadline=None)
@given(
    st.integers(min_value=1, max_value=150),
    st.lists(st.integers(min_value=1, max_value=150), min_size=1, max_size=5),
)
def test_growing_in_random_steps_matches_fresh_table(size, steps):
    # Lambda differs between most pairs of sizes, odd and even (not all:
    # K = 6 and 7 share one)
    _assert_each_size_is_a_prefix((size, *steps))


def _race(targets):
    """Start every target at once, with a 1 us switch interval, and join them."""
    import sys
    import threading

    start = threading.Barrier(len(targets))

    def run(target):
        start.wait(timeout=10)
        target()

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=run, args=(t,)) for t in targets]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)


def test_shared_table_grows_safely_under_concurrent_readers():
    """Readers of one fresh table race on the first fill of the residual cache."""
    import random

    expected = ZetaCoeffTable(80).coeffs
    table = ZetaCoeffTable(80)
    wrong = []
    residuals = []

    def reader(seed):
        for k in random.Random(seed).sample(range(1, 81), 80):
            if table.coeff(k) != expected[k - 1]:
                wrong.append(k)
            r = consistency_residual(table, k)
            residuals.append((r.numerator, r.denominator))

    _race([lambda seed=seed: reader(seed) for seed in range(4)])
    assert wrong == []
    assert residuals == [(0, 1)] * (4 * 80)
    assert table.coeffs == expected


def test_residuals_stay_zero_while_a_shared_table_grows():
    """Ascending residual sweeps over one shared table, while a fifth thread
    builds tables of growing size beside them."""
    table = ZetaCoeffTable(120)
    results = []
    built = []

    def sweep():
        for k in range(1, 121):
            r = consistency_residual(table, k)
            results.append((r.numerator, r.denominator))

    def grow():
        for size in range(10, 121, 5):
            built.append(ZetaCoeffTable(size).coeffs)

    _race([sweep] * 4 + [grow])
    assert results == [(0, 1)] * (4 * 120)
    assert built == [table.coeffs[:size] for size in range(10, 121, 5)]
    assert table.coeffs == ZetaCoeffTable(120).coeffs


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
    table = ZetaCoeffTable(60)
    table._coeffs[m - 1] += delta
    for k in range(1, 61):
        got, want = consistency_residual(table, k), _residual_over_fractions(table, k)
        assert (got.numerator, got.denominator) == (want.numerator, want.denominator)
        # only the c_m term moves: by (-1)^(m-1) delta / (2k-2m+1)!, subtracted
        expected = 0 if k < m else (-1) ** m * delta / factorial(2 * k - 2 * m + 1)
        assert got == expected


_PERTURBATIONS = st.lists(
    st.tuples(
        st.integers(min_value=1, max_value=60),
        st.fractions(max_denominator=10**12).filter(bool),
    ),
    min_size=1,
    max_size=4,
)


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=1, max_value=30), st.integers(min_value=1, max_value=30), _PERTURBATIONS)
def test_cached_residual_follows_edits(size, first, steps):
    """After a residual has filled the cache, edits must show."""
    table = ZetaCoeffTable(size)
    consistency_residual(table, min(first, size))
    for m, delta in steps:
        table._coeffs[(m - 1) % size] += delta
        for k in range(1, size + 1):
            got, want = consistency_residual(table, k), _residual_over_fractions(table, k)
            assert (got.numerator, got.denominator) == (want.numerator, want.denominator)
