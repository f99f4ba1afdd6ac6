import random
import sys
import threading
from fractions import Fraction

import pytest
from mpmath import mp

import zeta2k.precision as precision
from zeta2k.precision import (
    HighPrecReal,
    InfeasiblePrecisionError,
    PrecisionConfig,
    direct_sum_terms,
    feasible_digits,
    format_real,
    pi_digits,
    pi_value,
    zeta_direct_sum,
    zeta_eval,
)
from zeta2k.precision import _enclosure_terms, _pi_scaled, _tail_bracket
from zeta2k.recursive import ZetaCoeffTable

# 50 fractional digits, truncated (digit 51 is a 5, so no carry ambiguity)
PI_50 = "3.14159265358979323846264338327950288419716939937510"


def test_pi_digits_prefix():
    assert pi_digits(20) == "3.14159265358979323846"
    assert pi_digits(50) == PI_50


def test_pi_digits_rejects_zero():
    with pytest.raises(ValueError):
        pi_digits(0)


def test_pi_value_self_check_levels_agree():
    cfg = PrecisionConfig(digits=50)
    value = pi_value(cfg).value
    with mp.workdps(80):
        assert abs(value - mp.mpf(PI_50)) < mp.mpf(10) ** -50


def test_pi_value_leading_digits():
    assert format_real(pi_value(PrecisionConfig(digits=1))) == "3.1"
    assert format_real(pi_value(PrecisionConfig(digits=10))) == "3.1415926536"


def test_config_validation():
    with pytest.raises(ValueError):
        PrecisionConfig(digits=0)
    with pytest.raises(ValueError):
        PrecisionConfig(digits=5, guard=10)
    with pytest.raises(ValueError):
        PrecisionConfig(digits=5, max_sum_terms=0)


@pytest.mark.parametrize(
    "k,digits,expected",
    [
        (2, 30, 32182979487),
        (3, 30, 1820565),
        (5, 30, 2816),
        (10, 30, 42),
        (2, 10, 6934),
        (1, 4, 10**6 + 1),
    ],
)
def test_direct_sum_terms_values(k, digits, expected):
    assert direct_sum_terms(k, PrecisionConfig(digits=digits)) == expected


def test_direct_sum_terms_is_minimal_randomized():
    """N satisfies the strict tail bound and N-1 does not."""
    rng = random.Random(99)
    for _ in range(40):
        k = rng.randint(1, 12)
        digits = rng.randint(1, 25)
        n = direct_sum_terms(k, PrecisionConfig(digits=digits))
        e = 2 * k - 1
        target = 10 ** (digits + 2)
        assert e * n**e > target
        if n > 1:
            assert e * (n - 1) ** e <= target


def test_feasible_digits_boundary():
    assert feasible_digits(1, 10**8) == 5
    assert feasible_digits(2, 10**8) == 22
    # the reported bound is itself feasible and one more digit is not
    for k in (1, 2, 3):
        d = feasible_digits(k, 10**8)
        assert direct_sum_terms(k, PrecisionConfig(digits=d)) <= 10**8
        assert direct_sum_terms(k, PrecisionConfig(digits=d + 1)) > 10**8


def test_direct_sum_k2_d10():
    cfg = PrecisionConfig(digits=10)
    assert format_real(zeta_direct_sum(2, cfg)) == "1.0823232337"


def test_direct_sum_k1_d4():
    assert format_real(zeta_direct_sum(1, PrecisionConfig(digits=4))) == "1.6449"


def test_direct_sum_infeasible_k1_high_digits():
    with pytest.raises(InfeasiblePrecisionError) as info:
        zeta_direct_sum(1, PrecisionConfig(digits=50))
    err = info.value
    assert err.k == 1
    assert err.required_terms > 10**50 / 10  # N is astronomically large
    assert err.feasible_digits == 5
    assert "feasible" in str(err)
    # the enclosure needs M ~ 1.08e17 terms, over the budget too
    assert f"M={_enclosure_terms(1, PrecisionConfig(digits=50))}" in str(err)


def test_direct_sum_infeasible_past_the_int_to_str_limit():
    """N has 4301 digits at D=4298; the error still builds its message."""
    from zeta2k.exact import _int_str

    with pytest.raises(InfeasiblePrecisionError) as info:
        zeta_direct_sum(1, PrecisionConfig(digits=4298))
    n_digits = _int_str(info.value.required_terms)
    assert len(n_digits) > 4300
    assert f"N={n_digits} " in str(info.value)


def test_tail_bracket_encloses_mp_zeta():
    """lower <= zeta(2k) - sum_{n<=M} n^(-2k) <= upper, exactly rational."""
    for k in (1, 2, 3, 7):
        for m in (1, 5, 10, 100):
            lower, upper = _tail_bracket(k, m)
            partial = sum(Fraction(1, n ** (2 * k)) for n in range(1, m + 1))
            with mp.workdps(80):
                tail = mp.zeta(2 * k) - mp.mpf(partial.numerator) / partial.denominator
                assert mp.mpf(lower.numerator) / lower.denominator < tail, (k, m)
                assert tail < mp.mpf(upper.numerator) / upper.denominator, (k, m)


def test_enclosure_terms_is_minimal_randomized():
    """M meets the half-width bound and M-1 does not."""
    assert _enclosure_terms(2, PrecisionConfig(digits=30)) == 1903654
    rng = random.Random(7)
    for _ in range(40):
        k = rng.randint(1, 12)
        cfg = PrecisionConfig(digits=rng.randint(1, 40))
        allowed = Fraction(10**cfg.guard - 1, 10 ** (cfg.digits + cfg.guard + 2))
        m = _enclosure_terms(k, cfg)
        lower, upper = _tail_bracket(k, m)
        assert (upper - lower) / 2 <= allowed
        if m > 1:
            lower, upper = _tail_bracket(k, m - 1)
            assert (upper - lower) / 2 > allowed


def test_direct_sum_k2_d30_enclosure_agrees_with_eval():
    cfg = PrecisionConfig(digits=30)
    via_sum = zeta_direct_sum(2, cfg)
    via_pi = zeta_eval(2, cfg, ZetaCoeffTable(2).coeff(2))
    with mp.workdps(60):
        assert abs(via_pi.value - via_sum.value) <= mp.mpf(10) ** -29


def test_direct_sum_k1_d10_enclosure():
    # plain truncation would need 10^12 + 1 terms; the enclosure needs 5000
    assert format_real(zeta_direct_sum(1, PrecisionConfig(digits=10))) == "1.6449340668"


@pytest.mark.parametrize("k,digits", [(1, 4), (1, 10), (2, 12), (2, 18), (3, 20), (3, 26)])
def test_direct_sum_enclosure_within_bound(k, digits):
    """Over the plain budget, the enclosure lands within 10^-(D+2) of mp.zeta."""
    cfg = PrecisionConfig(digits=digits, max_sum_terms=10**4)
    assert direct_sum_terms(k, cfg) > cfg.max_sum_terms >= _enclosure_terms(k, cfg)
    value = zeta_direct_sum(k, cfg).value
    with mp.workdps(digits + 30):
        assert abs(value - mp.zeta(2 * k)) < mp.mpf(10) ** -(digits + 2)


def test_enclosure_never_needs_more_terms_than_plain_truncation():
    """M <= N on the whole grid, so refusing when M is over the budget
    refuses no input that plain truncation could have summed."""
    for k in range(1, 61):
        for digits in [*range(1, 121), 200, 400, 1000]:
            cfg = PrecisionConfig(digits=digits)
            assert _enclosure_terms(k, cfg) <= direct_sum_terms(k, cfg), (k, digits)


@pytest.mark.parametrize("k,digits", [(2, 10), (3, 30), (5, 30), (8, 60), (10, 60)])
def test_direct_sum_within_budget_sums_to_the_enclosure(monkeypatch, k, digits):
    """Even where N fits the budget, the oracle sums M terms plus the bracket midpoint."""
    cfg = PrecisionConfig(digits=digits)
    assert direct_sum_terms(k, cfg) <= cfg.max_sum_terms
    m = _enclosure_terms(k, cfg)
    calls = []

    def recorded(*args):
        calls.append(args)
        return _tail_bracket(*args)

    monkeypatch.setattr(precision, "_tail_bracket", recorded)
    value = zeta_direct_sum(k, cfg).value
    assert calls[-1:] == [(k, m)]
    with mp.workdps(digits + 30):
        assert abs(value - mp.zeta(2 * k)) < mp.mpf(10) ** -(digits + 2)


@pytest.mark.parametrize(
    "k,digits,expected",
    [
        (1, 10, "1.6449340668"),
        (1, 20, "1.64493406684822643647"),
        (2, 10, "1.0823232337"),
        (3, 10, "1.0173430620"),
        (10, 10, "1.0000009540"),
    ],
)
def test_zeta_eval_digit_strings(k, digits, expected):
    c = ZetaCoeffTable(k).coeff(k)
    assert format_real(zeta_eval(k, PrecisionConfig(digits=digits), c)) == expected


def test_zeta_eval_rejects_k_zero():
    with pytest.raises(ValueError):
        zeta_eval(0, PrecisionConfig(digits=5), Fraction(1, 6))


def test_direct_sum_rejects_k_zero():
    for k in (0, -1):
        with pytest.raises(ValueError, match="k must be >= 1"):
            zeta_direct_sum(k, PrecisionConfig(digits=5))


def test_oracle_agreement_30_digits():
    # every k sums the tail enclosure's M terms; k = 2 is tested on its own
    # above, and the acceptance suite runs all four legs
    table = ZetaCoeffTable(10)
    cfg = PrecisionConfig(digits=30)
    for k in (3, 5, 10):
        via_pi = zeta_eval(k, cfg, table.coeff(k))
        via_sum = zeta_direct_sum(k, cfg)
        with mp.workdps(60):
            assert abs(via_pi.value - via_sum.value) <= mp.mpf(10) ** -29, k


def test_precision_stability():
    """digits D and D+10 agree on the first D-1 digits."""
    table = ZetaCoeffTable(4)
    for k, digits in ((1, 15), (4, 25)):
        lo = zeta_eval(k, PrecisionConfig(digits=digits), table.coeff(k))
        hi = zeta_eval(k, PrecisionConfig(digits=digits + 10), table.coeff(k))
        assert format_real(hi).startswith(format_real(lo)[: digits - 1])


def test_bound_honesty_k2_d10():
    """direct sum <= zeta_eval <= direct sum + plain truncation's tail bound at N"""
    cfg = PrecisionConfig(digits=10)
    n = direct_sum_terms(2, cfg)
    partial = zeta_direct_sum(2, cfg)
    exact_route = zeta_eval(2, cfg, ZetaCoeffTable(2).coeff(2))
    with mp.workdps(40):
        bound = mp.mpf(1) / (3 * mp.mpf(n) ** 3)
        assert partial.value <= exact_route.value <= partial.value + bound


def test_monotone_approach_to_one():
    """zeta(2k) decreases strictly toward 1 (checked through k = 80).

    Past k of about 84 a 50-digit rendering rounds to exactly 1.0, so
    the strict version of this property is only meaningful below that.
    """
    cfg = PrecisionConfig(digits=50)
    table = ZetaCoeffTable(80)
    previous = None
    for k in range(1, 81):
        value = zeta_eval(k, cfg, table.coeff(k)).value
        assert value > 1
        if previous is not None:
            assert value < previous
        previous = value


def test_format_real_fixed_point():
    with mp.workdps(30):
        assert format_real(HighPrecReal(4, mp.mpf("2.5"))) == "2.5000"
        assert format_real(HighPrecReal(3, mp.mpf("-0.001"))) == "-0.001"
        assert format_real(HighPrecReal(2, mp.mpf("0"))) == "0.00"
        # rounding at the last kept digit
        assert format_real(HighPrecReal(2, mp.mpf("1.005"))) in ("1.00", "1.01")
        assert format_real(HighPrecReal(2, mp.mpf("1.006"))) == "1.01"


def test_format_real_scientific_below_threshold():
    with mp.workdps(30):
        assert format_real(HighPrecReal(4, mp.mpf("0.0000954"))) == "9.5400e-05"
        assert format_real(HighPrecReal(2, mp.mpf("-0.0000954"))) == "-9.54e-05"
        # 1e-4 itself stays fixed point
        assert format_real(HighPrecReal(4, mp.mpf("0.0001"))) == "0.0001"


def test_format_real_scientific_carry():
    with mp.workdps(30):
        # rounds up to the next decade: mantissa must not print as 10.x
        assert format_real(HighPrecReal(2, mp.mpf("0.00009999"))) == "1.00e-04"


def test_plain_values_read_back_unchanged_and_render_exactly():
    # an int, float or str is kept as given, not turned into an mpf
    for given in ("0.05", "-2.5", 0.05, 7):
        value = HighPrecReal(1, given).value
        assert type(value) is type(given) and value == given
    # and rendered from its exact decimal value, not a binary approximation
    assert format_real(HighPrecReal(1, "0.05")) == "0.0"
    assert format_real(HighPrecReal(1, 0.05)) == "0.1"  # 0.05000000000000000277...
    assert format_real(HighPrecReal(1, 7)) == "7.0"
    with mp.workdps(15):
        assert format_real(HighPrecReal(1, mp.mpf("0.05"))) == "0.1"


def test_pi_digits_and_scientific_format_beyond_the_int_to_str_limit():
    from zeta2k.precision import pi_digits

    long = pi_digits(4400)
    assert len(long) == 4402 and long.startswith(pi_digits(4300))
    with mp.workdps(4450):
        tiny = HighPrecReal(digits=4400, value=mp.mpf(3) / 2 * mp.mpf(10) ** -7)
    text = format_real(tiny)
    assert text == "1.5" + "0" * 4399 + "e-07"


# --- pi from one run, and its memo -------------------------------------------

def _fresh_pi(cfg):
    """The uncached pi_value: one run at digits+2*guard, divided at +10 digits."""
    d2 = cfg.digits + 2 * cfg.guard
    with mp.workdps(d2 + 10):
        return (mp.mpf(_pi_scaled(d2)) / mp.mpf(10**d2))._mpf_


@pytest.fixture
def cold_pi_cache():
    """A cold pi cache for the test, and again after it."""
    precision._pi_mpf.cache_clear()
    yield
    precision._pi_mpf.cache_clear()


@pytest.fixture
def chudnovsky_runs(monkeypatch, cold_pi_cache):
    """The fractional-digit lengths of every Chudnovsky run, in call order."""
    runs = []

    def counted(frac_digits):
        runs.append(frac_digits)
        return _pi_scaled(frac_digits)

    monkeypatch.setattr(precision, "_pi_scaled", counted)
    return runs


def test_pi_cache_slices_smaller_requests(chudnovsky_runs):
    """A smaller request than a cached one runs its own Chudnovsky run.

    The name is historical: pi is no longer sliced from a longer cached
    run.
    """
    pi_value(PrecisionConfig(digits=400))
    assert chudnovsky_runs == [430]
    chudnovsky_runs.clear()
    pi_value(PrecisionConfig(digits=400))
    assert chudnovsky_runs == []  # a repeat is served by the memo
    for digits in (385, 50, 1, 100):
        cfg = PrecisionConfig(digits=digits)
        assert pi_value(cfg).value._mpf_ == _fresh_pi(cfg), digits
    assert chudnovsky_runs == [415, 80, 31, 130]
    chudnovsky_runs.clear()
    assert pi_digits(415) == f"3.{str(_pi_scaled(415))[1:]}"
    assert chudnovsky_runs == [430]  # pi_digits is not memoized


def test_pi_cache_larger_request_reruns_both_lengths(chudnovsky_runs):
    pi_value(PrecisionConfig(digits=100))
    pi_value(PrecisionConfig(digits=300))
    assert chudnovsky_runs == [130, 330]
    chudnovsky_runs.clear()
    pi_value(PrecisionConfig(digits=100))
    pi_digits(316)  # a memo hit, then pi_digits makes its own run
    assert chudnovsky_runs == [331]


def test_pi_cache_serves_only_checked_digits(chudnovsky_runs):
    """A longer run in the memo is not cut down to serve a shorter request."""
    pi_value(PrecisionConfig(digits=100, guard=100))  # holds 300
    cfg = PrecisionConfig(digits=250)  # wants 280
    assert pi_value(cfg).value._mpf_ == _fresh_pi(cfg)
    assert chudnovsky_runs == [300, 280]


# every length to 600, both sides of the 4300-digit int->str limit, the
# lengths pi_value runs at D = 4600 and 5200, and a long run
PI_LENGTHS = [*range(1, 601), 4299, 4300, 4630, 5230, 20000]


def test_pi_scaled_is_within_its_proven_bound():
    far = []
    for f in PI_LENGTHS:
        with mp.workdps(f + 30):
            if not abs(mp.pi * mp.mpf(10) ** f - _pi_scaled(f)) < precision._PI_ERROR:
                far.append(f)
    assert far == []


def test_pi_runs_15_digits_apart_agree():
    """The comparison pi_value once made on every cold run, as a test."""
    differ = [f for f in PI_LENGTHS if _pi_scaled(f + 15) // 10**15 != _pi_scaled(f)]
    assert differ == []


@pytest.mark.parametrize("tail", ["fifteen 9s", "fifteen 0s"])
def test_pi_digits_reruns_when_the_cut_is_unsure(monkeypatch, tail):
    runs = []

    def first_run_at_a_boundary(frac_digits):
        runs.append(frac_digits)
        scaled = _pi_scaled(frac_digits)
        if len(runs) > 1:
            return scaled
        head = scaled // 10**15
        # one unit below or at the next cut: cut as is, it would be off by one
        return head * 10**15 - 1 if tail == "fifteen 9s" else (head + 1) * 10**15

    monkeypatch.setattr(precision, "_pi_scaled", first_run_at_a_boundary)
    assert pi_digits(50) == PI_50
    assert runs == [65, 80]


def test_cold_pi_value_and_pi_digits_make_one_run_each(chudnovsky_runs):
    pi_value(PrecisionConfig(digits=60))
    assert chudnovsky_runs == [90]
    assert pi_digits(60) == PI_50 + "5820974944"
    assert chudnovsky_runs == [90, 75]


def test_pi_cache_threads_get_cold_identical_values(cold_pi_cache):
    levels = [3500, 30, 5200, 100, 4299, 700, 50, 4300]
    expected = {d: _fresh_pi(PrecisionConfig(digits=d)) for d in levels}
    results: list[list[tuple[int, tuple]]] = [[] for _ in range(4)]

    def worker(i):
        order = levels[2 * i:] + levels[: 2 * i]
        for _ in range(3):
            for d in order:
                results[i].append((d, pi_value(PrecisionConfig(digits=d)).value._mpf_))
            precision._pi_mpf.cache_clear()  # make later rounds run the check again

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(i,)) for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    for got in results:
        assert len(got) == 3 * len(levels)
        for d, value in got:
            assert value == expected[d], d


def _eval_with_mp_context(k, cfg, c_k):
    """zeta_eval's value as mpmath's own operators give it at its precision."""
    pi = pi_value(cfg).value
    with mp.workdps(cfg.digits + cfg.guard + 10):
        return (mp.mpf(c_k.numerator) / c_k.denominator * pi ** (2 * k))._mpf_


def test_eval_and_direct_sum_ignore_the_global_precision():
    """Values do not depend on mp.prec, even when it changes mid-call.

    The profile hook sets mpmath's process-wide precision to 53 bits on
    every function call and return, as another thread might.
    """
    table = ZetaCoeffTable(30)
    cases = [(k, PrecisionConfig(digits=d)) for k, d in ((7, 100), (30, 10), (2, 999))]
    expected = [zeta_eval(k, cfg, table.coeff(k)).value._mpf_ for k, cfg in cases]
    for (k, cfg), value in zip(cases, expected):
        assert value == _eval_with_mp_context(k, cfg, table.coeff(k)), k
    sum_cfg = PrecisionConfig(digits=40)
    expected_sum = zeta_direct_sum(10, sum_cfg).value._mpf_
    prec = mp.prec
    sys.setprofile(lambda *args: setattr(mp, "prec", 53))
    try:
        got = [zeta_eval(k, cfg, table.coeff(k)).value._mpf_ for k, cfg in cases]
        got_sum = zeta_direct_sum(10, sum_cfg).value._mpf_
    finally:
        sys.setprofile(None)
        mp.prec = prec
    assert got == expected
    assert got_sum == expected_sum


def test_eval_and_direct_sum_threads_at_mixed_precision():
    table = ZetaCoeffTable(10)
    levels = [3000, 30, 2000, 100, 1500, 60]
    sum_levels = [20, 60, 40]
    expected = {d: zeta_eval(7, PrecisionConfig(digits=d), table.coeff(7)).value._mpf_
                for d in levels}
    expected_sum = {d: zeta_direct_sum(10, PrecisionConfig(digits=d)).value._mpf_
                    for d in sum_levels}
    results: list[list[tuple[str, int, tuple]]] = [[] for _ in range(4)]

    def worker(i):
        order = levels[i:] + levels[:i]
        for _ in range(5):
            for j, d in enumerate(order):
                value = zeta_eval(7, PrecisionConfig(digits=d), table.coeff(7)).value
                results[i].append(("eval", d, value._mpf_))
                s = sum_levels[(i + j) % len(sum_levels)]
                value = zeta_direct_sum(10, PrecisionConfig(digits=s)).value
                results[i].append(("sum", s, value._mpf_))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(i,)) for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    for got in results:
        assert len(got) == 2 * 5 * len(levels)
        for route, d, value in got:
            assert value == (expected if route == "eval" else expected_sum)[d], (route, d)
