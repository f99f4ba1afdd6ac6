"""zeta_eval's memoized ladders of pi squares against libmp's uncached power.

``zeta_eval`` computes pi^(2k) with ``_mpf_pow_int``, whose ladder of
repeated squares is memoized by value, so one ladder serves every k of
the same bit length at one precision.  Whatever the order of requests
and the state of the caches, the result must be libmp's
``mpf_mul(c_k, mpf_pow_int(pi, 2k))`` bit for bit.
"""

import inspect
import random
import sys
import threading
from fractions import Fraction
from functools import lru_cache

import pytest
from mpmath import bernfrac
from mpmath.libmp import from_int, mpf_div, mpf_mul, mpf_pow_int, round_nearest

import zeta2k.precision as precision
from zeta2k.precision import PrecisionConfig, pi_value, zeta_eval

KS = [*range(1, 32), 77, 150, 200, 1500]
DIGITS = [1, 10, 30, 100, 999, 3500, 4299, 4300, 5200]
GRID = [(k, d) for k in KS for d in DIGITS]


@pytest.fixture
def cold_pi_caches():
    """Cold pi and ladder caches for the test, and again after it."""
    precision._pi_mpf.cache_clear()
    precision._ladder.cache_clear()
    yield
    precision._pi_mpf.cache_clear()
    precision._ladder.cache_clear()


@lru_cache(maxsize=None)
def coeff(k: int) -> Fraction:
    """c_k = (-1)^(k+1) B_2k 2^(2k-1) / (2k)!, from mpmath's Bernoulli numbers."""
    p, q = bernfrac(2 * k)
    c = Fraction(p, q) * 2 ** (2 * k - 1)
    for i in range(2, 2 * k + 1):
        c /= i
    return c if k % 2 else -c


@lru_cache(maxsize=None)
def expected(k: int, digits: int) -> tuple:
    """zeta_eval's value built from libmp's mpf_pow_int and mpf_mul."""
    cfg = PrecisionConfig(digits=digits)
    pi = pi_value(cfg).value._mpf_
    prec = precision._dps_to_prec(digits + cfg.guard + 10)
    c = coeff(k)
    c_k = mpf_div(
        from_int(c.numerator, prec, round_nearest), from_int(c.denominator), prec, round_nearest
    )
    return mpf_mul(c_k, mpf_pow_int(pi, 2 * k, prec, round_nearest), prec, round_nearest)


def evaluate(k: int, digits: int) -> tuple:
    return zeta_eval(k, PrecisionConfig(digits=digits), coeff(k)).value._mpf_


def ladder_misses() -> int:
    return precision._ladder.cache_info().misses


def test_coefficients_match_known_values():
    assert [coeff(k) for k in (1, 2, 3, 6)] == [
        Fraction(1, 6), Fraction(1, 90), Fraction(1, 945), Fraction(691, 638512875)
    ]


@pytest.mark.parametrize("start", ["cold", "warm"])
@pytest.mark.parametrize("order", ["ascending", "descending", "shuffled"])
def test_zeta_eval_equals_libmp_power(cold_pi_caches, order, start):
    grid = {
        "ascending": GRID,
        "descending": GRID[::-1],
        "shuffled": random.Random(14).sample(GRID, len(GRID)),
    }[order]
    if start == "warm":
        for k, d in random.Random(41).sample(GRID, len(GRID)):
            evaluate(k, d)
        # the warm pass built each ladder once and kept all of them
        assert precision._ladder.cache_info().currsize == ladder_misses()
    misses = ladder_misses()
    for k, d in grid:
        assert evaluate(k, d) == expected(k, d), (k, d)
    if start == "warm":
        assert ladder_misses() == misses


def test_one_ladder_per_working_precision(cold_pi_caches):
    # 2k = 10 and 60 use ladders of 4 and 6 rungs, 2k = 32 one of 6 rungs
    # with a single set bit; 2k = 8 and 14 share the 4-rung ladder
    for k in (5, 30, 16, 4, 7):
        assert evaluate(k, 4300) == expected(k, 4300), k
    assert precision._ladder.cache_info().currsize == ladder_misses() == 2


def test_cache_stays_within_its_bound_of_ladders(cold_pi_caches):
    bound = precision._LADDERS
    # three ladders per level (2k of 3, 6 and 9 bits), more than the bound
    levels = [40 + 7 * i for i in range(bound // 3 + 6)]
    uses = [(k, d) for d in levels for k in (3, 30, 200)]
    for round_ in range(2):
        for k, d in uses:
            assert evaluate(k, d) == expected(k, d), (round_, k, d)
            assert precision._ladder.cache_info().currsize <= bound
    assert ladder_misses() == 2 * len(uses)
    # the most recently used ladders are the ones kept, and the one before
    # them is gone; pi at the early levels is recomputed, equal by value
    misses = ladder_misses()
    for k, d in uses[-bound:]:
        evaluate(k, d)
    assert ladder_misses() == misses
    evaluate(*uses[-bound - 1])
    assert ladder_misses() == misses + 1


def test_a_precision_used_between_others_builds_its_ladder_once(cold_pi_caches):
    # D = 1000 used before each of 100 other precisions, more than the
    # ladders kept: what was used least recently is dropped, not what was
    # built least recently
    target = pi_value(PrecisionConfig(digits=1000))._raw[1]
    want = expected(30, 1000)
    ladder = inspect.unwrap(precision._ladder).__code__
    builds = []

    def count_builds(frame, event, arg):
        if event == "call" and frame.f_code is ladder:
            builds.append(frame.f_locals["man"] == target)

    sys.setprofile(count_builds)
    try:
        for d in range(41, 141):
            value = evaluate(30, 1000)
            evaluate(30, d)
            assert value == want, d
    finally:
        sys.setprofile(None)
    assert builds.count(True) == 1
    assert len(builds) == 101


def test_threads_at_mixed_precision_get_serial_values(cold_pi_caches):
    levels = [3500, 30, 5200, 100, 4299, 999, 10, 4300]
    ks = [5, 30, 16, 2, 77, 9]
    serial = {(k, d): expected(k, d) for k in ks for d in levels}
    precision._pi_mpf.cache_clear()
    results: list[list[tuple[int, int, tuple]]] = [[] for _ in range(4)]

    def worker(i):
        order = levels[2 * i:] + levels[:2 * i]
        for _ in range(2):
            for d in order:
                for k in ks[i:] + ks[:i]:
                    results[i].append((k, d, evaluate(k, d)))

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
        assert len(got) == 2 * len(levels) * len(ks)
        for k, d, value in got:
            assert value == serial[k, d], (k, d)
    # concurrent misses of one ladder keep a single entry
    threaded = precision._ladder.cache_info().currsize
    precision._ladder.cache_clear()
    for k in ks:
        for d in levels:
            evaluate(k, d)
    assert precision._ladder.cache_info().currsize == ladder_misses() == threaded
