import math
import random
import sys
import threading
from fractions import Fraction
from math import factorial, prod

import pytest

from zeta2k.fourier import (
    QuadratureError,
    b_factor,
    b_product_closed,
    cosine_coeff_closed,
    cosine_coeff_quadrature,
    cosine_coeff_recursive,
    mean_coeff,
    reconstruct,
    reconstruction_residual,
)
from zeta2k.fourier import _legendre_rule


@pytest.mark.parametrize("k,expected", [(0, Fraction(1)), (1, Fraction(1, 3)), (2, Fraction(1, 5))])
def test_mean_coeff(k, expected):
    assert mean_coeff(k) == expected


def test_mean_coeff_rejects_negative():
    with pytest.raises(ValueError):
        mean_coeff(-1)


def test_closed_form_k1():
    coeff = cosine_coeff_closed(1)
    assert len(coeff.terms) == 1
    term = coeff.terms[0]
    assert (term.coeff, term.pi_power, term.inv_n_power) == (Fraction(4), 0, 2)


def test_closed_form_k2():
    assert cosine_coeff_closed(2).substitute(1) == {2: Fraction(8), 0: Fraction(-48)}


def test_closed_form_k3_leading_term():
    lead = cosine_coeff_closed(3).terms[0]
    assert lead.coeff == 12 and lead.pi_power == 4 and lead.inv_n_power == 2


def test_closed_form_term_structure():
    # k terms; term j carries pi^(2k-2-2j) / n^(2+2j) with the stated coefficient
    for k in range(1, 13):
        terms = cosine_coeff_closed(k).terms
        assert len(terms) == k
        for j, term in enumerate(terms):
            assert term.pi_power == 2 * k - 2 - 2 * j
            assert term.inv_n_power == 2 + 2 * j
            assert term.coeff == Fraction(
                2 * factorial(2 * k) * (-1) ** j, factorial(2 * k - 2 * j - 1)
            )


def test_recursive_base_cases():
    assert [(t.pi_power, t.coeff) for t in cosine_coeff_recursive(1, 1)] == [(0, Fraction(4))]
    assert [(t.pi_power, t.coeff) for t in cosine_coeff_recursive(1, 3)] == [(0, Fraction(4, 9))]


def test_recursive_one_step():
    terms = {t.pi_power: t.coeff for t in cosine_coeff_recursive(2, 1)}
    assert terms == {2: Fraction(8), 0: Fraction(-48)}


def test_recursive_matches_closed_exactly():
    """The two derivations must agree per pi power, as exact rationals."""
    for k in range(1, 13):
        closed = cosine_coeff_closed(k)
        for n in range(1, 9):
            recursive = {t.pi_power: t.coeff for t in cosine_coeff_recursive(k, n)}
            assert recursive == closed.substitute(n), (k, n)


def _recursive_over_fractions(k, n):
    """cosine_coeff_recursive as it was, one Fraction per coefficient and step."""
    inv_n2 = Fraction(1, n * n)
    poly = {0: 4 * inv_n2}
    for m in range(2, k + 1):
        b = b_factor(m, n)
        poly = {power: coeff * b for power, coeff in poly.items()}
        poly[2 * m - 2] = poly.get(2 * m - 2, Fraction(0)) + 4 * m * inv_n2
    return [(power, poly[power]) for power in sorted(poly, reverse=True)]


def test_recursive_equals_the_fraction_recursion():
    for k in range(1, 21):
        for n in range(1, 13):
            terms = [(t.pi_power, t.coeff) for t in cosine_coeff_recursive(k, n)]
            assert terms == _recursive_over_fractions(k, n), (k, n)
            assert all(type(coeff) is Fraction for _, coeff in terms)


def test_input_validation():
    for bad_call in (
        lambda: cosine_coeff_closed(0),
        lambda: cosine_coeff_recursive(0, 1),
        lambda: cosine_coeff_recursive(1, 0),
        lambda: b_factor(0, 1),
        lambda: b_factor(2, 0),
    ):
        with pytest.raises(ValueError):
            bad_call()


@pytest.mark.parametrize(
    "k,j,n,expected",
    [
        (2, 0, 1, Fraction(-12)),
        (3, 1, 1, Fraction(360)),
        (3, 1, 2, Fraction(45, 2)),
    ],
)
def test_b_product_closed_examples(k, j, n, expected):
    assert b_product_closed(k, j, n) == expected


def test_b_product_closed_matches_direct_product():
    for k in range(1, 13):
        for n in (1, 2, 3):
            for j in range(k):
                direct = prod(
                    (b_factor(k - i, n) for i in range(j + 1)), start=Fraction(1)
                )
                assert b_product_closed(k, j, n) == direct, (k, j, n)


def test_b_product_rejects_j_out_of_range():
    with pytest.raises(ValueError):
        b_product_closed(3, 3, 1)
    with pytest.raises(ValueError):
        b_product_closed(3, -1, 1)


def test_double_factorial_identity():
    # (2k-1)!! == (2k)! / (2^k k!)
    for k in range(1, 13):
        assert prod(range(1, 2 * k, 2)) == factorial(2 * k) // (2**k * factorial(k))


def test_quadrature_simple_values():
    assert abs(cosine_coeff_quadrature(1, 1, 1e-12).value - 4) < 1e-12
    assert abs(cosine_coeff_quadrature(1, 2, 1e-12).value - 1) < 1e-12


def test_quadrature_k2_n1():
    import mpmath

    target = mpmath.mpf("30.95683520871486895067593")  # 8*pi^2 - 48
    assert abs(cosine_coeff_quadrature(2, 1, 1e-10).value - target) < 1e-10


def test_quadrature_agrees_with_closed_form_randomized():
    import mpmath

    rng = random.Random(424242)
    for _ in range(6):
        k = rng.randint(1, 6)
        n = rng.randint(1, 8)
        with mpmath.mp.workdps(60):
            exact = sum(
                mpmath.mpf(c.numerator) / c.denominator * mpmath.pi**p
                for p, c in cosine_coeff_closed(k).substitute(n).items()
            )
        got = cosine_coeff_quadrature(k, n, 1e-12).value
        assert abs(got - exact) <= 1e-10 * max(1, abs(exact)), (k, n)


@pytest.mark.parametrize("k,n", [(1, 1), (3, 5), (6, 8), (12, 3)])
def test_quadrature_at_high_precision(k, n):
    """At tol 1e-40 the nodes themselves must be good far past float width."""
    import mpmath

    with mpmath.mp.workdps(120):
        exact = sum(
            mpmath.mpf(c.numerator) / c.denominator * mpmath.pi**p
            for p, c in cosine_coeff_closed(k).substitute(n).items()
        )
        # 8 panels at most (3 doublings) suffice; a bad node set fails fast
        got = cosine_coeff_quadrature(k, n, 1e-40, max_doublings=6).value
        assert abs(got - exact) < mpmath.mpf(10) ** -40 * abs(exact), (k, n)


def test_quadrature_budget_exhaustion_carries_best_estimate():
    with pytest.raises(QuadratureError) as info:
        cosine_coeff_quadrature(3, 5, 1e-60, max_doublings=2)
    best = info.value.best_estimate
    # even the aborted run is already close; the error is about the
    # unreachable tolerance, not about a bad estimate
    exact = sum(
        float(c) * math.pi**p
        for p, c in cosine_coeff_closed(3).substitute(5).items()
    )
    assert abs(float(best.value) - exact) < 1e-6
    assert info.value.tol == 1e-60


def test_quadrature_threads_at_mixed_precision():
    """Concurrent quadratures at different tol return their serial values."""
    cases = [(3, 5, 1e-12), (6, 8, 1e-40), (2, 1, 1e-20), (12, 3, 1e-30)]
    expected = {
        case: cosine_coeff_quadrature(*case, max_doublings=8).value._mpf_ for case in cases
    }
    results: list[list[tuple]] = [[] for _ in range(4)]

    def worker(i):
        for case in cases[i:] + cases[:i]:
            try:
                value = cosine_coeff_quadrature(*case, max_doublings=8).value._mpf_
            except QuadratureError as err:
                value = err
            results[i].append((case, value))

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
        assert len(got) == len(cases)
        for case, value in got:
            assert value == expected[case], case


def test_quadrature_validates_inputs():
    for bad_call in (
        lambda: cosine_coeff_quadrature(0, 1, 1e-10),
        lambda: cosine_coeff_quadrature(1, 0, 1e-10),
        lambda: cosine_coeff_quadrature(1, 1, 0.0),
        lambda: cosine_coeff_quadrature(1, 1, -1e-3),
    ):
        with pytest.raises(ValueError):
            bad_call()


@pytest.mark.parametrize("bits", [100, 400, 1100])
def test_legendre_nodes_integrate_even_powers_exactly(bits):
    """The 24-point rule integrates x^(2j) over [-1, 1] for j <= 23, to 2^-(bits-16)."""
    rule = _legendre_rule(bits)
    nodes = [Fraction(x, 2**bits) for x, _ in rule]
    assert len(nodes) == 12
    assert nodes == sorted(nodes, reverse=True) and 0 < nodes[-1] and nodes[0] < 1
    for j in range(24):
        # the negative nodes mirror the positive ones, so each even power counts twice
        total = 2 * sum(Fraction(w, 2**bits) * x ** (2 * j) for x, (_, w) in zip(nodes, rule))
        assert abs(total - Fraction(2, 2 * j + 1)) < Fraction(1, 2 ** (bits - 16)), j


def test_quadrature_ignores_mpmath_working_precision():
    import mpmath

    expected = cosine_coeff_quadrature(3, 5, 1e-12).value._mpf_
    for prec in (20, 2000):
        with mpmath.mp.workprec(prec):
            assert cosine_coeff_quadrature(3, 5, 1e-12).value._mpf_ == expected, prec


def test_reconstruct_vanishes_at_pi():
    assert abs(reconstruct(1, math.pi, 10**4)) < 1e-3


def test_reconstruct_recovers_pi_squared_at_zero():
    assert abs(reconstruct(1, 0.0, 10**4) - math.pi**2) < 5e-4


def test_reconstruct_midpoint_k2():
    # g_2(pi/2) = (pi/2)^4
    assert abs(reconstruct(2, math.pi / 2, 10**5) - (math.pi / 2) ** 4) < 1e-3


def test_reconstruct_validates_domain():
    with pytest.raises(ValueError):
        reconstruct(1, -0.1, 100)
    with pytest.raises(ValueError):
        reconstruct(1, 3.5, 100)
    with pytest.raises(ValueError):
        reconstruct(0, 0.0, 100)
    with pytest.raises(ValueError):
        reconstruct(1, 0.0, 0)


def test_residual_decays_when_terms_double():
    for k in (1, 2, 3):
        for n_terms in (1000, 2000, 4000):
            assert reconstruction_residual(k, 2 * n_terms) < 0.75 * reconstruction_residual(
                k, n_terms
            )


def test_residual_scale_k1():
    # tail of 4*zeta(2) style series: residual(N) is about 4/N
    residual = reconstruction_residual(1, 1000)
    assert 1e-3 < residual < 8e-3


def _reconstruct_over_numpy_scalars(k, x, n_terms):
    """reconstruct as it was, with fsum reading the numpy array directly."""
    import numpy as np

    n = np.arange(1, n_terms + 1, dtype=np.float64)
    amplitude = np.zeros_like(n)
    for term in cosine_coeff_closed(k).terms:
        amplitude += (float(term.coeff) * math.pi**term.pi_power) * n ** (
            -float(term.inv_n_power)
        )
    series = amplitude * np.cos(n * x)
    mean = math.pi ** (2 * k) / (2 * k + 1)
    return mean + math.fsum(series)


def test_reconstruct_is_bit_identical_to_fsum_over_numpy_scalars():
    rng = random.Random(20261018)
    cases = [(rng.randint(1, 6), rng.uniform(0.0, math.pi), rng.randint(1, 5000))
             for _ in range(40)]
    cases += [(1, 0.0, 1), (3, math.pi, 4096), (2, math.pi / 2, 60_000)]
    for k, x, n_terms in cases:
        assert reconstruct(k, x, n_terms) == _reconstruct_over_numpy_scalars(k, x, n_terms)


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_reconstruct_in_place_is_bit_identical_to_the_old_expression(k):
    # x = 0 skips the cos pass, since cos(0.0) is exactly 1.0
    for x in (0.0, 0.5, math.pi):
        for n_terms in (1, 2, 7, 1000, 20_000, 60_000):
            assert reconstruct(k, x, n_terms) == _reconstruct_over_numpy_scalars(k, x, n_terms)
