import math
import random
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


def test_quadrature_validates_inputs():
    for bad_call in (
        lambda: cosine_coeff_quadrature(0, 1, 1e-10),
        lambda: cosine_coeff_quadrature(1, 0, 1e-10),
        lambda: cosine_coeff_quadrature(1, 1, 0.0),
        lambda: cosine_coeff_quadrature(1, 1, -1e-3),
    ):
        with pytest.raises(ValueError):
            bad_call()


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
