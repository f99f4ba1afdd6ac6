"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s` to see every line.
Tolerances and runtime budgets are stated inline; a test only passes
when its criterion holds at the stated tolerance within the stated
budget.  Criterion 8's k=2 leg would need ~3.2e10 terms by plain
truncation; the direct-sum oracle reaches it with ~1.9e6 terms and an
exact convexity bracket on the tail, which uses no Bernoulli numbers
and nothing computed by the backends under test.
"""

import json
import math
import time
from fractions import Fraction
from math import factorial, prod

import pytest
from mpmath import mp

from zeta2k.bench import bench_compare
from zeta2k.bernoulli import BernoulliTable, zeta_coeff_via_bernoulli
from zeta2k.fourier import (
    b_factor,
    b_product_closed,
    cosine_coeff_closed,
    cosine_coeff_quadrature,
    cosine_coeff_recursive,
    reconstruction_residual,
)
from zeta2k.precision import (
    InfeasiblePrecisionError,
    PrecisionConfig,
    zeta_direct_sum,
    zeta_eval,
)
from zeta2k.recursive import ZetaCoeffTable, consistency_residual


def _report(num: int, name: str, ok: bool, detail: str = "") -> bool:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[{status}] criterion {num}: {name}{suffix}")
    return ok


def test_criterion_1_check_values():
    t0 = time.perf_counter()
    table = ZetaCoeffTable(6)
    ok = (
        table.coeff(1) == Fraction(1, 6)
        and table.coeff(2) == Fraction(1, 90)
        and table.coeff(6) == Fraction(691, 638512875)
        and table.coeff(6) == Fraction(691 * 2**11, factorial(15))
        and zeta_coeff_via_bernoulli(6, BernoulliTable(12))
        == Fraction(691, 638512875)
    )
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 1.0
    assert _report(
        1, "check values c_1=1/6, c_2=1/90, c_6=691/638512875", ok, f"{elapsed:.3f}s"
    )


def test_criterion_2_cross_backend_exactness_to_300():
    t0 = time.perf_counter()
    table = ZetaCoeffTable(300)
    bernoulli = BernoulliTable(600)
    mismatches = [
        k
        for k in range(1, 301)
        if table.coeff(k) != zeta_coeff_via_bernoulli(k, bernoulli)
    ]
    elapsed = time.perf_counter() - t0
    ok = not mismatches and elapsed < 60.0
    detail = f"{elapsed:.2f}s" if not mismatches else f"mismatch at k={mismatches[:3]}"
    assert _report(2, "recursive == bernoulli backend for 1 <= k <= 300", ok, detail)


def test_criterion_3_consistency_identity_to_300():
    table = ZetaCoeffTable(300)
    bad = [k for k in range(1, 301) if consistency_residual(table, k) != 0]
    ok = not bad
    detail = "" if ok else f"nonzero residual at k={bad[:3]}"
    assert _report(
        3, "k/(2k+1)! equals the alternating coefficient sum, 1 <= k <= 300", ok, detail
    )


def test_criterion_4_closed_vs_recursive_cosine_coefficients():
    bad = []
    for k in range(1, 13):
        closed = cosine_coeff_closed(k)
        for n in range(1, 9):
            recursive = {t.pi_power: t.coeff for t in cosine_coeff_recursive(k, n)}
            if recursive != closed.substitute(n):
                bad.append((k, n))
    ok = not bad
    detail = "96/96 pairs exact" if ok else f"first mismatch {bad[0]}"
    assert _report(4, "cosine coefficients: closed form == recursion", ok, detail)


def test_criterion_5_b_product_identity():
    bad = []
    for k in range(1, 13):
        for n in (1, 2, 3):
            for j in range(k):
                direct = prod(
                    (b_factor(k - i, n) for i in range(j + 1)), start=Fraction(1)
                )
                if direct != b_product_closed(k, j, n):
                    bad.append((k, j, n))
    ok = not bad
    assert _report(
        5,
        "b-factor product == closed form, k <= 12, j <= k-1, n in {1,2,3}",
        ok,
        "" if ok else f"first mismatch {bad[0]}",
    )


def test_criterion_6_quadrature_oracle():
    t0 = time.perf_counter()
    worst = mp.mpf(0)
    bad = []
    for k in range(1, 7):
        closed = cosine_coeff_closed(k)
        for n in range(1, 9):
            with mp.workdps(80):
                exact = mp.fsum(
                    mp.mpf(c.numerator) / c.denominator * mp.pi**p
                    for p, c in sorted(closed.substitute(n).items())
                )
            got = cosine_coeff_quadrature(k, n, 1e-12).value
            err = abs(got - exact)
            allowed = mp.mpf(10) ** -10 * max(1, abs(exact))
            worst = max(worst, err / allowed)
            if err > allowed:
                bad.append((k, n))
    elapsed = time.perf_counter() - t0
    ok = not bad and elapsed < 30.0
    detail = (
        f"{elapsed:.2f}s, worst error {mp.nstr(worst, 3)} of allowance"
        if not bad
        else f"out of tolerance at {bad[0]}"
    )
    assert _report(6, "quadrature within 1e-10 of closed form, k <= 6, n <= 8", ok, detail)


def test_criterion_7_series_convergence_at_zero():
    bad = []
    for k in (1, 2, 3):
        for n_terms in (10**3, 2 * 10**3, 4 * 10**3):
            r_single = reconstruction_residual(k, n_terms)
            r_double = reconstruction_residual(k, 2 * n_terms)
            if not r_double < 0.75 * r_single:
                bad.append(f"k={k}, N={n_terms}: ratio {r_double / r_single:.3f}")
    relative = reconstruction_residual(1, 10**4) / math.pi**2
    if not relative < 1e-2:
        bad.append(f"k=1 residual at N=1e4 is {relative:.2e} relative")
    ok = not bad
    assert _report(
        7,
        "partial sums at x=0: doubling N cuts the residual below 0.75x",
        ok,
        f"k=1 relative residual {relative:.1e}" if ok else "; ".join(bad),
    )


def test_criterion_8_decimal_oracle_agreement():
    """k in {2,3,5,10} at 30 digits, within the 10^8 term budget and 10 s.

    At every k the oracle sums the tail enclosure's M terms and adds the
    midpoint of the trapezoid/midpoint-rule bracket on the tail of the
    convex x^(-2k) (M = 1,903,654 at k=2, 33 at k=10).  Plain truncation's
    cutoff N appears only in the error raised when M is over the budget;
    at k=2 it would be 32,182,979,487 terms, 322x the budget.  The bracket
    is elementary rationals, with no Bernoulli numbers and nothing from
    the coefficient backends, so the check stays independent.
    """
    t0 = time.perf_counter()
    cfg = PrecisionConfig(digits=30)
    table = ZetaCoeffTable(10)
    failures = []
    for k in (2, 3, 5, 10):
        try:
            via_sum = zeta_direct_sum(k, cfg)
        except InfeasiblePrecisionError as err:
            failures.append(
                f"k={k}: needs N={err.required_terms} terms, budget "
                f"{err.max_sum_terms}, feasible digits only {err.feasible_digits}"
            )
            continue
        via_pi = zeta_eval(k, cfg, table.coeff(k))
        with mp.workdps(60):
            if not abs(via_pi.value - via_sum.value) <= mp.mpf(10) ** -29:
                failures.append(f"k={k}: routes differ beyond 1e-29")
    elapsed = time.perf_counter() - t0
    if elapsed >= 10.0:
        failures.append(f"runtime {elapsed:.1f}s over the 10s budget")
    ok = not failures
    _report(
        8,
        "zeta_eval vs zeta_direct_sum agree to 29 of 30 digits, k in {2,3,5,10}",
        ok,
        f"{elapsed:.2f}s" if ok else "; ".join(failures),
    )
    if failures:
        pytest.fail("; ".join(failures))


def test_criterion_9_bench_report():
    k_values = [10, 50, 100, 200, 400]
    report = bench_compare(k_values, reps=1)  # raises if the backends disagree
    rows = report.rows
    problems = []
    if [row.k for row in rows] != [10, 10, 50, 50, 100, 100, 200, 200, 400, 400]:
        problems.append("rows do not cover every k with both backends")
    if any(row.wall_time_ns <= 0 for row in rows):
        problems.append("nonpositive timing")
    for k in k_values:
        digits = {row.coeff_digits for row in rows if row.k == k}
        if len(digits) != 1:
            problems.append(f"coeff_digits differ across backends at k={k}")
    csv_lines = report.to_csv().splitlines()
    if csv_lines[0] != "k,backend,wall_time_ns,coeff_digits,reps" or len(csv_lines) != 11:
        problems.append("CSV shape wrong")
    if len(json.loads(report.to_json())) != 10:
        problems.append("JSON shape wrong")
    times = {(row.backend, row.k): row.wall_time_ns for row in rows}
    for backend in ("recursive", "bernoulli"):
        for k in (50, 100):
            if times[(backend, 4 * k)] < times[(backend, k)]:
                problems.append(f"{backend} time at k={4 * k} below k={k}")
    ok = not problems
    recursive_total = sum(t for (b, _), t in times.items() if b == "recursive")
    bernoulli_total = sum(t for (b, _), t in times.items() if b == "bernoulli")
    assert _report(
        9,
        "benchmark report well-formed with correctness gate and k->4k monotonicity",
        ok,
        (
            f"recursive {recursive_total / 1e6:.0f}ms vs bernoulli "
            f"{bernoulli_total / 1e6:.0f}ms over the sweep"
            if ok
            else "; ".join(problems)
        ),
    )
