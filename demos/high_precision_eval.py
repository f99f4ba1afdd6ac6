#!/usr/bin/env python3
"""Exact coefficients to decimal digits, with an independent oracle.

zeta(2k) = c_k * pi^(2k) turns a rational into decimals once pi is
known.  An independent check sums the defining series directly: M terms
plus the midpoint of an exact two-sided bracket on the tail (no Bernoulli
numbers), with M far below the N terms plain truncation would need.  Where
even M is unaffordable the module says so instead of silently degrading.
"""

from zeta2k import (
    InfeasiblePrecisionError,
    PrecisionConfig,
    ZetaCoeffTable,
    direct_sum_terms,
    format_real,
    pi_digits,
    zeta_direct_sum,
    zeta_eval,
)
from zeta2k.precision import _enclosure_terms


def main() -> None:
    print("pi, computed in-house and self-checked at two guard levels:")
    print(f"  {pi_digits(50)}")

    table = ZetaCoeffTable(10)
    print()
    print("zeta(2k) via the exact coefficient route:")
    for k, digits in ((1, 30), (2, 30), (3, 30), (10, 30)):
        cfg = PrecisionConfig(digits=digits)
        value = zeta_eval(k, cfg, table.coeff(k))
        print(f"  zeta({2 * k:>2}) = {format_real(value)}")

    print()
    print("Direct-summation oracle: M terms plus the tail bracket's midpoint,")
    print("against the N terms plain truncation would need:")
    for k, digits in ((2, 10), (3, 30), (5, 30), (10, 30), (2, 30)):
        cfg = PrecisionConfig(digits=digits)
        m = _enclosure_terms(k, cfg)
        n = direct_sum_terms(k, cfg)
        value = zeta_direct_sum(k, cfg)
        print(
            f"  zeta({2 * k:>2}) at {digits} digits: M = {m:>7}, N = {n:>11}"
            f"  ->  {format_real(value)}"
        )

    print()
    print("The oracle refuses work whose M is over the term budget:")
    try:
        zeta_direct_sum(1, PrecisionConfig(digits=50))
    except InfeasiblePrecisionError as err:
        print(f"  k=1 at 50 digits: {err}")

    print()
    print("Agreement between the two routes at 30 digits (k=3):")
    cfg = PrecisionConfig(digits=30)
    via_pi = format_real(zeta_eval(3, cfg, table.coeff(3)))
    via_sum = format_real(zeta_direct_sum(3, cfg))
    print(f"  coefficient route: {via_pi}")
    print(f"  direct summation:  {via_sum}")
    print(f"  identical renderings: {via_pi == via_sum}")


if __name__ == "__main__":
    main()
