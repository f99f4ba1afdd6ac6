#!/usr/bin/env python3
"""Cold-table timing of the two coefficient backends.

Both routes run on integers and reduce once per entry: the paper
recursion with one exact division, the Bernoulli recurrence over one
running common denominator.  The README's "Benchmark honesty" section
gives the measured ratio over the default sweep.  The 10x to 17x
reported before measured a Bernoulli route that added Fractions and paid
a gcd on every term.
The harness refuses to report timings unless both backends produced
identical rationals at every k.
"""

from zeta2k import DEFAULT_SWEEP, bench_compare


def main() -> None:
    reps = 3
    print(f"Sweep k in {list(DEFAULT_SWEEP)}, {reps} reps each, cold tables, "
          "median wall time:")
    report = bench_compare(DEFAULT_SWEEP, reps=reps)
    print()
    print(f"  {'k':>4}  {'backend':<10} {'median ms':>10}  {'digits of c_k':>13}")
    for row in report.rows:
        print(
            f"  {row.k:>4}  {row.backend:<10} {row.wall_time_ns / 1e6:>10.2f}  "
            f"{row.coeff_digits:>13}"
        )
    print()
    by_backend = {"recursive": 0, "bernoulli": 0}
    for row in report.rows:
        by_backend[row.backend] += row.wall_time_ns
    ratio = by_backend["bernoulli"] / by_backend["recursive"]
    print(f"  sweep totals: recursive {by_backend['recursive'] / 1e6:.1f} ms, "
          f"bernoulli {by_backend['bernoulli'] / 1e6:.1f} ms "
          f"(ratio {ratio:.2f})")
    print()
    print("Raw CSV (same data the `zeta2k bench` subcommand emits):")
    print(report.to_csv())


if __name__ == "__main__":
    main()
