"""Wall-clock comparison of the two coefficient backends.

Timings are cold: every rep builds its table from scratch, so the
numbers reflect end-to-end cost of reaching c_k, not amortized lookups.
Correctness gates the report: a run that produces different rationals
across backends aborts instead of emitting timings.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass, fields
from statistics import median

from .bernoulli import BernoulliTable, zeta_coeff_via_bernoulli
from .exact import _int_str, _table_text, format_rational
from .recursive import ZetaCoeffTable

__all__ = ["BenchRow", "BenchReport", "BackendMismatchError", "bench_compare", "DEFAULT_SWEEP"]

DEFAULT_SWEEP = (10, 50, 100, 200, 400)


class BackendMismatchError(Exception):
    def __init__(self, k, recursive_value, bernoulli_value):
        self.k = k
        self.recursive_value = recursive_value
        self.bernoulli_value = bernoulli_value
        super().__init__(
            f"backends disagree at k={k}: "
            f"recursive={format_rational(recursive_value)} "
            f"bernoulli={format_rational(bernoulli_value)}"
        )


@dataclass(frozen=True)
class BenchRow:
    k: int
    backend: str  # "recursive" | "bernoulli"
    wall_time_ns: int
    coeff_digits: int
    reps: int


_BENCH_HEADER = tuple(f.name for f in fields(BenchRow))


@dataclass(frozen=True)
class BenchReport:
    rows: tuple[BenchRow, ...]

    def to_csv(self) -> str:
        return _table_text(_BENCH_HEADER, [asdict(row) for row in self.rows], "csv")

    def to_json(self) -> str:
        return _table_text(_BENCH_HEADER, [asdict(row) for row in self.rows], "json")


def _timed_recursive(k: int):
    t0 = time.perf_counter_ns()
    value = ZetaCoeffTable(k).coeff(k)
    return value, time.perf_counter_ns() - t0


def _timed_bernoulli(k: int):
    t0 = time.perf_counter_ns()
    value = zeta_coeff_via_bernoulli(k, BernoulliTable(2 * k))
    return value, time.perf_counter_ns() - t0


def bench_compare(k_values, reps: int = 3) -> BenchReport:
    """Median-of-reps cold timings for both backends at each k.

    All reps of one backend run back to back (no interleaving inside a
    measurement), and every produced rational is checked for exact
    equality against the other backend before any timing is reported.
    """
    if reps < 1:
        raise ValueError(f"reps must be >= 1, got {reps}")
    k_values = list(k_values)
    if not k_values:
        raise ValueError("k_values must be non-empty")
    for k in k_values:
        if k < 1:
            raise ValueError(f"every k must be >= 1, got {k}")

    rows = []
    for k in k_values:
        recursive_runs = [_timed_recursive(k) for _ in range(reps)]
        bernoulli_runs = [_timed_bernoulli(k) for _ in range(reps)]
        reference = recursive_runs[0][0]
        for value, _ in recursive_runs + bernoulli_runs:
            if value != reference:
                raise BackendMismatchError(k, reference, value)
        digits = len(_int_str(reference.numerator)) + len(_int_str(reference.denominator))
        rows.append(
            BenchRow(
                k=k,
                backend="recursive",
                wall_time_ns=int(median(t for _, t in recursive_runs)),
                coeff_digits=digits,
                reps=reps,
            )
        )
        rows.append(
            BenchRow(
                k=k,
                backend="bernoulli",
                wall_time_ns=int(median(t for _, t in bernoulli_runs)),
                coeff_digits=digits,
                reps=reps,
            )
        )
    return BenchReport(rows=tuple(rows))
