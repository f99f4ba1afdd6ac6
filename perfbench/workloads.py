"""The four seeded workloads: inputs, the timed operation, and its gate.

Every workload issues its inputs in rounds.  A round is a fixed set of
strata (input sizes, request kinds or digit levels) with seeded values
inside each stratum, in seeded order.  Runs stop only at a round
boundary, so the mix of sizes, and the share of requests that hit the
>4300-digit defect, is the same in every run whatever the seed.

``run`` is the timed operation; ``check`` gates its output against a
reference built without the code under test and returns None when the
output is correct, else a short reason.
"""

from __future__ import annotations

import json
import math
import os
import random
import selectors
import sys
from dataclasses import dataclass
from fractions import Fraction
from math import prod
from pathlib import Path
from time import perf_counter

import reference
from mpmath import mp

import zeta2k.precision as precision
from zeta2k.bernoulli import BernoulliTable, zeta_coeff_via_bernoulli
from zeta2k.fourier import (
    QuadratureError,
    b_factor,
    b_product_closed,
    cosine_coeff_closed,
    cosine_coeff_quadrature,
    cosine_coeff_recursive,
    reconstruct,
)
from zeta2k.recursive import ZetaCoeffTable, consistency_residual

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


class Workload:
    name = ""

    def __init__(self, seed: int):
        self.rng = random.Random(f"{self.name}/{seed}")
        self.reference_build_s = 0.0  # reference built with zeta2k code, in set-up
        self.child_rss_kb = 0  # peak RSS of the largest child process

    def setup(self) -> None:
        """Build references and fill lazy state before the first timed op."""

    def next_round(self) -> list:
        raise NotImplementedError

    def run(self, req, tr):
        raise NotImplementedError

    def check(self, req, out) -> str | None:
        raise NotImplementedError

    def install(self, tr) -> None:
        """Traced run only: wrap module attributes to time nested calls."""

    def label(self, req) -> int | None:
        """Input size reported in the traced run's per-size layer rows."""
        return None

    def _shuffled(self, items: list) -> list:
        self.rng.shuffle(items)
        return items


# ---------------------------------------------------------------------------


class CoeffCold(Workload):
    """Cold ZetaCoeffTable(K) builds, then to_csv()."""

    name = "coeff_cold"
    STRATA = range(100, 200, 10)  # K = stratum + seeded offset in [0, 10)

    def setup(self):
        top = self.STRATA[-1] + 9
        t0 = perf_counter()
        bern = BernoulliTable(2 * top)
        self.reference_build_s = perf_counter() - t0
        self.ref = [zeta_coeff_via_bernoulli(k, bern) for k in range(1, top + 1)]
        self._csv: dict[int, str] = {}

    def next_round(self):
        return self._shuffled([base + self.rng.randrange(10) for base in self.STRATA])

    def label(self, k_max):
        return k_max

    def run(self, k_max, tr):
        with tr.span("recursive.build"):
            table = ZetaCoeffTable(k_max)
        tr.count("recursive.entries_built", k_max)
        with tr.span("recursive.export"):
            return table.to_csv()

    def check(self, k_max, text):
        expected = self._csv.get(k_max)
        if expected is None:
            rows = "".join(
                f"{k},{c.numerator},{c.denominator}\n"
                for k, c in enumerate(self.ref[:k_max], start=1)
            )
            expected = self._csv[k_max] = "k,num,den\n" + rows
        return None if text == expected else "wrong_value: csv differs from Bernoulli-route table"


# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class VerifyJob:
    max_k: int
    quad: tuple[int, int]  # (k, n)
    direct: tuple[int, int]  # (k, digits)
    recon: tuple[int, int]  # (k, n_terms)


@dataclass
class VerifyOutcome:
    cross_checked: int
    cross_mismatch: list
    residuals_checked: int
    residual_nonzero: list
    cosine_checked: int
    cosine_mismatch: list
    bproduct_checked: int
    bproduct_mismatch: list
    quadrature: object
    direct_sum: object
    recon: tuple[float, float]


class VerifySuite(Workload):
    """One verify job per op: builds, exact identity checks, three oracles."""

    name = "verify_suite"
    STRATA = range(40, 104, 8)  # max_k = stratum + seeded offset in [0, 8)
    QUAD_TOL = 1e-12
    QUAD_K, QUAD_N = range(1, 7), range(1, 9)
    DIRECT_K = range(4, 9)
    RECON_K, RECON_TERMS = (1, 2, 3), range(20_000, 60_001, 5_000)
    EXACT_K_CAP = 12  # cosine and b-product checks cover k <= 12, like `zeta2k verify`

    @staticmethod
    def direct_digits(k: int, offset: int) -> int:
        # about 10^4.2 summation terms whatever k is
        return round(4.2 * (2 * k - 1)) - 2 - offset

    def setup(self):
        self.quad_ref = {
            (k, n): reference.cosine_coeff(k, n) for k in self.QUAD_K for n in self.QUAD_N
        }
        self.zeta_ref = {}
        for k in self.DIRECT_K:
            for offset in range(3):
                d = self.direct_digits(k, offset)
                self.zeta_ref[(k, d)] = reference.zeta_value(k, d + 20)
        # Gauss-Legendre nodes are cached per working precision, which depends
        # on k only at this tolerance: fill that cache before timing.
        for k in self.QUAD_K:
            cosine_coeff_quadrature(k, 1, self.QUAD_TOL)

    def next_round(self):
        r = self.rng
        jobs = []
        for base in self.STRATA:
            dk = r.choice(self.DIRECT_K)
            jobs.append(VerifyJob(
                max_k=base + r.randrange(8),
                quad=(r.choice(self.QUAD_K), r.choice(self.QUAD_N)),
                direct=(dk, self.direct_digits(dk, r.randrange(3))),
                recon=(r.choice(self.RECON_K), r.choice(self.RECON_TERMS)),
            ))
        return self._shuffled(jobs)

    def label(self, job):
        return job.max_k

    def run(self, job, tr):
        top = job.max_k
        with tr.span("recursive.build"):
            table = ZetaCoeffTable(top)
        tr.count("recursive.entries_built", top)
        with tr.span("bernoulli.build"):
            bern = BernoulliTable(2 * top)
        tr.count("bernoulli.entries_built", 2 * top + 1)
        with tr.span("bernoulli.coeff"):
            cross = [k for k in range(1, top + 1)
                     if table.coeff(k) != zeta_coeff_via_bernoulli(k, bern)]
        with tr.span("recursive.residual"):
            nonzero = [k for k in range(1, top + 1) if consistency_residual(table, k) != 0]
        tr.count("recursive.residual_calls", top)
        exact_top = min(top, self.EXACT_K_CAP)
        cosine_bad, cosine_n = [], 0
        with tr.span("fourier.cosine_check"):
            for k in range(1, exact_top + 1):
                closed = cosine_coeff_closed(k)
                for n in range(1, 9):
                    recursive_poly = {t.pi_power: t.coeff for t in cosine_coeff_recursive(k, n)}
                    cosine_n += 1
                    if closed.substitute(n) != recursive_poly:
                        cosine_bad.append((k, n))
        bproduct_bad, bproduct_n = [], 0
        with tr.span("fourier.bproduct"):
            for k in range(1, exact_top + 1):
                for n in (1, 2, 3):
                    for j in range(k):
                        direct = prod((b_factor(k - i, n) for i in range(j + 1)), start=Fraction(1))
                        bproduct_n += 1
                        if direct != b_product_closed(k, j, n):
                            bproduct_bad.append((k, j, n))
        tr.count("fourier.quadrature_calls")
        with tr.span("fourier.quadrature"):
            try:
                quad = cosine_coeff_quadrature(*job.quad, self.QUAD_TOL)
            except QuadratureError:
                tr.count("fourier.quadrature_failures")
                raise
        dk, digits = job.direct
        cfg = precision.PrecisionConfig(digits=digits)
        with tr.span("precision.direct_sum"):
            direct_sum = precision.zeta_direct_sum(dk, cfg)
        if tr.enabled:
            tr.count("precision.direct_sum_terms", precision.direct_sum_terms(dk, cfg))
        rk, n_terms = job.recon
        with tr.span("fourier.reconstruct"):
            recon = (reconstruct(rk, 0.0, n_terms), reconstruct(rk, 0.0, 2 * n_terms))
        return VerifyOutcome(top, cross, top, nonzero, cosine_n, cosine_bad,
                             bproduct_n, bproduct_bad, quad, direct_sum, recon)

    def check(self, job, out):
        top, exact_top = job.max_k, min(job.max_k, self.EXACT_K_CAP)
        if out.cross_checked != top or out.cross_mismatch:
            return "wrong_value: recursive != Bernoulli route"
        if out.residuals_checked != top or out.residual_nonzero:
            return "wrong_value: consistency residual nonzero"
        if out.cosine_checked != 8 * exact_top or out.cosine_mismatch:
            return "wrong_value: closed != recursive cosine coefficient"
        if out.bproduct_checked != 3 * exact_top * (exact_top + 1) // 2 or out.bproduct_mismatch:
            return "wrong_value: b-product != closed form"
        exact = self.quad_ref[job.quad]
        with mp.workdps(80):
            if abs(out.quadrature.value - exact) > mp.mpf(10) ** -10 * max(1, abs(exact)):
                return "wrong_value: quadrature off the closed form"
        dk, digits = job.direct
        with mp.workdps(digits + 20):
            if abs(out.direct_sum.value - self.zeta_ref[job.direct]) > mp.mpf(10) ** -(digits + 1):
                return "wrong_value: direct sum off mp.zeta"
        rk, n_terms = job.recon
        target = math.pi ** (2 * rk)
        r1, r2 = abs(target - out.recon[0]), abs(target - out.recon[1])
        # the tail is 4k pi^(2k-2) / N to leading order
        lead = 4 * rk * math.pi ** (2 * rk - 2) / n_terms
        if not (0.5 * lead < r1 < 2 * lead and r2 < 0.75 * r1):
            return "wrong_value: cosine series does not converge at the 1/N rate"
        return None


# ---------------------------------------------------------------------------


class EvalHighprec(Workload):
    """ZetaCoeffTable(k), zeta_eval and format_real at repeated digit levels."""

    name = "eval_highprec"
    LEVELS = (3500, 4000, 4299, 4300, 4700, 5200)
    K_RANGE = range(1, 31)

    def setup(self):
        coeffs = reference.zeta_coeffs(self.K_RANGE[-1])
        self.ref = {
            (k, d): reference.scaled_floor(coeffs[k - 1], k, d)
            for d in self.LEVELS
            for k in self.K_RANGE
        }

    def next_round(self):
        return self._shuffled([(self.rng.choice(self.K_RANGE), d) for d in self.LEVELS])

    def install(self, tr):
        seen: set[int] = set()

        def on_pi(cfg):
            tr.count("precision.pi_calls")
            tr.count("precision.pi_digits_requested", cfg.digits)
            if cfg.digits in seen:
                tr.count("precision.pi_repeats")
            seen.add(cfg.digits)

        tr.wrap(precision, "pi_value", span_name="precision.pi", before=on_pi)
        if hasattr(precision, "_pi_scaled"):
            tr.wrap(precision, "_pi_scaled",
                    before=lambda frac_digits: tr.count("precision.pi_digits_computed", frac_digits))

    def run(self, req, tr):
        k, digits = req
        with tr.span("recursive.build"):
            c_k = ZetaCoeffTable(k).coeff(k)
        tr.count("recursive.entries_built", k)
        cfg = precision.PrecisionConfig(digits=digits)
        with tr.span("precision.zeta_eval"):
            value = precision.zeta_eval(k, cfg, c_k)
        with tr.span("precision.format"):
            try:
                return precision.format_real(value)
            except Exception:
                tr.count("precision.format_failures")
                raise

    def check(self, req, text):
        k, digits = req
        if reference.fixed_point_matches(text, digits, self.ref[req]):
            return None
        return "wrong_value: digits differ from c_k * mp.pi^(2k)"


# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CliResult:
    code: int
    stdout: str
    stderr: str
    rss_kb: int


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def spawn(argv: list[str], env: dict[str, str], report_fd: bool = False):
    """Run argv to completion; return (exit code, [stdout, stderr(, fd 3)], peak RSS KiB).

    os.wait4 gives this child's own resource usage, so its peak RSS is
    not mixed up with any other child of the benchmark.
    """
    pipes = [os.pipe() for _ in range(3 if report_fd else 2)]
    actions = [(os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0)]
    actions += [(os.POSIX_SPAWN_DUP2, w, fd) for fd, (_, w) in zip((1, 2, 3), pipes)]
    try:
        pid = os.posix_spawn(argv[0], argv, env, file_actions=actions)
    finally:
        for _, w in pipes:
            os.close(w)
    chunks: dict[int, list[bytes]] = {r: [] for r, _ in pipes}
    with selectors.DefaultSelector() as sel:
        for r in chunks:
            sel.register(r, selectors.EVENT_READ)
        while sel.get_map():
            for key, _ in sel.select():
                data = os.read(key.fd, 1 << 16)
                if data:
                    chunks[key.fd].append(data)
                else:
                    sel.unregister(key.fd)
                    os.close(key.fd)
    _, status, usage = os.wait4(pid, 0)
    outputs = [b"".join(chunks[r]) for r, _ in pipes]
    return os.waitstatus_to_exitcode(status), outputs, usage.ru_maxrss


# What the installed `zeta2k` console script runs.
ENTRYPOINT = "import sys; from zeta2k.cli import entrypoint; sys.exit(entrypoint())"


class CliCold(Workload):
    """A fresh interpreter running the zeta2k console script per op."""

    name = "cli_cold"
    COEFF_K, TABLE_K, BERN_M = range(5, 61), range(10, 41), range(10, 61)
    SMALL_D, MID_D, BIG_D = range(50, 501), range(1000, 3001), range(4301, 4601)
    EVAL_K, VERIFY_K = range(1, 21), range(5, 21)

    def __init__(self, seed):
        super().__init__(seed)
        self.env = child_env()

    def setup(self):
        top = max(self.COEFF_K[-1], self.TABLE_K[-1])
        self.bern = reference.bernoulli_numbers(max(2 * top, self.BERN_M[-1]))
        self.coeffs = reference.zeta_coeffs(top)
        self._eval_ref: dict[tuple[int, int], int] = {}
        # compiles zeta2k's bytecode and warms the file cache once
        self._spawn(["coeff", "-k", "1"])

    def next_round(self):
        r = self.rng
        reqs = [
            ("coeff", "-k", str(r.choice(self.COEFF_K))),
            ("coeff", "-k", str(r.choice(self.COEFF_K)), "--format", "json"),
            ("table", "--max-k", str(r.choice(self.TABLE_K))),
            ("table", "--max-k", str(r.choice(self.TABLE_K)), "--format", "json"),
            ("bernoulli", "--max-index", str(r.choice(self.BERN_M))),
            ("bernoulli", "--max-index", str(r.choice(self.BERN_M)), "--format", "json"),
            ("eval", "-k", str(r.choice(self.EVAL_K)), "-d", str(r.choice(self.SMALL_D))),
            ("eval", "-k", str(r.choice(self.EVAL_K)), "-d", str(r.choice(self.MID_D))),
            ("eval", "-k", str(r.choice(self.EVAL_K)), "-d", str(r.choice(self.BIG_D))),
            ("verify", "--max-k", str(r.choice(self.VERIFY_K))),
        ]
        return self._shuffled(reqs)

    def _spawn(self, args, tr=None):
        if tr is None or not tr.enabled:
            code, (out, err), rss = spawn([sys.executable, "-c", ENTRYPOINT, *args], self.env)
            times = None
        else:
            code, (out, err, rep), rss = spawn(
                [sys.executable, str(HERE / "cli_child.py"), *args], self.env, report_fd=True)
            times = [float(x) for x in rep.split()] if rep else None
        return CliResult(code, out.decode(), err.decode(), rss), times

    def run(self, args, tr):
        with tr.span("cli.process"):
            result, times = self._spawn(args, tr)
            if times:
                t_import, t_imported, t_main_end = times
                tr.add_span("cli.import", t_import, t_imported)
                tr.add_span("cli.main", t_imported, t_main_end)
        if result.code != 0:
            tr.count("cli.exit_nonzero")
        self.child_rss_kb = max(self.child_rss_kb, result.rss_kb)
        return result

    def expected(self, args) -> str | None:
        """Exact stdout for args, or None for `eval` (checked numerically)."""
        cmd, as_json = args[0], "--format" in args
        if cmd == "coeff":
            k = int(args[2])
            c = self.coeffs[k - 1]
            if as_json:
                return json.dumps({"k": k, "num": str(c.numerator), "den": str(c.denominator)}) + "\n"
            return f"{c.numerator}/{c.denominator}\n"
        if cmd in ("table", "bernoulli"):
            top = int(args[2])
            key, rows = (("k", enumerate(self.coeffs[:top], start=1)) if cmd == "table"
                         else ("m", enumerate(self.bern[: top + 1])))
            rows = [(i, str(q.numerator), str(q.denominator)) for i, q in rows]
            if as_json:
                return json.dumps([{key: i, "num": n, "den": d} for i, n, d in rows]) + "\n"
            return f"{key},num,den\n" + "".join(f"{i},{n},{d}\n" for i, n, d in rows)
        if cmd == "verify":
            return f"OK {args[2]}/{args[2]}\n"
        return None

    def check(self, args, result):
        if result.code != 0:
            return f"exit {result.code}: {reference.classify(result.stderr)}"
        if args[0] == "eval":
            k, digits = int(args[2]), int(args[4])
            ref = self._eval_ref.get((k, digits))
            if ref is None:
                ref = self._eval_ref[(k, digits)] = reference.scaled_floor(self.coeffs[k - 1], k, digits)
            ok = result.stdout.endswith("\n") and reference.fixed_point_matches(
                result.stdout[:-1], digits, ref)
        else:
            ok = result.stdout == self.expected(args)
        return None if ok else f"wrong_value: stdout of {' '.join(args)}"


WORKLOADS = {w.name: w for w in (CoeffCold, VerifySuite, EvalHighprec, CliCold)}
