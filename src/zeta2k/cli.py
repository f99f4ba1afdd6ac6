"""Command-line surface: zeta2k {coeff,eval,verify,table,bernoulli,fourier,bench}.

Exit codes: 0 success, 1 verification failure, 2 usage error.  Flags are
validated before any computation starts; output goes to stdout, or to
--output PATH: a file is replaced atomically (temp file beside it, then
rename; a symlink stays), and a FIFO or a device is written through.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import stat
import sys
import tempfile
from fractions import Fraction

# These three use the standard library only, and not dataclasses.  Every
# other module loads inside the subcommands that need it, bench (dataclasses,
# statistics) for bench only; no command loads numpy or mpmath.
from .bernoulli import BernoulliTable, zeta_coeff_via_bernoulli
from .exact import _num_den_row, format_rational
from .recursive import ZetaCoeffTable, consistency_residual

__all__ = ["main", "entrypoint", "build_parser"]

# bench.DEFAULT_SWEEP, which the parser cannot import without loading bench
_DEFAULT_SWEEP = (10, 50, 100, 200, 400)


class _StderrFailure(Exception):
    """A subcommand failed: main prints the message to stderr and exits 1."""


# Largest inputs the commands accept, each chosen so that the largest
# accepted input takes at most about 30 s on a 2-core machine; the README
# tabulates the cold times measured at each cap.  The paper kernel grows
# about K^_K_POWER, verify's checks about K^4 (its Bernoulli table of index
# 2K the largest part) and the Bernoulli recurrence about M^4, so far
# larger inputs would run for hours.
_MAX_K = 2000
_K_POWER = 3.1
_MAX_VERIFY_K = 1200
_MAX_BERNOULLI_INDEX = 2500
_MAX_BENCH_K = _MAX_BERNOULLI_INDEX // 2
# eval's digits: pi's Chudnovsky run and the power grow about D^_D_POWER
_MAX_DIGITS = 400_000
_D_POWER = 1.9
# bench's total work: every rep of every k builds the Bernoulli table to
# index 2k, about (2k)^4, so a run costs about reps * sum((2k)^4); the
# budget is the largest single k at the default 3 reps, about 110 s
_BENCH_BUDGET = 3 * (2 * _MAX_BENCH_K) ** 4
# fourier runs one quadrature per (k, n), and its precision and panels grow
# with both; past the corner -k 40 -n 40 it runs over 30 s (README), so each
# flag is capped there
_MAX_FOURIER_K = 40
_MAX_FOURIER_N = 40
# eval's table and pi add, so the pair is held to 30 s of the fitted sum:
# _K_SECONDS at -k 2000 and _D_SECONDS at -d 400000; fitted while pi took a
# second run, it now reads high at every corner timed (README)
_K_SECONDS = 26
_D_SECONDS = 28
_EVAL_BUDGET_S = 30
_EVAL_BUDGET_TEXT = (
    f"{_K_SECONDS}*(K/{_MAX_K})^{_K_POWER} + {_D_SECONDS}*(D/{_MAX_DIGITS})^{_D_POWER}"
    f" <= {_EVAL_BUDGET_S}"
)


def _eval_seconds(k: int, digits: int) -> float:
    """About how long a cold eval -k K -d D runs, in seconds."""
    return _K_SECONDS * (k / _MAX_K) ** _K_POWER + _D_SECONDS * (digits / _MAX_DIGITS) ** _D_POWER


# optional sign, decimal digits of any script joined by single underscores, whitespace around
_INT_TEXT = re.compile(r"\s*[+-]?\d+(?:_\d+)*\s*")


def _shown(text: str) -> str:
    """An argument as an error message quotes it: cut short past 40 characters."""
    text = text.strip()
    if len(text) <= 40:
        return text
    return f"{text[:20]}...{text[-10:]} ({len(text)} characters)"


def _int_at_least(low: int, cap: int | None = None, why: str = ""):
    """argparse type: an integer >= low, and <= cap when one is given."""

    def parse(text: str) -> int:
        if _INT_TEXT.fullmatch(text) is None:
            raise argparse.ArgumentTypeError(f"{_shown(text)!r} is not an integer")
        # int() refuses more than sys.get_int_max_str_digits() digits
        # (4300 by default), leading zeros included; without them the
        # value is either small again or beyond every bound here
        body = text.strip()
        digits = body.lstrip("+-").replace("_", "").lstrip("0") or "0"
        sign = -1 if body.startswith("-") else 1
        if len(digits) <= sys.get_int_max_str_digits():
            value = shown = sign * int(digits)
        else:
            value, shown = sign * math.inf, _shown(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {shown}")
        if cap is not None and value > cap:
            raise argparse.ArgumentTypeError(f"must be <= {cap}, got {shown}: {why}")
        if value == math.inf:
            raise argparse.ArgumentTypeError(
                f"must have at most {sys.get_int_max_str_digits()} digits, got {shown}"
            )
        return value

    return parse


_table_k = _int_at_least(
    1, _MAX_K, f"the coefficient table grows about K^{_K_POWER} and K={_MAX_K} takes about 30 s"
)
_verify_k = _int_at_least(
    1, _MAX_VERIFY_K, f"the checks grow about K^4 and K={_MAX_VERIFY_K} takes about 30 s"
)
_bernoulli_index = _int_at_least(
    0,
    _MAX_BERNOULLI_INDEX,
    f"the recurrence grows about M^4 and M={_MAX_BERNOULLI_INDEX} takes about 30 s",
)
_eval_digits = _int_at_least(
    1, _MAX_DIGITS, f"the time grows about D^{_D_POWER} and D={_MAX_DIGITS} takes about 30 s"
)
_FOURIER_WHY = (
    "each (k, n) runs a quadrature whose precision and panels grow with both, "
    f"and -k {_MAX_FOURIER_K} -n {_MAX_FOURIER_N} takes about 30 s"
)
_fourier_k = _int_at_least(1, _MAX_FOURIER_K, _FOURIER_WHY)
_fourier_n = _int_at_least(1, _MAX_FOURIER_N, _FOURIER_WHY)
_bench_k = _int_at_least(
    1,
    _MAX_BENCH_K,
    f"every rep builds the Bernoulli table to index 2k, and at k={_MAX_BENCH_K} "
    "that table alone takes about 30 s",
)


def _k_list(text: str) -> tuple[int, ...]:
    items = [piece for piece in text.split(",") if piece.strip()]
    if not items:
        raise argparse.ArgumentTypeError("expected a comma-separated list of k values")
    return tuple(_bench_k(piece.strip()) for piece in items)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="zeta2k",
        description="Exact rational coefficients c_k with zeta(2k) = c_k*pi^(2k), "
        "their verification suites, decimal evaluation, and backend benchmarks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def with_output(p: argparse.ArgumentParser) -> argparse.ArgumentParser:
        p.add_argument(
            "--output",
            metavar="PATH",
            help="write the result to PATH atomically instead of stdout",
        )
        p.set_defaults(usage_error=p.error)
        return p

    p = with_output(sub.add_parser("coeff", help="print the exact coefficient c_k"))
    p.add_argument("-k", type=_table_k, required=True, metavar="K",
                   help=f"1 <= K <= {_MAX_K}")
    p.add_argument("--format", choices=("plain", "json"), default="plain")
    p.set_defaults(func=_cmd_coeff)

    p = with_output(sub.add_parser("eval", help="print zeta(2k) to D digits"))
    p.add_argument("-k", type=_table_k, required=True, metavar="K",
                   help=f"1 <= K <= {_MAX_K}")
    p.add_argument("-d", "--digits", type=_eval_digits, required=True, metavar="D",
                   help=f"1 <= D <= {_MAX_DIGITS}; the time grows about D^{_D_POWER}, and "
                   f"with -k it must satisfy {_EVAL_BUDGET_TEXT} (seconds)")
    p.set_defaults(func=_cmd_eval)

    p = with_output(
        sub.add_parser("verify", help="run the exact cross-backend and cosine-series suites")
    )
    p.add_argument("--max-k", type=_verify_k, default=50, metavar="K",
                   help=f"check 1 <= k <= K, K <= {_MAX_VERIFY_K} (default 50)")
    p.set_defaults(func=_cmd_verify)

    p = with_output(sub.add_parser("table", help="export c_1..c_K"))
    p.add_argument("--max-k", type=_table_k, required=True, metavar="K",
                   help=f"1 <= K <= {_MAX_K}")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.set_defaults(func=_cmd_table)

    p = with_output(sub.add_parser("bernoulli", help="export B_0..B_M"))
    p.add_argument("--max-index", type=_bernoulli_index, required=True, metavar="M",
                   help=f"0 <= M <= {_MAX_BERNOULLI_INDEX}")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.set_defaults(func=_cmd_bernoulli)

    p = with_output(
        sub.add_parser(
            "fourier",
            help="compare closed/recursive/quadrature cosine coefficients as CSV",
        )
    )
    p.add_argument("-k", type=_fourier_k, required=True, metavar="K",
                   help=f"sweep 1 <= k <= K, K <= {_MAX_FOURIER_K}")
    p.add_argument("-n", type=_fourier_n, required=True, metavar="N",
                   help=f"sweep 1 <= n <= N, N <= {_MAX_FOURIER_N}; "
                   f"-k {_MAX_FOURIER_K} -n {_MAX_FOURIER_N} takes about 30 s")
    p.set_defaults(func=_cmd_fourier)

    p = with_output(sub.add_parser("bench", help="time both backends"))
    p.add_argument(
        "--k-list",
        type=_k_list,
        default=_DEFAULT_SWEEP,
        metavar="K1,K2,...",
        help=f"comma-separated k values, each <= {_MAX_BENCH_K} "
        f"(default {','.join(map(str, _DEFAULT_SWEEP))})",
    )
    p.add_argument("--reps", type=_int_at_least(1), default=3, metavar="R",
                   help=f"repetitions per k (default 3); R times the sum of (2k)^4 "
                   f"must be <= 3*{2 * _MAX_BENCH_K}^4")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.set_defaults(func=_cmd_bench)

    return parser


# ---------------------------------------------------------------------------
# subcommands: each returns (text, exit_code)


def _cmd_coeff(args) -> tuple[str, int]:
    c = ZetaCoeffTable(args.k).coeff(args.k)
    if args.format == "json":
        return json.dumps(_num_den_row("k", args.k, c)), 0
    return format_rational(c), 0


def _cmd_eval(args) -> tuple[str, int]:
    from .precision import PrecisionConfig, format_real, zeta_eval

    cfg = PrecisionConfig(digits=args.digits)
    c = ZetaCoeffTable(args.k).coeff(args.k)
    return format_real(zeta_eval(args.k, cfg, c)), 0


def _first_verify_failure(max_k: int):
    """(k, message) for the first exact identity that fails, else None."""
    from .fourier import b_factor, b_product_closed, cosine_coeff_closed, cosine_coeff_recursive

    table = ZetaCoeffTable(max_k)
    bernoulli = BernoulliTable(2 * max_k)
    for k in range(1, max_k + 1):
        via_recursion = table.coeff(k)
        via_bernoulli = zeta_coeff_via_bernoulli(k, bernoulli)
        if via_recursion != via_bernoulli:
            return k, (
                f"backend mismatch: recursive={format_rational(via_recursion)} "
                f"bernoulli={format_rational(via_bernoulli)}"
            )
        if consistency_residual(table, k) != 0:
            return k, "consistency identity residual is nonzero"
    for k in range(1, min(max_k, 12) + 1):
        closed = cosine_coeff_closed(k)
        for n in range(1, 9):
            recursive_poly = {t.pi_power: t.coeff for t in cosine_coeff_recursive(k, n)}
            if closed.substitute(n) != recursive_poly:
                return k, f"cosine coefficient mismatch at n={n}"
        for n in (1, 2, 3):
            direct = Fraction(1)  # b_k * b_(k-1) * ... * b_(k-j)
            for j in range(k):
                direct *= b_factor(k - j, n)
                if direct != b_product_closed(k, j, n):
                    return k, f"b-product mismatch at j={j}, n={n}"
    return None


def _cmd_verify(args) -> tuple[str, int]:
    failure = _first_verify_failure(args.max_k)
    if failure is None:
        return f"OK {args.max_k}/{args.max_k}", 0
    k, message = failure
    return f"FAIL k={k}: {message}", 1


def _cmd_table(args) -> tuple[str, int]:
    table = ZetaCoeffTable(args.max_k)
    return table.to_json() if args.format == "json" else table.to_csv(), 0


def _cmd_bernoulli(args) -> tuple[str, int]:
    table = BernoulliTable(args.max_index)
    return table.to_json() if args.format == "json" else table.to_csv(), 0


def _cmd_fourier(args) -> tuple[str, int]:
    from .fourier import _fourier_csv

    return _fourier_csv(args.k, args.n), 0


def _cmd_bench(args) -> tuple[str, int]:
    from .bench import BackendMismatchError, bench_compare

    try:
        report = bench_compare(args.k_list, args.reps)
    except BackendMismatchError as exc:
        raise _StderrFailure(f"FAIL: {exc}") from exc
    return report.to_json() if args.format == "json" else report.to_csv(), 0


# ---------------------------------------------------------------------------


def _write_atomic(path: str, text: str) -> None:
    target = os.path.realpath(path)  # a link stays, and the file it names is replaced
    # mkstemp creates the file 0600; give it the mode open(path, "w") would
    try:
        mode = stat.S_IMODE(os.stat(target).st_mode)
    except FileNotFoundError:
        umask = os.umask(0)
        os.umask(umask)
        mode = 0o666 & ~umask
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(target), prefix=".zeta2k-")
    try:
        with os.fdopen(fd, "w", encoding="ascii", newline="") as handle:
            handle.write(text)
        os.chmod(tmp, mode)
        os.replace(tmp, target)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def main(argv=None) -> int:
    parser = build_parser()
    in_place = False  # --output names a FIFO or a device: written through, not replaced
    try:
        args = parser.parse_args(argv)
        # "--" is never a value; argparse before 3.13 drops it from
        # --flag=-- and stores [] without its type or choices check
        for name, value in vars(args).items():
            if value in ([], "--"):
                flag = f"-{name}" if len(name) == 1 else f"--{name.replace('_', '-')}"
                args.usage_error(f"argument {flag}: expected one argument")
        if args.command == "bench" and (
            args.reps * sum((2 * k) ** 4 for k in args.k_list) > _BENCH_BUDGET
        ):
            args.usage_error(
                f"--reps times the sum of (2k)^4 over --k-list must be <= "
                f"3*{2 * _MAX_BENCH_K}^4: every rep builds the Bernoulli table to "
                f"index 2k, which grows about (2k)^4, and --k-list {_MAX_BENCH_K} "
                "with 3 reps takes about 110 s"
            )
        if args.command == "eval" and _eval_seconds(args.k, args.digits) > _EVAL_BUDGET_S:
            args.usage_error(
                f"-k and -d must satisfy {_EVAL_BUDGET_TEXT}: the table (about K^{_K_POWER}) "
                f"and pi (about D^{_D_POWER}) add, and -k {args.k} -d {args.digits} would "
                f"take about {_eval_seconds(args.k, args.digits):.1f} s"
            )
        if args.output:
            shown = _shown(args.output)
            try:
                mode = os.stat(args.output).st_mode
            except (FileNotFoundError, NotADirectoryError):
                mode = stat.S_IFREG  # a new file, if its folder below is usable
            except OSError as exc:  # a name too long, a folder that cannot be searched
                args.usage_error(f"argument --output: {shown!r}: {exc.strerror}")
            if stat.S_ISDIR(mode) or stat.S_ISSOCK(mode):  # neither can be opened to write
                kind = "directory" if stat.S_ISDIR(mode) else "socket"
                args.usage_error(f"argument --output: {shown!r} is a {kind}")
            in_place = not stat.S_ISREG(mode)
            folder = os.path.dirname(os.path.realpath(args.output))
            if not os.path.isdir(folder):
                args.usage_error(f"argument --output: {shown!r} is not in an existing directory")
            if not os.access(args.output if in_place else folder, os.W_OK):
                where = "writable" if in_place else "in a writable directory"
                args.usage_error(f"argument --output: {shown!r} is not {where}")
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        text, code = args.func(args)
    except _StderrFailure as exc:
        print(exc, file=sys.stderr)
        return 1
    if not text.endswith("\n"):
        text += "\n"
    if not args.output:
        sys.stdout.write(text)
    elif in_place:
        with open(args.output, "w", encoding="ascii", newline="") as handle:
            handle.write(text)
    else:
        _write_atomic(args.output, text)
    return code


def entrypoint() -> None:
    sys.exit(main())
