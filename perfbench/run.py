"""Correctness-gated benchmark of zeta2k, one seeded workload per run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all [--seed N] [--seconds S]

Run from the repository root.  One client issues one operation at a time
(a closed loop) for S seconds, finishing the current round of inputs and
attempting at least MIN_OPS operations.  Every operation is checked
against a reference; an operation that raises, exits non-zero or returns
a wrong value is counted as failed and never as a timed success.

--trace 0 prints the end-to-end metrics; --trace 1 records spans around
each layer call and prints the per-layer metrics instead.  The last line
of stdout is one JSON object {"correct", "attempted", "failed", "metrics"}.
Details (failure reasons, per-size layer rows, the environment and, when
traced, the spans) go to perfbench/results/.  `--workload all` runs every
workload untraced and traced, prints all metrics with the tracing
overhead, and writes perfbench/results/report.json.
"""

from time import perf_counter

_T0 = perf_counter()  # set-up time counts from here

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from collections import Counter, defaultdict  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"

MIN_OPS = 100  # so that at least 10 latencies lie beyond the p90
SETUP_SAMPLES = 5  # set-ups per untraced run; setup_s is their median
WORKLOAD_NAMES = ("coeff_cold", "verify_suite", "eval_highprec", "cli_cold")

END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "ok_ratio": "ratio",
    "peak_rss_mb": "MiB",
}

# per-layer metric -> (unit, how it is computed).  "self"/"total" sum the
# self time / duration of the named spans, "count" sums a counter; all
# three are divided by the ops attempted.
PER_LAYER = {
    "recursive.build_s": ("s/op", "self", "recursive.build"),
    "recursive.export_s": ("s/op", "self", "recursive.export"),
    "recursive.entries_built": ("count/op", "count", "recursive.entries_built"),
    "recursive.residual_s": ("s/op", "self", "recursive.residual"),
    "recursive.residual_calls": ("count/op", "count", "recursive.residual_calls"),
    "bernoulli.build_s": ("s/op", "self", "bernoulli.build"),
    "bernoulli.entries_built": ("count/op", "count", "bernoulli.entries_built"),
    "bernoulli.coeff_s": ("s/op", "self", "bernoulli.coeff"),
    "bernoulli.reference_build_s": ("s", "special", None),
    "bernoulli.build_over_recursive": ("ratio", "special", None),
    "fourier.cosine_check_s": ("s/op", "self", "fourier.cosine_check"),
    "fourier.bproduct_s": ("s/op", "self", "fourier.bproduct"),
    "fourier.quadrature_s": ("s/op", "self", "fourier.quadrature"),
    "fourier.quadrature_calls": ("count/op", "count", "fourier.quadrature_calls"),
    "fourier.quadrature_failures": ("count/op", "count", "fourier.quadrature_failures"),
    "fourier.reconstruct_s": ("s/op", "self", "fourier.reconstruct"),
    "precision.pi_s": ("s/op", "self", "precision.pi"),
    "precision.pi_calls": ("count/op", "count", "precision.pi_calls"),
    "precision.pi_digits_computed": ("count/op", "count", "precision.pi_digits_computed"),
    "precision.pi_useful_ratio": ("ratio", "special", None),
    "precision.pi_repeat_share": ("ratio", "special", None),
    "precision.zeta_eval_self_s": ("s/op", "self", "precision.zeta_eval"),
    "precision.format_s": ("s/op", "self", "precision.format"),
    "precision.format_failures": ("count/op", "count", "precision.format_failures"),
    "precision.direct_sum_s": ("s/op", "self", "precision.direct_sum"),
    "precision.direct_sum_terms": ("count/op", "count", "precision.direct_sum_terms"),
    "cli.process_s": ("s/op", "total", "cli.process"),
    "cli.import_s": ("s/op", "self", "cli.import"),
    "cli.main_s": ("s/op", "self", "cli.main"),
    "cli.interp_s": ("s/op", "self", "cli.process"),
    "cli.exit_nonzero": ("count/op", "count", "cli.exit_nonzero"),
    "harness.op_self_s": ("s/op", "self", "op"),
    "trace.ops_per_s": ("1/s", "special", None),
}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="build the workload, print its set-up time and exit")
    return p.parse_args(argv)


def environment() -> dict:
    import importlib.metadata

    import mpmath

    try:
        numpy_version = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy_version = None
    try:
        git = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        lines = git.stdout.split()
        commit = lines[1] if git.returncode == 0 and Path(lines[0]) == ROOT else None
    except (OSError, subprocess.SubprocessError, IndexError):
        commit = None
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "mpmath_backend": mpmath.libmp.BACKEND,
        "mpmath": mpmath.__version__,
        "numpy": numpy_version,
        "int_max_str_digits": sys.get_int_max_str_digits(),
        "git_commit": commit,
        "platform": platform.platform(),
    }


def measure(wl, tr, seconds):
    """Closed loop, one client: whole rounds until `seconds` and MIN_OPS are reached."""
    from reference import classify

    latencies, failures, labels = [], Counter(), []
    wrong = 0
    start = perf_counter()
    while True:
        for req in wl.next_round():
            tr.op_id = len(latencies)
            t = perf_counter()
            try:
                with tr.span("op"):
                    out = wl.run(req, tr)
            except Exception as exc:  # a failing op is counted, not fatal
                latencies.append(perf_counter() - t)
                reason = f"{type(exc).__name__}: {classify(str(exc))}"
            else:
                latencies.append(perf_counter() - t)
                reason = wl.check(req, out)
                wrong += reason is not None and reason.startswith("wrong_value")
            labels.append(wl.label(req))
            if reason is not None:
                failures[reason] += 1
        elapsed = perf_counter() - start
        if (elapsed >= seconds and len(latencies) >= MIN_OPS) or elapsed >= 3 * seconds:
            return latencies, failures, wrong, labels


def setup_samples(args, n):
    """Set-up times of n set-up-only child processes of this workload and seed."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    samples = []
    for _ in range(n):
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
        samples.append(json.loads(out.stdout.splitlines()[-1])["setup_s"])
    return samples


def end_to_end(latencies, correct, setup, rss_mb):
    return {
        "setup_s": statistics.median(setup),
        "ops_per_s": correct / sum(latencies),
        "op_p50_ms": 1e3 * statistics.median(latencies),
        "op_p90_ms": 1e3 * statistics.quantiles(latencies, n=10)[8],
        "ok_ratio": correct / len(latencies),
        "peak_rss_mb": rss_mb,
    }


def per_layer(wl, tr, latencies, correct, labels):
    from spans import END, NAME, OP, START, totals_by_name

    n = len(latencies)
    totals = totals_by_name(tr.spans)
    counts = tr.counts
    values = {}
    for name, (_, how, key) in PER_LAYER.items():
        if how == "count":
            values[name] = counts.get(key, 0) / n
        elif how in ("self", "total"):
            values[name] = totals.get(key, {}).get(how, 0.0) / n
    computed = counts.get("precision.pi_digits_computed", 0)
    pi_calls = counts.get("precision.pi_calls", 0)
    values["precision.pi_useful_ratio"] = (
        counts.get("precision.pi_digits_requested", 0) / computed if computed else 0.0)
    values["precision.pi_repeat_share"] = counts.get("precision.pi_repeats", 0) / pi_calls if pi_calls else 0.0
    values["bernoulli.reference_build_s"] = wl.reference_build_s
    values["trace.ops_per_s"] = correct / sum(latencies)

    # build times by K; on verify_suite one op builds ZetaCoeffTable(K) and
    # BernoulliTable(2K), so its rows compare both kernels at equal K
    builds = defaultdict(dict)  # op id -> {span name: duration}
    for s in tr.spans:
        if s[NAME] in ("recursive.build", "bernoulli.build"):
            builds[s[OP]][s[NAME]] = s[END] - s[START]
    both = [b for b in builds.values() if len(b) == 2]
    rec = sum(b["recursive.build"] for b in both)
    values["bernoulli.build_over_recursive"] = (
        sum(b["bernoulli.build"] for b in both) / rec if rec else 0.0)
    by_bucket = defaultdict(lambda: defaultdict(list))
    for op, b in builds.items():
        if labels[op] is not None:
            for name, duration in b.items():
                by_bucket[labels[op] // 10 * 10][name.split(".")[0]].append(duration)
    layer_rows = [
        {"k_from": k, "k_to": k + 9, "ops": max(map(len, kernels.values())),
         **{f"{kernel}_build_s": statistics.median(d) for kernel, d in kernels.items()}}
        for k, kernels in sorted(by_bucket.items())
    ]
    return values, layer_rows, totals


def run_one(args) -> int:
    sys.path.insert(0, str(SRC))
    import workloads
    from spans import NullTracer, Tracer

    wl = workloads.WORKLOADS[args.workload](args.seed)
    wl.setup()
    setup_s = perf_counter() - _T0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    # the set-up samples straddle the timed loop, so that one slow or fast
    # spell of the machine does not set them all
    setup = [setup_s]
    if not args.trace:
        setup += setup_samples(args, SETUP_SAMPLES // 2)
    tr = Tracer() if args.trace else NullTracer()
    if args.trace:
        wl.install(tr)
    try:
        latencies, failures, wrong, labels = measure(wl, tr, args.seconds)
    finally:
        if args.trace:
            tr.unwrap_all()
    attempted, failed = len(latencies), sum(failures.values())
    correct_ops = attempted - failed

    detail = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace, "attempted": attempted,
              "failed": failed, "wrong_values": wrong, "fail_ratio": failed / attempted,
              "failures": dict(failures.most_common())}
    if args.trace:
        values, layer_rows, totals = per_layer(wl, tr, latencies, correct_ops, labels)
        units = {name: unit for name, (unit, _, _) in PER_LAYER.items()}
        detail["span_totals"] = totals
        detail["layer_rows"] = layer_rows
    else:
        setup += setup_samples(args, SETUP_SAMPLES - len(setup))
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss + wl.child_rss_kb
        values = end_to_end(latencies, correct_ops, setup, rss_kb / 1024)
        units = END_TO_END_UNITS
        detail["setup_samples_s"] = setup
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    detail["metrics"] = metrics
    detail["environment"] = environment()

    RESULTS.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (RESULTS / f"{stem}.json").write_text(json.dumps(detail, indent=1) + "\n")
    if args.trace:
        with open(RESULTS / f"{stem}.spans.json", "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "op"], "spans": tr.spans}, fh)

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    print(f"  attempted {attempted}  failed {failed}  fail_ratio {failed / attempted:.4f} "
          f"(base {attempted} ops)  wrong values {wrong}")
    for reason, n in failures.most_common():
        print(f"  failure x{n}: {reason}")
    idle = [name for name, m in metrics.items() if args.trace and m["value"] == 0]
    for name, m in metrics.items():
        if name not in idle:
            print(f"  {name:32s} {m['value']:.6g} {m['unit']}")
    if idle:
        print(f"  ({len(idle)} per-layer metrics read 0: those layers do not run here)")
    if args.trace and detail["layer_rows"]:
        print("  build time at equal K, median s:  recursive  bernoulli  ops")
        for row in detail["layer_rows"]:
            rec, ber = (f"{row[key]:.5f}" if key in row else "-"
                        for key in ("recursive_build_s", "bernoulli_build_s"))
            print(f"    K {row['k_from']:3d}-{row['k_to']:<3d} {rec:>25} {ber:>10} {row['ops']:4d}")
    print(json.dumps({"correct": wrong == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def run_all(args) -> int:
    """Every workload, untraced then traced; one report with the environment."""
    report = {"seed": args.seed, "seconds": args.seconds, "environment": environment(),
              "workloads": {}}
    for name in WORKLOAD_NAMES:
        entry = report["workloads"][name] = {}
        for trace in (0, 1):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed",
                   str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace)]
            out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
            print(out.stdout, end="")
            entry["traced" if trace else "untraced"] = json.loads(out.stdout.splitlines()[-1])
        plain = entry["untraced"]["metrics"]["ops_per_s"]["value"]
        traced = entry["traced"]["metrics"]["trace.ops_per_s"]["value"]
        entry["tracing_overhead_ops_per_s"] = plain - traced
        print(f"  tracing overhead on {name}: {plain - traced:.4g} ops/s "
              f"({plain:.4g} untraced, {traced:.4g} traced)\n")
    print(f"{'end-to-end':24s}" + "".join(f"{name:>15s}" for name in WORKLOAD_NAMES))
    for metric, unit in END_TO_END_UNITS.items():
        row = (report["workloads"][name]["untraced"]["metrics"][metric]["value"]
               for name in WORKLOAD_NAMES)
        print(f"{metric + ' [' + unit + ']':24s}" + "".join(f"{v:15.5g}" for v in row))
    print(f"{'tracing overhead [1/s]':24s}" + "".join(
        f"{report['workloads'][name]['tracing_overhead_ops_per_s']:15.5g}" for name in WORKLOAD_NAMES))
    RESULTS.mkdir(exist_ok=True)
    (RESULTS / "report.json").write_text(json.dumps(report, indent=1) + "\n")
    print(f"environment: {json.dumps(report['environment'])}")
    print(f"report written to {(RESULTS / 'report.json').relative_to(ROOT)}")
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "zeta2k" / "__init__.py").is_file():
        print(f"perfbench: no zeta2k sources under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
