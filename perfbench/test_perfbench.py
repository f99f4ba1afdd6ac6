"""Self-tests of the benchmark: python3 -m pytest -q perfbench"""

import sys
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import pytest  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from mpmath import mp  # noqa: E402

import zeta2k.cli  # noqa: E402
from zeta2k import BernoulliTable, ZetaCoeffTable  # noqa: E402


def rounds(cls, seed, n=3):
    wl = cls(seed)
    return [wl.next_round() for _ in range(n)]


@pytest.mark.parametrize("cls", list(workloads.WORKLOADS.values()))
def test_same_seed_same_workload(cls):
    assert rounds(cls, 7) == rounds(cls, 7)
    assert rounds(cls, 7) != rounds(cls, 8)


@pytest.mark.parametrize("cls", list(workloads.WORKLOADS.values()))
def test_every_round_has_the_same_strata(cls):
    wl = cls(3)
    sizes = {len(wl.next_round()) for _ in range(5)}
    assert len(sizes) == 1


# --- self time on a synthetic span tree -------------------------------------


def test_self_time_subtracts_union_of_children():
    tree = [
        ["op", 0.0, 10.0, None, 0],
        ["a", 1.0, 4.0, 0, 0],
        ["b", 3.0, 6.0, 0, 0],  # overlaps a: the union 1..6 is covered once
        ["c", 2.0, 3.0, 1, 0],
        ["b", 7.0, 8.0, 0, 0],
    ]
    assert spans.self_times(tree) == pytest.approx([4.0, 2.0, 3.0, 1.0, 1.0])
    totals = spans.totals_by_name(tree)
    assert totals["b"] == {"self": pytest.approx(4.0), "total": pytest.approx(4.0), "calls": 2}
    assert totals["op"]["total"] == 10.0


def test_tracer_nests_spans_and_restores_wrapped_attributes():
    import zeta2k.precision as precision

    tr = spans.Tracer()
    original = precision.pi_value
    tr.wrap(precision, "pi_value", span_name="precision.pi",
            before=lambda cfg: tr.count("calls"))
    tr.op_id = 4
    with tr.span("op"):
        precision.zeta_eval(1, precision.PrecisionConfig(digits=20), Fraction(1, 6))
    tr.unwrap_all()
    assert precision.pi_value is original
    assert [(s[spans.NAME], s[spans.PARENT], s[spans.OP]) for s in tr.spans] == [
        ("op", None, 4), ("precision.pi", 0, 4)]
    assert tr.counts["calls"] == 1


# --- gates: corrupted outputs and references count as failures --------------


class FakeWorkload(workloads.Workload):
    name = "fake"

    def next_round(self):
        return [1, 2, 3, 4]

    def run(self, req, tr):
        if req == 4:
            raise ValueError("Exceeds the limit (4300 digits) for integer string conversion")
        return req * 10

    def check(self, req, out):
        return None if out == req * 10 and req != 2 else "wrong_value: fake"


def test_wrong_values_and_errors_are_failures_not_successes():
    latencies, failures, wrong, _ = run.measure(FakeWorkload(0), spans.NullTracer(), 0.05)
    n = len(latencies)
    assert n >= run.MIN_OPS and n % 4 == 0  # whole rounds only
    assert failures == {"wrong_value: fake": n // 4, "ValueError: int_str_limit": n // 4}
    assert wrong == n // 4
    metrics = run.end_to_end(latencies, n // 2, [1.0], 1.0)
    assert metrics["ok_ratio"] == 0.5
    assert metrics["ops_per_s"] == pytest.approx(n / 2 / sum(latencies))


@pytest.fixture(scope="module")
def coeff_cold():
    wl = workloads.CoeffCold(1)
    wl.setup()
    return wl


def test_coeff_cold_gate(coeff_cold):
    good = coeff_cold.run(105, spans.NullTracer())
    assert coeff_cold.check(105, good) is None
    assert coeff_cold.check(105, good.replace("\n5,", "\n5,1")) is not None
    assert coeff_cold.check(105, good[: good.rindex("\n", 0, -1) + 1]) is not None


def test_coeff_cold_gate_catches_corrupted_reference():
    wl = workloads.CoeffCold(1)
    wl.ref = list(ZetaCoeffTable(20).coeffs)
    wl._csv = {}
    good = ZetaCoeffTable(20).to_csv()
    assert wl.check(20, good) is None
    wl.ref[4] += Fraction(1, 10**9)
    wl._csv = {}
    assert wl.check(20, good) is not None


def test_fixed_point_gate():
    ref = reference.scaled_floor(Fraction(1, 6), 1, 9)  # zeta(2) = 1.644934066848...
    assert reference.fixed_point_matches("1.644934067", 9, ref)  # rounded
    assert reference.fixed_point_matches("1.644934066", 9, ref)  # truncated
    assert not reference.fixed_point_matches("1.644934065", 9, ref)
    assert not reference.fixed_point_matches("1.644934068", 9, ref)
    assert not reference.fixed_point_matches("1.64493407", 9, ref)
    assert not reference.fixed_point_matches("1.644934067\n", 9, ref)


def test_eval_reference_handles_more_than_4300_digits():
    ref = reference.scaled_floor(Fraction(1, 6), 1, 4400)
    text = "1." + "0" * 4400
    assert not reference.fixed_point_matches(text, 4400, ref)
    assert reference.digits_to_int("9" * 5000) == 10**5000 - 1


def test_verify_suite_gate():
    wl = workloads.VerifySuite(1)
    wl.setup()
    job = workloads.VerifyJob(max_k=14, quad=(3, 5), direct=(5, wl.direct_digits(5, 1)),
                              recon=(2, 20_000))
    out = wl.run(job, spans.NullTracer())
    assert wl.check(job, out) is None
    assert wl.check(job, replace(out, cross_mismatch=[3])) is not None
    assert wl.check(job, replace(out, residuals_checked=13)) is not None
    assert wl.check(job, replace(out, bproduct_mismatch=[(2, 0, 1)])) is not None
    with mp.workdps(80):
        shifted = replace(out.quadrature, value=out.quadrature.value * (1 + mp.mpf(10) ** -9))
    assert wl.check(job, replace(out, quadrature=shifted)) is not None
    assert wl.check(job, replace(out, recon=(out.recon[0], out.recon[0]))) is not None


@pytest.mark.parametrize("args", [
    ("coeff", "-k", "9"),
    ("coeff", "-k", "12", "--format", "json"),
    ("table", "--max-k", "11"),
    ("table", "--max-k", "6", "--format", "json"),
    ("bernoulli", "--max-index", "14"),
    ("bernoulli", "--max-index", "9", "--format", "json"),
    ("verify", "--max-k", "5"),
])
def test_cli_expected_stdout_matches_the_cli(capsys, args):
    wl = workloads.CliCold(1)
    wl.bern = reference.bernoulli_numbers(120)
    wl.coeffs = reference.zeta_coeffs(60)
    assert zeta2k.cli.main(list(args)) == 0
    assert capsys.readouterr().out == wl.expected(args)


def test_cli_gate():
    wl = workloads.CliCold(1)
    wl.bern = reference.bernoulli_numbers(10)
    wl.coeffs = reference.zeta_coeffs(5)
    wl._eval_ref = {}
    res = workloads.CliResult
    assert wl.check(("coeff", "-k", "2"), res(0, "1/90\n", "", 0)) is None
    assert wl.check(("coeff", "-k", "2"), res(0, "1/91\n", "", 0)).startswith("wrong_value")
    assert wl.check(("coeff", "-k", "2"), res(2, "1/90\n", "", 0)).startswith("exit 2")
    assert wl.check(("eval", "-k", "1", "-d", "10"), res(0, "1.6449340668\n", "", 0)) is None
    assert wl.check(("eval", "-k", "1", "-d", "10"), res(0, "1.6449340678\n", "", 0)) is not None
    err = "ValueError: Exceeds the limit (4300 digits) for integer string conversion"
    assert wl.check(("eval", "-k", "2", "-d", "4400"), res(1, "", err, 0)) == "exit 1: int_str_limit"


def test_akiyama_tanigawa_reference_is_independent_but_equal():
    assert reference.bernoulli_numbers(12) == list(BernoulliTable(12).values)
    assert reference.zeta_coeffs(6)[5] == Fraction(691, 638512875)


def test_benchmark_json_matches_the_code():
    import json

    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    assert list(workloads.WORKLOADS) == list(run.WORKLOAD_NAMES)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        name: unit for name, (unit, _, _) in run.PER_LAYER.items()}
