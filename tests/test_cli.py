import contextlib
import errno
import io
import json
import os
import socket
import stat
import tempfile
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import zeta2k.cli as cli
from zeta2k.cli import main


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_coeff_plain(capsys):
    assert run(capsys, ["coeff", "-k", "2"]) == (0, "1/90\n", "")
    assert run(capsys, ["coeff", "-k", "1"]) == (0, "1/6\n", "")


def test_coeff_json(capsys):
    code, out, _ = run(capsys, ["coeff", "-k", "6", "--format", "json"])
    assert code == 0
    assert json.loads(out) == {"k": 6, "num": "691", "den": "638512875"}


def test_coeff_rejects_k_zero(capsys):
    code, out, err = run(capsys, ["coeff", "-k", "0"])
    assert code == 2
    assert "usage" in err


def test_eval_known_digit_strings(capsys):
    assert run(capsys, ["eval", "-k", "1", "-d", "10"])[:2] == (0, "1.6449340668\n")
    assert run(capsys, ["eval", "-k", "2", "-d", "10"])[:2] == (0, "1.0823232337\n")


def test_eval_rejects_zero_digits(capsys):
    code, _, err = run(capsys, ["eval", "-k", "1", "-d", "0"])
    assert code == 2
    assert "usage" in err


def test_verify_ok(capsys):
    code, out, _ = run(capsys, ["verify", "--max-k", "20"])
    assert code == 0
    assert out == "OK 20/20\n"


def test_verify_min_scope(capsys):
    assert run(capsys, ["verify", "--max-k", "1"])[:2] == (0, "OK 1/1\n")


def test_verify_reports_fault_injection(capsys, monkeypatch):
    """A corrupted backend must surface as exit 1 naming the failing k."""

    real = cli.zeta_coeff_via_bernoulli

    def broken(k, table):
        if k == 4:
            return Fraction(1, 7)
        return real(k, table)

    monkeypatch.setattr(cli, "zeta_coeff_via_bernoulli", broken)
    code, out, _ = run(capsys, ["verify", "--max-k", "6"])
    assert code == 1
    assert out.startswith("FAIL k=4:")
    assert "mismatch" in out


def test_verify_reports_a_nonzero_residual(capsys, monkeypatch):
    """Both backends agree on a wrong c_5, so only the residual catches it."""
    from zeta2k.recursive import ZetaCoeffTable

    wrong = Fraction(1, 10**9)

    class Corrupted(ZetaCoeffTable):
        def __init__(self, max_k):
            super().__init__(max_k)
            self._coeffs[4] += wrong

    real = cli.zeta_coeff_via_bernoulli

    def agreeing(k, table):
        return real(k, table) + (wrong if k == 5 else 0)

    monkeypatch.setattr(cli, "ZetaCoeffTable", Corrupted)
    monkeypatch.setattr(cli, "zeta_coeff_via_bernoulli", agreeing)
    code, out, _ = run(capsys, ["verify", "--max-k", "8"])
    assert (code, out) == (1, "FAIL k=5: consistency identity residual is nonzero\n")


def test_verify_reports_a_wrong_b_factor(capsys, monkeypatch):
    """A wrong b_3 at n = 2 breaks the first product that takes it, at k = 3."""
    from zeta2k import fourier

    real = fourier.b_factor

    def broken(m, n):
        return real(m, n) + (1 if (m, n) == (3, 2) else 0)

    monkeypatch.setattr(fourier, "b_factor", broken)
    code, out, _ = run(capsys, ["verify", "--max-k", "8"])
    assert (code, out) == (1, "FAIL k=3: b-product mismatch at j=0, n=2\n")


def test_verify_reports_a_wrong_b_product_closed_form(capsys, monkeypatch):
    from zeta2k import fourier

    real = fourier.b_product_closed

    def broken(k, j, n):
        return real(k, j, n) + (1 if (k, j, n) == (5, 3, 2) else 0)

    monkeypatch.setattr(fourier, "b_product_closed", broken)
    code, out, _ = run(capsys, ["verify", "--max-k", "8"])
    assert (code, out) == (1, "FAIL k=5: b-product mismatch at j=3, n=2\n")


def test_table_csv(capsys):
    code, out, _ = run(capsys, ["table", "--max-k", "3"])
    assert code == 0
    assert out == "k,num,den\n1,1,6\n2,1,90\n3,1,945\n"


def test_table_json(capsys):
    code, out, _ = run(capsys, ["table", "--max-k", "2", "--format", "json"])
    assert json.loads(out) == [
        {"k": 1, "num": "1", "den": "6"},
        {"k": 2, "num": "1", "den": "90"},
    ]


def test_bernoulli_csv(capsys):
    code, out, _ = run(capsys, ["bernoulli", "--max-index", "2"])
    assert code == 0
    assert out == "m,num,den\n0,1,1\n1,-1,2\n2,1,6\n"


def test_bernoulli_max_index_zero_and_below(capsys):
    assert run(capsys, ["bernoulli", "--max-index", "0"]) == (0, "m,num,den\n0,1,1\n", "")
    code, out, err = run(capsys, ["bernoulli", "--max-index", "-1"])
    assert (code, out) == (2, "")
    assert "must be >= 0, got -1" in err
    code, out, err = run(capsys, ["bernoulli", "--max-index", "x"])
    assert (code, out) == (2, "")
    assert "'x' is not an integer" in err


def test_fourier_sweep_layout(capsys):
    code, out, _ = run(capsys, ["fourier", "-k", "2", "-n", "3"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "k,n,source,value"
    assert len(lines) == 1 + 2 * 3 * 3  # (k,n) pairs x three sources
    assert lines[1].startswith("1,1,closed,")
    sources = {line.split(",")[2] for line in lines[1:]}
    assert sources == {"closed", "recursive", "quadrature"}
    # closed and recursive rows must agree digit for digit
    for i in range(1, len(lines), 3):
        assert lines[i].split(",")[3] == lines[i + 1].split(",")[3]


def test_fourier_values_match_known(capsys):
    _, out, _ = run(capsys, ["fourier", "-k", "1", "-n", "2"])
    rows = [line.split(",") for line in out.splitlines()[1:]]
    n1_closed = float(rows[0][3])
    n2_closed = float(rows[3][3])
    assert abs(n1_closed - 4.0) < 1e-12
    assert abs(n2_closed - 1.0) < 1e-12


def test_bench_csv(capsys):
    code, out, _ = run(capsys, ["bench", "--k-list", "1,2", "--reps", "1"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "k,backend,wall_time_ns,coeff_digits,reps"
    assert len(lines) == 5


def test_bench_json(capsys):
    code, out, _ = run(capsys, ["bench", "--k-list", "2", "--reps", "2", "--format", "json"])
    payload = json.loads(out)
    assert len(payload) == 2 and payload[0]["reps"] == 2


def test_bench_rejects_bad_k_list(capsys):
    assert run(capsys, ["bench", "--k-list", "0,2"])[0] == 2
    assert run(capsys, ["bench", "--k-list", ""])[0] == 2
    assert run(capsys, ["bench", "--k-list", "2,x"])[0] == 2


def test_bench_mismatch_exits_one(capsys, monkeypatch):
    import zeta2k.bench as bench

    monkeypatch.setattr(bench, "zeta_coeff_via_bernoulli", lambda k, t: Fraction(1, 7))
    code, _, err = run(capsys, ["bench", "--k-list", "2", "--reps", "1"])
    assert code == 1
    assert "disagree" in err


@pytest.mark.parametrize("to_file", [False, True])
def test_bench_mismatch_reports_on_stderr_only(capsys, monkeypatch, tmp_path, to_file):
    import zeta2k.bench as bench

    monkeypatch.setattr(bench, "zeta_coeff_via_bernoulli", lambda k, t: Fraction(1, 7))
    argv = ["bench", "--k-list", "2", "--reps", "1"]
    if to_file:
        argv += ["--output", str(tmp_path / "bench.csv")]
    code, out, err = run(capsys, argv)
    assert code == 1
    assert err == "FAIL: backends disagree at k=2: recursive=1/90 bernoulli=1/7\n"
    assert out == ""
    assert os.listdir(tmp_path) == []  # no report and no temp file


def test_bench_default_sweep_is_the_library_one():
    import zeta2k.bench as bench

    assert cli.build_parser().parse_args(["bench"]).k_list == bench.DEFAULT_SWEEP


def test_output_writes_file_atomically(capsys, tmp_path):
    target = tmp_path / "table.csv"
    code, out, _ = run(capsys, ["table", "--max-k", "2", "--output", str(target)])
    assert code == 0
    assert out == ""  # nothing on stdout when writing a file
    assert target.read_text() == "k,num,den\n1,1,6\n2,1,90\n"
    leftovers = [p for p in os.listdir(tmp_path) if p != "table.csv"]
    assert leftovers == []  # no temp files left behind


def test_output_file_mode_follows_umask_like_open(capsys, tmp_path):
    old_umask = os.umask(0o022)
    try:
        fresh = tmp_path / "fresh.csv"
        assert run(capsys, ["table", "--max-k", "2", "--output", str(fresh)])[0] == 0
        assert fresh.stat().st_mode & 0o777 == 0o644
        existing = tmp_path / "existing.csv"
        existing.write_text("old\n")
        existing.chmod(0o640)
        assert run(capsys, ["table", "--max-k", "2", "--output", str(existing)])[0] == 0
        assert existing.stat().st_mode & 0o777 == 0o640
        assert existing.read_text() == "k,num,den\n1,1,6\n2,1,90\n"
    finally:
        os.umask(old_umask)


def test_output_plain_value_gets_newline(capsys, tmp_path):
    target = tmp_path / "c.txt"
    run(capsys, ["coeff", "-k", "2", "--output", str(target)])
    assert target.read_text() == "1/90\n"


def test_output_to_a_fifo_writes_through_it(capsys, tmp_path):
    fifo = tmp_path / "out.fifo"
    os.mkfifo(fifo)
    # a reader opened without blocking, so the write finds it there
    reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
    try:
        assert run(capsys, ["coeff", "-k", "3", "--output", str(fifo)]) == (0, "", "")
        assert os.read(reader, 64) == b"1/945\n"
    finally:
        os.close(reader)
    assert stat.S_ISFIFO(os.stat(fifo).st_mode)


def test_output_to_a_symlink_replaces_the_file_it_names(capsys, tmp_path):
    real = tmp_path / "real.txt"
    real.write_text("old\n")
    real.chmod(0o640)
    link = tmp_path / "link"
    link.symlink_to(real)
    assert run(capsys, ["coeff", "-k", "3", "--output", str(link)]) == (0, "", "")
    assert link.is_symlink() and os.readlink(link) == str(real)
    assert real.read_text() == "1/945\n"
    assert real.stat().st_mode & 0o777 == 0o640
    assert sorted(os.listdir(tmp_path)) == ["link", "real.txt"]


def test_output_to_a_fifo_that_cannot_be_written_is_refused_before_any_work(
    capsys, monkeypatch, tmp_path
):
    """os.access is patched to deny writing to the FIFO, as it would for a
    user without write permission; root may write to any FIFO."""
    _refuse_work(monkeypatch)
    fifo = tmp_path / "out.fifo"
    os.mkfifo(fifo)
    access = os.access

    def denied(path, mode, **kwargs):
        if str(path) == str(fifo) and mode & os.W_OK:
            return False
        return access(path, mode, **kwargs)

    monkeypatch.setattr(os, "access", denied)
    code, out, err = run(capsys, ["coeff", "-k", "3", "--output", str(fifo)])
    assert (code, out) == (2, "")
    assert "argument --output: " in err and "is not writable" in err
    assert stat.S_ISFIFO(os.stat(fifo).st_mode)


def test_output_naming_a_socket_is_refused_before_any_work(capsys, monkeypatch, tmp_path):
    _refuse_work(monkeypatch)
    path = tmp_path / "out.sock"
    with socket.socket(socket.AF_UNIX) as server:
        server.bind(str(path))
        code, out, err = run(capsys, ["coeff", "-k", "3", "--output", str(path)])
    assert (code, out) == (2, "")
    assert "argument --output: " in err and "is a socket" in err
    assert stat.S_ISSOCK(os.stat(path).st_mode)


class _FailingWrite:
    """What os.fdopen returns when the disk fills: every write raises."""

    def __init__(self, handle):
        self.handle = handle

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.handle.close()

    def write(self, text):
        raise OSError(errno.ENOSPC, "No space left on device")


@settings(max_examples=60, deadline=None)
@given(
    failing=st.sampled_from(["write", "chmod", "replace"]),
    existing=st.none() | st.tuples(st.binary(max_size=64), st.sampled_from([0o600, 0o640, 0o644, 0o604])),
    text=st.text(st.characters(min_codepoint=32, max_codepoint=126), max_size=200),
)
def test_output_left_untouched_when_the_write_fails(failing, existing, text):
    """An error while writing, setting the mode or renaming keeps the old file exactly."""
    fdopen = os.fdopen
    patches = {
        "write": mock.patch.object(cli.os, "fdopen", lambda *a, **kw: _FailingWrite(fdopen(*a, **kw))),
        "chmod": mock.patch.object(cli.os, "chmod", side_effect=PermissionError(errno.EPERM, "chmod")),
        "replace": mock.patch.object(cli.os, "replace", side_effect=OSError(errno.EXDEV, "replace")),
    }
    with tempfile.TemporaryDirectory() as tmp:
        target = os.path.join(tmp, "out.csv")
        if existing is not None:
            with open(target, "wb") as handle:
                handle.write(existing[0])
            os.chmod(target, existing[1])
        with patches[failing], pytest.raises(OSError):
            cli._write_atomic(target, text)
        assert os.listdir(tmp) == ([] if existing is None else ["out.csv"])
        if existing is not None:
            with open(target, "rb") as handle:
                assert handle.read() == existing[0]
            assert os.stat(target).st_mode & 0o777 == existing[1]


def test_missing_subcommand_is_usage_error(capsys):
    assert run(capsys, [])[0] == 2


def test_unknown_flag_is_usage_error(capsys):
    assert run(capsys, ["coeff", "-k", "2", "--bogus"])[0] == 2


def test_eval_beyond_the_int_to_str_limit(capsys):
    from decimal import Decimal

    from mpmath import mp

    digits = 4400
    code, out, _ = run(capsys, ["eval", "-k", "2", "-d", str(digits)])
    assert code == 0
    whole, frac = out.strip().split(".")
    assert whole == "1" and len(frac) == digits
    got = int(Decimal(whole + frac))
    with mp.workdps(digits + 30):
        want = int(mp.nint(mp.mpf(1) / 90 * mp.pi**4 * mp.mpf(10) ** digits))
    assert abs(got - want) <= 1


def test_coeff_beyond_the_int_to_str_limit(capsys):
    # the denominator of c_900 has 4566 digits; BernoulliTable(1800) takes
    # tens of seconds, so the Bernoulli route uses mpmath's exact B_1800
    from decimal import Decimal
    from math import factorial

    from mpmath import bernfrac

    code, out, _ = run(capsys, ["coeff", "-k", "900"])
    assert code == 0
    num, den = out.strip().split("/")
    assert len(den) == 4566
    got = Fraction(int(Decimal(num)), int(Decimal(den)))
    b_num, b_den = (int(x) for x in bernfrac(1800))
    assert got == -Fraction(b_num, b_den) * Fraction(2**1799, factorial(1800))


_CAPS = [
    pytest.param(["coeff", "-k"], cli._MAX_K, [], id="coeff"),
    pytest.param(["table", "--max-k"], cli._MAX_K, [], id="table"),
    pytest.param(["eval", "-k"], cli._MAX_K, ["-d", "10"], id="eval"),
    pytest.param(["eval", "-d"], cli._MAX_DIGITS, ["-k", "10"], id="eval-digits"),
    pytest.param(["verify", "--max-k"], cli._MAX_VERIFY_K, [], id="verify"),
    pytest.param(["bernoulli", "--max-index"], cli._MAX_BERNOULLI_INDEX, [], id="bernoulli"),
    pytest.param(["fourier", "-k"], cli._MAX_FOURIER_K, ["-n", "1"], id="fourier-k"),
    pytest.param(["fourier", "-n"], cli._MAX_FOURIER_N, ["-k", "1"], id="fourier-n"),
]


@pytest.mark.parametrize("flag,cap,rest", _CAPS)
def test_table_sizes_past_the_cap_are_refused_before_any_work(capsys, monkeypatch, flag, cap, rest):
    from zeta2k import fourier

    def refuse(*args, **kwargs):
        raise AssertionError("a table was built or a quadrature run for a refused input")

    monkeypatch.setattr(cli, "ZetaCoeffTable", refuse)
    monkeypatch.setattr(cli, "BernoulliTable", refuse)
    monkeypatch.setattr(fourier, "cosine_coeff_quadrature", refuse)
    for too_big in (cap + 1, 10**7, 10**4000):
        code, out, err = run(capsys, flag + [str(too_big)] + rest)
        assert (code, out) == (2, "")
        assert f"must be <= {cap}, got {too_big}: " in err
        assert "takes about 30 s" in err
    # the cap itself parses, and the help states it
    assert cap in vars(cli.build_parser().parse_args(flag + [str(cap)] + rest)).values()
    code, out, _ = run(capsys, [flag[0], "-h"])
    assert code == 0 and f"<= {cap}" in out


def test_bench_k_past_the_cap_is_refused_before_any_work(capsys, monkeypatch):
    from zeta2k import bench

    def refuse(*args, **kwargs):
        raise AssertionError("a refused input was benchmarked")

    monkeypatch.setattr(bench, "bench_compare", refuse)
    cap = cli._MAX_BENCH_K
    assert cap == cli._MAX_BERNOULLI_INDEX // 2
    for too_big in (cap + 1, 10**7, 10**4000):
        code, out, err = run(capsys, ["bench", "--k-list", f"2,{too_big}", "--reps", "1"])
        assert (code, out) == (2, "")
        assert f"must be <= {cap}, got {too_big}: " in err
        assert err.rstrip().endswith("takes about 30 s")
    # the cap itself parses, and the help states it
    assert cli.build_parser().parse_args(["bench", "--k-list", f"1,{cap}"]).k_list == (1, cap)
    code, out, _ = run(capsys, ["bench", "-h"])
    assert code == 0 and f"<= {cap}" in out


def test_bench_over_its_work_budget_is_refused_before_any_work(capsys, monkeypatch):
    from zeta2k import bench

    calls = []

    def record(k_list, reps):
        calls.append((k_list, reps))
        return bench.BenchReport(rows=())

    monkeypatch.setattr(bench, "bench_compare", record)
    too_much = [
        ["--k-list", "1250,1250,1250", "--reps", "100"],
        ["--k-list", "1250", "--reps", "4"],
        ["--k-list", "1250,1", "--reps", "3"],
        ["--k-list", "2", "--reps", "1" + "0" * 4000],
    ]
    for argv in too_much:
        code, out, err = run(capsys, ["bench", *argv])
        assert (code, out) == (2, ""), argv
        assert "must be <= 3*2500^4: " in err
        assert err.rstrip().endswith("takes about 110 s")
    assert calls == []
    # one k up to the cap with up to 3 reps, and the default sweep, run
    header = ",".join(bench._BENCH_HEADER) + "\n"
    for argv in (["--k-list", "1250"], ["--k-list", "1", "--reps", "3"], []):
        assert run(capsys, ["bench", *argv]) == (0, header, "")
    assert calls == [((cli._MAX_BENCH_K,), 3), ((1,), 3), (bench.DEFAULT_SWEEP, 3)]
    code, out, _ = run(capsys, ["bench", "-h"])
    assert code == 0 and "<= 3*2500^4" in out


_LONG = "0" * 5000  # 5001-digit arguments are past Python's int->str limit


@pytest.mark.parametrize(
    "argv,refusal",
    [
        (["coeff", "-k", "1" + _LONG], f"must be <= {cli._MAX_K}, got "),
        (["table", "--max-k", "+1" + _LONG], f"must be <= {cli._MAX_K}, got "),
        (["coeff", "-k", "-1" + _LONG], "must be >= 1, got "),
        (["bernoulli", "--max-index", "-1" + _LONG], "must be >= 0, got "),
        (["bench", "--reps", "1" + _LONG], "must have at most 4300 digits, got "),
        (["coeff", "-k", "x" + _LONG], "is not an integer"),
        (["eval", "-k", "2", "-d", "1" + _LONG], f"must be <= {cli._MAX_DIGITS}, got "),
    ],
    # the caps' values stay out of the ids, so moving a cap renames no test
    ids=lambda value: (
        value.replace(str(cli._MAX_K), "_MAX_K").replace(str(cli._MAX_DIGITS), "_MAX_DIGITS")
        if isinstance(value, str)
        else None
    ),
)
def test_integers_past_the_int_to_str_limit_are_refused_briefly(capsys, monkeypatch, argv, refusal):
    def refuse(*args, **kwargs):
        raise AssertionError("a table was built for a refused input")

    monkeypatch.setattr(cli, "ZetaCoeffTable", refuse)
    monkeypatch.setattr(cli, "BernoulliTable", refuse)
    code, out, err = run(capsys, argv)
    assert (code, out) == (2, "")
    assert refusal in err
    assert len(err) < 300


def test_zero_padding_past_the_int_to_str_limit_keeps_the_value():
    parser = cli.build_parser()
    assert parser.parse_args(["coeff", "-k", _LONG + "7"]).k == 7
    assert parser.parse_args(["bernoulli", "--max-index", "-" + _LONG]).max_index == 0


@pytest.mark.parametrize(
    "text,value",
    [
        ("\u0663", 3),  # ARABIC-INDIC DIGIT THREE
        ("\uff15", 5),  # FULLWIDTH DIGIT FIVE
        ("\x1c5", 5),  # int() refuses the separator, which str.isspace() accepts
        ("\u00a07\u2003", 7),  # between a no-break space and an em space
        ("+0_0_7", 7),
        (_LONG + "7", 7),
        ("5\x00", None),
    ],
    ids=["arabic_indic", "fullwidth", "file_separator", "unicode_spaces", "underscores",
         "zero_padded", "nul"],
)
def test_integer_texts_accepted_today_keep_their_values(capsys, text, value):
    parser = cli.build_parser()
    if value is not None:
        assert parser.parse_args(["coeff", "-k", text]).k == value
        return
    with pytest.raises(SystemExit) as exc:
        parser.parse_args(["coeff", "-k", text])
    assert exc.value.code == 2
    assert "is not an integer" in capsys.readouterr().err


def test_eval_over_its_joint_budget_is_refused_before_any_work(capsys, monkeypatch):
    from zeta2k import precision

    calls = []
    one = precision.zeta_eval(1, precision.PrecisionConfig(digits=10), Fraction(1, 6))

    class RecordedTable:
        def __init__(self, max_k):
            calls.append(("table", max_k))

        def coeff(self, k):
            return Fraction(1, 6)

    def recorded_eval(k, cfg, c):
        calls.append(("zeta_eval", k, cfg.digits))
        return one

    monkeypatch.setattr(cli, "ZetaCoeffTable", RecordedTable)
    monkeypatch.setattr(precision, "zeta_eval", recorded_eval)
    budget = "26*(K/2000)^3.1 + 28*(D/400000)^1.9 <= 30"
    for k, digits, seconds in [(2000, 400000, 54.0), (2000, 150000, 30.3), (900, 400000, 30.2), (1700, 300000, 31.9)]:
        code, out, err = run(capsys, ["eval", "-k", str(k), "-d", str(digits)])
        assert (code, out) == (2, ""), (k, digits)
        assert f"must satisfy {budget}: " in err
        assert err.rstrip().endswith(f"would take about {seconds} s")
    assert calls == []
    # each cap with the other flag small, and pairs inside the budget, run
    accepted = [(2000, 10), (1, 400000), (1500, 300000), (2000, 130000)]
    for k, digits in accepted:
        assert run(capsys, ["eval", "-k", str(k), "-d", str(digits)]) == (0, "1.6449340668\n", "")
    assert calls == [step for k, d in accepted for step in (("table", k), ("zeta_eval", k, d))]
    code, out, _ = run(capsys, ["eval", "-h"])
    assert code == 0 and budget in " ".join(out.split())


# every flag that takes integers: (argv before the value, argv after it,
# the parsed attribute, its least and its largest accepted value)
_INT_FLAGS = [
    (["coeff", "-k"], [], "k", 1, cli._MAX_K),
    (["eval", "-k"], ["-d", "10"], "k", 1, cli._MAX_K),
    (["eval", "-d"], ["-k", "1"], "digits", 1, cli._MAX_DIGITS),
    (["verify", "--max-k"], [], "max_k", 1, cli._MAX_VERIFY_K),
    (["table", "--max-k"], [], "max_k", 1, cli._MAX_K),
    (["bernoulli", "--max-index"], [], "max_index", 0, cli._MAX_BERNOULLI_INDEX),
    (["fourier", "-k"], ["-n", "1"], "k", 1, cli._MAX_FOURIER_K),
    (["fourier", "-n"], ["-k", "1"], "n", 1, cli._MAX_FOURIER_N),
    (["bench", "--reps"], ["--k-list", "1"], "reps", 1, None),
    (["bench", "--k-list"], [], "k_list", 1, cli._MAX_BENCH_K),
]
_INT_TEXT = st.one_of(
    st.text(max_size=12),
    st.integers(min_value=-10, max_value=10**6).map(str),
    st.from_regex(r"\s*[+-]?\d{1,5}(_\d{1,3})?\s*", fullmatch=True),
    st.integers(min_value=1, max_value=3).map(lambda n: ",".join(["1"] * n)),
    st.just("1" + "0" * 5000),
)


@settings(max_examples=300, deadline=None)
@given(flag=st.sampled_from(_INT_FLAGS), text=_INT_TEXT)
def test_integer_flags_parse_in_bounds_or_exit_two_with_one_error_line(flag, text):
    import contextlib
    import io

    before, after, attr, low, cap = flag
    calls = []

    def record(args):
        calls.append(args)
        return "", 0

    commands = [name for name in vars(cli) if name.startswith("_cmd_")]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.ExitStack() as stack:
        for name in commands:
            stack.enter_context(mock.patch.object(cli, name, record))
        stack.enter_context(contextlib.redirect_stdout(out))
        stack.enter_context(contextlib.redirect_stderr(err))
        code = main([*before, text, *after])
    if code == 0:
        assert len(calls) == 1 and err.getvalue() == ""
        value = getattr(calls[0], attr)
        for v in value if isinstance(value, tuple) else (value,):
            assert type(v) is int and v >= low and (cap is None or v <= cap)
    else:
        assert code == 2 and calls == []
        lines = err.getvalue().splitlines()
        assert "Traceback" not in err.getvalue()
        assert [line for line in lines if ": error: " in line] == [lines[-1]]
        assert lines[-1].startswith(f"zeta2k {before[0]}: error: ")


def _recorded_main(argv, text=""):
    """main(argv) with every _cmd_* patched to record its args and return text.

    Returns (exit code, recorded args, stdout, stderr).
    """
    calls = []

    def record(args):
        calls.append(args)
        return text, 0

    commands = [name for name in vars(cli) if name.startswith("_cmd_")]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.ExitStack() as stack:
        for name in commands:
            stack.enter_context(mock.patch.object(cli, name, record))
        stack.enter_context(contextlib.redirect_stdout(out))
        stack.enter_context(contextlib.redirect_stderr(err))
        code = main(argv)
    return code, calls, out.getvalue(), err.getvalue()


def _assert_one_error_line(command, err):
    lines = err.splitlines()
    assert "Traceback" not in err
    assert [line for line in lines if ": error: " in line] == [lines[-1]]
    assert lines[-1].startswith(f"zeta2k {command}: error: ")


# the smallest valid argv of every command, and the choices of --format
_MINIMAL_ARGV = {
    "coeff": ["coeff", "-k", "1"],
    "eval": ["eval", "-k", "1", "-d", "10"],
    "verify": ["verify", "--max-k", "1"],
    "table": ["table", "--max-k", "1"],
    "bernoulli": ["bernoulli", "--max-index", "1"],
    "fourier": ["fourier", "-k", "1", "-n", "1"],
    "bench": ["bench", "--k-list", "1"],
}
_FORMATS = {
    "coeff": ("plain", "json"),
    "table": ("csv", "json"),
    "bernoulli": ("csv", "json"),
    "bench": ("csv", "json"),
}
_FORMAT_TEXT = st.one_of(
    st.sampled_from(["plain", "csv", "json", "JSON", " json", "json ", "", "-", "--", "-k"]),
    st.text(max_size=12),
)


@settings(max_examples=300, deadline=None)
@given(command=st.sampled_from(sorted(_FORMATS)), text=_FORMAT_TEXT, joined=st.booleans())
def test_format_text_selects_a_listed_choice_or_exits_two_with_one_error_line(
    command, text, joined
):
    flag = [f"--format={text}"] if joined else ["--format", text]
    code, calls, out, err = _recorded_main([*_MINIMAL_ARGV[command], *flag])
    if text in _FORMATS[command]:
        assert (code, err) == (0, "")
        assert len(calls) == 1 and calls[0].format == text
    else:
        assert (code, calls, out) == (2, [], "")
        _assert_one_error_line(command, err)


# relative file names: no separators, no leading dash, not . or ..
_NAME = st.text(alphabet="abcXYZ019._-", min_size=1, max_size=12).filter(
    lambda name: not name.startswith("-") and name not in (".", "..")
)
_ASCII_TEXT = st.text(
    alphabet=st.one_of(st.characters(min_codepoint=32, max_codepoint=126), st.just("\n")),
    max_size=40,
)


@contextlib.contextmanager
def _in_temporary_directory():
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            yield
        finally:
            os.chdir(cwd)


@settings(max_examples=100, deadline=None)
@given(
    command=st.sampled_from(sorted(_MINIMAL_ARGV)),
    parts=st.lists(_NAME, min_size=1, max_size=3),
    text=_ASCII_TEXT,
)
def test_output_to_relative_names_writes_exactly_what_stdout_shows(command, parts, text):
    argv = _MINIMAL_ARGV[command]
    code, _, shown, err = _recorded_main(argv, text)
    assert (code, err) == (0, "")
    name = os.path.join(*parts)
    folder = os.path.dirname(name)
    with _in_temporary_directory():
        if folder:
            os.makedirs(folder)
        code, calls, out, err = _recorded_main([*argv, "--output", name], text)
        assert (code, out, err) == (0, "", "")
        assert [args.output for args in calls] == [name]
        with open(name, encoding="ascii", newline="") as handle:
            assert handle.read() == shown
        # and no temporary file is left beside it
        assert os.listdir(folder or ".") == [parts[-1]]


def _refuse_work(monkeypatch):
    """Make every command's first step fail, so a refusal must come before it."""
    from zeta2k import bench, fourier

    def refuse(*args, **kwargs):
        raise AssertionError("work started for a refused --output")

    monkeypatch.setattr(cli, "ZetaCoeffTable", refuse)
    monkeypatch.setattr(cli, "BernoulliTable", refuse)
    monkeypatch.setattr(fourier, "cosine_coeff_closed", refuse)
    monkeypatch.setattr(bench, "bench_compare", refuse)


@pytest.mark.parametrize("command", sorted(_MINIMAL_ARGV))
@pytest.mark.parametrize(
    "where", ["missing_dir/x.txt", ".", "file.txt/x.txt", pytest.param("a" * 300, id="a*300")]
)
def test_output_that_cannot_be_written_is_refused_before_any_work(
    capsys, monkeypatch, tmp_path, command, where
):
    """--output in no directory, naming a directory or too long exits 2 before any work."""
    _refuse_work(monkeypatch)
    (tmp_path / "file.txt").write_text("kept\n")
    code, out, err = run(capsys, [*_MINIMAL_ARGV[command], "--output", str(tmp_path / where)])
    assert (code, out) == (2, "")
    _assert_one_error_line(command, err)
    assert "argument --output: " in err
    assert os.listdir(tmp_path) == ["file.txt"]
    assert (tmp_path / "file.txt").read_text() == "kept\n"


@pytest.mark.parametrize("command", sorted(_MINIMAL_ARGV))
def test_output_in_a_directory_that_cannot_be_written_is_refused_before_any_work(
    capsys, monkeypatch, tmp_path, command
):
    """os.access is patched to deny writing to tmp_path: root may write to any
    directory, so a run as root could not show a real unwritable one."""
    _refuse_work(monkeypatch)
    access = os.access

    def denied(path, mode, **kwargs):
        if os.path.samefile(path, tmp_path) and mode & os.W_OK:
            return False
        return access(path, mode, **kwargs)

    monkeypatch.setattr(os, "access", denied)
    code, out, err = run(capsys, [*_MINIMAL_ARGV[command], "--output", str(tmp_path / "x.txt")])
    assert (code, out) == (2, "")
    _assert_one_error_line(command, err)
    assert "argument --output: " in err and "is not in a writable directory" in err
    assert os.listdir(tmp_path) == []


def _numbers(low, high):
    return st.integers(min_value=low, max_value=high).map(str)


# every flag of every command but --output, with values inside all caps and budgets
_FLAG_VALUES = {
    "coeff": {"-k": _numbers(1, 50), "--format": st.sampled_from(_FORMATS["coeff"])},
    "eval": {"-k": _numbers(1, 50), "-d": _numbers(1, 10**4)},
    "verify": {"--max-k": _numbers(1, 50)},
    "table": {"--max-k": _numbers(1, 50), "--format": st.sampled_from(_FORMATS["table"])},
    "bernoulli": {
        "--max-index": _numbers(0, 100),
        "--format": st.sampled_from(_FORMATS["bernoulli"]),
    },
    "fourier": {"-k": _numbers(1, cli._MAX_FOURIER_K), "-n": _numbers(1, cli._MAX_FOURIER_N)},
    "bench": {
        "--k-list": st.lists(_numbers(1, 100), min_size=1, max_size=3).map(",".join),
        "--reps": _numbers(1, 5),
        "--format": st.sampled_from(_FORMATS["bench"]),
    },
}


@st.composite
def _flags_in_two_orders(draw):
    command = draw(st.sampled_from(sorted(_FLAG_VALUES)))
    pairs = [(flag, draw(values)) for flag, values in _FLAG_VALUES[command].items()]
    pairs.append(("--output", draw(_NAME)))
    return command, pairs, draw(st.permutations(pairs))


@settings(max_examples=200, deadline=None)
@given(case=_flags_in_two_orders())
def test_any_order_of_a_commands_flags_parses_to_the_same_namespace(case):
    command, pairs, shuffled = case
    namespaces = []
    with _in_temporary_directory():
        for order in (pairs, shuffled):
            argv = [command, *(token for pair in order for token in pair)]
            code, calls, out, err = _recorded_main(argv)
            assert (code, out, err) == (0, "", "")
            assert len(calls) == 1
            # func is this run's recorder, and usage_error is bound to the
            # parser main builds on each call
            parsed = vars(calls[0])
            namespaces.append({k: v for k, v in parsed.items() if k not in ("func", "usage_error")})
    assert namespaces[0] == namespaces[1]


@pytest.mark.parametrize(
    "argv,flag",
    [
        (["coeff", "-k=--"], "-k"),
        (["coeff", "-k", "1", "--format=--"], "--format"),
        (["coeff", "-k", "1", "--output=--"], "--output"),
        (["eval", "-k", "1", "--digits=--"], "--digits"),
        (["eval", "-k=--", "-d", "10"], "-k"),
        (["verify", "--max-k=--"], "--max-k"),
        (["bernoulli", "--max-index=--"], "--max-index"),
        (["fourier", "-k", "1", "-n=--"], "-n"),
        (["bench", "--k-list=--"], "--k-list"),
        (["bench", "--reps=--"], "--reps"),
    ],
)
def test_flag_given_a_double_dash_value_exits_two_with_one_error_line(argv, flag):
    code, calls, out, err = _recorded_main(argv)
    assert (code, calls, out) == (2, [], "")
    _assert_one_error_line(argv[0], err)
    # argparse 3.13 hands the "--" to the flag's own check, whose message
    # names the flag as "-d/--digits"
    assert f"{flag}: " in err.splitlines()[-1]
