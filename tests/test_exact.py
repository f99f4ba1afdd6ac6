import contextlib
import csv
import io
import random
from dataclasses import asdict
from fractions import Fraction

import pytest

import zeta2k.bench as bench
import zeta2k.cli as cli
import zeta2k.fourier as fourier
from zeta2k.bench import _BENCH_HEADER, BenchReport, BenchRow
from zeta2k.bernoulli import BernoulliTable
from zeta2k.exact import _table_text, format_rational
from zeta2k.recursive import ZetaCoeffTable


@pytest.mark.parametrize(
    "q,text",
    [
        (Fraction(1, 6), "1/6"),
        (Fraction(691, 638512875), "691/638512875"),
        (Fraction(-1, 30), "-1/30"),
        (Fraction(5), "5/1"),
        (Fraction(0), "0/1"),
    ],
)
def test_format_rational(q, text):
    assert format_rational(q) == text


def test_format_parse_round_trip_randomized():
    rng = random.Random(20260817)
    for _ in range(500):
        num = rng.randint(-10**12, 10**12)
        den = rng.randint(1, 10**12)
        q = Fraction(num, den)
        assert Fraction(format_rational(q)) == q


def test_rational_arithmetic_field_axioms_randomized():
    """Fraction supplies exact field arithmetic; spot-check the axioms."""
    rng = random.Random(1729)

    def draw():
        return Fraction(rng.randint(-999, 999), rng.randint(1, 999))

    for _ in range(200):
        a, b, c = draw(), draw(), draw()
        assert a + b == b + a
        assert (a + b) + c == a + (b + c)
        assert a * (b + c) == a * b + a * c
        assert a - a == 0
        if b != 0:
            assert (a / b) * b == a
        assert a ** 3 == a * a * a


def test_int_str_beyond_the_int_to_str_limit():
    from decimal import Decimal

    from zeta2k.exact import _int_str

    rng = random.Random(4301)
    values = [0, 7, -7, 10**5000, 10**5000 - 1, -(10**4301)]
    values += [rng.getrandbits(rng.randint(14000, 40000)) for _ in range(20)]
    values += [-rng.getrandbits(20000) for _ in range(5)]
    for n in values:
        text = _int_str(n)
        assert text == str(Decimal(n))
        assert int(Decimal(text)) == n


def test_format_rational_beyond_the_int_to_str_limit():
    from decimal import Decimal

    q = Fraction(-(3**9500), 2**15001)
    num, den = format_rational(q).split("/")
    assert len(num) > 4300 and len(den) > 4300
    assert (num, den) == (str(Decimal(q.numerator)), str(Decimal(q.denominator)))


def _csv_writer_text(header, rows):
    """The tables' CSV as csv.writer renders it, the reference for _table_text."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows([row[name] for name in header] for row in rows)
    return buf.getvalue()


def test_csv_is_byte_identical_to_csv_writer_for_the_exact_tables():
    coeffs = ZetaCoeffTable(300)
    assert coeffs.to_csv() == _csv_writer_text(("k", "num", "den"), coeffs.rows())
    bernoulli = BernoulliTable(120)  # negative numerators
    assert any(row["num"].startswith("-") for row in bernoulli.rows())
    assert bernoulli.to_csv() == _csv_writer_text(("m", "num", "den"), bernoulli.rows())
    report = BenchReport(
        (BenchRow(10, "recursive", 48_000, 11, 3), BenchRow(10, "bernoulli", 65_000, 11, 3))
    )
    rows = [asdict(row) for row in report.rows]
    assert report.to_csv() == _csv_writer_text(_BENCH_HEADER, rows)


@pytest.mark.parametrize(
    "argv", [["fourier", "-k", "3", "-n", "4"], ["bench", "--k-list", "1,5", "--reps", "1"]]
)
def test_csv_is_byte_identical_to_csv_writer_for_cli_reports(monkeypatch, argv):
    seen = []

    def recording(header, rows, fmt):
        seen.append((header, rows, fmt))
        return _table_text(header, rows, fmt)

    monkeypatch.setattr(fourier, "_table_text", recording)
    monkeypatch.setattr(bench, "_table_text", recording)  # bench's report renders itself
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(argv) == 0
    [(header, rows, fmt)] = seen
    assert fmt == "csv" and rows
    assert out.getvalue() == _csv_writer_text(header, rows)


def test_int_str_at_the_edges_of_its_tower_of_powers():
    """Digit counts at, below and above each split 10**(512 * 2**i), and zero pieces."""
    import sys
    from decimal import Decimal

    from zeta2k.exact import _int_str

    rng = random.Random(512)
    values = []
    for i in range(5):
        for digits in (512 * 2**i - 1, 512 * 2**i, 512 * 2**i + 1):
            values.append(rng.randrange(10 ** (digits - 1), 10**digits))
    for m in (511, 512, 513, 1024, 1536, 2048, 4096, 4300, 4301, 8192, 8193, 16384):
        # all-zero inner pieces, pieces of nines, and a 1 padded by zeros
        values += [10**m, 10**m - 1, 10**m + 1, 7 * 10**m + 10 ** (m // 3)]
    values += [-n for n in values[::3]]
    for n in values:  # under the limit in force, 4300 digits by default
        assert _int_str(n) == str(Decimal(n))
    # every str() call is on at most 512 digits, below the smallest allowed limit
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        for n in values:
            assert _int_str(n) == str(Decimal(n))
    finally:
        sys.set_int_max_str_digits(limit)
