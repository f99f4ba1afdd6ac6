"""The package surface, its one rule for size arguments, and which heavy
libraries each entry point loads.

numpy, mpmath and the standard library's dataclasses (with inspect) and
statistics are imported only by the code that uses them, so each import
check runs in a fresh interpreter and reads its ``sys.modules``.
"""

import functools
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

from fractions import Fraction

import pytest

import zeta2k
from zeta2k import (
    BernoulliTable,
    HighPrecReal,
    PrecisionConfig,
    ZetaCoeffTable,
    b_factor,
    b_product_closed,
    bench_compare,
    consistency_residual,
    cosine_coeff_closed,
    cosine_coeff_quadrature,
    cosine_coeff_recursive,
    direct_sum_terms,
    feasible_digits,
    format_real,
    mean_coeff,
    pi_digits,
    reconstruct,
    reconstruction_residual,
    zeta_coeff_via_bernoulli,
    zeta_direct_sum,
    zeta_eval,
)

SRC = Path(__file__).resolve().parents[1] / "src"

CHILD = """
import contextlib, io, sys
{code}
print(" ".join(sorted({names!r} & {{m.split(".")[0] for m in sys.modules}})))
"""


def run_child(code: str) -> str:
    """The stdout of a fresh interpreter that runs code, which must exit 0."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def modules_loaded(code: str, names: set[str]) -> set[str]:
    """Which of the named top-level modules a fresh interpreter holds after code."""
    return set(run_child(CHILD.format(code=code, names=names)).split())


def heavy_modules_loaded(code: str) -> set[str]:
    """Which of numpy and mpmath a fresh interpreter holds after running code."""
    return modules_loaded(code, {"numpy", "mpmath"})


def after_main(argv: list[str]) -> str:
    """Child code that runs the CLI on argv, stdout discarded, and checks exit 0."""
    return (
        "from zeta2k.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    assert main({argv!r}) == 0\n"
    )


def test_import_loads_neither_numpy_nor_mpmath():
    assert heavy_modules_loaded("import zeta2k") == set()
    assert heavy_modules_loaded("import zeta2k.cli") == set()


@pytest.mark.parametrize(
    "argv",
    [
        ["coeff", "-k", "7"],
        ["coeff", "-k", "7", "--format", "json"],
        ["table", "--max-k", "6"],
        ["bernoulli", "--max-index", "8"],
        ["bernoulli", "--max-index", "8", "--format", "json"],
        ["bench", "--k-list", "5", "--reps", "1"],
    ],
)
def test_integer_commands_load_neither_numpy_nor_mpmath(argv):
    assert heavy_modules_loaded(after_main(argv)) == set()


@pytest.mark.parametrize(
    "argv",
    [["eval", "-k", "2", "-d", "30"], ["verify", "--max-k", "4"]],
)
def test_eval_and_verify_load_no_numpy(argv):
    assert "numpy" not in heavy_modules_loaded(after_main(argv))


@pytest.mark.parametrize(
    "argv",
    [
        ["eval", "-k", "2", "-d", "30"],
        ["eval", "-k", "2", "-d", "4400"],
        ["verify", "--max-k", "4"],
    ],
)
def test_eval_and_verify_load_no_mpmath(argv):
    assert "mpmath" not in heavy_modules_loaded(after_main(argv))


def test_fourier_loads_neither_numpy_nor_mpmath():
    assert heavy_modules_loaded(after_main(["fourier", "-k", "2", "-n", "2"])) == set()


# one run of every command, eval on both sides of the 4300-digit int->str limit
EVERY_COMMAND = [
    ["coeff", "-k", "7"],
    ["coeff", "-k", "7", "--format", "json"],
    ["table", "--max-k", "6"],
    ["bernoulli", "--max-index", "8"],
    ["eval", "-k", "2", "-d", "30"],
    ["eval", "-k", "2", "-d", "4400"],
    ["verify", "--max-k", "4"],
    ["fourier", "-k", "3", "-n", "2"],
    ["bench", "--k-list", "5", "--reps", "1"],
    ["coeff", "-k", "0"],
]

COMMANDS_CHILD = """
import contextlib, io, json, sys
for name in {blocked!r}:
    sys.modules[name] = None  # import name raises ImportError
from zeta2k.cli import main
runs = []
for argv in {argvs!r}:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    runs.append([code, out.getvalue()])
print(json.dumps([sorted(n for n in ("mpmath", "numpy") if sys.modules.get(n) is not None), runs]))
"""


@functools.lru_cache(maxsize=None)
def run_every_command(blocked: tuple[str, ...]):
    """(which of mpmath and numpy were loaded, [exit code, stdout] per command).

    From a fresh interpreter in which the blocked modules cannot be
    imported.  bench's third column is a wall time, which differs from run
    to run, so it is left out.
    """
    loaded, runs = json.loads(
        run_child(COMMANDS_CHILD.format(blocked=blocked, argvs=EVERY_COMMAND))
    )
    bench = EVERY_COMMAND.index(["bench", "--k-list", "5", "--reps", "1"])
    rows = [line.split(",") for line in runs[bench][1].splitlines()]
    runs[bench][1] = [row[:2] + row[3:] for row in rows]
    return loaded, runs


def test_every_command_runs_the_same_without_mpmath():
    loaded, with_mpmath = run_every_command(())
    assert loaded == []
    loaded, without = run_every_command(("mpmath",))
    assert loaded == []
    assert without == with_mpmath
    assert [code for code, _ in without] == [0] * (len(EVERY_COMMAND) - 1) + [2]


def test_every_command_runs_the_same_without_numpy():
    _, with_numpy = run_every_command(())
    loaded, without = run_every_command(("numpy",))
    assert loaded == []
    assert without == with_numpy


def test_reconstruct_needs_numpy():
    code = (
        "import sys\n"
        "sys.modules['numpy'] = None\n"
        "from zeta2k.fourier import reconstruct, reconstruction_residual\n"
        "for call in (lambda: reconstruct(1, 0.0, 10), lambda: reconstruction_residual(1, 10)):\n"
        "    try:\n"
        "        call()\n"
        "    except ImportError:\n"
        "        print('ImportError')\n"
    )
    assert run_child(code).split() == ["ImportError", "ImportError"]


def test_results_print_without_mpmath_and_value_needs_it():
    code = (
        "import sys\n"
        "sys.modules['mpmath'] = None\n"
        "from fractions import Fraction\n"
        "from zeta2k.precision import PrecisionConfig, format_real, zeta_eval\n"
        "x = zeta_eval(3, PrecisionConfig(digits=20), Fraction(1, 945))\n"
        "print(format_real(x))\n"
        "try:\n"
        "    x.value\n"
        "except ImportError:\n"
        "    print('ImportError')\n"
    )
    assert run_child(code).split() == ["1.01734306198444913971", "ImportError"]


@pytest.mark.parametrize(
    "argv",
    [
        ["coeff", "-k", "7"],
        ["table", "--max-k", "6", "--format", "json"],
        ["bernoulli", "--max-index", "8"],
        ["eval", "-k", "2", "-d", "30"],
        ["verify", "--max-k", "4"],
        ["fourier", "-k", "1", "-n", "1"],
        ["bench", "--k-list", "5", "--reps", "1"],
    ],
)
def test_only_bench_loads_statistics(argv):
    expected = {"statistics"} if argv[0] == "bench" else set()
    assert modules_loaded(after_main(argv), {"statistics"}) == expected


@pytest.mark.parametrize(
    "argv",
    [
        ["coeff", "-k", "7", "--format", "json"],
        ["table", "--max-k", "6"],
        ["bernoulli", "--max-index", "8", "--format", "json"],
    ],
)
def test_integer_commands_load_no_dataclasses(argv):
    assert modules_loaded(after_main(argv), {"dataclasses", "inspect", "statistics"}) == set()


@pytest.mark.parametrize(
    "argv",
    [
        ["coeff", "-k", "7"],
        ["table", "--max-k", "6"],
        ["bernoulli", "--max-index", "8"],
    ],
)
def test_integer_commands_load_no_csv(argv):
    assert modules_loaded(after_main(argv), {"csv"}) == set()


@pytest.mark.parametrize(
    "call",
    [
        "zeta_eval(3, cfg, Fraction(1, 945))",
        "pi_value(cfg)",
        "zeta_direct_sum(3, cfg)",
    ],
)
def test_results_load_mpmath_on_first_value_read(call):
    code = (
        "from fractions import Fraction\n"
        "from zeta2k.precision import PrecisionConfig, format_real, pi_value, "
        "zeta_direct_sum, zeta_eval\n"
        "cfg = PrecisionConfig(digits=20)\n"
        f"x = {call}\n"
        "format_real(x)\n"
    )
    assert modules_loaded(code, {"mpmath"}) == set()
    assert modules_loaded(code + "x.value\n", {"mpmath"}) == {"mpmath"}


def test_quadrature_loads_mpmath_on_first_value_read():
    code = (
        "from zeta2k.fourier import cosine_coeff_quadrature\n"
        "from zeta2k.precision import format_real\n"
        "x = cosine_coeff_quadrature(3, 5, 1e-12)\n"
        "format_real(x)\n"
    )
    assert modules_loaded(code, {"mpmath"}) == set()
    assert modules_loaded(code + "x.value\n", {"mpmath"}) == {"mpmath"}


def test_star_import_binds_every_public_name():
    namespace: dict = {}
    exec("from zeta2k import *", namespace)
    assert len(zeta2k.__all__) == 33
    assert set(zeta2k.__all__) <= namespace.keys()


def test_public_names_are_the_submodules_objects():
    submodules = {}
    for name in zeta2k.__all__:
        if name == "__version__":
            continue
        module = importlib.import_module(f"zeta2k.{zeta2k._SUBMODULE[name]}")
        assert getattr(zeta2k, name) is getattr(module, name), name
        submodules.setdefault(module.__name__, set()).add(name)
    # every submodule's public names are the package's, and no more
    for module_name, names in submodules.items():
        assert set(sys.modules[module_name].__all__) == names, module_name


def test_dir_lists_every_public_name():
    assert set(zeta2k.__all__) <= set(dir(zeta2k))


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="'nope'"):
        zeta2k.nope
    assert not hasattr(zeta2k, "nope")
    with pytest.raises(ImportError):
        exec("from zeta2k import nope", {})


def _warm_b_factor(m):
    b_factor(2, 3)  # an int key equal to (2.0, 3) is memoized first
    return b_factor(m, 3)


_TABLE = ZetaCoeffTable(5)
_CFG = PrecisionConfig(digits=5)

# (call of one argument, its name, its least allowed value, a float to refuse);
# every public entry point that takes a size, index or count
_SIZE_ARGUMENTS = {
    "ZetaCoeffTable": (ZetaCoeffTable, "max_k", 1, 2.5),
    "ZetaCoeffTable.coeff": (_TABLE.coeff, "k", 1, 2.0),
    "consistency_residual": (lambda v: consistency_residual(_TABLE, v), "k", 1, 2.0),
    "BernoulliTable": (BernoulliTable, "max_index", 0, 2.0),
    "BernoulliTable.value": (BernoulliTable(4).value, "m", 0, 2.0),
    "zeta_coeff_via_bernoulli": (
        lambda v: zeta_coeff_via_bernoulli(v, BernoulliTable(8)), "k", 1, 2.0
    ),
    "bench_compare.k_values": (lambda v: bench_compare([v], reps=1), "every k", 1, 2.0),
    "bench_compare.reps": (lambda v: bench_compare([2], reps=v), "reps", 1, 1.0),
    "CosineCoeff.substitute": (cosine_coeff_closed(2).substitute, "n", 1, 2.0),
    "mean_coeff": (mean_coeff, "k", 0, 2.0),
    "cosine_coeff_closed": (cosine_coeff_closed, "k", 1, 2.0),
    "cosine_coeff_recursive.k": (lambda v: cosine_coeff_recursive(v, 1), "k", 1, 2.0),
    "cosine_coeff_recursive.n": (lambda v: cosine_coeff_recursive(1, v), "n", 1, 2.0),
    "b_factor.m": (_warm_b_factor, "m", 1, 2.0),
    "b_factor.n": (lambda v: b_factor(1, v), "n", 1, 2.0),
    "b_product_closed.k": (lambda v: b_product_closed(v, 0, 1), "k", 1, 3.0),
    "b_product_closed.j": (lambda v: b_product_closed(3, v, 2), "j", 0, 1.0),
    "b_product_closed.n": (lambda v: b_product_closed(1, 0, v), "n", 1, 2.0),
    "cosine_coeff_quadrature.k": (lambda v: cosine_coeff_quadrature(v, 1, 1e-12), "k", 1, 1.0),
    "cosine_coeff_quadrature.n": (lambda v: cosine_coeff_quadrature(1, v, 1e-12), "n", 1, 1.0),
    "reconstruct.k": (lambda v: reconstruct(v, 0.0, 10), "k", 1, 1.0),
    "reconstruct.n_terms": (lambda v: reconstruct(1, 0.0, v), "n_terms", 1, 100.5),
    "reconstruction_residual": (lambda v: reconstruction_residual(1, v), "n_terms", 1, 10.0),
    "pi_digits": (pi_digits, "frac_digits", 1, 5.0),
    "zeta_eval": (lambda v: zeta_eval(v, _CFG, Fraction(1, 6)), "k", 1, 1.0),
    "direct_sum_terms": (lambda v: direct_sum_terms(v, _CFG), "k", 1, 2.0),
    "feasible_digits.k": (lambda v: feasible_digits(v, 10), "k", 1, 2.0),
    "feasible_digits.max_sum_terms": (lambda v: feasible_digits(2, v), "max_sum_terms", 1, 1e8),
    "zeta_direct_sum": (lambda v: zeta_direct_sum(v, _CFG), "k", 1, 2.0),
    "format_real": (lambda v: format_real(HighPrecReal(digits=v, value="1")), "digits", 0, 2.0),
}


@pytest.mark.parametrize("entry", _SIZE_ARGUMENTS)
def test_every_size_argument_is_refused_by_one_rule(entry):
    call, name, low, number = _SIZE_ARGUMENTS[entry]
    with pytest.raises(TypeError, match=f"^{name} must be an int, got float$"):
        call(number)
    with pytest.raises(ValueError, match=f"^{name} must be >= {low}, got {low - 1}$"):
        call(low - 1)
