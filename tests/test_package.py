"""The package surface and which heavy libraries each entry point loads.

numpy, mpmath and the standard library's dataclasses (with inspect) and
statistics are imported only by the code that uses them, so each import
check runs in a fresh interpreter and reads its ``sys.modules``.
"""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import zeta2k

SRC = Path(__file__).resolve().parents[1] / "src"

CHILD = """
import contextlib, io, sys
{code}
print(" ".join(sorted({names!r} & {{m.split(".")[0] for m in sys.modules}})))
"""


def modules_loaded(code: str, names: set[str]) -> set[str]:
    """Which of the named top-level modules a fresh interpreter holds after code."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", CHILD.format(code=code, names=names)],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return set(proc.stdout.split())


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
