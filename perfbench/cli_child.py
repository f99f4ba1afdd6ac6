"""Traced stand-in for the `zeta2k` console script.

Usage: python cli_child.py ARGS...   (with zeta2k importable)

Behaves like `zeta2k ARGS...` (same stdout, stderr and exit code) and
also writes "t_start t_imported t_main_end" (time.perf_counter values)
to file descriptor 3, so the benchmark can split the process into
import, main and interpreter start/exit.
"""

import os
import sys
from time import perf_counter

t_start = perf_counter()
import zeta2k.cli  # noqa: E402

t_imported = perf_counter()
code = 1
try:
    code = zeta2k.cli.main(sys.argv[1:])
finally:
    os.write(3, f"{t_start!r} {t_imported!r} {perf_counter()!r}".encode())
    os.close(3)
sys.exit(code)
