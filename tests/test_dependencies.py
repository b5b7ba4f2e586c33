"""The package imports only the standard library, mpmath (its one declared
dependency) and its own modules.  sympy may be installed alongside it, but it
is not declared, so nothing may import it."""

import ast
import glob
import os
import subprocess
import sys

import aperylike

ALLOWED = frozenset(sys.stdlib_module_names) | {"mpmath"}


def undeclared_imports(source: str):
    """(line, module) for each absolute import whose top-level package is
    not in ALLOWED; relative imports are the package's own."""
    hits = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        hits += [(node.lineno, name) for name in names if name.split(".")[0] not in ALLOWED]
    return hits


def test_package_imports_only_stdlib_and_mpmath():
    found = {}
    for path in sorted(glob.glob(os.path.join(os.path.dirname(aperylike.__file__), "*.py"))):
        with open(path, encoding="utf-8") as fh:
            hits = undeclared_imports(fh.read())
        if hits:
            found[os.path.basename(path)] = hits
    assert found == {}


def test_the_import_check_sees_undeclared_imports():
    source = ("import sympy\nfrom numpy.linalg import norm\nfrom . import rings\n"
              "import os.path, gmpy2\nimport mpmath as mp\nfrom __future__ import annotations")
    assert undeclared_imports(source) == [(1, "sympy"), (2, "numpy.linalg"), (4, "gmpy2")]


# run in a fresh interpreter: every step must leave the numeric layer unloaded,
# until the asymptotics command loads it
COLD_START = """
import contextlib, io, sys

NUMERIC = ("mpmath", "aperylike.asymptotics")

def loaded():
    return [name for name in NUMERIC if name in sys.modules]

import aperylike, aperylike.cli
from aperylike import catalog, cli, congruence, qseries, recurrence, rings, series
assert loaded() == [], ("import", loaded())
for argv in (["catalog"], ["lucas", "--seq", "level14A", "--primes", "2..7", "--nmax", "50"],
             ["verify-qseries", "--level", "level4", "--order", "5"]):
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    assert code == 0, (argv, code)
    assert loaded() == [], (argv, loaded())
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(["asymptotics", "--seq", "level14A", "--no-constant"])
assert code == 0, ("asymptotics", code)
assert loaded() == list(NUMERIC), ("asymptotics", loaded())
"""


def run_fresh(script: str) -> subprocess.CompletedProcess:
    """Run script in a fresh interpreter that imports this aperylike."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(aperylike.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    return subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)


def test_only_the_asymptotics_command_loads_the_numeric_layer():
    run = run_fresh(COLD_START)
    assert run.returncode == 0, run.stderr


# run in a fresh interpreter: a scan that forks its workers loads no pool module
SCAN_FAN_OUT = """
import contextlib, io, os, sys

from aperylike import cli

POOLS = ("multiprocessing", "concurrent.futures")
os.sched_getaffinity = lambda pid: {0, 1}  # two workers whatever the machine has
forks = []
fork = os.fork
os.fork = lambda: forks.append(1) or fork()
for argv in (["scan", "--seq", "level11", "--primes", "2,3,5", "--nmax", "50"],
             ["reproduce", "cp-counts", "--nmax", "30"]):
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    assert code == 0, (argv, code)
assert forks, "the scans ran without workers"
loaded = [name for name in POOLS if name in sys.modules]
assert loaded == [], loaded
"""


def test_a_fanned_out_scan_loads_no_pool_module():
    run = run_fresh(SCAN_FAN_OUT)
    assert run.returncode == 0, run.stderr


# run in a fresh interpreter: commands that use no q-series leave the series
# layer unloaded and build only the catalog rows they name; a level row's
# check loads qseries, the Clausen and generating-function checks series too
SERIES_ON_DEMAND = """
import contextlib, gc, io, sys

SERIES = ("aperylike.qseries", "aperylike.series")

def loaded():
    return [name for name in SERIES if name in sys.modules]

def built():
    from aperylike.recurrence import Sequence
    return sorted(o.key for o in gc.get_objects() if isinstance(o, Sequence))

import aperylike.cli
from aperylike import cli
assert (loaded(), built()) == ([], []), ("import", loaded(), built())
for argv, rows in ((["catalog"], []),
                   (["lucas", "--seq", "level14A", "--prime", "5", "--nmax", "30"],
                    ["level14A"]),
                   (["supercong", "--seq", "level11", "--prime", "2", "--nmax", "30"],
                    ["level11", "level14A"]),
                   (["terms", "--seq", "level11"], ["level11", "level14A"])):
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    assert code == 0, (argv, code)
    assert (loaded(), built()) == ([], rows), (argv, loaded(), built())
for argv, modules in ((["verify-qseries", "--level", "level4", "--order", "5"], SERIES[:1]),
                      (["verify-identities", "--order", "5"], SERIES)):
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    assert code == 0, (argv, code)
    assert loaded() == list(modules), (argv, loaded())
"""


def test_only_the_q_series_commands_load_the_series_layer():
    run = run_fresh(SERIES_ON_DEMAND)
    assert run.returncode == 0, run.stderr
