"""The package imports only the standard library, mpmath (its one declared
dependency) and its own modules.  sympy may be installed alongside it, but it
is not declared, so nothing may import it."""

import ast
import glob
import os
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
