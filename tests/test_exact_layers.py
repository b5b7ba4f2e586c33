"""The exact layers compute with ints, Fractions and exact ring elements
only: no float literal and no float() call appears in their source."""

import ast
import os

import pytest

import aperylike

EXACT_MODULES = ("qseries", "recurrence", "rings", "congruence", "series", "catalog")


def float_uses(source: str):
    """(line, text) for each float literal and float() call in the source."""
    hits = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
            hits.append((node.lineno, repr(node.value)))
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id == "float"):
            hits.append((node.lineno, "float("))
    return sorted(hits)


@pytest.mark.parametrize("module", EXACT_MODULES)
def test_exact_layer_has_no_floats(module):
    path = os.path.join(os.path.dirname(aperylike.__file__), module + ".py")
    with open(path, encoding="utf-8") as fh:
        assert float_uses(fh.read()) == []


def test_the_float_check_sees_floats():
    assert float_uses("x = int((4 * c / d) ** 0.5)\ny = float(n)\nz = 2j") == [
        (1, "0.5"), (2, "float("), (3, "2j")]
