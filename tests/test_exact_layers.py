"""The exact layers compute with ints, Fractions and exact ring elements
only: no float literal and no float() call appears in their source, and a
float handed to a q-series at run time is refused, not converted."""

import ast
import os
import re
from fractions import Fraction as F

import pytest

import aperylike
from aperylike.qseries import QExpansion, QSeriesError, linear_combination
from aperylike.recurrence import generate_terms, recurrence_from_quadratic
from aperylike.rings import QuadElem, RING_Q, RING_Z, RingError, RingTag

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


# every entry point where a caller's number becomes part of a QExpansion
FLOAT_ENTRIES = {
    "offset": lambda f, x: QExpansion(x, [1, 2]),
    "coefficient list": lambda f, x: QExpansion(0, [1, x]),
    "series * scalar": lambda f, x: f * x,
    "scalar * series": lambda f, x: x * f,
    "series / scalar": lambda f, x: f / x,
    "scalar / series": lambda f, x: x / f,
    "series + scalar": lambda f, x: f + x,
    "truncate_abs": lambda f, x: f.truncate_abs(x),
    "coefficient": lambda f, x: f.coefficient(x),
    "shift": lambda f, x: f.shift(x),
    "pow_fraction": lambda f, x: f.pow_fraction(x),
    "linear_combination": lambda f, x: linear_combination([(1, f), (x, f)]),
}


@pytest.mark.parametrize("entry", sorted(FLOAT_ENTRIES))
@pytest.mark.parametrize("x", [0.5, 2.0, 0.1])
def test_qexpansion_refuses_floats(entry, x):
    f = QExpansion(0, [1, F(1, 2), 3, 4])
    with pytest.raises(QSeriesError, match="^" + re.escape(repr(x)) + " is not an exact rational"):
        FLOAT_ENTRIES[entry](f, x)


@pytest.mark.parametrize("entry", sorted(FLOAT_ENTRIES))
@pytest.mark.parametrize("x", [2, F(1, 2), F(4, 2)])
def test_qexpansion_takes_ints_and_fractions(entry, x):
    f = QExpansion(0, [1, F(1, 2), 3, 4])
    assert isinstance(FLOAT_ENTRIES[entry](f, x), (QExpansion, F, int))


# every entry point where a caller's number becomes a ring scalar; the
# streams reach RingTag.coerce through the relation's one-time set-up
RING_FLOAT_ENTRIES = {
    "Z coerce": lambda x: RING_Z.coerce(x),
    "Q coerce": lambda x: RING_Q.coerce(x),
    "quad coerce": lambda x: RingTag("quad", 2).coerce(x),
    "QuadElem a": lambda x: QuadElem(2, x, 0),
    "QuadElem b": lambda x: QuadElem(-1, 1, x),
    "Z stream": lambda x: generate_terms(recurrence_from_quadratic(7, x, 8), 3, RING_Z),
    "Q stream": lambda x: generate_terms(recurrence_from_quadratic(x, 1, 0), 3, RING_Q),
    "quad stream": lambda x: generate_terms(recurrence_from_quadratic(x, 1, 0), 3,
                                            RingTag("quad", 2)),
}


@pytest.mark.parametrize("entry", sorted(RING_FLOAT_ENTRIES))
@pytest.mark.parametrize("x", [0.5, 2.0, 0.1])
def test_ring_layer_refuses_floats(entry, x):
    # a stream names the coefficient it was handed, which may be -x
    with pytest.raises(RingError, match=r"^-?" + re.escape(repr(x))
                       + r" is not an exact rational \(int or Fraction\)$"):
        RING_FLOAT_ENTRIES[entry](x)


def test_ring_layer_keeps_exact_values():
    # F(0.1) would have made T(2) = 21617278211378381/72057594037927936
    assert generate_terms(recurrence_from_quadratic(F(1, 10), 1, 0), 3, RING_Q)[2] == F(3, 10)
    assert QuadElem(2, F(1, 10), F(4, 2)).a == F(1, 10)
    assert type(QuadElem(2, 0, F(4, 2)).b) is int
    assert RING_Z.coerce(F(4, 2)) == 2 and type(RING_Z.coerce(F(4, 2))) is int
    assert RING_Q.coerce(3) == F(3) and type(RING_Q.coerce(3)) is F
    with pytest.raises(RingError, match="^non-integer scalar 1/2 in Z ring$"):
        RING_Z.coerce(F(1, 2))
    with pytest.raises(RingError, match=r"^'1/2' is not an exact rational"):
        RING_Q.coerce("1/2")


def test_float_offset_and_coefficients_are_not_converted():
    # F(0.1) would be 3602879701896397/36028797018963968
    with pytest.raises(QSeriesError, match=r"^0\.1 is not an exact rational"):
        QExpansion(0.1, [1, 0.5])
    with pytest.raises(QSeriesError, match=r"^0\.5 is not an exact rational"):
        QExpansion(F(1, 10), [1, 0.5])
