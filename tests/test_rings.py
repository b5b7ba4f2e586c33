from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from aperylike import rings
from aperylike.recurrence import Sequence
from aperylike.rings import (
    QuadElem,
    RingError,
    RingTag,
    RING_Q,
    RING_Z,
    conj,
    reduce_mod,
    SQUAREFREE_CAP,
    scalar_from_str,
    scalar_to_str,
    squarefree_split,
)

SQRT2 = QuadElem(2, 0, 1)
I = QuadElem(-1, 0, 1)


def test_quad_mul_examples():
    # norm of the fundamental unit
    assert QuadElem(2, 1, 1) * QuadElem(2, 1, -1) == -1
    # (2+2i)^2 = 8i
    assert QuadElem(-1, 2, 2) * QuadElem(-1, 2, 2) == QuadElem(-1, 0, 8)
    # (-4+4*sqrt2)^2 = 48 - 32*sqrt2
    v = QuadElem(2, -4, 4)
    assert v * v == QuadElem(2, 48, -32)


def test_quad_mul_mismatched_d():
    with pytest.raises(RingError):
        QuadElem(2, 1, 1) * QuadElem(3, 1, 1)


@pytest.mark.parametrize("op", [lambda x, y: x + y, lambda x, y: x - y,
                                lambda x, y: x * y, lambda x, y: x / y])
def test_two_fields_never_combine(op):
    # a rational element of another field (b == 0) is refused as well
    for x, y in ((QuadElem(2, 1, 1), QuadElem(5, 3, 0)), (QuadElem(5, 3, 0), QuadElem(2, 1, 1)),
                 (QuadElem(2, 3, 0), QuadElem(-1, 2, 0)), (SQRT2, I)):
        with pytest.raises(RingError, match=r"^mixed radicands: sqrt\(%d\) vs sqrt\(%d\)$"
                           % (x.d, y.d)):
            op(x, y)


def test_def_file_rational_over_another_radicand_joins_the_ring():
    # the level-10 row written with 0*sqrt(5) and 0*sqrt(3) in a quad:2 file
    doc = {"name": "x", "ring": "quad:2", "G": ["1", "-12+0*sqrt(5)", "-64"],
           "H": ["0", "2", "30+0*sqrt(3)"]}
    seq = Sequence.from_json(doc)
    plain = Sequence.from_json(dict(doc, G=["1", "-12", "-64"], H=["0", "2", "30"]))
    assert seq.G == plain.G and seq.H == plain.H
    assert {c.d for c in seq.G.coeffs + seq.H.coeffs} == {2}
    assert seq.terms(6) == plain.terms(6) == [1, 2, 18, 164, 1810, 21252, 263844]
    with pytest.raises(RingError, match=r"^scalar lives in sqrt\(5\), ring is sqrt\(2\)$"):
        Sequence.from_json(dict(doc, H=["0", "sqrt(5)"]))


def test_conj_examples():
    assert conj(QuadElem(2, -4, 4)) == QuadElem(2, -4, -4)
    assert conj(5) == 5
    assert conj(QuadElem(-1, 2, 2)) == QuadElem(-1, 2, -2)
    x = QuadElem(2, F(1, 3), F(-2, 7))
    assert conj(conj(x)) == x


def test_reduce_mod_examples():
    assert reduce_mod(QuadElem(2, -4, 4), 7) == (3, 4)
    assert reduce_mod(28, 4) == (0, 0)
    assert reduce_mod(QuadElem(2, 56, -32), 8) == (0, 0)
    assert reduce_mod(F(9, 1), 4) == (1, 0)


def test_reduce_mod_errors():
    with pytest.raises(RingError):
        reduce_mod(F(1, 2), 3)
    with pytest.raises(RingError):
        reduce_mod(QuadElem(2, F(1, 2), 0), 3)
    with pytest.raises(RingError):
        reduce_mod(5, 1)


def test_d_must_be_squarefree():
    with pytest.raises(RingError):
        QuadElem(4, 1, 1)
    with pytest.raises(RingError):
        QuadElem(12, 1, 1)
    with pytest.raises(RingError):
        QuadElem(1, 1, 1)
    QuadElem(-6, 1, 1)  # fine
    # a float radicand used to be accepted and fail only in arithmetic
    with pytest.raises(RingError, match=r"^d must be a squarefree int, not 0 or 1: got 2\.0$"):
        QuadElem(2.0, 1, 1)
    with pytest.raises(RingError, match=r"^quad ring needs a squarefree int d != 0, 1: got 2\.0$"):
        RingTag("quad", 2.0)


small_rats = st.fractions(min_value=-9, max_value=9, max_denominator=6)


def quads(d):
    return st.builds(lambda a, b: QuadElem(d, a, b), small_rats, small_rats)


@settings(max_examples=60, deadline=None)
@given(quads(2), quads(2), quads(2))
def test_ring_axioms_sqrt2(x, y, z):
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z
    assert x + y == y + x and x * y == y * x


@settings(max_examples=60, deadline=None)
@given(quads(-1), quads(-1))
def test_conj_is_homomorphism_and_norm_multiplicative(x, y):
    assert conj(x * y) == conj(x) * conj(y)
    assert conj(x + y) == conj(x) + conj(y)
    nx, ny = x.norm(), y.norm()
    assert (x * y).norm() == nx * ny
    assert x * x.conj() == nx


@settings(max_examples=40, deadline=None)
@given(st.integers(-40, 40), st.integers(-40, 40),
       st.integers(-40, 40), st.integers(-40, 40),
       st.integers(2, 23))
def test_reduce_mod_commutes_with_multiplication(a, b, c, d, m):
    x = QuadElem(2, a, b)
    y = QuadElem(2, c, d)
    xa, xb = reduce_mod(x, m)
    ya, yb = reduce_mod(y, m)
    prod = ((xa * ya + 2 * xb * yb) % m, (xa * yb + xb * ya) % m)
    assert reduce_mod(x * y, m) == prod
    sa = ((xa + ya) % m, (xb + yb) % m)
    assert reduce_mod(x + y, m) == sa


def test_division_is_exact_inverse():
    x = QuadElem(2, 3, -5)
    y = QuadElem(2, F(2, 3), 7)
    assert (x / y) * y == x
    assert 1 / SQRT2 * SQRT2 == 1
    with pytest.raises(ZeroDivisionError):
        x / QuadElem(2, 0, 0)


def test_serialization_round_trip():
    cases = [
        5, -17, F(3, 2), F(-91, 8),
        QuadElem(2, -4, 4), QuadElem(-1, 2, -2), QuadElem(2, 0, 1),
        QuadElem(-1, 0, -8), QuadElem(2, F(1, 2), F(-3, 7)),
        QuadElem(5, -3, 0),
    ]
    for x in cases:
        s = scalar_to_str(x)
        back = scalar_from_str(s)
        assert back == x, (s, back, x)
    assert scalar_to_str(QuadElem(2, -4, 4)) == "-4+4*sqrt(2)"
    assert scalar_from_str("18601926816-12933544448*sqrt(2)") == \
        QuadElem(2, 18601926816, -12933544448)


_rationals = st.one_of(
    st.integers(-10 ** 30, 10 ** 30),
    st.fractions(max_denominator=10 ** 12),
)


@settings(max_examples=100, deadline=None)
@given(st.one_of(
    _rationals,
    st.builds(QuadElem, st.sampled_from((2, -1)), _rationals, _rationals),
))
def test_scalar_string_round_trip_fuzz(x):
    assert scalar_from_str(scalar_to_str(x)) == x


def test_ring_tags():
    assert RingTag.parse("Z") is RING_Z
    assert RingTag.parse("quad:-1") == RingTag("quad", -1)
    assert RingTag.parse("quad:2").serialize() == "quad:2"
    assert RING_Q.coerce(3) == F(3)
    assert RingTag("quad", 2).coerce(3) == QuadElem(2, 3, 0)
    with pytest.raises(RingError):
        RING_Z.coerce(F(1, 2))
    with pytest.raises(RingError, match="got 4"):
        RingTag("quad", 4)


def test_squarefree_split_matches_brute_force():
    for n in range(1, 2000):
        s, m = squarefree_split(n)
        assert s * s * m == n
        assert all(m % (q * q) for q in range(2, m + 1) if q * q <= m)
    assert squarefree_split(SQUAREFREE_CAP) == (10 ** 6, 1)


def test_squarefree_cap_is_an_error_not_a_hang():
    # trial division to sqrt(10^18) would not end; above the cap it is refused
    with pytest.raises(RingError, match=str(SQUAREFREE_CAP)):
        RingTag("quad", 10 ** 18 + 3)
    with pytest.raises(RingError, match=str(SQUAREFREE_CAP)):
        scalar_from_str("sqrt(-1000000000000000003)")
    with pytest.raises(RingError, match="'quad:abc'"):
        RingTag.parse("quad:abc")


def test_large_radicand_is_factored_once_per_stream(monkeypatch):
    # QuadElem checks d on every construction; a prime d near the cap
    # costs 10^6 trial divisions each time unless the answer is kept
    calls = []
    split = rings.squarefree_split

    def counted(n):
        calls.append(n)
        assert len(calls) <= 1, "squarefree_split ran again on %d" % n
        return split(n)
    monkeypatch.setattr(rings, "squarefree_split", counted)
    seq = Sequence.from_json({"name": "x", "ring": "quad:999999999989",
                              "G": ["1", "-64"], "H": ["0", "8"]})
    terms = seq.terms(200)
    assert terms[3] == QuadElem(999999999989, 8000, 0)
    assert len(calls) <= 1
