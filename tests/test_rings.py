import operator
import re
from fractions import Fraction
from typing import Optional

import pytest
from hypothesis import given, settings, strategies as st

from aperylike import rings
from aperylike.recurrence import Sequence
from aperylike.rings import (
    QuadElem,
    Rat,
    RingError,
    RingTag,
    RING_Q,
    RING_Z,
    conj,
    reduce_mod,
    SQUAREFREE_CAP,
    _is_squarefree,
    scalar_from_str,
    scalar_to_str,
    squarefree_split,
)

F = Fraction
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
                 (QuadElem(2, 3, 0), QuadElem(-1, 2, 0)), (SQRT2, I),
                 (QuadElem(2, 3, 0), QuadElem(5, 3, 0))):
        with pytest.raises(RingError, match=r"^mixed radicands: sqrt\(%d\) vs sqrt\(%d\)$"
                           % (x.d, y.d)):
            op(x, y)
        # nor are they one value, so a set or dict keeps both
        assert (x == y, y == x) == (False, False)
        assert len({x, y}) == 2


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


@pytest.mark.parametrize("text", ["1/0", "-3/0", "1/0*sqrt(2)", "2+1/0*sqrt(2)"])
def test_a_zero_denominator_is_named(text):
    with pytest.raises(RingError, match="^cannot parse scalar %s: zero denominator$"
                                        % re.escape(repr(text))):
        scalar_from_str(text)


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


# ---------------------------------------------------------------------------
# QuadElem against the implementation it replaced
# ---------------------------------------------------------------------------
#
# RefQuadElem is the previous QuadElem, kept verbatim apart from its names and
# its __str__.  It built a whole element for every int or Fraction operand and
# divided by a rational on a path of its own.  The one intended difference is
# cross-field ==: it called two rational elements of different fields equal.


def _ref_norm_rat(x: Rat) -> Rat:
    if isinstance(x, Fraction) and x.denominator == 1:
        return int(x)
    return x


def _ref_exact_rat(x) -> Rat:
    """x as an int, or as a Fraction when not integral; anything but an int
    or a Fraction (a float above all) raises RingError."""
    if isinstance(x, Fraction):
        return int(x) if x.denominator == 1 else x
    if isinstance(x, int):
        return int(x)
    raise RingError("%r is not an exact rational (int or Fraction)" % (x,))


class RefQuadElem:
    """An element a + b*sqrt(d) of the quadratic field Q(sqrt(d)).

    d must be a squarefree int different from 0 and 1; the coordinates a, b
    are exact rationals (stored as int when integral).  Mixed arithmetic
    with int and Fraction is supported; elements of distinct fields never
    combine, even when one of them is rational (b == 0).
    """

    __slots__ = ("d", "a", "b")

    def __init__(self, d: int, a: Rat = 0, b: Rat = 0):
        if type(d) is not int or d in (0, 1) or not _is_squarefree(d):
            raise RingError("d must be a squarefree int, not 0 or 1: got %r" % (d,))
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "a", a if type(a) is int else _ref_exact_rat(a))
        object.__setattr__(self, "b", b if type(b) is int else _ref_exact_rat(b))

    def __setattr__(self, *args):
        raise AttributeError("RefQuadElem is immutable")

    # -- coercion -----------------------------------------------------

    def _coerce(self, other) -> Optional["RefQuadElem"]:
        if isinstance(other, RefQuadElem):
            if other.d != self.d:
                raise RingError("mixed radicands: sqrt(%d) vs sqrt(%d)" % (self.d, other.d))
            return other
        if isinstance(other, (int, Fraction)):
            return RefQuadElem(self.d, other, 0)
        return None

    # -- arithmetic ---------------------------------------------------

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return RefQuadElem(self.d, self.a + o.a, self.b + o.b)

    __radd__ = __add__

    def __neg__(self):
        return RefQuadElem(self.d, -self.a, -self.b)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return RefQuadElem(self.d, self.a - o.a, self.b - o.b)

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        # (a + b s)(a' + b' s) = (aa' + d bb') + (ab' + a'b) s
        return RefQuadElem(
            self.d,
            self.a * o.a + self.d * self.b * o.b,
            self.a * o.b + o.a * self.b,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if o.b == 0:
            if o.a == 0:
                raise ZeroDivisionError("division by zero in Q(sqrt(%d))" % self.d)
            q = Fraction(o.a)
            return RefQuadElem(self.d, Fraction(self.a) / q, Fraction(self.b) / q)
        n = o.norm()
        if n == 0:
            raise ZeroDivisionError("division by zero in Q(sqrt(%d))" % self.d)
        num = self * o.conj()
        return RefQuadElem(self.d, Fraction(num.a) / n, Fraction(num.b) / n)

    def __rtruediv__(self, other):
        return RefQuadElem(self.d, other, 0) / self

    def __pow__(self, e: int):
        if not isinstance(e, int) or e < 0:
            return NotImplemented
        out = RefQuadElem(self.d, 1, 0)
        base = self
        while e:
            if e & 1:
                out = out * base
            base = base * base
            e >>= 1
        return out

    # -- structure ----------------------------------------------------

    def conj(self) -> "RefQuadElem":
        """Field conjugate a - b*sqrt(d)."""
        return RefQuadElem(self.d, self.a, -self.b)

    def norm(self) -> Rat:
        """N(a + b sqrt(d)) = a^2 - d b^2, a rational number."""
        return _ref_norm_rat(Fraction(self.a * self.a - self.d * self.b * self.b))

    # -- comparisons / hashing ----------------------------------------

    def __eq__(self, other):
        if isinstance(other, RefQuadElem):
            if self.d == other.d:
                return self.a == other.a and self.b == other.b
            return self.b == 0 and other.b == 0 and self.a == other.a
        if isinstance(other, (int, Fraction)):
            return self.b == 0 and self.a == other
        return NotImplemented

    def __hash__(self):
        if self.b == 0:
            return hash(self.a)
        return hash((self.d, self.a, self.b))

    def __bool__(self):
        return self.a != 0 or self.b != 0

    def __repr__(self):
        return "RefQuadElem(%d, %s, %s)" % (self.d, self.a, self.b)


COORDS = (0, 1, -3, F(-7, 3), 10 ** 20 + 1)
# F(4, 2) is a Fraction with denominator 1
RATIONALS = COORDS + (F(1, 2), F(4, 2))
ELEMENTS = [QuadElem(d, a, b) for d in (2, -1) for a in COORDS for b in COORDS]


def as_ref(x):
    return RefQuadElem(x.d, x.a, x.b) if isinstance(x, QuadElem) else x


def outcome(fn, *args):
    """The value fn(*args) gave, with the type of each coordinate, or the
    type and message of the exception it raised."""
    try:
        r = fn(*args)
    except (RingError, ZeroDivisionError, TypeError) as exc:
        return type(exc), str(exc).replace("RefQuadElem", "QuadElem")
    if isinstance(r, (QuadElem, RefQuadElem)):
        return r.d, r.a, type(r.a), r.b, type(r.b)
    return r, type(r)


@pytest.mark.parametrize("op", [operator.add, operator.sub, operator.mul, operator.truediv])
def test_quad_arithmetic_matches_the_reference(op):
    # same-field and other-field elements, ints and Fractions, in both orders
    for x in ELEMENTS:
        for y in RATIONALS + tuple(ELEMENTS):
            for u, v in ((x, y), (y, x)):
                assert outcome(op, u, v) == outcome(op, as_ref(u), as_ref(v)), (op, u, v)


def test_quad_powers_conjugates_and_norms_match_the_reference():
    for x in ELEMENTS:
        for e in range(6):
            assert outcome(operator.pow, x, e) == outcome(operator.pow, as_ref(x), e), (x, e)
        assert outcome(QuadElem.conj, x) == outcome(RefQuadElem.conj, as_ref(x))
        assert outcome(QuadElem.norm, x) == outcome(RefQuadElem.norm, as_ref(x))


def test_quad_equality_matches_the_reference_but_across_fields():
    for x in ELEMENTS:
        assert hash(x) == hash(as_ref(x))
        for y in RATIONALS + tuple(ELEMENTS):
            same = x == y, y == x
            ref = as_ref(x) == as_ref(y), as_ref(y) == as_ref(x)
            if isinstance(y, QuadElem) and y.d != x.d:
                assert same == (False, False)
                assert ref == ((x.b == y.b == 0 and x.a == y.a),) * 2
            else:
                assert same == ref, (x, y)
