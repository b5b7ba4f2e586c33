"""Exact scalar arithmetic over Z, Q, and quadratic extensions Q(sqrt(d)).

Three scalar kinds mix freely in arithmetic: plain ``int``,
``fractions.Fraction``, and :class:`QuadElem` (a + b*sqrt(d) with rational
coordinates).  Every value is immutable, and only ints and Fractions enter:
a float (or any other number) handed to ``QuadElem`` or ``RingTag.coerce``
raises RingError instead of being converted.  Elements of two different
fields never combine and never compare equal, even when both are rational.

This module alone tells the three kinds apart: :func:`parts` reads any
scalar as (d, a, b) and :meth:`RingTag.of` names the ring that holds it.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import lcm
from typing import Optional, Tuple, Union

Rat = Union[int, Fraction]
Scalar = Union[int, Fraction, "QuadElem"]


class RingError(ValueError):
    """Raised for ill-formed scalars or incompatible operands."""


# Trial division runs to sqrt(n), so this cap bounds it at 10^6 divisors.
SQUAREFREE_CAP = 10 ** 12


def squarefree_split(n: int) -> Tuple[int, int]:
    """n = s^2 * m with m squarefree, for 0 < n <= SQUAREFREE_CAP."""
    if n > SQUAREFREE_CAP:
        raise RingError("squarefree part of %d is not computed above %d" % (n, SQUAREFREE_CAP))
    s, m, p = 1, 1, 2
    while p * p <= n:
        e = 0
        while n % p == 0:
            n //= p
            e += 1
        s *= p ** (e // 2)
        m *= p ** (e % 2)
        p += 1
    return s, m * n


@lru_cache(maxsize=64)  # QuadElem checks its d on every construction
def _is_squarefree(d: int) -> bool:
    return d != 0 and squarefree_split(abs(d))[0] == 1


def _exact(x) -> Scalar:
    """x as a canonical exact scalar: an integral Fraction becomes its int, an
    int, another Fraction or a QuadElem passes unchanged, and anything else (a
    float above all) raises RingError."""
    if isinstance(x, Fraction):
        return x.numerator if x.denominator == 1 else x
    if isinstance(x, int):
        return int(x)
    if isinstance(x, QuadElem):
        return x
    raise RingError("%r is not an exact rational (int or Fraction)" % (x,))


def parts(x: Scalar) -> Tuple[int, Rat, Rat]:
    """x = a + b*sqrt(d) as (d, a, b), with d = 0 for a rational and each
    coordinate an int when integral.  The one view of the scalar union that
    the rest of the package reads; a float raises RingError."""
    if type(x) is int:
        return 0, x, 0
    if isinstance(x, QuadElem):
        return x.d, x.a, x.b
    return 0, _exact(x), 0


class QuadElem:
    """An element a + b*sqrt(d) of the quadratic field Q(sqrt(d)).

    d must be a squarefree int different from 0 and 1; the coordinates a, b
    are exact rationals (stored as int when integral).  Mixed arithmetic
    with int and Fraction is supported; elements of distinct fields never
    combine and never compare equal, even when both are rational (b == 0).
    """

    __slots__ = ("d", "a", "b")

    def __init__(self, d: int, a: Rat = 0, b: Rat = 0):
        if type(d) is not int or d in (0, 1) or not _is_squarefree(d):
            raise RingError("d must be a squarefree int, not 0 or 1: got %r" % (d,))
        if type(a) is not int or type(b) is not int:
            a, b = _exact(a), _exact(b)
            for c in (a, b):
                if isinstance(c, QuadElem):
                    raise RingError("%r is not an exact rational (int or Fraction)" % (c,))
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)

    def __setattr__(self, *args):
        raise AttributeError("QuadElem is immutable")

    # -- arithmetic on the coordinates of the other operand -----------

    def _operand(self, other) -> Optional[Tuple[Rat, Rat]]:
        """(a, b) of an int, Fraction or same-field operand; None for any
        other type, so Python tries the other operand's method."""
        if not isinstance(other, (int, Fraction, QuadElem)):
            return None
        d, a, b = parts(other)
        if d and d != self.d:
            raise RingError("mixed radicands: sqrt(%d) vs sqrt(%d)" % (self.d, d))
        return a, b

    def __add__(self, other):
        o = self._operand(other)
        if o is None:
            return NotImplemented
        return QuadElem(self.d, self.a + o[0], self.b + o[1])

    __radd__ = __add__

    def __neg__(self):
        return QuadElem(self.d, -self.a, -self.b)

    def __sub__(self, other):
        o = self._operand(other)
        if o is None:
            return NotImplemented
        return QuadElem(self.d, self.a - o[0], self.b - o[1])

    def __rsub__(self, other):
        o = self._operand(other)
        if o is None:
            return NotImplemented
        return QuadElem(self.d, o[0] - self.a, o[1] - self.b)

    def __mul__(self, other):
        o = self._operand(other)
        if o is None:
            return NotImplemented
        a, b = o
        # (a + b s)(a' + b' s) = (aa' + d bb') + (ab' + a'b) s
        return QuadElem(self.d, self.a * a + self.d * self.b * b, self.a * b + a * self.b)

    __rmul__ = __mul__

    def _quotient(self, xa: Rat, xb: Rat, ya: Rat, yb: Rat) -> "QuadElem":
        """(xa + xb s) / (ya + yb s): times the conjugate, over the rational norm."""
        n = ya * ya - self.d * yb * yb
        if not n:
            raise ZeroDivisionError("division by zero in Q(sqrt(%d))" % self.d)
        return QuadElem(self.d, Fraction(xa * ya - self.d * xb * yb, n),
                        Fraction(xb * ya - xa * yb, n))

    def __truediv__(self, other):
        o = self._operand(other)
        if o is None:
            return NotImplemented
        return self._quotient(self.a, self.b, *o)

    def __rtruediv__(self, other):
        o = self._operand(other)
        if o is None:
            return NotImplemented
        return self._quotient(*o, self.a, self.b)

    def __pow__(self, e: int):
        if not isinstance(e, int) or e < 0:
            return NotImplemented
        out = QuadElem(self.d, 1, 0)
        base = self
        while e:
            if e & 1:
                out = out * base
            base = base * base
            e >>= 1
        return out

    # -- structure ----------------------------------------------------

    def conj(self) -> "QuadElem":
        """Field conjugate a - b*sqrt(d)."""
        return QuadElem(self.d, self.a, -self.b)

    def norm(self) -> Rat:
        """N(a + b sqrt(d)) = a^2 - d b^2, a rational number."""
        return _exact(self.a * self.a - self.d * self.b * self.b)

    # -- comparisons / hashing ----------------------------------------

    def __eq__(self, other):
        if isinstance(other, QuadElem):
            return self.d == other.d and self.a == other.a and self.b == other.b
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
        return "QuadElem(%d, %s, %s)" % (self.d, self.a, self.b)

    def __str__(self):
        return scalar_to_str(self)


def conj(x: Scalar) -> Scalar:
    """Quadratic conjugation; rationals are fixed points."""
    if isinstance(x, QuadElem):
        return x.conj()
    return x


def reduce_mod(x: Scalar, m: int) -> Tuple[int, int]:
    """Componentwise residue (a mod m, b mod m) of x = a + b*sqrt(d).

    For int and Fraction input the surd residue is 0.  Requires m >= 2 and
    components that are integers (a Fraction with denominator 1 counts);
    otherwise raises RingError, as does a float.  A component that is
    m-integral but not an integer, such as 1/2 for odd m, is refused too: no
    inverse mod m is taken.
    """
    _, a, b = parts(x)
    return reduce_pair(a, b, m)


def reduce_pair(a: Rat, b: Rat, m: int) -> Tuple[int, int]:
    """reduce_mod for a term given as the exact pair (a, b) = a + b*sqrt(d)."""
    if m < 2:
        raise RingError("modulus must be >= 2")
    if type(a) is not int or type(b) is not int:
        a, b = _exact(a), _exact(b)
        if type(a) is not int or type(b) is not int:
            raise RingError("residue needs integer components, got (%s, %s)" % (a, b))
    return (a % m, b % m)


# ---------------------------------------------------------------------------
# Ring tags
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RingTag:
    """Which exact scalar ring a sequence lives in: Z, Q, or Quad(d)."""

    kind: str  # "Z" | "Q" | "quad"
    d: Optional[int] = None

    def __post_init__(self):
        if self.kind not in ("Z", "Q", "quad"):
            raise RingError("unknown ring kind %r" % (self.kind,))
        if self.kind == "quad":
            if type(self.d) is not int or self.d in (0, 1) or not _is_squarefree(self.d):
                raise RingError("quad ring needs a squarefree int d != 0, 1: got %r" % (self.d,))
        elif self.d is not None:
            raise RingError("d only applies to quad rings")

    def zero(self) -> Scalar:
        return QuadElem(self.d, 0, 0) if self.kind == "quad" else (
            Fraction(0) if self.kind == "Q" else 0)

    def coerce(self, x: Scalar) -> Scalar:
        d, a, b = parts(x)
        if self.kind == "quad":
            if d != self.d and b != 0:
                raise RingError("scalar lives in sqrt(%d), ring is sqrt(%d)" % (d, self.d))
            return x if d == self.d else QuadElem(self.d, a, 0)
        if b != 0:
            raise RingError("irrational scalar in %s ring" % self.kind)
        if self.kind == "Q":
            return Fraction(a)
        if type(a) is not int:
            raise RingError("non-integer scalar %s in Z ring" % (a,))
        return a

    @staticmethod
    def of(x: Scalar) -> "RingTag":
        """The smallest ring here that holds x: quad(d) when its surd part is
        not 0, else Z when it is integral, else Q."""
        d, a, b = parts(x)
        if b != 0:
            return RingTag("quad", d)
        return RING_Z if type(a) is int else RING_Q

    def serialize(self) -> str:
        return "quad:%d" % self.d if self.kind == "quad" else self.kind

    @staticmethod
    def parse(s: str) -> "RingTag":
        """The tag in a definition's "ring" field: "Z", "Q" or "quad:d"."""
        if s == "Z":
            return RING_Z
        if s == "Q":
            return RING_Q
        if s.startswith("quad:"):
            try:
                d = int(s[5:])
            except ValueError:
                raise RingError("field 'ring': %r needs an integer d in quad:d" % (s,)) from None
            return RingTag("quad", d)
        raise RingError("field 'ring': unknown ring tag %r" % (s,))


RING_Z = RingTag("Z")
RING_Q = RingTag("Q")


# ---------------------------------------------------------------------------
# Serialization: decimal / p-over-q strings, "a+b*sqrt(d)" for quad elements
# ---------------------------------------------------------------------------

_TERM_RE = re.compile(
    r"\s*(?P<sign>[+-])?\s*"
    r"(?:(?P<coef>\d+(?:/\d+)?)\s*\*?\s*)?"
    r"(?P<surd>sqrt\(\s*(?P<d>-?\d+)\s*\))?"
    r"\s*"
)


def scalar_to_str(x: Scalar) -> str:
    d, a, b = parts(x)
    if b == 0:
        return str(a)
    mag = abs(b)
    surd = "sqrt(%d)" % d if mag == 1 else "%s*sqrt(%d)" % (mag, d)
    if a == 0:
        return surd if b > 0 else "-" + surd
    return "%s%s%s" % (a, "-" if b < 0 else "+", surd)


def scalar_from_str(s: str) -> Scalar:
    """Parse a scalar string ("5", "-3/2", "-4+4*sqrt(2)", "2-2*sqrt(-1)")."""
    text = s.strip()
    if "sqrt" not in text:
        return _exact(_fraction(text, s))

    a = Fraction(0)
    b = Fraction(0)
    d = None
    pos = 0
    seen = False
    while pos < len(text):
        m = _TERM_RE.match(text, pos)
        if not m or m.end() == pos or (m.group("coef") is None and m.group("surd") is None):
            raise RingError("cannot parse quadratic scalar %r" % (s,))
        sign = -1 if m.group("sign") == "-" else 1
        if seen and m.group("sign") is None:
            raise RingError("missing sign between terms in %r" % (s,))
        coef = _fraction(m.group("coef"), s) if m.group("coef") else Fraction(1)
        if m.group("surd"):
            td = int(m.group("d"))
            if d is not None and td != d:
                raise RingError("mixed radicands in %r" % (s,))
            d = td
            b += sign * coef
        else:
            a += sign * coef
        pos = m.end()
        seen = True
    return QuadElem(d, a, b)


def _fraction(text: str, s: str) -> Fraction:
    """Fraction(text), where text is read from the scalar string s; a text
    that is no fraction, or one over 0, raises RingError naming s."""
    try:
        return Fraction(text)
    except ValueError:
        raise RingError("cannot parse scalar %r" % (s,)) from None
    except ZeroDivisionError:
        raise RingError("cannot parse scalar %r: zero denominator" % (s,)) from None


def scalar_denominator(x: Scalar) -> int:
    _, a, b = parts(x)
    return lcm(a.denominator, b.denominator)
