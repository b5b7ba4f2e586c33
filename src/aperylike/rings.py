"""Exact scalar arithmetic over Z, Q, and quadratic extensions Q(sqrt(d)).

Three scalar kinds mix freely in arithmetic: plain ``int``,
``fractions.Fraction``, and :class:`QuadElem` (a + b*sqrt(d) with rational
coordinates).  Every value is immutable, and only ints and Fractions enter:
a float (or any other number) handed to ``QuadElem`` or ``RingTag.coerce``
raises RingError instead of being converted.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd
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


def _norm_rat(x: Rat) -> Rat:
    if isinstance(x, Fraction) and x.denominator == 1:
        return int(x)
    return x


def _exact_rat(x) -> Rat:
    """x as an int, or as a Fraction when not integral; anything but an int
    or a Fraction (a float above all) raises RingError."""
    if isinstance(x, Fraction):
        return int(x) if x.denominator == 1 else x
    if isinstance(x, int):
        return int(x)
    raise RingError("%r is not an exact rational (int or Fraction)" % (x,))


class QuadElem:
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
        object.__setattr__(self, "a", a if type(a) is int else _exact_rat(a))
        object.__setattr__(self, "b", b if type(b) is int else _exact_rat(b))

    def __setattr__(self, *args):
        raise AttributeError("QuadElem is immutable")

    # -- coercion -----------------------------------------------------

    def _coerce(self, other) -> Optional["QuadElem"]:
        if isinstance(other, QuadElem):
            if other.d != self.d:
                raise RingError("mixed radicands: sqrt(%d) vs sqrt(%d)" % (self.d, other.d))
            return other
        if isinstance(other, (int, Fraction)):
            return QuadElem(self.d, other, 0)
        return None

    # -- arithmetic ---------------------------------------------------

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return QuadElem(self.d, self.a + o.a, self.b + o.b)

    __radd__ = __add__

    def __neg__(self):
        return QuadElem(self.d, -self.a, -self.b)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return QuadElem(self.d, self.a - o.a, self.b - o.b)

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        # (a + b s)(a' + b' s) = (aa' + d bb') + (ab' + a'b) s
        return QuadElem(
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
            return QuadElem(self.d, Fraction(self.a) / q, Fraction(self.b) / q)
        n = o.norm()
        if n == 0:
            raise ZeroDivisionError("division by zero in Q(sqrt(%d))" % self.d)
        num = self * o.conj()
        return QuadElem(self.d, Fraction(num.a) / n, Fraction(num.b) / n)

    def __rtruediv__(self, other):
        return QuadElem(self.d, other, 0) / self

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
        return _norm_rat(Fraction(self.a * self.a - self.d * self.b * self.b))

    # -- comparisons / hashing ----------------------------------------

    def __eq__(self, other):
        if isinstance(other, QuadElem):
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
    otherwise raises RingError.  A component that is m-integral but not an
    integer, such as 1/2 for odd m, is refused too: no inverse mod m is taken.
    """
    if isinstance(x, QuadElem):
        return reduce_pair(x.a, x.b, m)
    return reduce_pair(x, 0, m)


def reduce_pair(a: Rat, b: Rat, m: int) -> Tuple[int, int]:
    """reduce_mod for a term given as the exact pair (a, b) = a + b*sqrt(d)."""
    if m < 2:
        raise RingError("modulus must be >= 2")
    if type(a) is not int or type(b) is not int:
        fa, fb = Fraction(a), Fraction(b)
        if fa.denominator != 1 or fb.denominator != 1:
            raise RingError("residue needs integer components, got (%s, %s)"
                            % (_rat_to_str(fa), _rat_to_str(fb)))
        a, b = fa.numerator, fb.numerator
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
        if self.kind == "quad":
            if isinstance(x, QuadElem):
                if x.d != self.d and x.b != 0:
                    raise RingError("scalar lives in sqrt(%d), ring is sqrt(%d)" % (x.d, self.d))
                return x if x.d == self.d else QuadElem(self.d, x.a, 0)
            return QuadElem(self.d, x, 0)
        if isinstance(x, QuadElem):
            if x.b != 0:
                raise RingError("irrational scalar in %s ring" % self.kind)
            x = x.a
        x = _exact_rat(x)
        if self.kind == "Q":
            return Fraction(x)
        if type(x) is not int:
            raise RingError("non-integer scalar %s in Z ring" % (x,))
        return x

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


def _rat_to_str(x: Rat) -> str:
    x = Fraction(x)
    if x.denominator == 1:
        return str(x.numerator)
    return "%d/%d" % (x.numerator, x.denominator)


def scalar_to_str(x: Scalar) -> str:
    if isinstance(x, QuadElem):
        if x.b == 0:
            return _rat_to_str(x.a)
        b = Fraction(x.b)
        sign = "-" if b < 0 else "+"
        mag = -b if b < 0 else b
        surd = "sqrt(%d)" % x.d if mag == 1 else "%s*sqrt(%d)" % (_rat_to_str(mag), x.d)
        if x.a == 0:
            return surd if sign == "+" else "-" + surd
        return "%s%s%s" % (_rat_to_str(x.a), sign, surd)
    return _rat_to_str(x)


def scalar_from_str(s: str) -> Scalar:
    """Parse a scalar string ("5", "-3/2", "-4+4*sqrt(2)", "2-2*sqrt(-1)")."""
    text = s.strip()
    if "sqrt" not in text:
        try:
            return _norm_rat(Fraction(text))
        except ValueError:
            raise RingError("cannot parse scalar %r" % (s,)) from None

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
        coef = Fraction(m.group("coef")) if m.group("coef") else Fraction(1)
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


def scalar_denominator(x: Scalar) -> int:
    if isinstance(x, QuadElem):
        da = Fraction(x.a).denominator
        db = Fraction(x.b).denominator
        return da * db // gcd(da, db)
    return _exact_rat(x).denominator
