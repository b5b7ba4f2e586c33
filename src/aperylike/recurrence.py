"""Recurrences with polynomial coefficients and exact term streams.

The central constructor is :func:`recurrence_from_gh`: given polynomials
G (constant term 1) and H (constant term 0) of degree <= k, it builds the
(k+1)-term relation

    (n+1)^3 T(n+1) + (n+1) sum_j g_j (n+1-j/2)(n+1-j) T(n+1-j)
        = 2 sum_j h_j (n+1-j/2) T(n+1-j)

whose solution with T(0) = 1 is the coefficient sequence of the power
series Z = sum T(n) X^n attached to (G, H).  Terms at negative index are
zero by convention.
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import count, repeat
from math import lcm
from operator import mul
from typing import Callable, Iterable, Iterator, List, Optional, Tuple

from .rings import (
    QuadElem,
    Rat,
    RingTag,
    RING_Q,
    RING_Z,
    RingError,
    Scalar,
    _exact,
    parts,
    scalar_denominator,
    scalar_from_str,
    scalar_to_str,
)


class InexactDivision(ArithmeticError):
    """Division by (n+1)^3 left a remainder while streaming a Z-ring sequence."""

    def __init__(self, index: int, message: str = ""):
        self.index = index
        super().__init__(message or "inexact division at index %d" % index)

    def __reduce__(self):
        # args holds only the message, so the default would pass it as index
        return InexactDivision, (self.index, str(self))


# ---------------------------------------------------------------------------
# Polynomials in one variable over the exact scalars
# ---------------------------------------------------------------------------


class Poly:
    """Dense polynomial c0 + c1 x + ... with exact scalar coefficients."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[Scalar]):
        cs = list(coeffs)
        while len(cs) > 1 and not cs[-1]:
            cs.pop()
        if not cs:
            cs = [0]
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, *args):
        raise AttributeError("Poly is immutable")

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __call__(self, x: Scalar) -> Scalar:
        out = self.coeffs[-1]
        for c in reversed(self.coeffs[:-1]):
            out = out * x + c
        return out

    def __getitem__(self, j: int) -> Scalar:
        return self.coeffs[j] if 0 <= j < len(self.coeffs) else 0

    # without these, iteration would call __getitem__, which never runs out
    def __iter__(self) -> Iterator[Scalar]:
        return iter(self.coeffs)

    def __len__(self) -> int:
        return len(self.coeffs)

    def __eq__(self, other):
        if isinstance(other, Poly):
            return self.coeffs == other.coeffs
        return NotImplemented

    def __hash__(self):
        return hash(self.coeffs)

    def __add__(self, other: "Poly") -> "Poly":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        return Poly([a[i] + (b[i] if i < len(b) else 0) for i in range(len(a))])

    def __neg__(self) -> "Poly":
        return Poly([-c for c in self.coeffs])

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, Poly):
            out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
            for i, a in enumerate(self.coeffs):
                if not a:
                    continue
                for j, b in enumerate(other.coeffs):
                    out[i + j] = out[i + j] + a * b
            return Poly(out)
        return Poly([c * other for c in self.coeffs])

    __rmul__ = __mul__

    def __pow__(self, e: int) -> "Poly":
        if e < 0:
            raise ValueError("Poly power needs an exponent >= 0, got %s" % (e,))
        out = Poly([1])
        for _ in range(e):
            out = out * self
        return out

    def scale_arg(self, c: Scalar) -> "Poly":
        """p(c*x) as a polynomial in x."""
        out, power = [], 1
        for coef in self.coeffs:
            out.append(coef * power)
            power = power * c
        return Poly(out)

    def derivative(self) -> "Poly":
        if self.degree == 0:
            return Poly([0])
        return Poly([j * c for j, c in enumerate(self.coeffs)][1:])

    def __repr__(self):
        return "Poly(%r)" % (list(self.coeffs),)


def poly_product(factors: Iterable[Iterable[Scalar]]) -> Poly:
    """Multiply out a factored polynomial given as coefficient lists."""
    out = Poly([1])
    for f in factors:
        out = out * Poly(f)
    return out


def mobius_shift(factors: Iterable[Iterable[Scalar]], h: Iterable[Scalar], eps: Scalar,
                 m: int) -> Tuple[Tuple[tuple, ...], Poly]:
    """(B^2 factors, H) of a row after X = Y/(1 - eps Y) at weight m, that is
    1/X_eps = 1/X + eps and Z_eps = Z (1 + eps X)^mu with mu = m/2 - 1.

    With W = 1 - eps Y and hom_d(p) = sum_j p_j Y^j W^(d-j), each factor f
    of G maps to hom_{deg f}(f), (1, -eps) pads them up to total degree m, and

        H_eps = [hom_m(H) + mu eps hom_{m+1}(X (G + X G'/2))
                 - mu (mu/2 + 1) eps^2 hom_{m+2}(X^2 G)] / W^2.

    Derivation: D = Z^-1 q d/dq = X sqrt(G) d/dX, and u = sqrt(Z) solves
    D^2 u = (H/2) u.  As 1 + eps X = 1/W, G_eps = G W^m, and putting
    D_eps = (1 + eps X)^-mu D and u_eps = u (1 + eps X)^(mu/2) into
    D_eps^2 u_eps = (H_eps/2) u_eps gives H_eps.  A remainder in the
    division by W^2, or deg G > m, raises ValueError.
    """
    factors, H = [Poly(f) for f in factors], Poly(h)
    G, pad = poly_product(f.coeffs for f in factors), m - sum(f.degree for f in factors)
    x, s = Poly([0, 1]), Poly([1, eps])
    # as 1/W = 1 + eps X the bracket is W^(m+2) P(X), so H_eps = hom_m(P);
    # P8 = 8P has integral scalars, with sum_j (2 + j) g_j X^j = 2 (G + X G'/2)
    P8 = (s * (s * H * 8 + x * Poly([(2 + j) * g for j, g in enumerate(G.coeffs)])
               * (2 * (m - 2) * eps)) - x * x * G * ((m * m - 4) * eps * eps))
    if pad < 0 or P8.degree > m:
        raise ValueError("no weight-%d shift by %s: deg G > %d, or H_eps is not a "
                         "polynomial" % (m, eps, m))

    def hom(p: Poly, d: int) -> Poly:
        out = [p[0]]  # Horner in W: (p_0 W + p_1 Y) W + p_2 Y^2 ...
        for j in range(1, d + 1):
            out = [out[0]] + [c - eps * b for c, b in zip(out[1:] + [p[j]], out)]
        return Poly(out)

    return (tuple(hom(f, f.degree).coeffs for f in factors) + ((1, -eps),) * pad,
            hom(P8, m) * Fraction(1, 8))


# ---------------------------------------------------------------------------
# Recurrence specifications
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RecurrenceSpec:
    """Homogeneous relation  sum_j coeff_polys[j](n) * T(n+1-j) = 0.

    coeff_polys[0] multiplies T(n+1); it is (n+1)^3 for the cubic family
    and (n+1)^2 for the weight-one family.  Coefficients are exact and may
    involve half-integers; denominators are cleared once inside the term
    stream, never per step.
    """

    coeff_polys: Tuple[Poly, ...]

    def __post_init__(self):
        if not self.coeff_polys:
            raise ValueError("a recurrence needs at least its lead coefficient polynomial")

    @property
    def order(self) -> int:
        """Number of back terms k; the relation has k+1 terms."""
        return len(self.coeff_polys) - 1

    def solved_coeff(self, j: int) -> Poly:
        """Coefficient of T(n+1-j) with the relation solved for T(n+1)."""
        return -self.coeff_polys[j]


_N_PLUS_1 = Poly([1, 1])


def recurrence_from_gh(G: Poly, H: Poly) -> RecurrenceSpec:
    """Build the (k+1)-term relation attached to the polynomial pair (G, H)."""
    if G[0] != 1:
        raise ValueError("G must have constant term 1")
    if H[0] != 0:
        raise ValueError("H must have constant term 0")
    k = max(G.degree, H.degree)
    half = Fraction(1, 2)
    polys = [_N_PLUS_1 ** 3]
    for j in range(1, k + 1):
        gj, hj = G[j], H[j]
        # (n+1) g_j (n+1-j/2)(n+1-j) - 2 h_j (n+1-j/2)
        mid = Poly([1 - j * half, 1])
        p = (_N_PLUS_1 * mid * Poly([1 - j, 1])) * gj - (2 * hj) * mid
        polys.append(p)
    return RecurrenceSpec(tuple(polys))


def recurrence_from_quadratic(alpha: Scalar, beta: Scalar, gamma: Scalar) -> RecurrenceSpec:
    """Weight-one relation (n+1)^2 t(n+1) = (a n^2 + a n + b) t(n) + c n^2 t(n-1)."""
    return RecurrenceSpec((
        _N_PLUS_1 ** 2,
        -Poly([beta, alpha, alpha]),
        -Poly([0, 0, gamma]),
    ))


def cubic_from_quadratic_asz(alpha: Scalar, beta: Scalar, gamma: Scalar) -> RecurrenceSpec:
    """Cubic companion of the weight-one relation:

    (n+1)^3 s(n+1) = -(2n+1)(a n^2 + a n + a - 2b) s(n) - (a^2 + 4c) n^3 s(n-1).
    """
    return RecurrenceSpec((
        _N_PLUS_1 ** 3,
        Poly([1, 2]) * Poly([alpha - 2 * beta, alpha, alpha]),
        Poly([0, 0, 0, alpha * alpha + 4 * gamma]),
    ))


def cubic_from_quadratic_ctyz(alpha: Scalar, beta: Scalar, gamma: Scalar) -> RecurrenceSpec:
    """Central-binomial companion:

    (n+1)^3 T(n+1) = 2(2n+1)(a n^2 + a n + b) T(n) + 4c n(4n^2 - 1) T(n-1),
    solved by T(n) = binom(2n, n) t(n) for t from the weight-one relation.
    """
    return RecurrenceSpec((
        _N_PLUS_1 ** 3,
        -2 * (Poly([1, 2]) * Poly([beta, alpha, alpha])),
        (-4 * gamma) * Poly([0, -1, 0, 4]),
    ))


def asz_gh(alpha: Scalar, beta: Scalar, gamma: Scalar) -> Tuple[Poly, Poly]:
    """(G, H) whose generalT relation is the cubic ASZ companion."""
    disc = alpha * alpha + 4 * gamma
    G = Poly([1, 2 * alpha, disc])
    H = Poly([0, 2 * beta - alpha, -Fraction(1, 2) * disc])
    return G, H


def fourterm_params(G: Poly, H: Poly) -> Tuple[Scalar, Scalar, Scalar, Scalar, Scalar]:
    """Parameters (a, b, c, d, e) of the self-starting four-term normal form

        (n+1)^3 T(n+1) = (2n+1)(a n^2 + a n + b) T(n)
                          + n(c n^2 + d) T(n-1) + e n(2n-1)(n-1) T(n-2)

    for cubic (G, H) with g3 = -h3.
    """
    if G.degree != 3 or H.degree != 3:
        raise ValueError("fourterm_params needs deg G = deg H = 3")
    if G[3] != -H[3]:
        raise ValueError("not self-starting form: g3 != -h3")
    half = Fraction(1, 2)
    return (
        _exact(-half * G[1]),
        _exact(H[1]),
        _exact(-G[2]),
        _exact(G[2] + 2 * H[2]),
        _exact(-half * G[3]),
    )


def is_self_starting(spec: RecurrenceSpec) -> Tuple[bool, Optional[Tuple[int, int]]]:
    """Whether T(0) = 1 alone determines the stream.

    True iff for every j >= 2 the coefficient of T(n+1-j) vanishes at each
    n in 0..j-2, i.e. wherever the referenced index would be negative.
    Returns (flag, witness), with the first failing (j, n) as witness.
    """
    for j in range(2, spec.order + 1):
        p = spec.coeff_polys[j]
        for n in range(j - 1):
            if p(n) != 0:
                return False, (j, n)
    return True, None


# ---------------------------------------------------------------------------
# Term streams
# ---------------------------------------------------------------------------


def _integral_relation(spec: RecurrenceSpec, ring: RingTag) -> Tuple[
        Tuple[int, ...], Tuple[Tuple[int, ...], ...], Tuple[Tuple[int, ...], ...]]:
    """The relation over ring with integer coefficients, solved for T(n+1):
    (lead, backs, surds), so that

        lead(n) T(n+1) = sum_j (backs[j-1](n) + surds[j-1](n) sqrt(d)) T(n+1-j),

    each polynomial an int coefficient tuple; surds is empty over Z and Q.
    Denominators are cleared once, by the lcm of all of them, and every
    coefficient is then coerced into ring, so one outside it raises
    RingError naming the ring.  Over Z[sqrt(d)] a lead with a surd part
    (possible only in a hand-built spec) is multiplied through by its
    conjugate, which turns it into its norm; both vanish at the same n, so
    the solution is unchanged."""
    L = lcm(*(scalar_denominator(c) for p in spec.coeff_polys for c in p.coeffs))
    polys = [Poly([ring.coerce(c * L) for c in p.coeffs]) for p in spec.coeff_polys]
    if ring.kind != "quad":
        return (tuple(map(int, polys[0].coeffs)),
                tuple(tuple(-int(c) for c in p.coeffs) for p in polys[1:]), ())
    if any(c.b for c in polys[0].coeffs):
        bar = Poly([c.conj() for c in polys[0].coeffs])
        polys = [Poly([ring.coerce(c) for c in (p * bar).coeffs]) for p in polys]
    return (tuple(c.a for c in polys[0].coeffs),
            tuple(tuple(-c.a for c in p.coeffs) for p in polys[1:]),
            tuple(tuple(-c.b for c in p.coeffs) for p in polys[1:]))


_BLOCK = 512


def _coeff_blocks(polys: List[Tuple[int, ...]], stop: int
                  ) -> Iterator[Tuple[int, List[List[int]]]]:
    """Evaluate coefficient polynomials over blocks of consecutive indices.

    Yields (start, values) for consecutive blocks of up to 512 indices
    start <= m < start + len(values[i]), covering 0 <= m < stop, with
    values[i][m - start] = polys[i](m) by list-comprehension Horner.
    polys[0] is the lead: a block ends before the first index m where it
    vanishes, and the next request raises ZeroDivisionError naming m, so
    a stream still yields every term up to T(m)."""
    for start in range(0, stop, _BLOCK):
        ns = range(start, min(start + _BLOCK, stop))
        values = []
        for coeffs in polys:
            col = [coeffs[-1]] * len(ns)
            for c in reversed(coeffs[:-1]):
                col = [v * n + c for v, n in zip(col, ns)]
            values.append(col)
        if 0 in values[0]:
            z = values[0].index(0)
            yield start, [col[:z] for col in values]
            raise ZeroDivisionError("lead coefficient vanishes at index %d" % (start + z))
        yield start, values


def _rows(cols: List[List[Scalar]], n: int) -> Iterator[Tuple[Scalar, ...]]:
    """The n per-index tuples of a block's columns; empty tuples when
    there is no column (a relation of order 0)."""
    return zip(*cols) if cols else repeat((), n)


def _stream_z(spec: RecurrenceSpec, n_max: int) -> Iterator[int]:
    """Kernel for Z: T(0..n_max), every division by the lead exact.

    The coefficients at 0 <= m < n_max come a block at a time from
    _coeff_blocks; each step sums the back coefficients against a deque
    of the last k terms and divides by the lead with divmod."""
    lead, backs, _ = _integral_relation(spec, RING_Z)
    window = deque([1] + [0] * (len(backs) - 1), maxlen=len(backs))  # window[j-1] = T(m+1-j)
    yield 1
    for start, (leads, *cols) in _coeff_blocks([lead, *backs], n_max):
        for m, x, row in zip(count(start), leads, _rows(cols, len(leads))):
            t, r = divmod(sum(map(mul, row, window)), x)
            if r:
                raise InexactDivision(m + 1)
            yield t
            window.appendleft(t)


def _stream_q(spec: RecurrenceSpec, n_max: int) -> Iterator[Fraction]:
    """Kernel for Q: T(0..n_max) as Fractions, summed as plain ints.

    The window holds each term as (numerator, denominator), and the
    coefficients at 0 <= m < n_max come a block at a time from _coeff_blocks.
    Each step sums the back terms over L, the lcm of the nonzero window
    denominators, and builds one Fraction(sum, lead * L): one
    normalisation per term."""
    lead, backs, _ = _integral_relation(spec, RING_Q)
    window = deque([(1, 1)] + [(0, 1)] * (len(backs) - 1), maxlen=len(backs))
    yield Fraction(1)
    for _, (leads, *cols) in _coeff_blocks([lead, *backs], n_max):
        for x, row in zip(leads, _rows(cols, len(leads))):
            L = lcm(*[den for num, den in window if num])
            s = sum([c * num * (L // den) for c, (num, den) in zip(row, window)])
            t = Fraction(s, x * L)
            yield t
            window.appendleft((t.numerator, t.denominator))


def _stream_quad(spec: RecurrenceSpec, ring: RingTag, n_max: int) -> Iterator[Tuple[Rat, Rat]]:
    """Kernel for Q(sqrt(d)) on integer pairs: T(0..n_max) as (a, b).

    _integral_relation gives the integer lead and each back polynomial
    as A(n) + B(n)*sqrt(d), its rational part in backs and its surd part
    in surds, and _coeff_blocks evaluates the lead and every A and B at
    0 <= m < n_max, a block at a time.  Each component of the sum is
    divided by the integer lead with divmod; an inexact division gives a
    Fraction, as division in the field would."""
    d = ring.d
    lead, backs, surds = _integral_relation(spec, ring)
    k = len(backs)
    wa = deque([1] + [0] * (k - 1), maxlen=k)  # wa[j-1], wb[j-1]: the parts of T(m+1-j)
    wb = deque([0] * k, maxlen=k)
    yield (1, 0)
    for _, (dens, *cols) in _coeff_blocks([lead, *backs, *surds], n_max):
        n = len(dens)
        for den, A, B in zip(dens, _rows(cols[:k], n), _rows(cols[k:], n)):
            sa = sum(map(mul, A, wa)) + d * sum(map(mul, B, wb))
            sb = sum(map(mul, A, wb)) + sum(map(mul, B, wa))
            a, r = divmod(sa, den)
            if r:
                a = Fraction(sa, den)
            b, r = divmod(sb, den)
            if r:
                b = Fraction(sb, den)
            yield (a, b)
            wa.appendleft(a)
            wb.appendleft(b)


def term_iterator(spec: RecurrenceSpec, ring: RingTag, n_max: int) -> Iterator[Scalar]:
    """Yield T(0) = 1, T(1), ..., T(n_max) exactly, keeping only a k-term
    window; the coefficients are evaluated at 0 <= m < n_max only.

    The kernel is chosen here, once per ring.  Under ring Z every division
    by the leading coefficient must be exact, otherwise InexactDivision
    carries the offending index.  Under Q and Quad(d) the division happens
    in the fraction field; Quad(d) streams run on integer pairs (see
    term_pairs) and become QuadElem only as each term is yielded.  A
    coefficient outside ring raises RingError before T(1), and a lead
    that vanishes at index m raises ZeroDivisionError after T(m).
    """
    if n_max < 0:
        raise ValueError("n_max must be >= 0, got %d" % n_max)
    if ring.kind == "quad":
        d = ring.d
        return (QuadElem(d, a, b) for a, b in _stream_quad(spec, ring, n_max))
    if ring.kind == "Q":
        return _stream_q(spec, n_max)
    return _stream_z(spec, n_max)


def term_pairs(spec: RecurrenceSpec, ring: RingTag, n_max: int) -> Iterator[Tuple[Rat, Rat]]:
    """Yield each T(n), n <= n_max, as the exact pair (a, b) meaning
    a + b*sqrt(d), without building a QuadElem; b = 0 over Z and Q.  Same
    terms and errors as term_iterator."""
    if n_max < 0:
        raise ValueError("n_max must be >= 0, got %d" % n_max)
    if ring.kind == "quad":
        return _stream_quad(spec, ring, n_max)
    return ((t, 0) for t in term_iterator(spec, ring, n_max))


def generate_terms(spec: RecurrenceSpec, n_max: int, ring: RingTag = RING_Z) -> List[Scalar]:
    """T(0..n_max) as a list."""
    return list(term_iterator(spec, ring, n_max))


@dataclass
class IntegralityReport:
    base: int
    n_max: int
    ok: bool
    first_failure: Optional[int]
    scaled_terms: List[Scalar] = field(default_factory=list)


def scaled_integrality_check(terms: List[Scalar], base: int,
                             n_max: Optional[int] = None) -> IntegralityReport:
    """Check base^n * T(n) in Z for n <= n_max over a rational term list;
    n_max indexes the list (by default its last term), or ValueError.  A
    term that is not an int or Fraction (a float, a QuadElem) raises
    RingError."""
    if n_max is None:
        n_max = len(terms) - 1
    if n_max not in range(len(terms)):
        raise ValueError("n_max must index the %d terms, got %d" % (len(terms), n_max))
    scaled: List[Scalar] = []
    power = 1
    for n in range(n_max + 1):
        d, a, _ = parts(terms[n])  # a float raises RingError here
        if d:
            raise RingError("%r is not an exact rational (int or Fraction)" % (terms[n],))
        v = Fraction(a) * power
        if v.denominator != 1:
            return IntegralityReport(base, n_max, False, n, scaled)
        scaled.append(int(v))
        power *= base
    return IntegralityReport(base, n_max, True, None, scaled)


# ---------------------------------------------------------------------------
# Sequences and their JSON file format
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Sequence:
    """The stream T(0) = 1, T(1), ... of a recurrence over a tagged ring,
    with its (G, H) data, binomial-sum oracle, level and factored B^2 when
    known.

    Sequences with (G, H) data read and write the JSON schema
    {"name", "ring": "Z"|"Q"|"quad:d", "G": [...], "H": [...], "level"?}
    with coefficients as scalar strings; "name" is the key.
    """

    key: str
    ring: RingTag
    spec: RecurrenceSpec
    G: Optional[Poly] = None
    H: Optional[Poly] = None
    oracle: Optional[Callable[[int], Scalar]] = None
    level: Optional[str] = None
    G_factors: Optional[Tuple[tuple, ...]] = None

    @classmethod
    def from_gh(cls, key: str, ring: RingTag, G: Poly, H: Poly, **extras) -> "Sequence":
        """The sequence of the relation recurrence_from_gh(G, H)."""
        return cls(key, ring, recurrence_from_gh(G, H), G, H, **extras)

    def terms(self, n_max: int) -> List[Scalar]:
        return generate_terms(self.spec, n_max, self.ring)

    def iter_pairs(self, n_max: int) -> Iterator[Tuple[Rat, Rat]]:
        """T(0..n_max) as exact pairs (a, b), T = a + b*sqrt(d); see term_pairs."""
        return term_pairs(self.spec, self.ring, n_max)

    def to_json(self) -> dict:
        if self.G is None or self.H is None:
            raise ValueError("sequence %r has no (G, H) data to write" % self.key)
        doc = {
            "name": self.key,
            "ring": self.ring.serialize(),
            "G": [scalar_to_str(c) for c in self.G.coeffs],
            "H": [scalar_to_str(c) for c in self.H.coeffs],
        }
        if self.level is not None:
            doc["level"] = self.level
        return doc

    @staticmethod
    def from_json(doc: dict) -> "Sequence":
        if not isinstance(doc, dict):
            raise ValueError("a sequence definition is a JSON object")
        missing = [k for k in ("name", "ring", "G", "H") if k not in doc]
        if missing:
            raise ValueError("sequence definition lacks %s" % ", ".join(missing))
        if not isinstance(doc["name"], str):
            raise ValueError("sequence definition field 'name' must be a string")
        if not isinstance(doc["ring"], str):
            raise ValueError("sequence definition field 'ring' must be a string")
        if not isinstance(doc.get("level", ""), str):
            raise ValueError("sequence definition field 'level' must be a string")
        ring = RingTag.parse(doc["ring"])
        polys = []
        for key in ("G", "H"):
            if not isinstance(doc[key], list) or not all(isinstance(c, str) for c in doc[key]):
                raise ValueError("sequence definition field %r must be a list of "
                                 "scalar strings" % key)
            cs = [scalar_from_str(c) for c in doc[key]]
            if ring.kind == "quad":
                # a rational written over another radicand, 3+0*sqrt(5) in
                # quad:2, joins the ring's field; an irrational one raises
                cs = [ring.coerce(c) for c in cs]
            else:
                if any(parts(c)[2] for c in cs):
                    raise ValueError("sequence definition field %r has an irrational "
                                     "coefficient in ring %s" % (key, ring.kind))
                cs = [parts(c)[1] for c in cs]
            polys.append(Poly(cs))
        return Sequence.from_gh(doc["name"], ring, *polys, level=doc.get("level"))

    @staticmethod
    def load(path: str) -> "Sequence":
        with open(path, "r", encoding="utf-8") as fh:
            return Sequence.from_json(json.load(fh))
