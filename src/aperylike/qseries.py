"""Truncated q-expansions: eta products, theta series of binary quadratic
forms, Eisenstein series, and the (X, Z) pairs of the level catalog, with
machine verification of the differentiation formulas, the nonlinear ODE,
and a bank of named q-series identities.

A QExpansion is q^offset * (c0 + c1 q + c2 q^2 + ...) with exact rational
coefficients and a rational offset.  The offset is an int whenever it is
integral, and a Fraction (denominator > 1) only off the integer grid, as
for eta products on the q^(1/24) grid, so exponent bookkeeping is int
arithmetic on the integer grid.  The coefficients are stored as Python
ints over one common denominator, so every operation is plain-int
arithmetic.  Every operation tracks how far the result is actually known,
and comparisons refuse to answer beyond that point.  Only ints and
Fractions enter: a float offset, coefficient, scalar or exponent raises
QSeriesError.

Division carries the quotient as ints over one running denominator, the
lcm of the reduced denominators of the coefficients solved so far, with
one gcd per coefficient and no powers of the divisor's leading
coefficient, so a divisor stored over a large common denominator does not
blow up the intermediates.  A rational power f^(p/s) carries its
coefficients over a running denominator the same way: each costs two
dot products over the coefficients solved so far and one gcd.

``linear_combination`` sums c_i f_i over one common denominator and
reduces once, with the alignment and precision of the chain
c_1 f_1 + c_2 f_2 + ...; ``+`` and ``-`` are its two-term case.  A check
that sums several polynomials in one series X builds X's ``power_chain``
once and sums it once per polynomial.

Eta quotients and Pochhammer quotients, whatever their factors and
exponents, are built in one exact integer pass from the logarithmic
derivative of their unit part, a divisor sum read off the factors (see
``_unit_product``), not by a series product or quotient per factor.
"""

from __future__ import annotations

from fractions import Fraction
from functools import partial
from math import floor, gcd, isqrt, lcm
from operator import add, mul
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple, Union

from . import catalog
from .catalog import LevelRow, WeightRow, ORACLES
from .recurrence import (Poly, asz_gh, generate_terms, recurrence_from_gh,
                         recurrence_from_quadratic)
from .rings import RING_Z, Scalar

F = Fraction


class QSeriesError(ArithmeticError):
    pass


class QExpansion:
    """q^offset * sum(num[i] q^i) / den, known exactly below q^(offset+len(num)).

    ``offset`` is an int when integral, otherwise a Fraction with
    denominator > 1.  ``num`` is a list of ints and ``den`` a positive int,
    kept in lowest terms: gcd(den, *num) == 1 (so a series that is zero to
    working precision has den == 1).  ``coeffs`` gives the coefficients as
    Fractions.  Division and rational powers solve their coefficients one
    by one over one running integer denominator, one gcd per coefficient.
    """

    __slots__ = ("offset", "num", "den")

    def __init__(self, offset, coeffs: Sequence):
        offset = _exact(offset)
        cs = list(coeffs)
        if {int}.issuperset(map(type, cs)):
            num, den = cs, 1
        else:
            fs = [_exact(c) for c in cs]
            den = lcm(*(f.denominator for f in fs))
            num = [f.numerator * (den // f.denominator) for f in fs]
        _fill(self, offset, num, den)

    def __setattr__(self, *args):
        raise AttributeError("QExpansion is immutable")

    # -- structure ------------------------------------------------------

    @property
    def coeffs(self) -> List[Fraction]:
        """The coefficients c_i = num[i] / den, as a new list of Fractions."""
        den = self.den
        return [F(c, den) for c in self.num]

    @property
    def prec(self) -> int | Fraction:
        """First exponent at which the expansion is unknown."""
        return self.offset + len(self.num)

    def is_zero(self) -> bool:
        return not any(self.num)

    def normalized(self) -> "QExpansion":
        """Strip leading zero coefficients into the offset."""
        num = self.num
        i = 0
        while i < len(num) and num[i] == 0:
            i += 1
        if i == 0:
            return self
        if i == len(num):
            raise QSeriesError("series is zero to working precision")
        return _raw(self.offset + i, num[i:], self.den)

    def coefficient(self, exponent) -> Fraction:
        """Exact coefficient of q^exponent; exponent must be below prec."""
        e = _exact(exponent)
        if e >= self.prec:
            raise QSeriesError("coefficient of q^%s is beyond precision" % e)
        rel = e - self.offset
        if rel.denominator != 1 or rel < 0:
            return F(0)
        return F(self.num[int(rel)], self.den)

    # -- arithmetic -------------------------------------------------------

    def __neg__(self):
        return _raw(self.offset, [-c for c in self.num], self.den)

    def _add(self, other, sign: int) -> "QExpansion":
        if not isinstance(other, QExpansion):
            other = _embed_scalar(other, self.prec)
        return linear_combination(((1, self), (sign, other)))

    def __add__(self, other):
        return self._add(other, +1)

    __radd__ = __add__

    def __sub__(self, other):
        return self._add(other, -1)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, QExpansion):
            p, s = _ratio(other)
            return _make(self.offset, [c * p for c in self.num], self.den * s)
        a, b = self.normalized(), other.normalized()
        n = min(len(a.num), len(b.num))
        # ry[n-1-k:] is b.num[k], ..., b.num[0]; map stops at its end
        x, ry = a.num, b.num[n - 1::-1]
        out = [sum(map(mul, x, ry[n - 1 - k:])) for k in range(n)]
        return _make(a.offset + b.offset, out, a.den * b.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if not isinstance(other, QExpansion):
            p, s = _ratio(other)
            if p == 0:
                raise ZeroDivisionError("q-expansion divided by zero")
            if p < 0:
                p, s = -p, -s
            return _make(self.offset, [c * s for c in self.num], self.den * p)
        a, b = self.normalized(), other.normalized()
        n = min(len(a.num), len(b.num))
        x, y = a.num, b.num
        y0, y1 = y[0], y[1:n]
        # With w = x/y, carry w_i = s_i / L over one running denominator
        # L > 0, the lcm of the reduced denominators of w_0..w_i:
        # w_i = t / (L y0) with t = x_i L - sum_{j=1..i} y_j s_(i-j).
        # With g = gcd(t, y0), L grows by |y0|/g and s_i = +-t/g.
        s: List[int] = []
        L = 1
        for i in range(n):
            t = x[i] * L - sum(map(mul, y1, reversed(s)))
            g = gcd(t, y0)
            k = abs(y0) // g
            if k != 1:
                L *= k
                s = [c * k for c in s]
            s.append(t // g if y0 > 0 else -t // g)
        # a/b = (b.den / a.den) * w
        return _make(a.offset - b.offset, [b.den * c for c in s], a.den * L)

    def __rtruediv__(self, other):
        a = self.normalized()
        return _embed_scalar(other, a.prec) / self

    def __pow__(self, e: int):
        if e < 0:
            return (_one_like(self) / self) ** (-e)
        a = self.normalized()
        if e < 2:
            return a if e else _one_like(a)
        h = a ** (e // 2)
        return h * h * a if e % 2 else h * h

    def pow_fraction(self, r) -> "QExpansion":
        """f^r for rational r; needs leading coefficient exactly 1."""
        a = self.normalized()
        r = _exact(r)
        u, d = a.num, a.den
        if u[0] != d:
            raise QSeriesError("rational power needs leading coefficient 1")
        p, s = r.numerator, r.denominator
        # f^r = sum P_k q^k with k P_k = sum_{j=1..k} (r j - (k - j)) u_j P_(k-j),
        # u_j = num_j / den and r = p/s, that is
        # s k P_k = (p + s) sum j u_j P_(k-j) - s k sum u_j P_(k-j).
        # Carry P_i = t_i / L over one running denominator L > 0, as
        # __truediv__ does: P_k = T / (s k den L) with the int
        # T = (p + s) sum j num_j t_(k-j) - s k sum num_j t_(k-j).  With
        # g = gcd(T, s k den), L grows by s k den / g and t_k = T / g.
        u1 = u[1:]
        ju1 = [j * c for j, c in enumerate(u1, 1)]
        t = [1]
        L = 1
        for k in range(1, len(u)):
            # map stops at the end of reversed(t): j runs over 1..k
            T = ((p + s) * sum(map(mul, ju1, reversed(t)))
                 - s * k * sum(map(mul, u1, reversed(t))))
            M = s * k * d
            g = gcd(T, M)
            m = M // g
            if m != 1:
                L *= m
                t = [c * m for c in t]
            t.append(T // g)
        return _make(a.offset * r, t, L)

    def q_derivative(self) -> "QExpansion":
        """q d/dq, exact on the fractional exponent grid."""
        op, od = self.offset.numerator, self.offset.denominator
        return _make(self.offset, [(op + i * od) * c for i, c in enumerate(self.num)],
                     od * self.den)

    def shift(self, k) -> "QExpansion":
        """Multiply by q^k."""
        return _raw(self.offset + _exact(k), self.num, self.den)

    def subs_q_power(self, m: int) -> "QExpansion":
        """f(q^m); the gaps are known zeros, so precision scales by m."""
        if m < 1:
            raise QSeriesError("substitution power must be >= 1")
        out = [0] * (m * len(self.num))
        out[::m] = self.num
        return _raw(self.offset * m, out, self.den)

    def subs_q_negated(self) -> "QExpansion":
        """f(-q); requires integer offset."""
        base = self.offset
        if type(base) is not int:
            raise QSeriesError("f(-q) needs an integer exponent grid")
        return _raw(base, [-c if (base + i) % 2 else c
                           for i, c in enumerate(self.num)], self.den)

    def truncate_abs(self, exponent) -> "QExpansion":
        """Drop knowledge above q^exponent (inclusive)."""
        n = floor(_exact(exponent) - self.offset) + 1
        if n <= 0:
            raise QSeriesError("truncation removes every known coefficient")
        return _make(self.offset, self.num[:n], self.den)

    def __repr__(self):
        a = self.normalized() if not self.is_zero() else self
        parts = []
        for i, c in enumerate(a.coeffs[:6]):
            if c:
                parts.append("%s*q^%s" % (c, a.offset + i))
        return "QExpansion(%s%s)" % (" + ".join(parts) or "0",
                                     " + O(q^%s)" % a.prec)


def _fill(f: QExpansion, offset: int | Fraction, num: List[int], den: int) -> None:
    """Set the slots; an integral offset is stored as an int."""
    if not num:
        raise QSeriesError("empty coefficient list")
    if type(offset) is not int and offset.denominator == 1:
        offset = offset.numerator
    object.__setattr__(f, "offset", offset)
    object.__setattr__(f, "num", num)
    object.__setattr__(f, "den", den)


def _raw(offset: int | Fraction, num: List[int], den: int) -> QExpansion:
    """A QExpansion from numerators already in lowest terms over den > 0."""
    f = object.__new__(QExpansion)
    _fill(f, offset, num, den)
    return f


def _make(offset: int | Fraction, num: List[int], den: int) -> QExpansion:
    """A QExpansion from int numerators over den > 0, reduced to lowest terms."""
    if den != 1:
        g = gcd(den, *num)
        if g != 1:
            num = [c // g for c in num]
            den //= g
    return _raw(offset, num, den)


def _exact(c) -> int | Fraction:
    """c itself if it is an int or a Fraction; anything else (a float
    above all) raises, so no inexact value enters a series."""
    if isinstance(c, (int, Fraction)):
        return c
    raise QSeriesError("%r is not an exact rational (int or Fraction)" % (c,))


def _ratio(c) -> Tuple[int, int]:
    """(numerator, denominator > 0) of an exact rational scalar."""
    if type(c) is int:
        return c, 1
    c = _exact(c)
    return c.numerator, c.denominator


def _embed_scalar(c, prec_abs) -> QExpansion:
    n = int(prec_abs)
    if n <= 0:
        raise QSeriesError("cannot embed a constant at nonpositive precision")
    p, s = _ratio(c)
    return _raw(0, [p] + [0] * (n - 1), s)


def _one_like(f: QExpansion) -> QExpansion:
    return _raw(0, [1] + [0] * (len(f.num) - 1), 1)


def linear_combination(pairs: Iterable[Tuple[int | Fraction, QExpansion]]) -> QExpansion:
    """sum c * f over the (scalar, series) pairs, over one common denominator.

    Equal to the chain c1 * f1 + c2 * f2 + ... of ``+`` and scalar ``*``,
    with the same alignment: the result starts at the least offset and is
    known to the least precision.  It raises the chain's QSeriesError, at
    the same pair, when an offset differs from those before it by a
    non-integer.  The sum is reduced to lowest terms once; ``+`` and ``-``
    are the two-term case.
    """
    terms = []
    for c, f in pairs:
        p, s = _ratio(c)
        if not terms:
            lo, prec = f.offset, f.prec
        elif (f.offset - lo).denominator != 1:
            raise QSeriesError("offsets differ by a non-integer: %s vs %s" % (lo, f.offset))
        else:
            lo, prec = min(lo, f.offset), min(prec, f.prec)
        terms.append((p, s * f.den if p else 1, f))
    if not terms:
        raise QSeriesError("empty linear combination")
    den = lcm(*[sd for _, sd, _ in terms])
    n = int(prec - lo)
    out = [0] * n
    for p, sd, f in terms:
        k = int(f.offset - lo)
        if p and k < n:
            m = p * (den // sd)
            out[k:] = map(add, out[k:], [c * m for c in f.num[:n - k]])
    return _make(lo, out, den)


# (ok, exponent of the first mismatch: an int, or a Fraction off the integer grid)
Check = Tuple[bool, Optional[Union[int, Fraction]]]


def qexp_equal(a: QExpansion, b: QExpansion, through: int) -> Check:
    """Compare two expansions coefficientwise up to q^through.

    Raises if through is negative or either side is not known that far;
    returns (ok, exponent of the first mismatch).
    """
    if through < 0:
        raise QSeriesError("comparison through q^%s: need through >= 0" % (through,))
    if a.prec <= through or b.prec <= through:
        raise QSeriesError("known only to q^%s and q^%s, need q^%d"
                           % (a.prec, b.prec, through))
    diff = a - b
    for i, c in enumerate(diff.num):
        e = diff.offset + i
        if e > through:
            break
        if c != 0:
            return False, e
    return True, None


# ---------------------------------------------------------------------------
# Building blocks
# ---------------------------------------------------------------------------


def _unit_product(factors: Sequence[Tuple[int, int, int]], order: int) -> List[int]:
    """Coefficients to q^order of u = prod over (a, m, e) of
    prod_{j>=0} (1 - q^(a+j m))^e, in one integer pass.

    The logarithmic derivative q u'/u = sum c_n q^n has c_n = -sum e d over
    the divisors d of n with d >= a and d = a (mod m), so u_0 = 1 and
    n u_n = sum_{k=1..n} c_k u_(n-k).
    """
    c = [0] * (order + 1)
    for a, m, e in factors:
        for d in range(a, order + 1, m):
            w = e * d
            for n in range(d, order + 1, d):
                c[n] -= w
    u = [1]
    for n in range(1, order + 1):
        un, r = divmod(sum(map(mul, c[1:n + 1], reversed(u))), n)
        if r:
            raise QSeriesError("unit product coefficient q^%d is not an integer" % n)
        u.append(un)
    return u


def poch_unit(a: int, m: int, rel: int) -> List[int]:
    """Unit-part coefficients of prod_{j>=0} (1 - q^(a+j m)) to q^rel."""
    return poch_quotient(0, ((a, m, 1),), rel).num


def eta_expand(N: int, order: int) -> QExpansion:
    """eta_N = q^(N/24) prod (1 - q^(jN)), known through q^(N/24 + order)."""
    return eta_quotient(((N, 1),), order)


def eta_quotient(factors: Sequence[Tuple[int, int]], order: int) -> QExpansion:
    """prod eta_N^e over (N, e), known through q^(sum e N/24 + order)."""
    if order < 0 and not (factors and factors[0][0] < 1):  # a bad first level is named first
        raise QSeriesError("precision q^%d is negative" % order)
    for N, _ in factors:
        if N < 1:
            raise QSeriesError("eta level must be >= 1")
    unit = _unit_product([(N, N, e) for N, e in factors], order)
    return _raw(F(sum(e * N for N, e in factors), 24), unit, 1)


def poch_quotient(offset, factors: Sequence[Tuple[int, int, int]], order: int) -> QExpansion:
    """q^offset prod (prod_{j>=0} (1 - q^(a+j m)))^e over (a, m, e), known
    through q^(offset + order)."""
    if order < 0:
        raise QSeriesError("precision q^%d is negative" % order)
    for a, m, _ in factors:
        if a < 1 or m < 1:
            raise QSeriesError("Pochhammer factor needs a >= 1 and m >= 1, got a=%d, m=%d"
                               % (a, m))
    return _raw(_exact(offset), _unit_product(factors, order), 1)


def theta_expand(spec: Tuple[int, int, int], order: int) -> QExpansion:
    """theta_{a,b,c} = sum over (j,k) in Z^2 of q^(a j^2 + b j k + c k^2)."""
    a, b, c = spec
    if a <= 0 or 4 * a * c - b * b <= 0:
        raise QSeriesError("form (%d,%d,%d) is not positive definite" % spec)
    if order < 0:
        raise QSeriesError("precision q^%d is negative" % order)
    disc = 4 * a * c - b * b
    out = [0] * (order + 1)
    jmax = isqrt(4 * c * order // disc) + 2
    kmax = isqrt(4 * a * order // disc) + 2
    for j in range(-jmax, jmax + 1):
        for k in range(-kmax, kmax + 1):
            v = a * j * j + b * j * k + c * k * k
            if 0 <= v <= order:
                out[v] += 1
    return QExpansion(0, out)


def phi_expand(order: int) -> QExpansion:
    """phi(q) = sum_{j in Z} q^(j^2)."""
    if order < 0:
        raise QSeriesError("precision q^%d is negative" % order)
    out = [0] * (order + 1)
    out[0] = 1
    j = 1
    while j * j <= order:
        out[j * j] += 2
        j += 1
    return QExpansion(0, out)


def psi_expand(order: int) -> QExpansion:
    """psi(q) = sum_{j >= 0} q^(j(j+1)/2)."""
    if order < 0:
        raise QSeriesError("precision q^%d is negative" % order)
    out = [0] * (order + 1)
    j = 0
    while j * (j + 1) // 2 <= order:
        out[j * (j + 1) // 2] += 1
        j += 1
    return QExpansion(0, out)


def _legendre13(j: int) -> int:
    r = j % 13
    if r == 0:
        return 0
    return 1 if r in (1, 3, 4, 9, 10, 12) else -1


_EISENSTEIN = {"P": (-24, 1), "Q": (240, 3), "R": (-504, 5)}


def _divisor_sums(order: int, weight: Callable[[int], int]) -> List[int]:
    """s[n] = sum of weight(d) over the divisors d of n, for n <= order (a sieve)."""
    s = [0] * (order + 1)
    for d in range(1, order + 1):
        w = weight(d)
        if w:
            for n in range(d, order + 1, d):
                s[n] += w
    return s


def eisenstein_expand(kind: str, order: int) -> QExpansion:
    """P, Q, R with the classical normalizations, or the level-13 series U."""
    if order < 0:
        raise QSeriesError("precision q^%d is negative" % order)
    if kind == "U13":
        mult, s = -1, _divisor_sums(order, lambda d: _legendre13(d) * d)
    elif kind in _EISENSTEIN:
        mult, power = _EISENSTEIN[kind]
        s = _divisor_sums(order, lambda d: d ** power)
    else:
        raise QSeriesError("unknown Eisenstein kind %r" % (kind,))
    return QExpansion(0, [1] + [mult * c for c in s[1:]])


def build_product(spec: tuple, order: int) -> QExpansion:
    """The series of a catalog product spec (see the spec-format comment in
    ``catalog``), known exactly through q^(v + order) for every kind, v its
    valuation: ``prec == normalized().offset + order + 1``.  A caller that
    compares through q^N builds at order N and pads nothing."""
    kind = spec[0]
    if kind == "eta":
        return eta_quotient(spec[1], order)
    if kind == "poch":
        return poch_quotient(spec[1], spec[2], order)
    if kind == "eisenstein13":
        P = eisenstein_expand("P", order)
        return (13 * P.subs_q_power(13) - P) / 12
    if kind == "level1w":
        # Q^(3/2) - R starts at q^1: one more term keeps the quotient's rule
        Qs = eisenstein_expand("Q", order + 1)
        Rs = eisenstein_expand("R", order + 1)
        q32 = Qs.pow_fraction(F(3, 2))
        return (q32 - Rs) / ((q32 + Rs) * 432)
    if kind == "hauptmodul":
        w = build_product(spec[1], order)
        return w / poly_at_series(Poly(spec[2]), w)
    if kind == "eta_theta_sq":
        return (eta_quotient(spec[1], order) / theta_expand(spec[2], order)) ** 2
    if kind == "eta_over_theta_sum":
        _, eta, th1, th2, scale = spec
        num = eta_quotient(eta, order) * scale
        return num / (theta_expand(th1, order) + theta_expand(th2, order))
    raise QSeriesError("unknown product spec %r" % (kind,))


def power_chain(X: QExpansion, k_max: int) -> List[QExpansion]:
    """[1, X, X^2, ..., X^k_max], each power cut at X's precision, so a sum
    over them is known as far as X: through q^(X.prec - 1).

    Each power is the one before times X.  When X has positive valuation v,
    X^k starts at q^(k v) and the chain stops at the first power that would
    start at or past X's precision, since it adds nothing known: zip it
    with the coefficients."""
    Xn = X.normalized()
    prec = Xn.prec
    powers = [_embed_scalar(1, prec), Xn][:max(k_max + 1, 0)]
    while len(powers) <= k_max and powers[-1].offset + Xn.offset < prec:
        powers.append((powers[-1] * Xn).truncate_abs(prec - 1))
    return powers


def poly_at_series(p: Poly, X: QExpansion) -> QExpansion:
    """p(X) = sum p_k X^k, known as far as X: through q^(X.prec - 1), from
    q^0.  X must have positive valuation.  The powers are one
    ``power_chain`` and the sum is one ``linear_combination``."""
    Xn = X.normalized()
    if Xn.offset <= 0:
        raise QSeriesError("polynomial substitution needs valuation >= 1")
    coeffs = [_exact(c) for c in p.coeffs]  # those past the chain are refused too
    return linear_combination(zip(coeffs, power_chain(Xn, len(coeffs) - 1)))


# ---------------------------------------------------------------------------
# (X, Z) construction and the coefficient extraction
# ---------------------------------------------------------------------------


def build_xz(row: LevelRow | WeightRow, order: int) -> Tuple[QExpansion, QExpansion]:
    """The pair (X, Z) for a catalog level or weight row, verified to have
    X = q + O(q^2) and Z = 1 + O(q); raises "definition inconsistent" otherwise.
    X is known exactly through q^(order + 1) and Z through q^order."""
    X = build_product(row.x, order).normalized()
    if X.offset != 1 or X.coefficient(1) != 1:
        raise QSeriesError("definition inconsistent: X of %s starts %s q^%s"
                           % (row.key, X.coefficient(X.offset), X.offset))
    Z = build_product(row.z, order)
    if row.z_xexp:
        Z = Z / X.pow_fraction(row.z_xexp)
    Z = Z.normalized()
    if Z.offset != 0 or Z.coefficient(0) != 1:
        raise QSeriesError("definition inconsistent: Z of %s starts %s q^%s"
                           % (row.key, Z.coefficient(Z.offset), Z.offset))
    return X, Z


def expansion_coefficients(Z: QExpansion, X: QExpansion, n_max: int) -> List[Scalar]:
    """Solve Z = sum T(n) X^n for T(0..n_max) by successive subtraction."""
    Xn = X.normalized()
    if Xn.offset != 1:
        raise QSeriesError("X must have valuation exactly 1")
    if Z.prec <= n_max or X.prec <= n_max + 1:
        raise QSeriesError("need q-precision beyond %d to extract %d coefficients"
                           % (n_max, n_max + 1))
    out: List[Scalar] = []
    rem = Z
    # X^n with leading coefficient lead^n, known only through q^n_max (so is
    # rem after its first subtraction): nothing above q^n_max is ever read
    xpow = _embed_scalar(1, n_max + 1)
    lead = Xn.coefficient(1)
    leadpow = F(1)
    for n in range(n_max + 1):
        c = rem.coefficient(n) / leadpow
        out.append(int(c) if c.denominator == 1 else c)
        rem = rem - xpow * c
        if n < n_max:
            xpow = (xpow * X).truncate_abs(n_max)
        leadpow *= lead
    return out


# ---------------------------------------------------------------------------
# Verifiers
# ---------------------------------------------------------------------------


def _check_order(order: int) -> None:
    if order < 1:
        raise QSeriesError("verification order must be >= 1, got %s" % (order,))


def verify_level_row(row: LevelRow, order: int = 30) -> Tuple[Check, Check]:
    """The differentiation formula (q dX/dq)^2 == Z^2 X^2 G(X) (squared form,
    no roots) and the ODE D^2 Z - (DZ)^2/(2Z) == H(X) Z with D = (1/Z) q d/dq,
    each through q^order, from one build of (X, Z).  Returns
    ((ok, first mismatch), (ok, first mismatch)) for the two in that order.

    One power chain of X serves X^2 G(X), H_num(X) and H_den(X), and one
    Z^2 serves both checks.  The ODE is compared multiplied by the unit Z,
    as q d(DZ)/dq - (DZ)^2/2 == H(X) Z^2, so it takes one quotient; since
    Z = 1 + O(q), that moves neither the verdict nor the first mismatch."""
    _check_order(order)
    X, Z = build_xz(row, order)
    g, hnum, hden = row.G().coeffs, Poly(row.h_num).coeffs, Poly(row.h_den).coeffs
    chain = power_chain(X, max(len(g) + 1, len(hnum) - 1, len(hden) - 1))
    dX = X.q_derivative()
    Z2 = Z * Z
    diff = qexp_equal(dX * dX, Z2 * linear_combination(zip(g, chain[2:])), order)
    DZ = Z.q_derivative() / Z
    lhs = DZ.q_derivative() - DZ * DZ / 2
    if hden != (1,):
        lhs = lhs * linear_combination(zip(hden, chain))
    return diff, qexp_equal(lhs, linear_combination(zip(hnum, chain)) * Z2, order)


def _expansion_matches(terms: Sequence, z: QExpansion, x: QExpansion,
                       order: int) -> Check:
    """Whether z == sum terms[n] x^n for n <= order; the first n that differs.

    x = q + O(q^2), so the first q-exponent at which the two sides differ
    is the first n whose term differs."""
    return qexp_equal(z, poly_at_series(Poly(terms), x), order)


def verify_weight_one(row: WeightRow, order: int = 30) -> Check:
    """z == sum t(n) x^n and q dx/dq == z^2 x (1 - a x - c x^2), through
    q^order, both sums over one power chain of x."""
    _check_order(order)
    a, b, g = row.triple
    x, z = build_xz(row, order)
    t = generate_terms(recurrence_from_quadratic(a, b, g), order, RING_Z)
    chain = power_chain(x, order)
    ok, where = qexp_equal(z, linear_combination(zip(t, chain)), order)
    if not ok:
        return ok, where
    rhs = z * z * linear_combination(zip((1, -a, -g), chain[1:]))
    return qexp_equal(x.q_derivative(), rhs, order)


def verify_weight_two(row: WeightRow, order: int = 20) -> Check:
    """z == sum s(n) x^n for a cubic-companion table row, through q^order."""
    _check_order(order)
    x, z = build_xz(row, order)
    s = generate_terms(recurrence_from_gh(*asz_gh(*row.triple)), order, RING_Z)
    return _expansion_matches(s, z, x, order)


# -- the identity bank ------------------------------------------------------


def _bank_beukers_apery(order: int):
    x, z = build_xz(catalog.WEIGHT2_ROWS["weight2-6A"], order)
    apery = ORACLES["weight2-6A"]
    return _expansion_matches([apery(n) for n in range(order + 1)], z, x, order)


def _bank_jacobi_phi4(order: int):
    phi = phi_expand(order)
    psi2 = psi_expand(order)
    lhs = phi ** 4
    rhs = phi.subs_q_negated() ** 4 + (psi2.subs_q_power(2) ** 4).shift(1) * 16
    return qexp_equal(lhs, rhs, order)


def _bank_phi_eta(order: int):
    lhs = phi_expand(order)
    rhs = eta_quotient(((2, 5), (1, -2), (4, -2)), order)
    return qexp_equal(lhs, rhs, order)


def _bank_psi_eta(order: int):
    lhs = psi_expand(order).shift(F(1, 8))
    rhs = eta_quotient(((2, 2), (1, -1)), order)
    return qexp_equal(lhs, rhs, order)


def _bank_phi4_eisenstein(order: int):
    P = eisenstein_expand("P", order)
    lhs = phi_expand(order) ** 4
    rhs = (4 * P.subs_q_power(4) - P) / 3
    return qexp_equal(lhs, rhs, order)


def _bank_p_derivative(order: int):
    P = eisenstein_expand("P", order)
    Q = eisenstein_expand("Q", order)
    lhs = P.q_derivative()
    rhs = (P * P - Q) / 12
    return qexp_equal(lhs, rhs, order)


def _bank_laurent(name: str, order: int) -> Check:
    """sum a_k w^k == sum b_k v^k through q^order for the relation
    (level, w, {k: a_k}, v, {k: b_k}) named in catalog.LAURENT_RELATIONS.

    Each side sums one power chain of its eta quotient f and, when its
    most negative power is -K < 0, one of 1/f.  f is built through
    q^(order + K v_f), v_f its valuation, so f^-K is known through q^order."""
    level, w, a, v, b = catalog.LAURENT_RELATIONS[name]
    sides = []
    for symbol, coeffs in ((w, a), (v, b)):
        factors = catalog.ETA_W[level][symbol]
        K = max(0, -min(coeffs))
        f = eta_quotient(factors, order + K * sum(N * e for N, e in factors) // 24)
        top = max(coeffs)
        pairs = list(zip([coeffs.get(k, 0) for k in range(top + 1)], power_chain(f, top)))
        if K:
            pairs += zip([coeffs.get(-k, 0) for k in range(1, K + 1)],
                         power_chain(1 / f, K)[1:])
        sides.append(linear_combination(pairs))
    return qexp_equal(*sides, order)


def _level13_w_d_u(order: int):
    """w, D(w) and U at level 13, where X = w / D(w) is the level13 row's X."""
    _, w_spec, D = catalog.LEVEL_ROWS["level13"].x
    w = build_product(w_spec, order)
    return w, poly_at_series(Poly(D), w), eisenstein_expand("U13", order)


def _bank_level13_eta1(order: int):
    w, D, U = _level13_w_d_u(order)
    lhs = eta_quotient(((1, 24),), order)
    rhs = U ** 6 * w / D ** 4
    return qexp_equal(lhs, rhs, order)


def _bank_level13_eta13(order: int):
    w, D, U = _level13_w_d_u(order)
    lhs = eta_quotient(((13, 24),), order)
    rhs = U ** 6 * w ** 13 / D ** 4
    return qexp_equal(lhs, rhs, order)


def _bank_level13_zsquared(order: int):
    w, D, U = _level13_w_d_u(order)
    X, Z = build_xz(catalog.LEVEL_ROWS["level13"], order)
    lhs = Z * Z
    rhs = U * U * D
    return qexp_equal(lhs, rhs, order)


def _bank_level13_zstar_eta(order: int):
    row = catalog.LEVEL_ROWS["level13star"]
    X, Z = build_xz(row, order)
    one = _embed_scalar(1, X.prec)
    lhs = Z
    rhs = (eta_quotient(((1, 2), (13, 2)), order)
           * (one - X).pow_fraction(F(2, 3)) / X.pow_fraction(F(7, 6)))
    return qexp_equal(lhs, rhs, order)


def _bank_sum_eight_squares(order: int):
    Qs = eisenstein_expand("Q", order)
    phi = phi_expand(order)
    psi = psi_expand(order)
    lhs = 16 * Qs.subs_q_power(4) + Qs
    rhs = (16 * phi ** 8 + phi.subs_q_negated() ** 8
           + 256 * (psi.subs_q_power(2) ** 8).shift(2))
    return qexp_equal(lhs, rhs, order)


IDENTITY_BANK: Dict[str, Callable[[int], Check]] = {
    "beukers-apery": _bank_beukers_apery,
    "jacobi-phi4": _bank_jacobi_phi4,
    "phi-eta": _bank_phi_eta,
    "psi-eta": _bank_psi_eta,
    "phi4-eisenstein": _bank_phi4_eisenstein,
    "eisenstein-p-derivative": _bank_p_derivative,
    **{name: partial(_bank_laurent, name) for name in catalog.LAURENT_RELATIONS},
    "level13-eta1-24": _bank_level13_eta1,
    "level13-eta13-24": _bank_level13_eta13,
    "level13-zsquared": _bank_level13_zsquared,
    "level13-zstar-eta": _bank_level13_zstar_eta,
    "sum-eight-squares": _bank_sum_eight_squares,
}


def verify_identity_bank(name: str, order: int = 30) -> Check:
    if name not in IDENTITY_BANK:
        raise catalog.UnknownKeyError("unknown identity %r" % (name,))
    _check_order(order)
    return IDENTITY_BANK[name](order)


# -- level 14/15 deformed X: which side the printed series matches ----------


def epsilon_x_expansion(level: int, eps: int, order: int = 8) -> Tuple[QExpansion, QExpansion]:
    """(X_eps, 1/X_eps) for the level-14/15 family at a concrete eps, with
    X_eps = w / (1 + eps w + sigma w^2) known through q^(order + 4)."""
    family = catalog.epsilon_family(level)
    w = ("eta", catalog.ETA_W[level][family.w])
    X = build_product(("hauptmodul", w, (1, eps, family.sigma)), order + 3)
    return X, 1 / X


# The level-14 family's printed expansion "1/q + (eps-3) + 11q + 20q^2 +
# 57q^3 + 92q^4 + 207q^5" with eps only in the constant term.  It matches
# 1/X_eps, not X_eps; printed_x14_matches_reciprocal records which.
PRINTED_X14_SERIES = [1, -3, 11, 20, 57, 92, 207]  # exponents -1..5, eps removed


def printed_x14_matches_reciprocal(order: int = 5) -> bool:
    """Whether the printed series is 1/X_eps - eps, not X_eps, through q^order
    for 0 <= order <= 5, the exponents it prints; other orders raise."""
    if order < 0:
        raise QSeriesError("comparison through q^%s: need order >= 0" % (order,))
    if order > len(PRINTED_X14_SERIES) - 2:
        raise QSeriesError("comparison through q^%s: the printed series stops at q^%d"
                           % (order, len(PRINTED_X14_SERIES) - 2))
    for eps in (0, 4):
        X, inv = epsilon_x_expansion(14, eps, order + 2)
        shifted = inv - eps
        for i, c in enumerate(PRINTED_X14_SERIES[: order + 2]):
            if shifted.coefficient(i - 1) != c:
                return False
        # X_eps itself starts at q^1; it has no 1/q term at all
        if X.normalized().offset != 1:
            return False
    return True
