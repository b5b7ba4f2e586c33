"""Truncated formal power series over exact scalars, plus the Clausen-type
identity checks that relate weight-one and weight-two sequences and the
generating-function independence of the level-14/15 families.

A FormalSeries holds coefficients c0..cN; operations never claim
coefficients beyond what both operands determine.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb
from typing import List, Optional, Sequence, Tuple

from . import catalog
from .recurrence import generate_terms, recurrence_from_quadratic, cubic_from_quadratic_asz
from .rings import QuadElem, RING_Q, Scalar


class SeriesError(ArithmeticError):
    pass


class FormalSeries:
    """Coefficients c0..cN of a series known modulo x^(N+1)."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Sequence[Scalar]):
        if not coeffs:
            raise SeriesError("a series needs at least the constant term")
        object.__setattr__(self, "coeffs", list(coeffs))

    def __setattr__(self, *args):
        raise AttributeError("FormalSeries is immutable")

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def valuation(self) -> Optional[int]:
        for i, c in enumerate(self.coeffs):
            if c:
                return i
        return None  # zero within the known range

    def __getitem__(self, i: int) -> Scalar:
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else 0

    def truncate(self, order: int) -> "FormalSeries":
        return FormalSeries(self.coeffs[: order + 1])

    def __eq__(self, other):
        if isinstance(other, FormalSeries):
            n = min(self.order, other.order)
            return all(self.coeffs[i] == other.coeffs[i] for i in range(n + 1))
        return NotImplemented

    def __hash__(self):
        return hash(tuple(self.coeffs))

    def first_mismatch(self, other: "FormalSeries") -> Optional[int]:
        """Index of the first differing known coefficient, None if equal."""
        n = min(self.order, other.order)
        for i in range(n + 1):
            if self.coeffs[i] != other.coeffs[i]:
                return i
        return None

    def __add__(self, other):
        if not isinstance(other, FormalSeries):
            other = FormalSeries([other] + [0] * self.order)
        n = min(self.order, other.order)
        return FormalSeries([self[i] + other[i] for i in range(n + 1)])

    __radd__ = __add__

    def __neg__(self):
        return FormalSeries([-c for c in self.coeffs])

    def __sub__(self, other):
        if not isinstance(other, FormalSeries):
            other = FormalSeries([other])
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, FormalSeries):
            return FormalSeries([c * other for c in self.coeffs])
        va, vb = self.valuation(), other.valuation()
        va = self.order + 1 if va is None else va
        vb = other.order + 1 if vb is None else vb
        n = min(self.order + vb, other.order + va)
        out = [0] * (n + 1)
        for i, a in enumerate(self.coeffs):
            if not a or i > n:
                continue
            for j, b in enumerate(other.coeffs):
                if i + j > n:
                    break
                if b:
                    out[i + j] = out[i + j] + a * b
        return FormalSeries(out)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if not isinstance(other, FormalSeries):
            return FormalSeries([_exact_div(c, other) for c in self.coeffs])
        if not other.coeffs[0]:
            raise SeriesError("division by a series with zero constant term")
        n = min(self.order, other.order)
        inv_lead = other.coeffs[0]
        out: List[Scalar] = []
        for i in range(n + 1):
            acc = self[i]
            for j in range(1, i + 1):
                acc = acc - other[j] * out[i - j]
            out.append(_exact_div(acc, inv_lead))
        return FormalSeries(out)

    def __rtruediv__(self, other):
        return FormalSeries([other] + [0] * self.order) / self

    def __pow__(self, e: int):
        out = FormalSeries([1] + [0] * self.order)
        base = self
        while e:
            if e & 1:
                out = out * base
            base = base * base
            e >>= 1
        return out

    def compose(self, inner: "FormalSeries") -> "FormalSeries":
        """self(inner(x)) for inner with zero constant term."""
        if inner.coeffs[0]:
            raise SeriesError("composition needs an inner series with zero constant term")
        n = min(self.order, inner.order)
        out = FormalSeries([self.coeffs[0]] + [0] * n)
        power = FormalSeries([1] + [0] * n)
        for k in range(1, n + 1):
            power = (power * inner).truncate(n)
            if self[k]:
                out = out + self[k] * power
        return out.truncate(n)

    def __repr__(self):
        head = ", ".join(str(c) for c in self.coeffs[:8])
        return "FormalSeries([%s%s])" % (head, ", ..." if self.order >= 8 else "")


def _exact_div(x: Scalar, y: Scalar) -> Scalar:
    if isinstance(x, QuadElem) or isinstance(y, QuadElem):
        num = x if isinstance(x, QuadElem) else QuadElem(y.d, x, 0)
        return num / y
    q = Fraction(x) / Fraction(y)
    return int(q) if q.denominator == 1 else q


def series_arith(a: FormalSeries, b: FormalSeries, op: str) -> FormalSeries:
    if op == "add":
        return a + b
    if op == "mul":
        return a * b
    if op == "div":
        return a / b
    raise ValueError("op must be add, mul or div")


def compose(outer: FormalSeries, inner: FormalSeries) -> FormalSeries:
    return outer.compose(inner)


def geometric_over(denom: Sequence[Scalar], order: int) -> FormalSeries:
    """x / (denom polynomial in x) as a series to the given order."""
    num = FormalSeries([0, 1] + [0] * (order - 1))
    den = FormalSeries(list(denom) + [0] * (order + 1 - len(denom)))
    return num / den


# ---------------------------------------------------------------------------
# Identity checks
# ---------------------------------------------------------------------------


def _check_order(order: int) -> None:
    # order 0 would compare nothing and PASS
    if order < 1:
        raise ValueError("order must be >= 1, got %d" % order)


def verify_asz(alpha: Scalar, beta: Scalar, gamma: Scalar, order: int = 30
               ) -> Tuple[bool, Optional[int]]:
    """x (sum t(n) x^n)^2 == sum s(n) (x/(1 - a x - c x^2))^(n+1) to x^order.

    t satisfies the weight-one relation, s its cubic companion.  Returns
    (ok, first mismatching exponent).
    """
    _check_order(order)
    # arbitrary triples give rational terms (the division by (n+1)^2 need
    # not be exact), so both streams run in the fraction field
    t = generate_terms(recurrence_from_quadratic(alpha, beta, gamma), order, RING_Q)
    z = FormalSeries(t)
    lhs = (FormalSeries([0, 1] + [0] * (order - 1)) * (z * z)).truncate(order)
    s = generate_terms(cubic_from_quadratic_asz(alpha, beta, gamma), order, RING_Q)
    u = geometric_over([1, -alpha, -gamma], order)
    rhs = FormalSeries([0] * (order + 1))
    upow = FormalSeries([1] + [0] * order)
    for n in range(order):
        upow = (upow * u).truncate(order)
        rhs = rhs + s[n] * upow
    mism = lhs.first_mismatch(rhs)
    return mism is None, mism


def verify_ctyz(alpha: Scalar, beta: Scalar, gamma: Scalar, order: int = 30
                ) -> Tuple[bool, Optional[int]]:
    """(sum t(n) x^n)^2 == (1+c x^2)^-1 sum binom(2n,n) t(n) v^n with
    v = x(1 - a x - c x^2)/(1 + c x^2)^2, to x^order."""
    _check_order(order)
    t = generate_terms(recurrence_from_quadratic(alpha, beta, gamma), order, RING_Q)
    z = FormalSeries(t)
    lhs = (z * z).truncate(order)
    one = FormalSeries([1] + [0] * order)
    den = FormalSeries([1, 0, gamma] + [0] * (order - 2))
    v = (FormalSeries([0, 1] + [0] * (order - 1))
         * FormalSeries([1, -alpha, -gamma] + [0] * (order - 2))) / (den * den)
    rhs = FormalSeries([0] * (order + 1))
    vpow = one
    for n in range(order + 1):
        if n:
            vpow = (vpow * v).truncate(order)
        rhs = rhs + (comb(2 * n, n) * t[n]) * vpow
    rhs = rhs / den
    mism = lhs.first_mismatch(rhs)
    return mism is None, mism


def _all_int(*xs) -> bool:
    return all(isinstance(x, int) for x in xs)


def verify_gf_independence(level: int, order: int = 6) -> Tuple[bool, Optional[str]]:
    """All special-eps generating functions of a level-14/15 family agree:

        sum_n T_eps(n) (w / (1 + eps w + sigma w^2))^(n+1)

    is one fixed series; it must also match the committed reference prefix.
    Returns (ok, description of the first failure).
    """
    family = catalog.EPSILON_FAMILIES[level]
    reference = catalog.REFERENCE_GF_SERIES[level]
    ref = FormalSeries(reference[: order + 1])
    computed = []
    for name, eps in family.specials:
        sdef = catalog.epsilon_specialize(family, eps)
        terms = generate_terms(sdef.spec(), order, sdef.ring)
        u = geometric_over([1, eps, family.sigma], order)
        total = FormalSeries([0] * (order + 1))
        upow = FormalSeries([1] + [0] * order)
        for n in range(order):
            upow = (upow * u).truncate(order)
            total = total + terms[n] * upow
        computed.append((name, total))
    base_name, base = computed[0]
    for name, total in computed[1:]:
        m = base.first_mismatch(total)
        if m is not None:
            return False, "%s vs %s differ at w^%d" % (base_name, name, m)
    m = base.first_mismatch(ref)
    if m is not None:
        return False, "%s vs reference series differ at w^%d" % (base_name, m)
    return True, None
