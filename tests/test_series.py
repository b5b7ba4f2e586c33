"""The Clausen-type checks and the level-14/15 generating-function check.

The differential tests run the checks against the FormalSeries-based
implementation they replaced.  That reference is kept below verbatim apart
from its names; it looks up ``series.generate_terms`` and the catalog at
call time, so a patched term stream or reference series reaches both sides.
"""

import random
from fractions import Fraction
from math import comb
from typing import List, Optional, Sequence, Tuple

import pytest

from aperylike import catalog, series
from aperylike.qseries import QExpansion, qexp_equal
from aperylike.recurrence import cubic_from_quadratic_asz, recurrence_from_quadratic
from aperylike.rings import RING_Q, QuadElem, Scalar
from aperylike.series import verify_asz, verify_ctyz, verify_gf_independence


# ---------------------------------------------------------------------------
# The reference implementation
# ---------------------------------------------------------------------------


class RefSeriesError(ArithmeticError):
    pass


class RefSeries:
    """Coefficients c0..cN of a series known modulo x^(N+1)."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Sequence[Scalar]):
        if not coeffs:
            raise RefSeriesError("a series needs at least the constant term")
        object.__setattr__(self, "coeffs", list(coeffs))

    def __setattr__(self, *args):
        raise AttributeError("RefSeries is immutable")

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

    def truncate(self, order: int) -> "RefSeries":
        return RefSeries(self.coeffs[: order + 1])

    def __eq__(self, other):
        if isinstance(other, RefSeries):
            n = min(self.order, other.order)
            return all(self.coeffs[i] == other.coeffs[i] for i in range(n + 1))
        return NotImplemented

    def __hash__(self):
        return hash(tuple(self.coeffs))

    def first_mismatch(self, other: "RefSeries") -> Optional[int]:
        """Index of the first differing known coefficient, None if equal."""
        n = min(self.order, other.order)
        for i in range(n + 1):
            if self.coeffs[i] != other.coeffs[i]:
                return i
        return None

    def __add__(self, other):
        if not isinstance(other, RefSeries):
            other = RefSeries([other] + [0] * self.order)
        n = min(self.order, other.order)
        return RefSeries([self[i] + other[i] for i in range(n + 1)])

    __radd__ = __add__

    def __neg__(self):
        return RefSeries([-c for c in self.coeffs])

    def __sub__(self, other):
        if not isinstance(other, RefSeries):
            other = RefSeries([other])
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, RefSeries):
            return RefSeries([c * other for c in self.coeffs])
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
        return RefSeries(out)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if not isinstance(other, RefSeries):
            return RefSeries([_exact_div(c, other) for c in self.coeffs])
        if not other.coeffs[0]:
            raise RefSeriesError("division by a series with zero constant term")
        n = min(self.order, other.order)
        inv_lead = other.coeffs[0]
        out: List[Scalar] = []
        for i in range(n + 1):
            acc = self[i]
            for j in range(1, i + 1):
                acc = acc - other[j] * out[i - j]
            out.append(_exact_div(acc, inv_lead))
        return RefSeries(out)

    def __rtruediv__(self, other):
        return RefSeries([other] + [0] * self.order) / self

    def __pow__(self, e: int):
        out = RefSeries([1] + [0] * self.order)
        base = self
        while e:
            if e & 1:
                out = out * base
            base = base * base
            e >>= 1
        return out

    def compose(self, inner: "RefSeries") -> "RefSeries":
        """self(inner(x)) for inner with zero constant term."""
        if inner.coeffs[0]:
            raise RefSeriesError("composition needs an inner series with zero constant term")
        n = min(self.order, inner.order)
        out = RefSeries([self.coeffs[0]] + [0] * n)
        power = RefSeries([1] + [0] * n)
        for k in range(1, n + 1):
            power = (power * inner).truncate(n)
            if self[k]:
                out = out + self[k] * power
        return out.truncate(n)

    def __repr__(self):
        head = ", ".join(str(c) for c in self.coeffs[:8])
        return "RefSeries([%s%s])" % (head, ", ..." if self.order >= 8 else "")


def _exact_div(x: Scalar, y: Scalar) -> Scalar:
    if isinstance(x, QuadElem) or isinstance(y, QuadElem):
        num = x if isinstance(x, QuadElem) else QuadElem(y.d, x, 0)
        return num / y
    q = Fraction(x) / Fraction(y)
    return int(q) if q.denominator == 1 else q


def geometric_over(denom: Sequence[Scalar], order: int) -> RefSeries:
    """x / (denom polynomial in x) as a series to the given order."""
    num = RefSeries([0, 1] + [0] * (order - 1))
    den = RefSeries(list(denom) + [0] * (order + 1 - len(denom)))
    return num / den


def ref_check_order(order: int) -> None:
    # order 0 would compare nothing and PASS
    if order < 1:
        raise ValueError("order must be >= 1, got %d" % order)


def ref_verify_asz(alpha: Scalar, beta: Scalar, gamma: Scalar, order: int = 30
                   ) -> Tuple[bool, Optional[int]]:
    """x (sum t(n) x^n)^2 == sum s(n) (x/(1 - a x - c x^2))^(n+1) to x^order.

    t satisfies the weight-one relation, s its cubic companion.  Returns
    (ok, first mismatching exponent).
    """
    ref_check_order(order)
    # arbitrary triples give rational terms (the division by (n+1)^2 need
    # not be exact), so both streams run in the fraction field
    t = series.generate_terms(recurrence_from_quadratic(alpha, beta, gamma), order, RING_Q)
    z = RefSeries(t)
    lhs = (RefSeries([0, 1] + [0] * (order - 1)) * (z * z)).truncate(order)
    s = series.generate_terms(cubic_from_quadratic_asz(alpha, beta, gamma), order, RING_Q)
    u = geometric_over([1, -alpha, -gamma], order)
    rhs = RefSeries([0] * (order + 1))
    upow = RefSeries([1] + [0] * order)
    for n in range(order):
        upow = (upow * u).truncate(order)
        rhs = rhs + s[n] * upow
    mism = lhs.first_mismatch(rhs)
    return mism is None, mism


def ref_verify_ctyz(alpha: Scalar, beta: Scalar, gamma: Scalar, order: int = 30
                    ) -> Tuple[bool, Optional[int]]:
    """(sum t(n) x^n)^2 == (1+c x^2)^-1 sum binom(2n,n) t(n) v^n with
    v = x(1 - a x - c x^2)/(1 + c x^2)^2, to x^order."""
    ref_check_order(order)
    t = series.generate_terms(recurrence_from_quadratic(alpha, beta, gamma), order, RING_Q)
    z = RefSeries(t)
    lhs = (z * z).truncate(order)
    one = RefSeries([1] + [0] * order)
    den = RefSeries([1, 0, gamma] + [0] * (order - 2))
    v = (RefSeries([0, 1] + [0] * (order - 1))
         * RefSeries([1, -alpha, -gamma] + [0] * (order - 2))) / (den * den)
    rhs = RefSeries([0] * (order + 1))
    vpow = one
    for n in range(order + 1):
        if n:
            vpow = (vpow * v).truncate(order)
        rhs = rhs + (comb(2 * n, n) * t[n]) * vpow
    rhs = rhs / den
    mism = lhs.first_mismatch(rhs)
    return mism is None, mism


def ref_verify_gf_independence(level: int, order: int = 6) -> Tuple[bool, Optional[str]]:
    """All special-eps generating functions of a level-14/15 family agree:

        sum_n T_eps(n) (w / (1 + eps w + sigma w^2))^(n+1)

    is one fixed series; it must also match the committed reference prefix.
    Returns (ok, description of the first failure).
    """
    family = catalog.EPSILON_FAMILIES[level]
    reference = catalog.REFERENCE_GF_SERIES[level]
    ref = RefSeries(reference[: order + 1])
    computed = []
    for name, eps in family.specials:
        sdef = family.specialize(eps)
        terms = series.generate_terms(sdef.spec, order, sdef.ring)
        u = geometric_over([1, eps, family.sigma], order)
        total = RefSeries([0] * (order + 1))
        upow = RefSeries([1] + [0] * order)
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


# ---------------------------------------------------------------------------
# The checks
# ---------------------------------------------------------------------------


def test_asz_sporadic_and_arbitrary():
    assert verify_asz(-17, -6, -72, 30) == (True, None)
    assert verify_asz(11, 3, 1, 30) == (True, None)
    assert verify_asz(1, 1, 1, 10) == (True, None)


def test_ctyz_sporadic_and_degenerate():
    assert verify_ctyz(7, 2, 8, 30) == (True, None)
    assert verify_ctyz(-9, -3, -27, 30) == (True, None)
    assert verify_ctyz(1, 1, 0, 10) == (True, None)


def test_identities_hold_for_random_triples():
    rng = random.Random(20260808)
    for _ in range(20):
        trip = (rng.randint(-12, 12), rng.randint(-12, 12), rng.randint(-12, 12))
        assert verify_asz(*trip, order=15) == (True, None), trip
        assert verify_ctyz(*trip, order=15) == (True, None), trip


def test_gf_independence_matches_printed_series():
    ok, why = verify_gf_independence(14, 6)
    assert ok, why
    ok, why = verify_gf_independence(15, 6)
    assert ok, why


def test_gf_independence_needs_a_family_level():
    with pytest.raises(catalog.UnknownKeyError, match="^no epsilon family at level 13$"):
        verify_gf_independence(13)


def test_gf_independence_surd_parts_cancel():
    # each conjugate-pair special alone has a rational generating function:
    # its sqrt(d) part vanishes and its rational part is the common series
    for level, eps in ((14, QuadElem(2, 0, 4)), (15, QuadElem(-1, 0, 2))):
        A, B = series._special_gf(catalog.EPSILON_FAMILIES[level], eps, 8)
        assert qexp_equal(B, QExpansion(0, [0] * 9), 8) == (True, None)
        reference = catalog.REFERENCE_GF_SERIES[level]
        assert qexp_equal(A, QExpansion(0, reference), len(reference) - 1) == (True, None)


def test_clausen_checks_reject_an_empty_order():
    for fn in (verify_asz, verify_ctyz):
        assert fn(7, -8, 0, order=1) == (True, None)
        for order in (0, -4):
            with pytest.raises(ValueError, match="order must be >= 1"):
                fn(7, -8, 0, order=order)
    for order in (0, -4):
        with pytest.raises(ValueError, match="order must be >= 1"):
            verify_gf_independence(14, order)


# ---------------------------------------------------------------------------
# Against the reference
# ---------------------------------------------------------------------------

ORDERS = (1, 2, 3, 15, 30)
CHECKS = ((verify_asz, ref_verify_asz), (verify_ctyz, ref_verify_ctyz))


def _seeded_triples(count: int) -> List[Tuple[int, int, int]]:
    rng = random.Random(20261018)
    return [(rng.randint(-40, 40), rng.randint(-40, 40), rng.randint(-40, 40))
            for _ in range(count)]


TRIPLES = list(catalog.SPORADIC_SET) + _seeded_triples(20)


@pytest.mark.parametrize("order", ORDERS)
def test_clausen_checks_match_reference(order):
    for new, ref in CHECKS:
        for trip in TRIPLES:
            got = new(*trip, order=order)
            assert got == ref(*trip, order=order), (new.__name__, trip)
            assert got == (True, None), (new.__name__, trip)


@pytest.mark.parametrize("order", ORDERS)
def test_clausen_mismatch_matches_reference(order, monkeypatch):
    # one corrupted term must fail both implementations at the same exponent
    generate_terms = series.generate_terms
    for k in sorted({0, 3, order - 1}):
        if k >= order:
            continue

        def corrupted(*args, k=k):
            terms = generate_terms(*args)
            terms[k] += 1
            return terms
        monkeypatch.setattr(series, "generate_terms", corrupted)
        for new, ref in CHECKS:
            for trip in catalog.SPORADIC_SET + ((3, -5, 0),):
                got = new(*trip, order=order)
                assert got == ref(*trip, order=order), (new.__name__, trip, k)
                ok, m = got
                assert not ok and type(m) is int and m <= order, (new.__name__, trip, k)


@pytest.mark.parametrize("order", (1, 6, 8))
@pytest.mark.parametrize("level", (14, 15))
def test_gf_independence_matches_reference(level, order):
    assert verify_gf_independence(level, order) == ref_verify_gf_independence(level, order)


@pytest.mark.parametrize("index", range(7))
@pytest.mark.parametrize("level", (14, 15))
def test_gf_independence_catches_a_changed_reference(level, index, monkeypatch):
    table = {lv: list(prefix) for lv, prefix in catalog.REFERENCE_GF_SERIES.items()}
    table[level][index] += 1
    monkeypatch.setattr(catalog, "REFERENCE_GF_SERIES", table)
    got = verify_gf_independence(level, 6)
    assert got == ref_verify_gf_independence(level, 6)
    assert got == (False, "%s vs reference series differ at w^%d"
                   % (catalog.EPSILON_FAMILIES[level].specials[0][0], index))
