"""Differential tests: the integer-coefficient QExpansion kernel against
the Fraction-per-coefficient reference it replaced.

The reference below is the previous implementation, kept verbatim apart
from its names.  ``reference_kernel`` swaps it into ``aperylike.qseries``,
so the module's builders (eta and theta products, Eisenstein series, the
(X, Z) pairs, the identity bank) run unchanged on either kernel and their
outputs can be compared coefficient by coefficient.

The eta and Pochhammer quotient builders are also kept as references: the
previous ones multiplied and divided by repeated-squaring powers of each
factor, where ``qseries`` now solves one logarithmic-derivative recurrence.
They build through ``qseries.QExpansion``, so inside ``reference_kernel`` they
run on the reference kernel and outside it on the integer kernel.

Series division is also kept as a reference: the previous integer
``QExpansion.__truediv__`` (``ref_lead_power_div``) scaled by powers of the
divisor's leading numerator, where ``qseries`` now carries the quotient over
one running denominator.  Both must give the same (offset, num, den).

``qseries.linear_combination``, which ``+`` and ``-`` now call, is checked
against the chain of ``+`` and scalar ``*`` it replaces, run on the
reference kernel (``chain_combination``): the same series, or the same
QSeriesError at the same pair.
"""

from contextlib import contextmanager
from fractions import Fraction
from math import floor, gcd
from operator import mul
from typing import List, Optional, Sequence, Tuple

import pytest
from hypothesis import Phase, given, settings, strategies as st

from aperylike import catalog, qseries
from aperylike.qseries import QSeriesError, _legendre13, _make, _ratio

F = Fraction


# ---------------------------------------------------------------------------
# The reference kernel
# ---------------------------------------------------------------------------


class RefQExpansion:
    """q^offset * sum(coeffs[i] q^i), known exactly below q^(offset+len)."""

    __slots__ = ("offset", "coeffs")

    def __init__(self, offset, coeffs: Sequence):
        object.__setattr__(self, "offset", F(offset))
        object.__setattr__(self, "coeffs", [F(c) for c in coeffs])
        if not self.coeffs:
            raise QSeriesError("empty coefficient list")

    def __setattr__(self, *args):
        raise AttributeError("RefQExpansion is immutable")

    # -- structure ------------------------------------------------------

    @property
    def prec(self) -> Fraction:
        """First exponent at which the expansion is unknown."""
        return self.offset + len(self.coeffs)

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def normalized(self) -> "RefQExpansion":
        """Strip leading zero coefficients into the offset."""
        i = 0
        while i < len(self.coeffs) and self.coeffs[i] == 0:
            i += 1
        if i == 0:
            return self
        if i == len(self.coeffs):
            raise QSeriesError("series is zero to working precision")
        return RefQExpansion(self.offset + i, self.coeffs[i:])

    def coefficient(self, exponent) -> Fraction:
        """Exact coefficient of q^exponent; exponent must be below prec."""
        e = F(exponent)
        if e >= self.prec:
            raise QSeriesError("coefficient of q^%s is beyond precision" % e)
        rel = e - self.offset
        if rel.denominator != 1 or rel < 0:
            return F(0)
        return self.coeffs[int(rel)]

    # -- arithmetic -------------------------------------------------------

    def __neg__(self):
        return RefQExpansion(self.offset, [-c for c in self.coeffs])

    def _add(self, other: "RefQExpansion", sign: int) -> "RefQExpansion":
        shift = other.offset - self.offset
        if shift.denominator != 1:
            raise QSeriesError("offsets differ by a non-integer: %s vs %s"
                               % (self.offset, other.offset))
        shift = int(shift)
        off = min(self.offset, other.offset)
        prec = min(self.prec, other.prec)
        n = int(prec - off)
        out = [F(0)] * n
        base = int(self.offset - off)
        for i, c in enumerate(self.coeffs):
            if 0 <= base + i < n:
                out[base + i] += c
        base = int(other.offset - off)
        for i, c in enumerate(other.coeffs):
            if 0 <= base + i < n:
                out[base + i] += sign * c
        if not out:
            raise QSeriesError("empty overlap in addition")
        return RefQExpansion(off, out)

    def __add__(self, other):
        if isinstance(other, RefQExpansion):
            return self._add(other, +1)
        return self._add(ref_embed_scalar(other, self.prec), +1)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, RefQExpansion):
            return self._add(other, -1)
        return self._add(ref_embed_scalar(other, self.prec), -1)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, RefQExpansion):
            return RefQExpansion(self.offset, [c * other for c in self.coeffs])
        a, b = self.normalized(), other.normalized()
        n = min(len(a.coeffs), len(b.coeffs))
        out = [F(0)] * n
        for i, x in enumerate(a.coeffs[:n]):
            if not x:
                continue
            for j, y in enumerate(b.coeffs[: n - i]):
                if y:
                    out[i + j] += x * y
        return RefQExpansion(a.offset + b.offset, out)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if not isinstance(other, RefQExpansion):
            inv = F(1) / F(other)
            return RefQExpansion(self.offset, [c * inv for c in self.coeffs])
        a, b = self.normalized(), other.normalized()
        n = min(len(a.coeffs), len(b.coeffs))
        lead = b.coeffs[0]
        out: List[Fraction] = []
        for i in range(n):
            acc = a.coeffs[i] if i < len(a.coeffs) else F(0)
            for j in range(1, i + 1):
                acc -= b.coeffs[j] * out[i - j]
            out.append(acc / lead)
        return RefQExpansion(a.offset - b.offset, out)

    def __rtruediv__(self, other):
        a = self.normalized()
        return ref_embed_scalar(other, a.offset + len(a.coeffs)) / self

    def __pow__(self, e: int):
        if e < 0:
            return (ref_one_like(self) / self) ** (-e)
        a = self.normalized()
        out = RefQExpansion(0, [F(1)] + [F(0)] * (len(a.coeffs) - 1))
        base = a
        while e:
            if e & 1:
                out = out * base
            base = base * base
            e >>= 1
        return out

    def pow_fraction(self, r) -> "RefQExpansion":
        """f^r for rational r; needs leading coefficient exactly 1."""
        a = self.normalized()
        r = F(r)
        if a.coeffs[0] != 1:
            raise QSeriesError("rational power needs leading coefficient 1")
        n = len(a.coeffs)
        out = [F(1)] + [F(0)] * (n - 1)
        # k P_k = sum_{j=1..k} (r j - (k - j)) u_j P_{k-j}
        for k in range(1, n):
            acc = F(0)
            for j in range(1, k + 1):
                if a.coeffs[j] if j < n else 0:
                    acc += (r * j - (k - j)) * a.coeffs[j] * out[k - j]
            out[k] = acc / k
        return RefQExpansion(a.offset * r, out)

    def q_derivative(self) -> "RefQExpansion":
        """q d/dq, exact on the fractional exponent grid."""
        return RefQExpansion(self.offset,
                          [(self.offset + i) * c for i, c in enumerate(self.coeffs)])

    def shift(self, k) -> "RefQExpansion":
        """Multiply by q^k."""
        return RefQExpansion(self.offset + F(k), self.coeffs)

    def subs_q_power(self, m: int) -> "RefQExpansion":
        """f(q^m); the gaps are known zeros, so precision scales by m."""
        if m < 1:
            raise QSeriesError("substitution power must be >= 1")
        out = [F(0)] * (m * len(self.coeffs))
        for i, c in enumerate(self.coeffs):
            out[m * i] = c
        return RefQExpansion(self.offset * m, out)

    def subs_q_negated(self) -> "RefQExpansion":
        """f(-q); requires integer offset."""
        if self.offset.denominator != 1:
            raise QSeriesError("f(-q) needs an integer exponent grid")
        base = int(self.offset)
        return RefQExpansion(self.offset,
                          [c if (base + i) % 2 == 0 else -c
                           for i, c in enumerate(self.coeffs)])

    def truncate_abs(self, exponent) -> "RefQExpansion":
        """Drop knowledge above q^exponent (inclusive)."""
        n = floor(F(exponent) - self.offset) + 1
        if n <= 0:
            raise QSeriesError("truncation removes every known coefficient")
        return RefQExpansion(self.offset, self.coeffs[: n])

    def __repr__(self):
        a = self.normalized() if not self.is_zero() else self
        parts = []
        for i, c in enumerate(a.coeffs[:6]):
            if c:
                parts.append("%s*q^%s" % (c, a.offset + i))
        return "QExpansion(%s%s)" % (" + ".join(parts) or "0",
                                     " + O(q^%s)" % a.prec)


def ref_embed_scalar(c, prec_abs) -> RefQExpansion:
    n = int(F(prec_abs))
    if n <= 0:
        raise QSeriesError("cannot embed a constant at nonpositive precision")
    return RefQExpansion(0, [F(c)] + [F(0)] * (n - 1))


def ref_one_like(f: RefQExpansion) -> RefQExpansion:
    return RefQExpansion(0, [F(1)] + [F(0)] * (len(f.coeffs) - 1))


def ref_qexp_equal(a: RefQExpansion, b: RefQExpansion, through: int) -> Tuple[bool, Optional[Fraction]]:
    """Compare two expansions coefficientwise up to q^through.

    Raises if either side is not known that far; returns (ok, exponent of
    the first mismatch).
    """
    if a.prec <= through or b.prec <= through:
        raise QSeriesError("known only to q^%s and q^%s, need q^%d"
                           % (a.prec, b.prec, through))
    diff = a - b
    for i, c in enumerate(diff.coeffs):
        e = diff.offset + i
        if e > through:
            break
        if c != 0:
            return False, e
    return True, None


# ---------------------------------------------------------------------------
# Building blocks
# ---------------------------------------------------------------------------


def ref_poch_unit(a: int, m: int, rel: int) -> List[Fraction]:
    """Unit-part coefficients of prod_{j>=0} (1 - q^(a+j m)) to q^rel."""
    out = [F(0)] * (rel + 1)
    out[0] = F(1)
    e = a
    while e <= rel:
        # multiply by (1 - q^e) in place
        for i in range(rel, e - 1, -1):
            out[i] -= out[i - e]
        e += m
    return out


def ref_eisenstein_expand(kind: str, order: int) -> RefQExpansion:
    """P, Q, R with the classical normalizations, or the level-13 series U."""
    out = [F(0)] * (order + 1)
    if kind == "P":
        out[0], mult, power = F(1), -24, 1
    elif kind == "Q":
        out[0], mult, power = F(1), 240, 3
    elif kind == "R":
        out[0], mult, power = F(1), -504, 5
    elif kind == "U13":
        out[0] = F(1)
        for n in range(1, order + 1):
            s = 0
            for d in range(1, n + 1):
                if n % d == 0:
                    s += _legendre13(d) * d
            out[n] = F(-s)
        return RefQExpansion(0, out)
    else:
        raise QSeriesError("unknown Eisenstein kind %r" % (kind,))
    for n in range(1, order + 1):
        s = 0
        for d in range(1, n + 1):
            if n % d == 0:
                s += d ** power
        out[n] = F(mult * s)
    return RefQExpansion(0, out)


def ref_eta_expand(N: int, order: int):
    """eta_N = q^(N/24) prod (1 - q^(jN)), known through q^(N/24 + order)."""
    if N < 1:
        raise QSeriesError("eta level must be >= 1")
    return qseries.QExpansion(F(N, 24), ref_poch_unit(N, N, order))


def ref_eta_quotient(factors: Sequence[Tuple[int, int]], order: int):
    out = qseries.QExpansion(0, [1] + [0] * order)
    for N, e in factors:
        f = ref_eta_expand(N, order)
        if e > 0:
            out = out * f ** e
        elif e < 0:
            out = out / f ** (-e)
    return out


def ref_poch_quotient(offset, factors: Sequence[Tuple[int, int, int]], order: int):
    out = qseries.QExpansion(offset, [1] + [0] * order)
    for a, m, e in factors:
        unit = qseries.QExpansion(0, ref_poch_unit(a, m, order))
        if e > 0:
            out = out * unit ** e
        else:
            out = out / unit ** (-e)
    return out


@contextmanager
def reference_kernel():
    """Run the qseries builders on the reference kernel inside the block;
    yields the MonkeyPatch, which is undone on exit.  linear_combination
    (which poly_at_series calls) reads the integer kernel's num and den, so
    it is replaced by the reference chain it was checked against."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(qseries, "QExpansion", RefQExpansion)
        mp.setattr(qseries, "_embed_scalar", ref_embed_scalar)
        mp.setattr(qseries, "_one_like", ref_one_like)
        mp.setattr(qseries, "qexp_equal", ref_qexp_equal)
        mp.setattr(qseries, "eta_quotient", ref_eta_quotient)
        mp.setattr(qseries, "poch_quotient", ref_poch_quotient)
        mp.setattr(qseries, "eisenstein_expand", ref_eisenstein_expand)
        mp.setattr(qseries, "linear_combination", chain_combination)
        yield mp


# ---------------------------------------------------------------------------
# Comparison
# ---------------------------------------------------------------------------


def assert_canonical(f):
    assert type(f) is qseries.QExpansion
    assert f.num and all(type(c) is int for c in f.num)
    assert type(f.den) is int and f.den > 0
    assert gcd(f.den, *f.num) == 1
    # an integral offset is an int; a Fraction offset is off the integer grid
    assert type(f.offset) is int or (type(f.offset) is Fraction and f.offset.denominator > 1)


def assert_same(new, ref):
    assert_canonical(new)
    assert type(ref) is RefQExpansion
    assert new.offset == ref.offset
    assert new.prec == ref.prec
    assert new.coeffs == ref.coeffs
    assert all(type(c) is Fraction for c in new.coeffs)
    assert repr(new) == repr(ref)


def outcome(fn, *args):
    try:
        return fn(*args)
    except (QSeriesError, ZeroDivisionError) as exc:
        return type(exc)


def assert_same_outcome(new, ref):
    if isinstance(new, type) or isinstance(ref, type):
        assert new is ref
    else:
        assert_same(new, ref)


def record_comparisons(calls):
    """A qexp_equal that records its arguments before comparing."""
    inner = qseries.qexp_equal

    def recorded(a, b, through):
        calls.append((a, b, through))
        return inner(a, b, through)
    return recorded


# ---------------------------------------------------------------------------
# The module's builders on both kernels
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("key", sorted(catalog.LEVEL_ROWS))
def test_build_xz_matches_reference(key):
    row = catalog.LEVEL_ROWS[key]
    new = outcome(qseries.build_xz, row, 30)
    with reference_kernel():
        ref = outcome(qseries.build_xz, row, 30)
    if isinstance(new, type) or isinstance(ref, type):
        assert new is ref
        return
    for f, g in zip(new, ref):
        assert_same(f, g)


@pytest.mark.parametrize("name", sorted(qseries.IDENTITY_BANK))
def test_identity_bank_matches_reference(name):
    order = 40 if name.startswith("level13") else 30
    new_calls, ref_calls = [], []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(qseries, "qexp_equal", record_comparisons(new_calls))
        new = qseries.verify_identity_bank(name, order)
    with reference_kernel() as mp:
        mp.setattr(qseries, "qexp_equal", record_comparisons(ref_calls))
        ref = qseries.verify_identity_bank(name, order)
    assert new == ref
    assert len(new_calls) == len(ref_calls)
    for (a, b, t), (c, d, u) in zip(new_calls, ref_calls):
        assert t == u
        assert_same(a, c)
        assert_same(b, d)


@pytest.mark.parametrize("key", sorted(catalog.ZAGIER_ROWS))
def test_zagier_expansion_coefficients_match_reference(key):
    row = catalog.ZAGIER_ROWS[key]

    def run():
        x = qseries.build_product(row.x, 34).normalized()
        z = qseries.build_product(row.z, 34).normalized()
        return x, z, qseries.expansion_coefficients(z, x, 30)
    x, z, new = run()
    with reference_kernel():
        rx, rz, ref = run()
    assert_same(x, rx)
    assert_same(z, rz)
    assert new == ref
    assert [type(c) for c in new] == [type(c) for c in ref]


def test_eisenstein_and_pochhammer_builders_match_reference():
    for kind in ("P", "Q", "R", "U13"):
        assert_same(qseries.eisenstein_expand(kind, 60), ref_eisenstein_expand(kind, 60))
    for a, m, rel in ((1, 1, 40), (2, 5, 40), (3, 7, 33), (13, 13, 60)):
        assert qseries.poch_unit(a, m, rel) == ref_poch_unit(a, m, rel)


# ---------------------------------------------------------------------------
# Random operations
# ---------------------------------------------------------------------------

rationals = st.builds(F, st.integers(-60, 60), st.integers(1, 12))
coeff_lists = st.lists(rationals, min_size=1, max_size=10)
grid_offsets = st.builds(F, st.integers(-48, 48), st.just(24))
POWERS = (F(1, 2), F(3, 2), F(2, 3), F(-7, 6))


def pair(offset, coeffs):
    return qseries.QExpansion(offset, coeffs), RefQExpansion(offset, coeffs)


@settings(max_examples=150, deadline=None)
@given(grid_offsets, coeff_lists, st.integers(-3, 3), coeff_lists)
def test_random_add_sub_match_reference(off, cs, k, ds):
    a, ra = pair(off, cs)
    b, rb = pair(off + k, ds)
    assert_same_outcome(outcome(lambda: a + b), outcome(lambda: ra + rb))
    assert_same_outcome(outcome(lambda: a - b), outcome(lambda: ra - rb))
    assert_same_outcome(outcome(lambda: b - a), outcome(lambda: rb - ra))
    assert_same_outcome(outcome(lambda: -a), outcome(lambda: -ra))
    through = int(min(a.prec, b.prec)) - 1
    if through >= 0:
        assert qseries.qexp_equal(a, b, through) == ref_qexp_equal(ra, rb, through)


@settings(max_examples=150, deadline=None)
@given(grid_offsets, coeff_lists, grid_offsets, coeff_lists, rationals)
def test_random_mul_and_scalars_match_reference(off, cs, off2, ds, c):
    a, ra = pair(off, cs)
    b, rb = pair(off2, ds)
    assert_same_outcome(outcome(lambda: a * b), outcome(lambda: ra * rb))
    assert_same_outcome(outcome(lambda: a * c), outcome(lambda: ra * c))
    assert_same_outcome(outcome(lambda: c * a), outcome(lambda: c * ra))
    assert_same_outcome(outcome(lambda: a / c), outcome(lambda: ra / c))
    assert_same_outcome(outcome(lambda: a / -c), outcome(lambda: ra / -c))
    assert_same_outcome(outcome(lambda: a / -3), outcome(lambda: ra / -3))
    assert_same_outcome(outcome(lambda: 5 * a), outcome(lambda: 5 * ra))
    if off.denominator == 1:
        assert_same_outcome(outcome(lambda: a + c), outcome(lambda: ra + c))
        assert_same_outcome(outcome(lambda: c - a), outcome(lambda: c - ra))


@settings(max_examples=150, deadline=None)
@given(grid_offsets, coeff_lists, grid_offsets, coeff_lists,
       st.sampled_from((1, -1, 2, -3)), rationals)
def test_random_division_matches_reference(off, cs, off2, ds, lead, c):
    a, ra = pair(off, cs)
    b, rb = pair(off2, [lead] + ds)
    assert_same_outcome(outcome(lambda: a / b), outcome(lambda: ra / rb))
    assert_same_outcome(outcome(lambda: c / b), outcome(lambda: c / rb))
    assert_same_outcome(outcome(lambda: b ** -2), outcome(lambda: rb ** -2))


@settings(max_examples=150, deadline=None)
@given(grid_offsets, coeff_lists, st.sampled_from(POWERS), st.integers(0, 3))
def test_random_powers_match_reference(off, cs, r, e):
    a, ra = pair(off, [1] + cs)
    assert_same_outcome(outcome(a.pow_fraction, r), outcome(ra.pow_fraction, r))
    assert_same_outcome(outcome(lambda: a ** e), outcome(lambda: ra ** e))
    # a leading coefficient other than 1 is refused by both
    assert_same_outcome(outcome((a * 2).pow_fraction, r), outcome((ra * 2).pow_fraction, r))


@settings(max_examples=150, deadline=None)
@given(grid_offsets, coeff_lists, st.integers(1, 3), st.integers(-2, 12),
       st.integers(0, 4))
def test_random_unary_ops_match_reference(off, cs, m, t, lead_zeros):
    a, ra = pair(off, [0] * lead_zeros + cs)
    assert_same_outcome(outcome(a.normalized), outcome(ra.normalized))
    assert_same_outcome(a.q_derivative(), ra.q_derivative())
    assert_same_outcome(a.shift(F(5, 24)), ra.shift(F(5, 24)))
    assert_same_outcome(a.subs_q_power(m), ra.subs_q_power(m))
    assert_same_outcome(outcome(a.truncate_abs, off + t), outcome(ra.truncate_abs, off + t))
    e = off + F(t, 24)
    assert_same_outcome(outcome(a.truncate_abs, e), outcome(ra.truncate_abs, e))
    if off.denominator == 1:
        assert_same_outcome(a.subs_q_negated(), ra.subs_q_negated())
    assert a.is_zero() == ra.is_zero()
    for e in (off + len(cs) // 2, int(off) + 1):
        assert outcome(a.coefficient, e) == outcome(ra.coefficient, e)


@pytest.mark.parametrize("offset, exponent, kept", [
    (F(1, 2), 0, None),
    (F(1, 2), F(-1, 2), None),
    (F(1, 2), F(1, 2), [1]),
    (F(1, 2), 1, [1]),
    (F(1, 2), 3, [1, 2, 3]),
    (F(-3, 2), -2, None),
    (F(-3, 2), F(-5, 3), None),
    (F(-3, 2), F(-3, 2), [1]),
    (F(-3, 2), -1, [1]),
    (F(-3, 2), F(-1, 2), [1, 2]),
    (F(-3, 2), 0, [1, 2]),
    (F(5, 24), F(-19, 24), None),
    (F(5, 24), F(4, 24), None),
    (F(5, 24), F(29, 24), [1, 2]),
])
def test_truncation_at_fractional_distances(offset, exponent, kept):
    a, ra = pair(offset, [1, 2, 3])
    if kept is None:
        for f in (a, ra):
            with pytest.raises(QSeriesError, match="^truncation removes every known coefficient$"):
                f.truncate_abs(exponent)
        return
    t = a.truncate_abs(exponent)
    assert (t.offset, t.num, t.den) == (offset, kept, 1)
    assert_same(t, ra.truncate_abs(exponent))


# The long-list tests below skip hypothesis's shrink phase: shrinking a
# 40-70-element list of Fractions one element at a time took minutes on a
# failing kernel, so they report the first failing example as generated.
UNSHRUNK = tuple(p for p in Phase if p not in (Phase.shrink, Phase.explain))

# Long series: eta and theta products at working order carry 40-70
# coefficients, on the q^(1/24) grid or at integer offsets.
long_coeff_lists = st.lists(rationals, min_size=40, max_size=70)
long_offsets = st.one_of(grid_offsets, st.builds(F, st.integers(-3, 3)))


@settings(max_examples=15, deadline=None, phases=UNSHRUNK)
@given(long_offsets, long_coeff_lists, st.integers(-75, 75), long_coeff_lists)
def test_long_add_sub_match_reference(off, cs, k, ds):
    a, ra = pair(off, cs)
    b, rb = pair(off + k, ds)
    assert_same_outcome(outcome(lambda: a + b), outcome(lambda: ra + rb))
    assert_same_outcome(outcome(lambda: a - b), outcome(lambda: ra - rb))
    assert_same_outcome(outcome(lambda: b - a), outcome(lambda: rb - ra))


@settings(max_examples=15, deadline=None, phases=UNSHRUNK)
@given(long_offsets, long_coeff_lists, long_offsets, long_coeff_lists, st.integers(0, 3))
def test_long_mul_matches_reference(off, cs, off2, ds, lead_zeros):
    a, ra = pair(off, [0] * lead_zeros + cs)
    b, rb = pair(off2, ds)
    assert_same_outcome(outcome(lambda: a * b), outcome(lambda: ra * rb))
    assert_same_outcome(outcome(lambda: b * a), outcome(lambda: rb * ra))


# ---------------------------------------------------------------------------
# Linear combinations against the + / scalar-* chain they replace
# ---------------------------------------------------------------------------


def chain_combination(pairs):
    """c1 * f1 + c2 * f2 + ... on the reference kernel, folded from the left
    as the Clausen checks used to build their sums."""
    (c, f), *rest = [(c, RefQExpansion(f.offset, f.coeffs)) for c, f in pairs]
    acc = c * f
    for c, f in rest:
        acc = acc + c * f
    return acc


def outcome_with_message(fn, *args):
    try:
        return fn(*args)
    except QSeriesError as exc:
        return QSeriesError, str(exc)


def assert_combination_matches_chain(pairs):
    new = outcome_with_message(qseries.linear_combination, pairs)
    ref = outcome_with_message(chain_combination, pairs)
    if isinstance(new, tuple) or isinstance(ref, tuple):
        assert new == ref
        return
    assert_same(new, ref)


scalars = st.one_of(st.just(0), st.integers(-10 ** 6, 10 ** 6), rationals,
                    st.builds(F, st.integers(-2 ** 80, 2 ** 80), st.integers(1, 2 ** 40)))
# most terms sit on the first term's grid; a 1/24 or 1/2 step leaves it
off_grid_steps = st.sampled_from((0, 0, 0, 0, 0, 0, F(1, 24), F(1, 2)))
combination_terms = st.lists(
    st.tuples(scalars, st.integers(-6, 6), off_grid_steps,
              st.one_of(coeff_lists, long_coeff_lists)),
    min_size=1, max_size=6)


@settings(max_examples=100, deadline=None, phases=UNSHRUNK)
@given(long_offsets, combination_terms)
def test_linear_combination_matches_the_chain(base, terms):
    pairs = [(c, qseries.QExpansion(base + k + step, cs)) for c, k, step, cs in terms]
    assert_combination_matches_chain(pairs)
    # the same series all on one grid: the chain never refuses
    assert_combination_matches_chain(
        [(c, qseries.QExpansion(base + k, cs)) for c, k, _, cs in terms])


def test_linear_combination_edge_cases():
    f = qseries.QExpansion(0, [1, 2, 3, 4])
    g = qseries.QExpansion(F(5, 24), [F(1, 3), 5])
    h = qseries.QExpansion(F(-19, 24), [2, F(-1, 7), 0, 1, 1])
    for pairs in ([(0, f)], [(0, f), (0, g), (F(3, 4), h)], [(F(1, 2), g), (3, h), (-1, g)],
                  [(1, f), (-1, f)], [(1, f), (1, g)], [(2, g), (1, h), (1, f)],
                  [(7, f), (1, f.shift(9))], [(1, f), (F(1, 3), f.shift(-2).truncate_abs(0))]):
        assert_combination_matches_chain(pairs)
    with pytest.raises(QSeriesError, match=r"^offsets differ by a non-integer: 0 vs 5/24$"):
        qseries.linear_combination([(1, f), (1, g)])
    # the refusal names the least offset so far, as the chain's running sum does
    with pytest.raises(QSeriesError, match=r"^offsets differ by a non-integer: -19/24 vs 0$"):
        qseries.linear_combination([(2, g), (1, h), (1, f)])
    with pytest.raises(QSeriesError, match="^empty linear combination$"):
        qseries.linear_combination([])


# ---------------------------------------------------------------------------
# Series division against the lead-power path it replaced
# ---------------------------------------------------------------------------


def ref_lead_power_div(self, other):
    """The previous ``QExpansion.__truediv__``, verbatim apart from its name."""
    if not isinstance(other, qseries.QExpansion):
        p, s = _ratio(other)
        if p == 0:
            raise ZeroDivisionError("q-expansion divided by zero")
        if p < 0:
            p, s = -p, -s
        return _make(self.offset, [c * s for c in self.num], self.den * p)
    a, b = self.normalized(), other.normalized()
    n = min(len(a.num), len(b.num))
    x, y = a.num, b.num
    lead = y[0]
    # With out = x/y, carry the ints z_i = out_i lead^(i+1):
    # z_i = x_i lead^i - sum_{j=1..i} (y_j lead^(j-1)) z_(i-j).
    lp = [1] * (n + 1)
    for k in range(1, n + 1):
        lp[k] = lp[k - 1] * lead
    ys = [y[j] * lp[j - 1] for j in range(1, n)]
    z: List[int] = []
    for i in range(n):
        z.append(x[i] * lp[i] - sum(map(mul, ys[:i], reversed(z))))
    # a/b = (b.den / a.den) * out, over the common denominator a.den lead^n
    bd = b.den
    num = [bd * zi * lp[n - 1 - i] for i, zi in enumerate(z)]
    den = a.den * lp[n]
    if den < 0:
        num, den = [-c for c in num], -den
    return _make(a.offset - b.offset, num, den)


def assert_division_matches_lead_power(a, b):
    new = outcome(lambda: a / b)
    ref = outcome(ref_lead_power_div, a, b)
    if isinstance(new, type) or isinstance(ref, type):
        assert new is ref
        return
    assert_canonical(new)
    assert (new.offset, new.num, new.den) == (ref.offset, ref.num, ref.den)


@pytest.mark.parametrize("key", sorted(catalog.LEVEL_ROWS))
def test_level_row_divisions_match_lead_power(key):
    row = catalog.LEVEL_ROWS[key]
    X, Z = qseries.build_xz(row, 60)
    cases = [(Z, Z), (qseries._embed_scalar(1, Z.prec), Z)]
    if row.z_xexp:
        cases.append((Z, X.pow_fraction(row.z_xexp)))
    # and every division verify_level_row makes at order 60, build_xz's included
    seen = []
    div = qseries.QExpansion.__truediv__

    def recorded(a, b):
        seen.append((a, b))
        return div(a, b)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(qseries.QExpansion, "__truediv__", recorded)
        qseries.verify_level_row(row, 60)
    assert len(seen) >= 3
    for a, b in cases + seen:
        assert_division_matches_lead_power(a, b)


unit_lead_dens = st.integers(2 ** 100, 2 ** 160)
wide_ints = st.lists(st.integers(-2 ** 170, 2 ** 170), min_size=38, max_size=68)


@settings(max_examples=20, deadline=None, phases=UNSHRUNK)
@given(long_offsets, long_coeff_lists, long_offsets, unit_lead_dens, wide_ints)
def test_unit_lead_over_a_large_denominator_matches_lead_power(off, cs, off2, den, ns):
    # the last coefficient 1/den keeps den as the common denominator
    b = qseries.QExpansion(off2, [1] + [F(c, den) for c in ns] + [F(1, den)])
    assert b.num[0] == b.den == den
    a = qseries.QExpansion(off, cs)
    assert_division_matches_lead_power(a, b)
    assert_division_matches_lead_power(qseries._embed_scalar(1, b.prec - off2), b)
    assert_division_matches_lead_power(b, b)


@settings(max_examples=10, deadline=None, phases=UNSHRUNK)
@given(long_offsets, unit_lead_dens, wide_ints, st.sampled_from(POWERS))
def test_rational_power_over_a_large_denominator_matches_reference(off, den, ns, r):
    # as for level 13's X^(7/6): lead 1 over a 100-160-bit common denominator
    cs = [1] + [F(c, den) for c in ns] + [F(1, den)]
    a, ra = pair(off, cs)
    assert a.num[0] == a.den == den
    assert_same_outcome(a.pow_fraction(r), ra.pow_fraction(r))


@settings(max_examples=30, deadline=None, phases=UNSHRUNK)
@given(grid_offsets, st.one_of(coeff_lists, long_coeff_lists), grid_offsets,
       st.one_of(coeff_lists, long_coeff_lists), st.sampled_from((2, -3, F(7, 5))),
       st.integers(0, 2))
def test_non_unit_leads_match_lead_power(off, cs, off2, ds, lead, lead_zeros):
    a = qseries.QExpansion(off, [0] * lead_zeros + cs)
    b = qseries.QExpansion(off2, [0] * lead_zeros + [lead] + ds)
    assert_division_matches_lead_power(a, b)
    assert_division_matches_lead_power(b, b)
    assert_division_matches_lead_power(a, 2 * b)
    # a series that is zero to working precision is refused by both
    assert_division_matches_lead_power(a, b - b)


# ---------------------------------------------------------------------------
# The eta and Pochhammer quotient builders
# ---------------------------------------------------------------------------

QUOTIENT_ORDERS = (0, 1, 30, 64, 100)


def reachable_quotient_specs():
    """The factors of every eta_quotient call, and the (offset, factors) of
    every poch_quotient call, that the catalog rows and the identity bank make."""
    etas, pochs = set(), set()
    eta_quotient, poch_quotient = qseries.eta_quotient, qseries.poch_quotient

    def eta(factors, order):
        etas.add(tuple(factors))
        return eta_quotient(factors, order)

    def poch(offset, factors, order):
        pochs.add((offset, tuple(factors)))
        return poch_quotient(offset, factors, order)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(qseries, "eta_quotient", eta)
        mp.setattr(qseries, "poch_quotient", poch)
        for row in catalog.LEVEL_ROWS.values():
            outcome(qseries.build_xz, row, 2)
        for row in catalog.ZAGIER_ROWS.values():
            qseries.build_product(row.x, 2)
            qseries.build_product(row.z, 2)
        for row in catalog.WEIGHT2_ROWS.values():
            qseries.build_product(row.x, 2)
            qseries.build_product(row.z, 2)
        for name in qseries.IDENTITY_BANK:
            qseries.verify_identity_bank(name, 2)
    return sorted(etas), sorted(pochs)


def assert_same_quotient(new, ref):
    assert_canonical(new)
    assert_canonical(ref)
    assert (new.offset, new.num, new.den) == (ref.offset, ref.num, ref.den)


def test_quotient_builders_match_reference_on_every_reachable_spec():
    etas, pochs = reachable_quotient_specs()
    assert len(etas) > 40 and len(pochs) == 2
    for order in QUOTIENT_ORDERS:
        for factors in etas:
            assert_same_quotient(qseries.eta_quotient(factors, order),
                                 ref_eta_quotient(factors, order))
        for offset, factors in pochs:
            assert_same_quotient(qseries.poch_quotient(offset, factors, order),
                                 ref_poch_quotient(offset, factors, order))
    # with no factor, a negative order is still an error
    with pytest.raises(QSeriesError, match=r"^precision q\^-3 is negative$"):
        qseries.eta_quotient((), -3)
    with pytest.raises(QSeriesError, match=r"^precision q\^-1 is negative$"):
        qseries.poch_quotient(F(1, 2), (), -1)


eta_factor_lists = st.lists(st.tuples(st.integers(1, 40), st.integers(-24, 24)),
                            max_size=6)
poch_factor_lists = st.lists(st.tuples(st.integers(1, 12), st.integers(1, 12),
                                       st.integers(-6, 6)), max_size=4)


@settings(max_examples=100, deadline=None)
@given(eta_factor_lists, grid_offsets, poch_factor_lists, st.integers(0, 80))
def test_random_quotients_match_reference(etas, offset, pochs, order):
    assert_same_quotient(qseries.eta_quotient(etas, order), ref_eta_quotient(etas, order))
    assert_same_quotient(qseries.poch_quotient(offset, pochs, order),
                         ref_poch_quotient(offset, pochs, order))


@pytest.mark.parametrize("name, args, message", [
    ("eta_quotient", (((0, 0),), 5), "eta level must be >= 1"),
    ("eta_quotient", (((2, 1), (-3, 1)), 5), "eta level must be >= 1"),
    ("eta_quotient", (((0, 1), (2, 1)), -1), "eta level must be >= 1"),
    ("eta_quotient", (((2, 1), (0, 1)), -2), "precision q^-2 is negative"),
    ("eta_quotient", (((1, 0),), -1), "precision q^-1 is negative"),
    ("eta_expand", (0, 4), "eta level must be >= 1"),
    ("eta_expand", (5, -1), "precision q^-1 is negative"),
    ("poch_quotient", (F(1), ((1, 5, 0),), -1), "precision q^-1 is negative"),
    ("poch_unit", (1, 1, -3), "precision q^-3 is negative"),
    ("eta_quotient", ((), -1), "precision q^-1 is negative"),
    ("poch_quotient", (0, (), -3), "precision q^-3 is negative"),
])
def test_quotient_errors_are_unchanged(name, args, message):
    with pytest.raises(QSeriesError) as info:
        getattr(qseries, name)(*args)
    assert str(info.value) == message
