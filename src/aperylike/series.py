"""The Clausen-type identity checks that relate weight-one and weight-two
sequences, and the generating-function independence of the level-14/15
families.

Every series is a QExpansion in x (or w) with integer exponents, so its
precision is tracked exactly as for the q-series; each check compares
through x^order and reports the first mismatching exponent as an int.
"""

from __future__ import annotations

from math import comb
from typing import Optional, Sequence, Tuple

from . import catalog
from .qseries import QExpansion, linear_combination, poly_at_series, qexp_equal
from .recurrence import (Poly, cubic_from_quadratic_asz, generate_terms,
                         recurrence_from_quadratic)
from .rings import RING_Q, Scalar, parts

# a series A + B sqrt(d); B is None when the series is rational
Pair = Tuple[QExpansion, Optional[QExpansion]]


def _check_order(order: int) -> None:
    # order 0 would compare nothing and PASS
    if order < 1:
        raise ValueError("order must be >= 1, got %d" % order)


def _poly(coeffs: Sequence[Scalar], order: int) -> QExpansion:
    """The polynomial sum coeffs[i] x^i, known through x^order at least."""
    cs = list(coeffs)
    return QExpansion(0, cs + [0] * (order + 1 - len(cs)))


def _mismatch(a: QExpansion, b: QExpansion, through: int) -> Optional[int]:
    ok, e = qexp_equal(a, b, through)
    return None if ok else int(e)


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
    z = QExpansion(0, t)
    lhs = (z * z).shift(1).truncate_abs(order)
    s = generate_terms(cubic_from_quadratic_asz(alpha, beta, gamma), order, RING_Q)
    u = _poly([0, 1], order) / _poly([1, -alpha, -gamma], order)
    rhs = poly_at_series(Poly([0] + s[:order]), u)
    mism = _mismatch(lhs, rhs, order)
    return mism is None, mism


def verify_ctyz(alpha: Scalar, beta: Scalar, gamma: Scalar, order: int = 30
                ) -> Tuple[bool, Optional[int]]:
    """(sum t(n) x^n)^2 == (1+c x^2)^-1 sum binom(2n,n) t(n) v^n with
    v = x(1 - a x - c x^2)/(1 + c x^2)^2, to x^order."""
    _check_order(order)
    t = generate_terms(recurrence_from_quadratic(alpha, beta, gamma), order, RING_Q)
    z = QExpansion(0, t)
    lhs = z * z
    den = _poly([1, 0, gamma], order)
    v = _poly([0, 1], order) * _poly([1, -alpha, -gamma], order) / (den * den)
    rhs = poly_at_series(Poly(comb(2 * n, n) * tn for n, tn in enumerate(t)), v) / den
    mism = _mismatch(lhs, rhs, order)
    return mism is None, mism


def _special_gf(family: catalog.EpsilonFamily, eps: Scalar, order: int) -> Pair:
    """sum_n T_eps(n) u^(n+1) with u = w / (1 + eps w + sigma w^2), known
    through w^order at least, as the pair (A, B) meaning A + B sqrt(d).

    For eps = e0 + e1 sqrt(d) the denominator is re + e1 w sqrt(d) with
    re = 1 + e0 w + sigma w^2, so u = w (re - e1 w sqrt(d)) / N over the
    rational norm N = re^2 - d e1^2 w^2.  A rational eps gives B = None.
    """
    terms = list(family.specialize(eps).iter_pairs(order - 1))
    d, e0, e1 = parts(eps)
    re = _poly([1, e0, family.sigma], order)
    if e1:
        r = _poly([0, 1], order) / (re * re - _poly([0, 0, d * e1 * e1], order))
        u: Pair = (r * re, -e1 * r.shift(1))
    else:
        u = (_poly([0, 1], order) / re, None)
    parts_a, parts_b = [], []
    upow = u
    # QExpansion carries the precision of every power, so none is truncated
    for n, (a, b) in enumerate(terms):
        if n:
            upow = _pair_mul(upow, u, d)
        A, B = upow
        parts_a.append((a, A))
        if B is not None:
            parts_a.append((d * b, B))
            parts_b += [(a, B), (b, A)]
    return linear_combination(parts_a), (linear_combination(parts_b) if parts_b else None)


def _pair_mul(x: Pair, y: Pair, d: int) -> Pair:
    (a, b), (c, e) = x, y
    if b is None:
        return a * c, None
    return a * c + d * (b * e), a * e + b * c


def verify_gf_independence(level: int, order: int = 6) -> Tuple[bool, Optional[str]]:
    """All special-eps generating functions of a level-14/15 family agree:

        sum_n T_eps(n) (w / (1 + eps w + sigma w^2))^(n+1)

    is one fixed series with no sqrt(d) part; it must also match the
    committed reference prefix.  Returns (ok, description of the first
    failure).
    """
    _check_order(order)
    family = catalog.epsilon_family(level)
    reference = catalog.REFERENCE_GF_SERIES[level]
    ref = QExpansion(0, reference[: order + 1])
    computed = [(name, _special_gf(family, eps, order)) for name, eps in family.specials]
    base_name, (base, _) = computed[0]
    for name, (A, B) in computed[1:]:
        found = [m for m in (_mismatch(base, A, order),
                             None if B is None else _mismatch(B, _poly([0], order), order))
                 if m is not None]
        if found:
            return False, "%s vs %s differ at w^%d" % (base_name, name, min(found))
    # the committed prefix may be shorter than order
    m = _mismatch(base, ref, min(order, len(reference) - 1))
    if m is not None:
        return False, "%s vs reference series differ at w^%d" % (base_name, m)
    return True, None
