"""The Clausen-type identity checks that relate weight-one and weight-two
sequences, and the generating-function independence of the level-14/15
families.

Every series is a QExpansion in x (or w) with integer exponents, so its
precision is tracked exactly as for the q-series; each check compares
through x^order and reports the first mismatching exponent as an int.
"""

from __future__ import annotations

from fractions import Fraction as F
from math import comb, lcm
from operator import add
from typing import List, Optional, Sequence, Tuple

from . import catalog
from .qseries import QExpansion, linear_combination, qexp_equal
from .recurrence import (asz_gh, generate_terms, recurrence_from_gh,
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


def ratio_powers(num: Sequence[Scalar], den: Sequence[Scalar], k_max: int, order: int
                 ) -> List[QExpansion]:
    """[(N/D)^k for k = 0..k_max], each known through x^order, for the
    polynomials N = sum num[i] x^i != 0 and D = sum den[i] x^i with
    D(0) != 0; the list stops at the first power that starts past x^order.

    Each power is the one before times N and divided by D: one short
    convolution and one short recurrence on integer coefficient lists, not
    a dense series product.  Over their common denominators N = Nn / n_d
    and D = Dn / d_d, and x = L y makes Dn(x) / Dn(0) an integer polynomial
    in y with constant term 1, so N/D = r y^a N'(y) / D'(y) with N' and D'
    integer and r rational, and every power of N'/D' is an integer series.
    """
    Nq, Dq = QExpansion(0, num), QExpansion(0, den)  # refuses a float
    d0 = Dq.num[0]
    if not d0:
        raise ValueError("the denominator needs a nonzero constant term")
    if Nq.is_zero():
        raise ValueError("the numerator is zero")
    a = next(i for i, c in enumerate(Nq.num) if c)
    L = lcm(*(F(c, d0).denominator for c in Dq.num[1:]))
    n1 = [c * L ** i for i, c in enumerate(Nq.num[a:], a)]
    d1 = [(j, c * L ** j // d0) for j, c in enumerate(Dq.num) if j and c]
    r = F(Dq.den, Nq.den * d0)
    # L^(order - e) puts the x^e coefficient, P[e - k a] r^k / L^e, over r.den^k L^order
    lpow = [L ** e for e in range(order + 1)][::-1]
    P = [1] + [0] * order
    out = [QExpansion(0, P)]
    for k in range(1, k_max + 1):
        o = k * a
        n = order + 1 - o
        if n <= 0:
            break
        t = [n1[0] * c for c in P[:n]]
        for j, c in enumerate(n1[1:n], 1):
            t[j:] = map(add, t[j:], [c * p for p in P[:n - j]])
        for i in range(n):
            for j, c in d1:
                if j > i:
                    break
                t[i] -= c * t[i - j]
        P = t
        if L == 1 and r == 1:
            out.append(QExpansion(o, P))
        else:
            rk = r ** k
            out.append(QExpansion(o, [rk.numerator * c * m for c, m in zip(P, lpow[o:])])
                       / (rk.denominator * L ** order))
    return out


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
    s = generate_terms(recurrence_from_gh(*asz_gh(alpha, beta, gamma)), order, RING_Q)
    u = ratio_powers([0, 1], [1, -alpha, -gamma], order, order)
    rhs = linear_combination(zip(s[:order], u[1:]))
    mism = _mismatch(lhs, rhs, order)
    return mism is None, mism


def verify_ctyz(alpha: Scalar, beta: Scalar, gamma: Scalar, order: int = 30
                ) -> Tuple[bool, Optional[int]]:
    """(sum t(n) x^n)^2 == (1+c x^2)^-1 sum binom(2n,n) t(n) v^n with
    v = x(1 - a x - c x^2)/(1 + c x^2)^2, to x^order.

    Both sides are compared multiplied by the unit 1 + c x^2, which moves
    neither the verdict nor the first mismatching exponent."""
    _check_order(order)
    t = generate_terms(recurrence_from_quadratic(alpha, beta, gamma), order, RING_Q)
    z = QExpansion(0, t)
    zz = z * z
    lhs = linear_combination(((1, zz), (gamma, zz.shift(2))))
    v = ratio_powers([0, 1, -alpha, -gamma], [1, 0, 2 * gamma, 0, gamma * gamma], order, order)
    rhs = linear_combination((comb(2 * n, n) * tn, vn) for n, (tn, vn) in enumerate(zip(t, v)))
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
