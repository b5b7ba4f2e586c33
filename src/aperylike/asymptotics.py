"""Asymptotic expansion parameters T(n) ~ C n^(-3/2) R^n (1 + b1/n + ...).

R comes from the root of G of smallest modulus (1/R is that root), b1 from

    b1 = (16 H(r0) - G**(r0)) / (8 G*(r0)),   G* = x G', G** = x (x G')',

and C, which the recurrence does not determine, is estimated numerically
by forward differences of n^k u_n (u_n the normalized terms), which kills
the O(n^-j) tails through order k.

Exact values of R and b1 are produced whenever G factors into pieces of
degree <= 2 over the rationals or is linear over a quadratic field; the
numeric path is always computed as well and cross-checked.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import comb
from typing import Dict, List, Optional, Sequence, Tuple

import mpmath as mp

from . import catalog
from .recurrence import Poly
from .rings import QuadElem, Scalar, parts, squarefree_split

F = Fraction


class AsymptoticsError(ArithmeticError):
    pass


@dataclass(frozen=True)
class PrecisionConfig:
    digits: int = 60
    terms: int = 2000
    diff_order: int = 8

    def __post_init__(self):
        if self.digits < 30:
            raise AsymptoticsError("working precision below 30 digits")
        if self.diff_order < 1:
            raise AsymptoticsError("diff_order must be >= 1, got %d" % self.diff_order)
        if self.terms <= 10 * self.diff_order:
            raise AsymptoticsError("need terms > 10 * diff_order")


DEFAULT_CONFIG = PrecisionConfig()

# relative margins for the minimal-root certificates
TIE_TOL = 1e-12
SEPARATION_TOL = 1e-12


@dataclass
class AsymptoticParams:
    seq: Optional[str]
    R: object                      # mpf or mpc
    b1: object                     # mpf or mpc
    alpha: Fraction = F(-3, 2)
    R_exact: Optional[Scalar] = None
    b1_exact: Optional[Scalar] = None
    C: Optional[object] = None
    C_error: Optional[object] = None
    certificate: dict = field(default_factory=dict)


def to_mp(x: Scalar):
    """Embed an exact scalar at the current mpmath precision: an mpf for a
    rational or a real quadratic element, an mpc for any element of an
    imaginary quadratic field, even one whose surd part is 0."""
    d, a, b = parts(x)
    if d == 0:
        return mp.mpf(a) if a.denominator == 1 else mp.mpf(a.numerator) / mp.mpf(a.denominator)
    a, b = to_mp(a), to_mp(b)
    if d > 0:
        return a + b * mp.sqrt(d)
    return mp.mpc(a) + mp.mpc(0, 1) * b * mp.sqrt(-d)


def term_to_mp(x: Scalar, dps: int):
    """Embed a term safely even when a + b*sqrt(d) cancels catastrophically
    (real quadratic sequences whose conjugate grows faster than they do):
    the surd is evaluated with as many extra digits as the components hold."""
    _, a, b = parts(x)
    if b:
        bits = max(n.bit_length() for c in (a, b) for n in (c.numerator, c.denominator))
        with mp.workdps(dps + bits * 302 // 1000 + 10):
            return to_mp(x)
    return to_mp(x)


# ---------------------------------------------------------------------------
# Roots
# ---------------------------------------------------------------------------


def smallest_root(G: Poly, cfg: PrecisionConfig = DEFAULT_CONFIG):
    """All roots by simultaneous iteration; returns (r0, certificate).

    The certificate carries the relative modulus gap to the second
    smallest root, the distance to the nearest other root, and the
    iteration error bound.  Ties and near-multiple roots are errors.
    """
    if G.degree < 1:
        raise AsymptoticsError("G must have positive degree")
    if G[0] != 1:
        raise AsymptoticsError("G must have constant term 1")
    with mp.workdps(cfg.digits + 10):
        coeffs = [to_mp(c) for c in reversed(G.coeffs)]
        roots, err = mp.polyroots(coeffs, maxsteps=200, extraprec=60, error=True)
        roots = sorted(roots, key=lambda r: mp.fabs(r))
        r0 = roots[0]
        cert = {"root_error": err, "degree": G.degree}
        if len(roots) > 1:
            m0, m1 = mp.fabs(r0), mp.fabs(roots[1])
            gap = (m1 - m0) / m0
            sep = min(mp.fabs(r0 - r) for r in roots[1:])
            cert["modulus_gap"] = gap
            cert["separation"] = sep / m0
            if cert["separation"] < SEPARATION_TOL:
                raise AsymptoticsError("multiple root (separation %s)" % mp.nstr(sep, 5))
            if gap < TIE_TOL:
                raise AsymptoticsError("non-unique minimal root (gap %s)" % mp.nstr(gap, 5))
        if mp.im(r0) == 0:
            r0 = mp.re(r0)
        return r0, cert


def _sqrt_exact(x: Fraction) -> Scalar:
    """sqrt of a rational as a Fraction or QuadElem (F(0) at x = 0)."""
    if x == 0:
        return F(0)
    num, den = x.numerator, x.denominator
    neg = num < 0
    num = abs(num)
    s, m = squarefree_split(num * den)
    if neg:
        m = -m
    root = F(s, den)
    if m == 1:
        return root
    return QuadElem(m, 0, root)


def factor_roots_exact(factor: Sequence[Scalar]) -> Optional[List[Scalar]]:
    """Exact roots of a degree <= 2 factor; None when not resolvable."""
    cs = list(factor)
    while cs and not cs[-1]:
        cs.pop()
    if len(cs) <= 1:
        return []  # a unit factor contributes no roots
    if len(cs) == 2:
        c0, c1 = cs
        return [F(-1) * c0 / c1]  # F(-1) first: int / int would be a float
    if len(cs) == 3:
        if any(parts(c)[0] for c in cs):
            return None  # no catalog sequence needs quadratics over a quad field
        c0, c1, c2 = map(F, cs)
        disc = c1 * c1 - 4 * c0 * c2
        s = _sqrt_exact(disc)
        return [(-c1 + s) / (2 * c2), (-c1 - s) / (2 * c2)]
    return None


def exact_min_root(factors: Sequence[Sequence[Scalar]]
                   ) -> Tuple[Optional[Scalar], Optional[Scalar]]:
    """(r0, R) exactly, when every factor resolves; (None, None) otherwise."""
    roots: List[Scalar] = []
    for f in factors:
        rs = factor_roots_exact(f)
        if rs is None:
            return None, None
        roots.extend(rs)
    with mp.workdps(40):
        moduli = [mp.fabs(to_mp(r)) for r in roots]
        i = min(range(len(roots)), key=lambda j: moduli[j])
        others = [m for j, m in enumerate(moduli) if j != i]
        if others and min(others) - moduli[i] < mp.mpf("1e-20") * moduli[i]:
            return None, None
    r0 = roots[i]
    return r0, F(1) / r0


def _gstar_polys(G: Poly) -> Tuple[Poly, Poly]:
    gstar = Poly([j * c for j, c in enumerate(G.coeffs)])
    gstarstar = Poly([j * j * c for j, c in enumerate(G.coeffs)])
    return gstar, gstarstar


def asymptotic_params(G: Poly, H: Poly, cfg: PrecisionConfig = DEFAULT_CONFIG,
                      factors: Optional[Sequence[Sequence[Scalar]]] = None,
                      seq: Optional[str] = None) -> AsymptoticParams:
    """R, alpha = -3/2, and b1 for the sequence attached to (G, H).

    alpha is re-derived rather than assumed: the n^-1 balance reads
    -(3/2) G'(r0) = alpha G'(r0), so the simple-root certificate
    (G'(r0) != 0) is what pins alpha."""
    r0, cert = smallest_root(G, cfg)
    gstar, gstarstar = _gstar_polys(G)
    with mp.workdps(cfg.digits + 10):
        gp = mp.polyval([to_mp(c) for c in reversed(G.derivative().coeffs)], r0)
        cert["gprime_at_r0"] = mp.fabs(gp)
        if mp.fabs(gp) < mp.mpf("1e-20"):
            raise AsymptoticsError("G'(r0) vanishes; contradicts the simple-root certificate")
        hval = mp.polyval([to_mp(c) for c in reversed(H.coeffs)], r0)
        gs = mp.polyval([to_mp(c) for c in reversed(gstar.coeffs)], r0)
        gss = mp.polyval([to_mp(c) for c in reversed(gstarstar.coeffs)], r0)
        b1 = (16 * hval - gss) / (8 * gs)
        R = 1 / r0
        if mp.im(R) == 0:
            R, b1 = mp.re(R), mp.re(b1) if mp.im(b1) == 0 else b1
    r0_exact = R_exact = b1_exact = None
    if factors is not None:
        r0_exact, R_exact = exact_min_root(factors)
        if r0_exact is not None:
            b1_exact = _b1_exact(G, H, r0_exact)
        with mp.workdps(cfg.digits + 10):  # relative gap; an exact 0 is compared absolutely
            for name, num, exact in (("R", R, R_exact), ("b1", b1, b1_exact)):
                if exact is None:
                    continue
                x = to_mp(exact)
                if mp.fabs(num - x) > (mp.fabs(x) or 1) / mp.mpf(10) ** cfg.digits:
                    raise AsymptoticsError("exact %s = %s disagrees with the numeric value"
                                           % (name, exact))
    return AsymptoticParams(seq, R, b1, F(-3, 2), R_exact, b1_exact,
                            certificate=cert)


def _b1_exact(G: Poly, H: Poly, r0: Scalar) -> Scalar:
    gstar, gstarstar = _gstar_polys(G)
    num = F(16) * H(r0) - gstarstar(r0)  # F(16) first: int / int would be a float
    return num / (8 * gstar(r0))


# ---------------------------------------------------------------------------
# The constant C by forward differences
# ---------------------------------------------------------------------------


def estimate_C(terms: Sequence[Scalar], R, b1,
               cfg: PrecisionConfig = DEFAULT_CONFIG) -> Tuple[object, object]:
    """(C, error bound) from exact terms T(0..N).

    u_n = T(n) n^(3/2) R^(-n) / (1 + b1/n) tends to C with an O(1/n^2)
    tail; the k-th forward difference of n^k u_n / k! (taken at the top of
    the range) removes the tail through order k.  The error bound is the
    gap between the last two acceleration orders.
    """
    k = cfg.diff_order
    N = len(terms) - 1
    if N <= 10 * k:
        raise AsymptoticsError("insufficient terms: N = %d <= 10k = %d" % (N, 10 * k))
    with mp.workdps(cfg.digits):
        Rm = mp.mpmathify(R)
        b1m = mp.mpmathify(b1)
        u: Dict[int, object] = {}
        for n in range(N - k, N + 1):
            t = term_to_mp(terms[n], cfg.digits)
            u[n] = (t * mp.power(n, mp.mpf(3) / 2) / mp.power(Rm, n)
                    / (1 + b1m / n))

        def accel(j: int):
            base = N - j
            acc = mp.mpf(0)
            for i in range(j + 1):
                w = (-1) ** (j - i) * comb(j, i)
                acc += w * mp.power(base + i, j) * u[base + i]
            return acc / mp.factorial(j)

        est_k = accel(k)
        est_km1 = accel(k - 1)
        err = mp.fabs(est_k - est_km1)
        if mp.im(mp.mpc(est_k)) == 0:
            est_k = mp.re(mp.mpc(est_k))
        return est_k, err


def analyze(seq_key: str, cfg: PrecisionConfig = DEFAULT_CONFIG,
            with_C: bool = True) -> AsymptoticParams:
    """Full asymptotic analysis of a catalog sequence."""
    seq = catalog.sequence(seq_key)
    if seq.G is None:
        raise AsymptoticsError("sequence %r carries no (G, H) data" % seq_key)
    params = asymptotic_params(seq.G, seq.H, cfg, factors=seq.G_factors, seq=seq.key)
    if with_C:
        terms = seq.terms(cfg.terms)
        params.C, params.C_error = estimate_C(terms, params.R, params.b1, cfg)
    return params


# ---------------------------------------------------------------------------
# Conjectured closed forms for C, for comparison (never asserted exact)
# ---------------------------------------------------------------------------


def conjectured_C(key: str, dps: int = 60):
    """The tabulated closed form of C, evaluated numerically."""
    with mp.workdps(dps):
        pi32 = mp.power(mp.pi, mp.mpf(3) / 2)
        s2 = mp.sqrt(2)
        if key == "level11":
            # x R / pi^(3/2): x the root > 0 of C_x_poly, R the root > 10 of R_poly
            ref = catalog.REFERENCE_ASYMPTOTICS["level11"]
            x, R = ([r for r in mp.polyroots(ref[name][::-1], maxsteps=200, extraprec=60)
                     if mp.im(r) == 0 and mp.re(r) > low][0]
                    for name, low in (("C_x_poly", 0), ("R_poly", 10)))
            return x * R / pi32
        if key == "level14A":
            return (5 + 4 * s2) / (4 * pi32) * mp.sqrt((9 * s2 - 8) / 14)
        if key == "level14B":
            return (1 + 2 * s2) ** 2 / (4 * pi32) * mp.sqrt((8 - 5 * s2) / 2)
        if key == "14C":
            return 8 / pi32 * mp.sqrt((8 * s2 - 11) / 7)
        if key == "14Cbar":
            return (1 + 2 * s2) ** 2 / pi32 * (mp.sqrt(14) / 7 + mp.sqrt(7) / 14)
        if key == "level15A":
            return 6 * mp.sqrt(3) / (5 * pi32)
        if key == "level15B":
            return 12 * mp.sqrt(3) / pi32
        if key == "15C":
            return mp.power(mp.mpc(11, 2), mp.mpf(3) / 2) / (20 * pi32)
        if key == "15Cbar":
            return mp.power(mp.mpc(11, -2), mp.mpf(3) / 2) / (20 * pi32)
        if key == "level24":
            return mp.sqrt(8) / pi32
        if key in ("apery", "weight2-6A"):
            return (1 + s2) ** 2 / (mp.power(2, mp.mpf(9) / 4) * pi32)
        if key == "apery-intext-variant":
            # the in-text (1+2 sqrt 2)^2 variant, kept for the consistency flag
            return (1 + 2 * s2) ** 2 / (mp.power(2, mp.mpf(9) / 4) * pi32)
        if key == "level7":
            return mp.sqrt(27) / (4 * pi32)
        raise catalog.UnknownKeyError("no conjectured C for %r" % (key,))


def apery_constant_check(cfg: PrecisionConfig = DEFAULT_CONFIG) -> dict:
    """Estimate the leading constant for the weight-two 6(A) sequence and
    compare against the two printed candidates; exactly one should match."""
    params = analyze("apery", cfg)
    main = conjectured_C("apery", cfg.digits)
    variant = conjectured_C("apery-intext-variant", cfg.digits)
    rel = lambda a, b: abs(mp.mpf(mp.fabs(a - b)) / mp.fabs(b))
    return {
        "estimate": params.C,
        "cohen": main,
        "variant": variant,
        "matches_cohen": rel(params.C, main) < mp.mpf("1e-6"),
        "variant_consistent": rel(params.C, variant) < mp.mpf("1e-6"),
    }


# ---------------------------------------------------------------------------
# The Sato-type series for 1/pi
# ---------------------------------------------------------------------------


def evaluate_sato_series(n_terms: int, dps: int = 60):
    """Partial sum over n = 0..n_terms of the 1/pi series

        (72 sqrt(15) - 160 sqrt(3)) sum A(n) (1/2 - 3 sqrt(5)/20 + n) x^n,

    x = ((1 - sqrt(5))/2)^12, with A(n) the weight-two 6(A) terms."""
    if n_terms < 0:
        raise ValueError("n_terms must be >= 0")
    terms = catalog.sequence("apery").terms(n_terms)
    with mp.workdps(dps):
        s5 = mp.sqrt(5)
        x = mp.power((1 - s5) / 2, 12)
        mult = 72 * mp.sqrt(15) - 160 * mp.sqrt(3)
        acc = mp.mpf(0)
        xp = mp.mpf(1)
        for n in range(n_terms + 1):
            acc += to_mp(terms[n]) * (mp.mpf(1) / 2 - 3 * s5 / 20 + n) * xp
            xp *= x
        return mult * acc
