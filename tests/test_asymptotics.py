from fractions import Fraction as F

import mpmath as mp
import pytest

from aperylike import asymptotics, catalog
from aperylike.asymptotics import (
    AsymptoticsError,
    PrecisionConfig,
    analyze,
    apery_constant_check,
    asymptotic_params,
    conjectured_C,
    estimate_C,
    evaluate_sato_series,
    exact_min_root,
    factor_roots_exact,
    smallest_root,
    to_mp,
)
from aperylike.recurrence import Poly, poly_product
from aperylike.rings import QuadElem

FAST = PrecisionConfig(digits=60, terms=400, diff_order=6)


def test_smallest_root_examples():
    with mp.workdps(60):
        r0, cert = smallest_root(Poly([1, 1]) * Poly([1, -27]))
        assert abs(r0 - mp.mpf(1) / 27) < mp.mpf("1e-50")
        assert cert["modulus_gap"] > 1
        r0, _ = smallest_root(Poly([1, -34, 1]))
        assert abs(r0 - (17 - 12 * mp.sqrt(2))) < mp.mpf("1e-50")
        r0, _ = smallest_root(catalog.sequence("level11").G)
        assert mp.nstr(1 / r0, 7) == "16.8275"


def test_smallest_root_guards():
    with pytest.raises(AsymptoticsError, match="non-unique"):
        smallest_root(Poly([1, 0, -1]))  # roots +-1
    with pytest.raises(AsymptoticsError, match="multiple"):
        smallest_root(Poly([1, -2, 1]))  # double root at 1


def test_exact_roots_from_factors():
    for factors, r0_want, R_want in ((((1, 1), (1, -27)), F(1, 27), 27),
                                     (((1, -34, 1),), QuadElem(2, 17, -12), QuadElem(2, 17, 12))):
        G = poly_product(factors)
        r0, _ = smallest_root(G, FAST)
        with mp.workdps(70):
            assert exact_min_root(factors, r0, 60) == r0_want
        assert asymptotic_params(G, Poly([0]), FAST, factors=factors).R_exact == R_want
    with mp.workdps(70):
        cubic_root = -mp.cbrt(mp.mpf(1) / 5)  # a root of the cubic factor 1 + 5x^3
        assert exact_min_root(((1, 0, 0, 5),), cubic_root, 60) is None
        # a solvable factor holds r0 although another factor is a cubic
        assert exact_min_root(((1, 1, 0, 1), (1, -27)), mp.mpf(1) / 27, 60) == F(1, 27)
        assert exact_min_root(((1, -27), (1, 0, 0, 5)), cubic_root, 60) is None
        with pytest.raises(AsymptoticsError, match="disagrees with the numeric value"):
            exact_min_root(((1, 1), (1, -27)), mp.mpf(1) / 28, 60)
        # equal means within 10^-digits |r0|
        near = mp.mpf(1) / 27 * (1 + mp.mpf(10) ** -65)
        assert exact_min_root(((1, 1), (1, -27)), near, 60) == F(1, 27)
        with pytest.raises(AsymptoticsError, match="disagrees with the numeric value"):
            exact_min_root(((1, 1), (1, -27 - F(1, 10 ** 47))), mp.mpf(1) / 27, 60)


# exact_min_root before it read smallest_root's r0, kept as the reference:
# it ranked the closed-form roots itself and gave up on any factor of
# degree >= 3
def ref_exact_min_root(factors):
    """(r0, R) exactly, when every factor resolves; (None, None) otherwise."""
    roots = []
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


# the minimal root lies in a factor of degree <= 2 beside a cubic factor
GAINED = {
    "level22": (8, F(-525, 968)),
    "level33": (QuadElem(3, 1, 2), QuadElem(3, F(-7113, 5324), F(637, 21296))),
}


def test_exact_min_root_matches_the_ranking_it_replaced():
    seen = set()
    for key in catalog.sequence_keys():
        seq = catalog.sequence(key)
        if seq.G_factors is None:
            continue
        try:
            r0, _ = smallest_root(seq.G, FAST)
        except AsymptoticsError:
            continue
        seen.add(key)
        with mp.workdps(FAST.digits + 10):
            root = exact_min_root(seq.G_factors, r0, FAST.digits)
        pr = asymptotic_params(seq.G, seq.H, FAST, factors=seq.G_factors)
        ref_root, ref_R = ref_exact_min_root(seq.G_factors)
        if ref_root is not None:
            assert root == ref_root, key
            assert (pr.R_exact, pr.b1_exact) == (ref_R, asymptotics._b1_exact(
                seq.G, seq.H, ref_root)), key
        elif key in GAINED:
            assert (pr.R_exact, pr.b1_exact) == GAINED[key], key
            assert root == F(1) / GAINED[key][0], key
        else:
            assert root is pr.R_exact is pr.b1_exact is None, key
    assert {"level7", "15C", "level11", "level23", "level35"} | set(GAINED) <= seen
    assert not {"level9", "weight2-5", "weight2-6C"} & seen


def test_b1_closed_forms():
    p7 = analyze("level7", FAST, with_C=False)
    assert p7.R_exact == 27 and p7.b1_exact == F(-65, 144)
    pa = analyze("apery", FAST, with_C=False)
    assert pa.b1_exact == QuadElem(2, F(-3, 4), F(15, 64))
    for key, ref in catalog.REFERENCE_ASYMPTOTICS.items():
        pr = analyze(key, FAST, with_C=False)
        if "R" in ref:
            assert pr.R_exact == ref["R"], key
            assert pr.b1_exact == ref["b1"], key


def test_numeric_matches_exact_to_high_precision():
    with mp.workdps(60):
        for key in ("level15A", "level14B", "15C"):
            pr = analyze(key, FAST, with_C=False)
            diff = abs(pr.R - to_mp(pr.R_exact)) / abs(to_mp(pr.R_exact))
            assert diff < mp.mpf("1e-40"), key
            diff = abs(pr.b1 - to_mp(pr.b1_exact)) / abs(to_mp(pr.b1_exact))
            assert diff < mp.mpf("1e-40"), key


@pytest.mark.parametrize("name, wrong", [
    ("factor_roots_exact", lambda factor: [F(1, 28)]),
    ("factor_roots_exact", lambda factor: [1 / (27 + F(1, 10 ** 48))]),
    ("exact_min_root", lambda factors, r0, digits: F(1, 28)),
    ("exact_min_root", lambda factors, r0, digits: 1 / (27 + F(1, 10 ** 48))),
    ("_b1_exact", lambda G, H, r0: F(-65, 144) * (1 + F(1, 10 ** 55))),
])
def test_exact_values_are_cross_checked_against_the_numeric_path(monkeypatch, name, wrong):
    # level7 has R = 27 and b1 = -65/144; a gap above 10^-digits raises, in
    # exact_min_root for a wrong factor root, in the R and b1 check otherwise
    monkeypatch.setattr(asymptotics, name, wrong)
    with pytest.raises(AsymptoticsError, match="disagrees with the numeric value"):
        analyze("level7", FAST, with_C=False)


def test_alpha_is_rederived_not_assumed():
    pr = analyze("level24", FAST, with_C=False)
    assert pr.alpha == F(-3, 2)
    assert pr.certificate["gprime_at_r0"] > 0


def test_estimate_C_small_run():
    pr = analyze("level7", FAST)
    want = conjectured_C("level7")
    assert abs(pr.C - want) / want < mp.mpf("1e-10")
    assert pr.C_error < mp.mpf("1e-8")


def test_level11_C_decimal_is_a_truncated_prefix():
    # C = 0.32873686..., so the quoted 7 digits are truncated: rounding
    # would give 0.3287369
    want = catalog.REFERENCE_ASYMPTOTICS["level11"]["C_decimal"]
    pr = analyze("level11", FAST)
    for C in (conjectured_C("level11"), pr.C):
        assert mp.nstr(C, 15).startswith(want)


def test_estimate_C_needs_enough_terms():
    terms = catalog.sequence("level7").terms(50)
    with pytest.raises(AsymptoticsError):
        estimate_C(terms, mp.mpf(27), mp.mpf(-65) / 144,
                   PrecisionConfig(terms=50, diff_order=6))


def test_ratio_invariant():
    # |T(n+1)/T(n) - R| * n stays bounded (first-order tail)
    seq = catalog.sequence("level11")
    terms = seq.terms(2000)
    pr = analyze("level11", FAST, with_C=False)
    with mp.workdps(40):
        R = pr.R
        samples = []
        for n in (50, 200, 800, 1999):
            ratio = mp.mpf(terms[n]) / mp.mpf(terms[n - 1])
            samples.append(abs(ratio - R) * n)
        bound = 3 * abs(R)  # generous; the true constant is |b1 - (-3/2)| R-ish
        assert all(s < bound for s in samples), samples


def test_second_order_consistency():
    # n^2 (T(n) n^(3/2) R^-n / C - 1 - b1/n) bounded on 100 <= n <= 2000
    cfg = PrecisionConfig(digits=60, terms=2000, diff_order=8)
    pr = analyze("level15A", cfg)
    terms = catalog.sequence("level15A").terms(2000)
    with mp.workdps(60):
        vals = []
        for n in (100, 400, 1000, 2000):
            u = to_mp(terms[n]) * mp.power(n, mp.mpf(3) / 2) / mp.power(pr.R, n)
            vals.append(abs(n * n * (u / pr.C - 1 - pr.b1 / n)))
        assert max(vals) < 10 * min(vals) + 1


def test_complex_pair_conjugate_params():
    a = analyze("15C", FAST, with_C=False)
    b = analyze("15Cbar", FAST, with_C=False)
    assert a.R_exact.conj() == b.R_exact
    assert a.b1_exact.conj() == b.b1_exact
    assert abs(mp.conj(a.R) - b.R) < mp.mpf("1e-40")


def test_apery_constant_flags_text_variant():
    chk = apery_constant_check(PrecisionConfig(digits=60, terms=600, diff_order=7))
    assert chk["matches_cohen"]
    assert not chk["variant_consistent"]


def test_higher_order_rows_analyzable_with_certificates():
    # the 5/6/7-term rows have no tabulated asymptotics; the machinery still
    # certifies a unique simple minimal root and produces parameters
    cfg = PrecisionConfig(digits=60, terms=200, diff_order=5)
    for key in ("level22", "level23", "level33", "level35"):
        pr = analyze(key, cfg, with_C=False)
        assert pr.certificate["modulus_gap"] > mp.mpf("0.1"), key
        assert pr.certificate["separation"] > mp.mpf("0.1"), key


def test_sato_series():
    with mp.workdps(60):
        pi_inv = 1 / mp.pi
        errs = [abs(evaluate_sato_series(n) - pi_inv) for n in (1, 3, 6, 9, 15)]
    assert errs[0] < mp.mpf("1e-2")
    assert errs[-1] < mp.mpf("1e-12")
    assert all(errs[i + 1] < errs[i] for i in range(len(errs) - 1))
    with pytest.raises(ValueError):
        evaluate_sato_series(-1)


def test_precision_config_guards():
    with pytest.raises(AsymptoticsError):
        PrecisionConfig(digits=10)
    with pytest.raises(AsymptoticsError):
        PrecisionConfig(terms=50, diff_order=8)


def test_diff_order_must_be_positive():
    for k in (0, -1):
        with pytest.raises(AsymptoticsError, match="diff_order"):
            PrecisionConfig(diff_order=k)
