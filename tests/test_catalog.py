from fractions import Fraction as F
from math import comb

import pytest

from aperylike import catalog
from aperylike.catalog import (
    EPSILON_FAMILIES,
    LEVEL_ROWS,
    SPORADIC_SET,
    UnknownKeyError,
    binomial_oracle,
    get_entry,
    printed_five_term,
    sequence,
)
from aperylike.recurrence import (
    Poly,
    Sequence,
    generate_terms,
    mobius_shift,
    poly_product,
)
from aperylike.rings import QuadElem, RING_Q, RING_Z


def test_every_row_has_unit_constant_terms():
    for key, row in LEVEL_ROWS.items():
        assert row.G()[0] == 1, key
        assert Poly(row.h_num)[0] == 0, key
    for key in catalog.sequence_keys():
        seq = sequence(key)
        if seq.G is not None:
            assert seq.G[0] == 1 and seq.H[0] == 0, key


def test_table_has_27_level_rows_plus_star():
    assert len(catalog.TABLE_LEVEL_KEYS) == 27
    assert "level13star" in LEVEL_ROWS


def test_get_entry_examples():
    lvl7 = get_entry("level7")
    assert lvl7.G() == Poly([1, 1]) * Poly([1, -27])
    assert Poly(lvl7.h_num) == Poly([0, 4, 12])

    lvl15b = get_entry("level15B")
    assert lvl15b.G() == Poly([1, 12]) * Poly([1, 22, 125])
    assert Poly(lvl15b.h_num) == F(-3, 2) * (Poly([0, 1]) * Poly([2, 25]) * Poly([3, 40]))

    z5 = get_entry("zagier5")
    assert z5.triple == (11, 3, 1) and z5.oeis == "A005258"

    with pytest.raises(UnknownKeyError):
        get_entry("level99")


def test_binomial_oracle_examples():
    assert binomial_oracle("apery", 2) == 73
    assert binomial_oracle("franel", 3) == 56
    assert binomial_oracle("level10", 2) == 18
    assert binomial_oracle("level24", 2) == 10
    with pytest.raises(UnknownKeyError):
        binomial_oracle("level11", 2)  # no closed form committed


def test_epsilon_specialize_14B():
    fam = EPSILON_FAMILIES[14]
    sdef = fam.specialize(9)
    from aperylike.recurrence import fourterm_params
    assert tuple(fourterm_params(sdef.G, sdef.H)) == (11, 5, -121, -20, 98)
    assert sdef.G.degree == 3 and sdef.H.degree == 3


def test_epsilon_specialize_rings():
    fam14 = EPSILON_FAMILIES[14]
    c = fam14.specialize(QuadElem(2, 0, 4))
    assert c.ring.kind == "quad" and c.ring.d == 2
    fam15 = EPSILON_FAMILIES[15]
    g = fam15.specialize(QuadElem(-1, 0, 2))
    assert g.ring.kind == "quad" and g.ring.d == -1
    assert g.terms(2) == [QuadElem(-1, 1, 0), QuadElem(-1, 2, 2), QuadElem(-1, 6, 8)]
    # a rational eps written as a QuadElem streams in the ring of its value
    half = fam14.specialize(QuadElem(2, F(1, 2), 0))
    assert half.ring == RING_Q
    assert half.terms(6) == fam14.specialize(F(1, 2)).terms(6)
    assert fam15.specialize(QuadElem(-1, 3, 0)).ring == RING_Z


def test_specialized_matches_generic_five_term():
    # the degree-reduced four-term relation and the printed five-term
    # relation are independent code paths; their streams must agree
    for level, fam in EPSILON_FAMILIES.items():
        for name, eps in fam.specials:
            sdef = fam.specialize(eps)
            assert sdef.key == name
            four = generate_terms(sdef.spec, 100, sdef.ring)
            five = generate_terms(printed_five_term(level, eps), 100, sdef.ring)
            assert four == five, (level, name)


def test_printed_five_term_equals_gh_construction():
    # the generalT construction from (B^2, H) must equal the literally
    # printed five-term coefficients; at a special eps the printed last
    # coefficient vanishes and the construction stops at four terms
    irrational = {14: 1 + QuadElem(2, 0, 1), 15: QuadElem(-1, 1, 1)}
    for level, fam in EPSILON_FAMILIES.items():
        specials = [eps for _, eps in fam.specials]
        for eps in (0, 3, 7, -2, F(7, 3), irrational[level], *specials):
            built = fam.specialize(eps).spec.coeff_polys
            printed = printed_five_term(level, eps).coeff_polys
            assert built == printed[:len(built)], (level, eps)
            assert all(p == Poly([0]) for p in printed[len(built):]), (level, eps)


def test_special_eps_are_exactly_the_square_discriminants():
    # level 14: sides 8w^2 + eps w + 1 and w^2 + (eps-7)w + 1
    # level 15: sides 9w^2 + (5+eps)w + 1 and -w^2 + eps w + 1
    assert {eps for _, eps in EPSILON_FAMILIES[14].specials} == \
        {5, 9, QuadElem(2, 0, 4), QuadElem(2, 0, -4)}
    # eps^2 - 32 = 0 and (eps-7)^2 - 4 = 0
    for eps in (QuadElem(2, 0, 4), QuadElem(2, 0, -4)):
        assert eps * eps - 32 == 0
    for eps in (5, 9):
        assert (eps - 7) ** 2 - 4 == 0
    assert {eps for _, eps in EPSILON_FAMILIES[15].specials} == \
        {1, -11, QuadElem(-1, 0, 2), QuadElem(-1, 0, -2)}
    for eps in (1, -11):
        assert (5 + eps) ** 2 - 36 == 0
    for eps in (QuadElem(-1, 0, 2), QuadElem(-1, 0, -2)):
        assert eps * eps + 4 == 0
    # exactly there B_eps^2 drops from degree 4 to 3
    for fam in EPSILON_FAMILIES.values():
        for _, eps in fam.specials:
            assert fam.specialize(eps).G.degree == 3, eps
        for eps in (0, F(7, 3), 100):
            assert fam.specialize(eps).G.degree == 4, eps


@pytest.mark.parametrize("source, target, eps, m", [
    ("level6A", "level6B", 36, 3),
    ("level6A", "level6C", 32, 3),
    ("level14A", "level14B", 4, 4),
    ("level15A", "level15B", -12, 4),
])
def test_mobius_shift_links_stored_rows(source, target, eps, m):
    # 1/X_target = 1/X_source + eps, and the shift back by -eps undoes it
    for a, b, e in ((source, target, eps), (target, source, -eps)):
        factors, H = mobius_shift(LEVEL_ROWS[a].b2_factors, LEVEL_ROWS[a].h_num, e, m)
        assert poly_product(factors) == LEVEL_ROWS[b].G(), (a, b)
        assert H == Poly(LEVEL_ROWS[b].h_num), (a, b)


def test_mobius_shift_raises_where_h_is_not_a_polynomial():
    # level13 -> level13star is the shift by 1 at weight 3, but H* is
    # (0, 2, 10, -6, 6)/(1 - X)^2: the division leaves a remainder
    row = LEVEL_ROWS["level13"]
    with pytest.raises(ValueError, match="not a polynomial"):
        mobius_shift(row.b2_factors, row.h_num, 1, 3)
    with pytest.raises(ValueError, match="deg G > 2"):
        mobius_shift(row.b2_factors, row.h_num, 1, 2)


def test_family_terms_are_binomial_transforms_of_the_base_row():
    # Z_eps = Z_base / (1 - e Y) with X_base = Y / (1 - e Y), e = eps - base_eps,
    # so T_eps(n) = sum_k C(n, k) e^(n-k) T_base(k); no (G, H) is involved
    for fam in EPSILON_FAMILIES.values():
        base = sequence(fam.base).terms(30)
        for eps in (0, F(7, 3), *[eps for _, eps in fam.specials]):
            e = eps - fam.base_eps
            want = [sum(comb(n, k) * e ** (n - k) * base[k] for k in range(n + 1))
                    for n in range(31)]
            assert fam.specialize(eps).terms(30) == want, (fam.level, eps)


def test_sporadic_set_as_printed():
    assert (12, 4, -32) in SPORADIC_SET
    assert len(SPORADIC_SET) == 6
    # the parameterised level-8 rows use the sign-flipped triple; the
    # correction is recorded on the rows themselves
    assert catalog.ZAGIER_ROWS["zagier8"].triple == (-12, -4, -32)
    assert catalog.WEIGHT2_ROWS["weight2-8"].triple == (-12, -4, -32)
    assert catalog.WEIGHT2_ROWS["weight2-8"].corrected
    assert catalog.LEVEL_ROWS["level8"].corrected


def test_export_definitions_parse_back():
    docs = catalog.export_definitions()
    assert len(docs) >= 20
    for doc in docs:
        sdef = Sequence.from_json(doc)
        assert sdef.G[0] == 1 and sdef.H[0] == 0


def test_aliases():
    assert sequence("apery").key == "weight2-6A"
    assert sequence("14A").key == "level14A"
    assert sequence("franel").key == "zagier6C"
    with pytest.raises(UnknownKeyError):
        sequence("nope")


def test_thirteen_scaled_is_x_over_4_substitution():
    row = LEVEL_ROWS["level13"]
    seq = sequence("13scaled")
    assert seq.G == row.G().scale_arg(4)
    assert seq.H == Poly(row.h_num).scale_arg(4)
    t13 = sequence("level13").terms(12)
    s13 = seq.terms(12)
    assert all(s13[n] == t13[n] * 4 ** n for n in range(13))
