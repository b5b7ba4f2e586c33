import copy
import pickle
import re
from fractions import Fraction as F
from itertools import islice
from math import comb

import pytest

from aperylike import catalog
from aperylike.recurrence import (
    InexactDivision,
    Poly,
    RecurrenceSpec,
    Sequence,
    asz_gh,
    cubic_from_quadratic_asz,
    cubic_from_quadratic_ctyz,
    fourterm_params,
    generate_terms,
    is_self_starting,
    mobius_shift,
    poly_product,
    recurrence_from_gh,
    recurrence_from_quadratic,
    scaled_integrality_check,
)
from aperylike.rings import RING_Q, RING_Z, QuadElem, RingError, conj


def brute_apery(n):
    return sum(comb(n, k) ** 2 * comb(n + k, k) ** 2 for k in range(n + 1))


def test_poly_iterates_over_its_coefficients_and_stops():
    p = Poly([1, 2])
    # bounded first: a regression fails here instead of hanging below
    assert list(islice(iter(p), 5)) == [1, 2]
    assert list(p) == [1, 2] and len(p) == 2 and p[5] == 0
    assert Poly(p) == p and poly_product([p]) == p
    row = catalog.LEVEL_ROWS["level14A"]
    assert mobius_shift([Poly(f) for f in row.b2_factors], Poly(row.h_num), 0, 4) == \
        mobius_shift(row.b2_factors, row.h_num, 0, 4)


def test_poly_power_refuses_a_negative_exponent():
    p = Poly([1, 1])
    assert p ** 0 == Poly([1]) and p ** 2 == Poly([1, 2, 1])
    for e in (-1, -3):
        with pytest.raises(ValueError, match="exponent >= 0, got %d" % e):
            p ** e


def test_gh_level4_collapses_to_central_binomial_cube():
    # G = 1 - 64X, H = 8X: (n+1)^3 T(n+1) = 8(2n+1)^3 T(n)
    spec = recurrence_from_gh(Poly([1, -64]), Poly([0, 8]))
    assert spec.order == 1
    assert spec.solved_coeff(1) == Poly([8, 48, 96, 64])  # 8(2n+1)^3
    terms = generate_terms(spec, 6, RING_Z)
    assert terms == [comb(2 * n, n) ** 3 for n in range(7)]


def test_gh_level11_matches_printed_four_term():
    seq = catalog.sequence("level11")
    spec = seq.spec
    assert spec.solved_coeff(1) == 2 * (Poly([1, 2]) * Poly([2, 5, 5]))
    assert spec.solved_coeff(2) == Poly([0, -8, 0, -56])       # -8n(7n^2+1)
    assert spec.solved_coeff(3) == 22 * Poly([0, 1]) * Poly([-1, 2]) * Poly([-1, 1])


def test_gh_level24_middle_term():
    seq = catalog.sequence("level24")
    assert seq.spec.solved_coeff(2) == Poly([0, 4, 0, 16])  # 4n(4n^2+1)


def test_gh_preconditions():
    with pytest.raises(ValueError):
        recurrence_from_gh(Poly([2, 1]), Poly([0, 1]))
    with pytest.raises(ValueError):
        recurrence_from_gh(Poly([1, 1]), Poly([1, 1]))
    # an empty relation has no lead to solve for, yet would read as self-starting
    with pytest.raises(ValueError, match="lead coefficient"):
        RecurrenceSpec(())


def test_quadratic_examples():
    franel = recurrence_from_quadratic(7, 2, 8)
    assert franel.solved_coeff(1) == Poly([2, 7, 7])
    assert franel.solved_coeff(2) == Poly([0, 0, 8])
    t = generate_terms(franel, 5, RING_Z)
    assert t == [sum(comb(n, k) ** 3 for k in range(n + 1)) for n in range(6)]

    r3 = recurrence_from_quadratic(11, 3, 1)
    assert generate_terms(r3, 4, RING_Z) == [1, 3, 19, 147, 1251]

    degenerate = recurrence_from_quadratic(0, 0, 0)
    assert generate_terms(degenerate, 4, RING_Z) == [1, 0, 0, 0, 0]


def test_asz_cubic_examples():
    apery = cubic_from_quadratic_asz(-17, -6, -72)
    assert generate_terms(apery, 5, RING_Z) == [brute_apery(n) for n in range(6)]
    # (11,3,1): alpha - 2 beta = 5, alpha^2 + 4 gamma = 125
    s = cubic_from_quadratic_asz(11, 3, 1)
    assert s.solved_coeff(1) == -(Poly([1, 2]) * Poly([5, 11, 11]))
    assert s.solved_coeff(2) == Poly([0, 0, 0, -125])
    # alpha = gamma = 0 collapse: (n+1)^3 s(n+1) = 2 beta (2n+1) s(n)
    z = cubic_from_quadratic_asz(0, 5, 0)
    assert z.solved_coeff(1) == Poly([10, 20])
    assert z.solved_coeff(2) == Poly([0])


def test_asz_gh_reproduces_cubic_relation_identically():
    for trip in catalog.SPORADIC_SET + ((3, 1, 2),):
        G, H = asz_gh(*trip)
        built = recurrence_from_gh(G, H)
        direct = cubic_from_quadratic_asz(*trip)
        assert built.coeff_polys == direct.coeff_polys


def test_ctyz_examples_and_binomial_link():
    spec = cubic_from_quadratic_ctyz(10, 3, -9)
    assert spec.solved_coeff(1) == 2 * (Poly([1, 2]) * Poly([3, 10, 10]))
    assert spec.solved_coeff(2) == -36 * Poly([0, -1, 0, 4])
    # T(n) = binom(2n, n) t(n) for all six sporadic triples
    for trip in catalog.SPORADIC_SET:
        t = generate_terms(recurrence_from_quadratic(*trip), 200, RING_Z)
        T = generate_terms(cubic_from_quadratic_ctyz(*trip), 200, RING_Z)
        assert all(T[n] == comb(2 * n, n) * t[n] for n in range(201))
    zero = cubic_from_quadratic_ctyz(0, 0, 0)
    assert generate_terms(zero, 3, RING_Z) == [1, 0, 0, 0]


def test_fourterm_params_table():
    for key, want in catalog.REFERENCE_FOURTERM_PARAMS.items():
        seq = catalog.sequence(key)
        assert tuple(fourterm_params(seq.G, seq.H)) == tuple(want), key


def test_fourterm_params_errors():
    with pytest.raises(ValueError):
        fourterm_params(Poly([1, 1]), Poly([0, 1]))  # degree too low
    G = catalog.sequence("level20").G
    H = catalog.sequence("level20").H
    with pytest.raises(ValueError, match="self-starting"):
        fourterm_params(G, H)


def test_is_self_starting():
    ok, wit = is_self_starting(catalog.sequence("level24").spec)
    assert ok and wit is None
    ok, wit = is_self_starting(catalog.sequence("level20").spec)
    assert not ok and wit == (3, 0)
    ok, wit = is_self_starting(catalog.sequence("level13").spec)
    assert not ok
    ok, _ = is_self_starting(catalog.sequence("level11").spec)
    assert ok
    # generic five-term family members are self-starting too
    fam = catalog.EPSILON_FAMILIES[14]
    sdef = fam.specialize(7)
    ok, _ = is_self_starting(sdef.spec)
    assert ok and sdef.spec.order == 4


def test_self_starting_means_padding_is_inert():
    # seeding the window with garbage at negative indices cannot change a
    # self-starting stream, because those coefficients vanish there
    for key in ("level11", "level24", "level14A", "level15B"):
        seq = catalog.sequence(key)
        plain = generate_terms(seq.spec, 30, seq.ring)
        k = seq.spec.order
        for j in range(2, k + 1):
            p = seq.spec.coeff_polys[j]
            assert all(p(n) == 0 for n in range(j - 1))
        assert plain[0] == 1


def test_generate_terms_reference_rows():
    assert catalog.sequence("apery").terms(5) == [1, 5, 73, 1445, 33001, 819005]
    assert catalog.sequence("level11").terms(10) == catalog.REFERENCE_TERMS["level11"]
    assert catalog.sequence("level13").terms(6) == catalog.REFERENCE_TERMS["level13"]
    assert catalog.sequence("14C").terms(10) == catalog.REFERENCE_TERMS["14C"]


def test_inexact_division_raises_with_index():
    row = catalog.LEVEL_ROWS["level13"]
    spec = recurrence_from_gh(row.G(), Poly(row.h_num))
    with pytest.raises(InexactDivision) as err:
        generate_terms(spec, 5, RING_Z)
    assert err.value.index == 1  # T(1) = 3/2 already breaks integrality


@pytest.mark.parametrize("exc, message", [
    (InexactDivision(5), "inexact division at index 5"),
    (InexactDivision(7, "T(7) has denominator 35"), "T(7) has denominator 35"),
])
@pytest.mark.parametrize("clone", [
    lambda e: pickle.loads(pickle.dumps(e)), copy.copy, copy.deepcopy,
])
def test_inexact_division_survives_pickle_and_copy(exc, message, clone):
    # the default reduction rebuilt it from args == (message,), passing the
    # message as the index
    got = clone(exc)
    assert type(got) is InexactDivision
    assert (got.index, str(got)) == (exc.index, message)


def test_scaled_integrality():
    terms = catalog.sequence("level13").terms(20)
    rep4 = scaled_integrality_check(terms, 4)
    assert rep4.ok and rep4.scaled_terms[:11] == catalog.REFERENCE_TERMS["13scaled"]
    rep2 = scaled_integrality_check(terms, 2)
    assert not rep2.ok and rep2.first_failure == 2
    rep1 = scaled_integrality_check([1, 5, 73], 1)
    assert rep1.ok


@pytest.mark.parametrize("terms, n_max", [([1, 5, 73], -1), ([1, 5, 73], -4),
                                          ([1, 5, 73], 3), ([1, 5, 73], 10), ([], None)])
def test_scaled_integrality_refuses_an_n_max_outside_the_terms(terms, n_max):
    # n_max = -1 used to report ok having checked nothing, and n_max past
    # the list raised IndexError
    want = len(terms) - 1 if n_max is None else n_max
    with pytest.raises(ValueError, match=r"^n_max must index the %d terms, got %d$"
                       % (len(terms), want)):
        scaled_integrality_check(terms, 2, n_max)
    if terms:
        assert scaled_integrality_check(terms, 2, 0).ok
        assert scaled_integrality_check(terms, 1, len(terms) - 1).ok


@pytest.mark.parametrize("term", [0.1, 1.0, QuadElem(2, 1, 1), QuadElem(5, 3, 0)])
def test_scaled_integrality_refuses_a_term_that_is_not_rational(term):
    # a float term went through Fraction(0.1), and a QuadElem raised a bare TypeError
    with pytest.raises(RingError, match=r"^%s is not an exact rational \(int or Fraction\)$"
                       % re.escape(repr(term))):
        scaled_integrality_check([1, term], 10)
    assert scaled_integrality_check([1, F(1, 10)], 10).ok


def test_conjugation_symmetry_to_500():
    for base, barred in (("14C", "14Cbar"), ("15C", "15Cbar")):
        a = catalog.sequence(base).terms(500)
        b = catalog.sequence(barred).terms(500)
        assert all(conj(x) == y for x, y in zip(a, b))


def test_sequence_def_json_round_trip(tmp_path):
    docs = catalog.export_definitions()
    assert len(docs) == 38
    for doc in docs:
        sdef = catalog.sequence(doc["name"])
        back = Sequence.from_json(sdef.to_json())
        assert back.G == sdef.G and back.H == sdef.H and back.ring == sdef.ring
        assert back.terms(8) == sdef.terms(8), doc["name"]
    path = tmp_path / "def.json"
    import json
    path.write_text(json.dumps(catalog.sequence("level24").to_json()))
    loaded = Sequence.load(str(path))
    assert type(loaded) is type(catalog.sequence("level24"))
    assert loaded.terms(6) == catalog.sequence("level24").terms(6)
    with pytest.raises(ValueError, match="no \\(G, H\\) data"):
        catalog.sequence("zagier5").to_json()


def test_weight_one_streams_match_oracles():
    for key in ("zagier5", "zagier6A", "zagier6B", "zagier6C", "zagier8", "zagier9"):
        seq = catalog.sequence(key)
        assert seq.terms(25) == [seq.oracle(n) for n in range(26)], key
