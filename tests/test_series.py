import random

import pytest
from hypothesis import given, settings, strategies as st

from aperylike import catalog
from aperylike.series import (
    FormalSeries,
    SeriesError,
    compose,
    geometric_over,
    series_arith,
    verify_asz,
    verify_ctyz,
    verify_gf_independence,
)


def test_arith_examples():
    a = FormalSeries([1, 1, 0, 0])
    b = FormalSeries([1, -1, 0, 0])
    assert (a * b).coeffs == [1, 0, -1, 0]
    geo = 1 / FormalSeries([1, -1] + [0] * 6)
    assert geo.coeffs == [1] * 8
    u = geometric_over([1, -7, -8], 6)
    assert u.coeffs[:4] == [0, 1, 7, 57]
    assert series_arith(a, b, "add").coeffs == [2, 0, 0, 0]


def test_division_needs_unit():
    with pytest.raises(SeriesError):
        FormalSeries([1, 2, 3]) / FormalSeries([0, 1, 1])


def test_compose_examples():
    geo = FormalSeries([1] * 9)
    sq = FormalSeries([0, 0, 1] + [0] * 6)
    out = compose(geo, sq)
    assert out.coeffs == [1, 0, 1, 0, 1, 0, 1, 0, 1]
    ident = FormalSeries([0, 1] + [0] * 7)
    f = FormalSeries([0, 2, -3, 5, 0, 1, 0, 0, 0])
    assert compose(ident, f) == f
    with pytest.raises(SeriesError):
        compose(geo, FormalSeries([1, 1]))


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(-5, 5), min_size=5, max_size=5),
       st.lists(st.integers(-5, 5), min_size=5, max_size=5),
       st.integers(1, 5))
def test_mul_div_round_trip(a, b, lead):
    A = FormalSeries(a)
    B = FormalSeries([lead] + b[1:])
    assert (A * B) / B == A


def test_compose_associative_on_valuation_one():
    f = FormalSeries([1, 2, 3, 4, 5, 6, 7, 8])
    g = FormalSeries([0, 1, -2, 1, 0, 3, 0, 0])
    h = FormalSeries([0, 2, 1, 1, -1, 0, 0, 0])
    assert compose(compose(f, g), h) == compose(f, compose(g, h))


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


def test_gf_independence_surd_parts_cancel():
    # the conjugate pair alone forces rational coefficients: their sum of
    # generating functions is its own conjugate
    from aperylike.recurrence import generate_terms
    from aperylike.rings import QuadElem, conj
    fam = catalog.EPSILON_FAMILIES[14]
    eps = QuadElem(2, 0, 4)
    sdef = catalog.epsilon_specialize(fam, eps)
    terms = generate_terms(sdef.spec(), 8, sdef.ring)
    from aperylike.series import geometric_over
    u = geometric_over([1, eps, 8], 8)
    total = FormalSeries([QuadElem(2, 0, 0)] * 9)
    upow = FormalSeries([1] + [0] * 8)
    for n in range(8):
        upow = (upow * u).truncate(8)
        total = total + terms[n] * upow
    for c in total.coeffs:
        assert conj(c) == c  # rational


def test_clausen_checks_reject_an_empty_order():
    for fn in (verify_asz, verify_ctyz):
        assert fn(7, -8, 0, order=1) == (True, None)
        for order in (0, -4):
            with pytest.raises(ValueError, match="order must be >= 1"):
                fn(7, -8, 0, order=order)
