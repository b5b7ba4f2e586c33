"""Differential tests: the per-ring stream kernels against a generic
reference loop that does ring-scalar arithmetic (QuadElem, Fraction or
int) on every step."""

from fractions import Fraction as F
from itertools import islice
from math import lcm

import pytest

from aperylike import catalog, congruence, recurrence
from aperylike.catalog import EPSILON_FAMILIES
from aperylike.congruence import primes_below
from aperylike.recurrence import Poly, RecurrenceSpec, generate_terms, term_iterator, term_pairs
from aperylike.rings import (
    RING_Q,
    RING_Z,
    QuadElem,
    RingError,
    RingTag,
    reduce_mod,
    reduce_pair,
    scalar_denominator,
)

N_MAX = 300
SQRT2 = QuadElem(2, 0, 1)
RING_SQRT2 = RingTag("quad", 2)


def reference_terms(spec, ring, n_max):
    """T(0..n_max) by the generic loop: clear denominators once, then per
    step Horner-evaluate each coefficient polynomial and divide in the
    ring's scalars (exactly over Z, in the fraction field otherwise)."""
    L = 1
    for p in spec.coeff_polys:
        for c in p.coeffs:
            L = lcm(L, scalar_denominator(c))
    cleared = [tuple(c * L for c in p.coeffs) for p in spec.coeff_polys]

    def horner(coeffs, n):
        out = coeffs[-1]
        for c in reversed(coeffs[:-1]):
            out = out * n + c
        return out

    k = spec.order
    terms = [ring.coerce(1)]
    while len(terms) <= n_max:
        m = len(terms) - 1
        s = ring.zero()
        for j in range(1, k + 1):
            if m + 1 - j >= 0 and terms[m + 1 - j]:
                s = s + horner(cleared[j], m) * terms[m + 1 - j]
        den = horner(cleared[0], m)
        if ring.kind == "Z":
            q, r = divmod(-s, den)
            assert not r, "inexact division at %d" % (m + 1)
            terms.append(q)
        elif ring.kind == "Q":
            terms.append(F(-s) / den)
        else:
            terms.append((-s) / den)
    return terms[:n_max + 1]


def _epsilon_defs():
    """The quad-ring specials of each family, plus one generic quad eps."""
    defs = []
    for fam, generic in ((EPSILON_FAMILIES[14], 1 + SQRT2),
                         (EPSILON_FAMILIES[15], QuadElem(-1, 1, 1))):
        for _, eps in fam.specials:
            if isinstance(eps, QuadElem):
                defs.append(fam.specialize(eps))
        defs.append(fam.specialize(generic))
    return defs


def _hand_built_specs():
    """Q(sqrt(2)) relations whose terms are not integral; the second one
    has a surd in its lead coefficient."""
    nonintegral = RecurrenceSpec((Poly([1, 1]) ** 2, -Poly([1 + SQRT2, 1]),
                                  -Poly([0, 0, F(1, 3)])))
    surd_lead = RecurrenceSpec((Poly([1 + SQRT2, 1]) * Poly([1, 1]),
                                -Poly([2, SQRT2]), -Poly([0, 1])))
    return nonintegral, surd_lead


@pytest.mark.parametrize("key", catalog.sequence_keys())
def test_kernel_matches_generic_loop_on_catalog(key):
    seq = catalog.sequence(key)
    want = reference_terms(seq.spec, seq.ring, N_MAX)
    got = seq.terms(N_MAX)
    assert got == want
    assert [type(t) for t in got] == [type(t) for t in want]


@pytest.mark.parametrize("key", ["level11", "14C", "level13"])
def test_kernel_matches_generic_loop_across_block_edges(key):
    # one row per kernel (Z, Z[sqrt(d)], Q); the coefficients come in
    # blocks of up to 512 indices, so 1,100 terms cross several edges
    seq = catalog.sequence(key)
    want = reference_terms(seq.spec, seq.ring, 1100)
    got = seq.terms(1100)
    assert got == want
    assert [type(t) for t in got] == [type(t) for t in want]


@pytest.mark.parametrize("key", ["level11", "level13", "14C"])
def test_streams_evaluate_coefficients_only_up_to_the_last_index(key, monkeypatch):
    # one row per kernel (Z, Q, Z[sqrt(2)]): T(0..n_max) needs the
    # coefficients at the n_max step indices 0 <= m < n_max and no more
    seq = catalog.sequence(key)
    want = reference_terms(seq.spec, seq.ring, 1100)
    lengths = []
    coeff_blocks = recurrence._coeff_blocks

    def spy(polys, stop):
        for start, values in coeff_blocks(polys, stop):
            lengths.append(len(values[0]))
            yield start, values
    monkeypatch.setattr(recurrence, "_coeff_blocks", spy)
    for n_max in (0, 1, 20, 511, 512, 513, 1100):
        lengths.clear()
        assert generate_terms(seq.spec, n_max, seq.ring) == want[:n_max + 1]
        assert sum(lengths) == n_max and max(lengths, default=0) <= 512, n_max
        lengths.clear()
        assert list(term_pairs(seq.spec, seq.ring, n_max)) == [
            (t.a, t.b) if isinstance(t, QuadElem) else (t, 0) for t in want[:n_max + 1]]
        assert sum(lengths) == n_max, n_max


@pytest.mark.parametrize("ring", [RING_Z, RING_Q, RING_SQRT2])
def test_relation_of_order_zero_streams_zeros(ring):
    # (n+1)^3 T(n+1) = 0: T = 1, 0, 0, ... in every kernel
    spec = RecurrenceSpec((Poly([1, 1]) ** 3,))
    got = generate_terms(spec, 600, ring)
    assert got == reference_terms(spec, ring, 600)
    assert got[:3] == [1, 0, 0]


def test_kernel_matches_generic_loop_on_epsilon_specials():
    defs = _epsilon_defs()
    assert sorted(s.ring.d for s in defs) == [-1, -1, -1, 2, 2, 2]
    for sdef in defs:
        assert sdef.terms(N_MAX) == reference_terms(sdef.spec, sdef.ring, N_MAX), sdef.key


def test_pair_residues_equal_reduce_mod():
    primes = primes_below(48)
    keys = [k for k in catalog.sequence_keys() if catalog.sequence(k).ring.kind == "quad"]
    assert sorted(keys) == ["14C", "14Cbar", "15C", "15Cbar"]
    for key in keys:
        seq = catalog.sequence(key)
        pairs = list(seq.iter_pairs(N_MAX))
        for (a, b), t in zip(pairs, seq.terms(N_MAX)):
            assert type(a) is int and type(b) is int
            for p in primes:
                assert reduce_pair(a, b, p) == reduce_mod(t, p), (key, p)


def test_pairs_over_z_and_q_carry_zero_surd():
    seq = catalog.sequence("level13")
    pairs = list(seq.iter_pairs(6))
    assert pairs == [(t, 0) for t in catalog.REFERENCE_TERMS["level13"]]


def test_hand_built_quad_specs_keep_fraction_coordinates():
    nonintegral, surd_lead = _hand_built_specs()
    # values pinned from the reference loop
    assert generate_terms(nonintegral, 4, RING_SQRT2) == [
        QuadElem(2, 1, 0), QuadElem(2, 1, 1), QuadElem(2, F(13, 12), F(3, 4)),
        QuadElem(2, F(73, 108), F(14, 27)), QuadElem(2, F(755, 1728), F(5, 16))]
    assert generate_terms(surd_lead, 4, RING_SQRT2) == [
        QuadElem(2, 1, 0), QuadElem(2, -2, 2), QuadElem(2, F(-1, 2), F(3, 4)),
        QuadElem(2, F(-5, 7), F(31, 42)), QuadElem(2, F(17, 336), F(29, 336))]
    for spec in (nonintegral, surd_lead):
        assert generate_terms(spec, 60, RING_SQRT2) == reference_terms(spec, RING_SQRT2, 60)


def test_residue_path_rejects_nonintegral_pairs(monkeypatch):
    nonintegral, _ = _hand_built_specs()
    a, b = list(term_pairs(nonintegral, RING_SQRT2, 2))[2]
    assert (a, b) == (F(13, 12), F(3, 4))
    with pytest.raises(RingError, match=r"^residue needs integer components, got \(13/12, 3/4\)$"):
        reduce_pair(a, b, 5)
    seq = catalog.Sequence("hand-built", RING_SQRT2, nonintegral)
    monkeypatch.setattr(catalog, "sequence", lambda key: seq)
    with pytest.raises(RingError, match=r"^residue needs integer components, got \(13/12, 3/4\)$"):
        congruence.lucas_scan("hand-built", 5, 10)
    with pytest.raises(RingError, match=r"^residue needs integer components, got \(13/12, 3/4\)$"):
        congruence.lucas_scan_many("hand-built", [2, 3], 10)
    with pytest.raises(RingError, match=r"^residue needs integer components, got \(13/12, 3/4\)$"):
        congruence.structured_congruence_check("hand-built", 3, 9, 3, {}, 5)


# Q relations: each lists sum_j coeff_polys[j](n) T(n+1-j) = 0
Q_SPECS = {
    # coefficients with 1/3 and 1/5: the window denominators are not nested
    "thirds-fifths": RecurrenceSpec((Poly([1, 1]) ** 2, -Poly([F(1, 3), 1]),
                                     -Poly([0, 0, F(1, 5)]))),
    # lead 2n - 5 is negative at n = 0, 1, 2 and never vanishes
    "negative-lead": RecurrenceSpec((Poly([-5, 2]) * Poly([1, 1]), -Poly([F(1, 3), 1, 1]),
                                     -Poly([0, F(2, 5)]))),
    # no T(n) term: every odd-index term is 0
    "zero-window": RecurrenceSpec((Poly([1, 1]) ** 2, Poly([0]), -Poly([F(1, 3), 0, 1]))),
    # (n+1) T(n+1) = (n-2)/3 T(n): T(3) = 0, then the whole window is 0
    "dies-out": RecurrenceSpec((Poly([1, 1]), -Poly([F(-2, 3), F(1, 3)]))),
}


@pytest.mark.parametrize("name", sorted(Q_SPECS))
def test_q_kernel_matches_generic_loop_on_hand_built_specs(name):
    spec = Q_SPECS[name]
    want = reference_terms(spec, RING_Q, N_MAX)
    got = generate_terms(spec, N_MAX, RING_Q)
    assert got == want
    assert all(type(t) is F for t in got)
    dens = [t.denominator for t in want]
    if name == "thirds-fifths":
        # some step sums over a common denominator above the largest one
        assert any(lcm(a, b) > max(a, b) for a, b in zip(dens, dens[1:]))
    if name == "negative-lead":
        assert any(t < 0 for t in want) and any(t > 0 for t in want)
    if name == "zero-window":
        assert want[1::2] == [0] * (N_MAX // 2) and all(want[0::2])
    if name == "dies-out":
        assert want[:4] == [1, F(-2, 3), F(1, 9), 0] and not any(want[3:])


def test_q_kernel_raises_where_the_lead_vanishes():
    # (n - 3) T(n+1) = (n + 1/3) T(n): T(1..3) exist, T(4) divides by 0
    spec = RecurrenceSpec((Poly([-3, 1]), -Poly([F(1, 3), 1])))
    stream = term_iterator(spec, RING_Q, 4)
    assert list(islice(stream, 4)) == [1, F(-1, 9), F(2, 27), F(-14, 81)]
    with pytest.raises(ZeroDivisionError, match="lead coefficient vanishes at index 3"):
        next(stream)
    with pytest.raises(ZeroDivisionError):
        reference_terms(spec, RING_Q, 4)
    assert reference_terms(spec, RING_Q, 3) == generate_terms(spec, 3, RING_Q)
    # the Z and Z[sqrt(2)] kernels stop at the same step with the same
    # message: (n - 3) T(n+1) = 6 T(n), and 6 sqrt(2) T(n); a lead that
    # vanishes past a block edge, at 600, is named too
    for spec, ring, head in (
            (RecurrenceSpec((Poly([-3, 1]), Poly([-6]))), RING_Z, [1, -2, 6, -36]),
            (RecurrenceSpec((Poly([-3, 1]), Poly([-6 * SQRT2]))), RING_SQRT2,
             [1, -2 * SQRT2, 12, -72 * SQRT2]),
            (RecurrenceSpec((Poly([-600, 1]), Poly([0, 0, 1]))), RING_Z, [1, 0, 0, 0])):
        assert reference_terms(spec, ring, 3) == head
        index = -spec.coeff_polys[0][0]
        stream = term_iterator(spec, ring, index + 1)
        assert list(islice(stream, index + 1)) == reference_terms(spec, ring, index)
        with pytest.raises(ZeroDivisionError, match="vanishes at index %d$" % index):
            next(stream)
        pairs = term_pairs(spec, ring, index + 1)
        assert len(list(islice(pairs, index + 1))) == index + 1
        with pytest.raises(ZeroDivisionError, match="vanishes at index %d$" % index):
            next(pairs)


def test_mixed_radicand_coefficient_is_rejected():
    spec = RecurrenceSpec((Poly([1, 1]), -Poly([QuadElem(-1, 0, 1)])))
    with pytest.raises(RingError):
        list(term_iterator(spec, RING_SQRT2, 2))


@pytest.mark.parametrize("ring", [RING_Z, RING_Q], ids=["Z", "Q"])
def test_surd_relation_is_rejected_outside_its_ring(ring, monkeypatch):
    # 14C's relation has coefficients in Z[sqrt(2)]: every kernel checks
    # the ring before its first step
    spec = catalog.sequence("14C").spec
    named = "irrational scalar in %s ring" % ring.kind
    with pytest.raises(RingError, match=named):
        generate_terms(spec, 5, ring)
    with pytest.raises(RingError, match=named):
        list(term_pairs(spec, ring, 5))
    seq = catalog.Sequence("14C-over-" + ring.kind, ring, spec)
    with pytest.raises(RingError, match=named):
        list(seq.iter_pairs(5))
    monkeypatch.setattr(catalog, "sequence", lambda key: seq)
    with pytest.raises(RingError, match=named):
        congruence.supercongruence_check(seq.key, 3, 2, 3)
    with pytest.raises(RingError, match="irrational scalar in Z ring"):
        congruence._padic_residues(spec, 3, 1, 3)


def test_negative_n_max_is_rejected():
    seq = catalog.sequence("level11")
    with pytest.raises(ValueError, match="n_max"):
        generate_terms(seq.spec, -1)
    assert generate_terms(seq.spec, 0) == [1]
    quad = catalog.sequence("14C")  # the pair kernel is reached without term_iterator
    with pytest.raises(ValueError, match="n_max"):
        quad.iter_pairs(-1)
