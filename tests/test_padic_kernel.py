"""Differential tests: the p-adic residue kernel against the exact pass.

The kernel gives T(n) mod p^e for Z-ring sequences without building any
exact term; the exact pass reduces the exact terms.  Both must agree
residue for residue, and both must reject a term that is not p-integral at
the same index.  The exact pass itself is checked against its form before
targets became (modulus, stride) pairs, which took one keep(n) predicate per
target."""

import pytest

from aperylike import catalog, congruence
from aperylike.cli import main
from aperylike.congruence import (
    _exact_residues,
    _padic_residues,
    lucas_scan,
    lucas_scan_many,
    supercongruence_check,
)
from aperylike.recurrence import (
    InexactDivision,
    Poly,
    RecurrenceSpec,
    recurrence_from_gh,
)
from aperylike.rings import RING_Z, RingError, reduce_pair

PRIMES = (2, 3, 5, 7)
EXPONENTS = (1, 2, 3)
N_MAX = 30  # the kernel and the stride-p targets run to p * N_MAX

Z_KEYS = [k for k in catalog.sequence_keys() if catalog.sequence(k).ring.kind == "Z"]


def ref_exact_residues(seq, n_max, targets):
    """The exact pass with (modulus, keep) targets, keep None keeping all."""
    tables = [{} for _ in targets]
    reducers = list(zip(targets, tables))
    for n, (a, b) in enumerate(seq.iter_pairs(n_max)):
        for (m, keep), table in reducers:
            if keep is None or keep(n):
                table[n] = reduce_pair(a, b, m)
    return tables


def residue_dict(res, n_max, stride):
    """One target's flat residue lists as the dict {n: (a mod m, b mod m)}
    that the exact pass returned before, b = 0 on a one-component
    (rational) result; an index that both lists hold must agree, and a
    list that keeps more (or fewer) than n_max + 1 entries fails."""
    assert len(res) in (1, 2)
    for comp in res:
        assert len(comp) == 2
        assert len(comp[0]) == len(comp[1]) == n_max + 1
    out = {}
    for side, indices in ((0, range(n_max + 1)), (1, range(0, stride * n_max + 1, stride))):
        for i, n in enumerate(indices):
            pair = tuple(comp[side][i] for comp in res) + (0,) * (2 - len(res))
            assert out.setdefault(n, pair) == pair, n
    return out


def _keep(n_max, stride):
    return lambda n: n <= n_max or (n % stride == 0 and n // stride <= n_max)


@pytest.mark.parametrize("key", catalog.sequence_keys())
def test_exact_pass_matches_keep_predicates_on_the_catalog(key):
    seq = catalog.sequence(key)
    targets = [(p ** e, stride) for p in PRIMES for e in (1, 2) for stride in (1, p)]
    # a repeated modulus, and p next to p^2: the lcm is not the product
    targets += [(5, 1), (5, 1), (3, 1), (9, 3)]
    closures = [(m, _keep(N_MAX, stride)) for m, stride in targets]
    if key == "level13":
        with pytest.raises(RingError) as want:
            ref_exact_residues(seq, 7 * N_MAX, closures)
        with pytest.raises(RingError) as got:
            _exact_residues(seq, N_MAX, targets)
        assert str(got.value) == str(want.value)
        return
    got = _exact_residues(seq, N_MAX, targets)
    assert ([residue_dict(res, N_MAX, stride) for res, (_, stride) in zip(got, targets)]
            == ref_exact_residues(seq, 7 * N_MAX, closures))


@pytest.mark.parametrize("key", Z_KEYS)
def test_kernel_matches_exact_pass_on_the_catalog(key):
    seq = catalog.sequence(key)
    targets = [(p ** e, p) for p in PRIMES for e in EXPONENTS]
    exact = iter(_exact_residues(seq, N_MAX, targets))
    for p in PRIMES:
        for e in EXPONENTS:
            assert _padic_residues(seq.spec, p, e, N_MAX) == next(exact), (p, e)


def test_kernel_keeps_only_the_kept_indices():
    seq = catalog.sequence("level11")
    got = _padic_residues(seq.spec, 7, 2, 20)
    assert got == _exact_residues(seq, 20, [(49, 7)])[0]
    assert sorted(residue_dict(got, 20, 7)) == [n for n in range(141) if n <= 20 or n % 7 == 0]


def test_kernel_runs_a_relation_of_order_zero():
    # G = 1, H = 0: (n+1)^3 T(n+1) = 0, so the stream is 1, 0, 0, ...
    spec = recurrence_from_gh(Poly([1]), Poly([0]))
    seq = catalog.Sequence("hand-built", RING_Z, spec)
    want = _exact_residues(seq, 5, [(3, 3)])[0]
    assert residue_dict(want, 5, 3) == {n: (1 if n == 0 else 0, 0)
                                        for n in (0, 1, 2, 3, 4, 5, 6, 9, 12, 15)}
    assert _padic_residues(spec, 3, 1, 5) == want


def _scaled(spec, factor):
    """The same relation multiplied through by a polynomial: same solution,
    but the lead carries the factor's powers of p and its units."""
    return RecurrenceSpec(tuple(c * factor for c in spec.coeff_polys))


@pytest.mark.parametrize("p", [2, 3, 5])
def test_extra_powers_of_p_in_the_lead_are_budgeted(p):
    # lead p^2 (n + p) (n+1)^3: v_p rises by 2 + v_p(n + p) on every step,
    # and the p-free part of n + p is folded into the back coefficients
    seq = catalog.sequence("level11")
    spec = _scaled(seq.spec, Poly([p ** 3, p ** 2]))
    scaled = catalog.Sequence("scaled", RING_Z, spec)
    for e in (1, 3):
        want = _exact_residues(scaled, 50, [(p ** e, p)])[0]
        assert want == _exact_residues(seq, 50, [(p ** e, p)])[0]
        assert _padic_residues(spec, p, e, 50) == want


# The kernel reads its coefficients in blocks of 512 indices and carries
# the last k-1 units across each block edge; the catalog-wide test above
# stays inside the first block.
@pytest.mark.parametrize("key, p, e, n_max", [
    ("level11", 59, 2, 20),  # 1,180 steps
    ("apery", 2, 6, 700),    # 1,400 steps, half of which divide
])
def test_kernel_matches_exact_pass_across_block_edges(key, p, e, n_max):
    seq = catalog.sequence(key)
    want = _exact_residues(seq, n_max, [(p ** e, p)])[0]
    assert _padic_residues(seq.spec, p, e, n_max) == want


@pytest.mark.parametrize("p, m, power", [(2, 511, 10), (2, 512, 10), (3, 512, 6)])
def test_lead_gaining_a_power_of_p_at_a_block_edge(p, m, power):
    # lead (n + c) (n+1)^3 with m + c = p^power: the step at index m, the
    # last index of the first block or the first of the second, divides
    # by p^power more than the unscaled relation does
    seq = catalog.sequence("level11")
    spec = _scaled(seq.spec, Poly([p ** power - m, 1]))
    scaled = catalog.Sequence("scaled", RING_Z, spec)
    n_max = 300
    for e in (1, 3):
        want = _exact_residues(scaled, n_max, [(p ** e, p)])[0]
        assert want == _exact_residues(seq, n_max, [(p ** e, p)])[0]
        assert _padic_residues(spec, p, e, n_max) == want


# (n+1) T(n+1) = 24 T(n): T(n) = 24^n / n!, integral up to n = 4; T(5) has
# denominator 5, and T(7) has denominator 35
FACTORIAL_SPEC = RecurrenceSpec((Poly([1, 1]), Poly([-24])))


def test_term_not_p_integral_raises_at_the_exact_index():
    seq = catalog.Sequence("hand-built", RING_Z, FACTORIAL_SPEC)
    with pytest.raises(InexactDivision) as exact:
        _exact_residues(seq, 20, [(25, 5)])
    with pytest.raises(InexactDivision) as padic:
        _padic_residues(FACTORIAL_SPEC, 5, 2, 20)
    assert exact.value.index == padic.value.index == 5


def test_public_scans_reject_a_term_that_is_not_p_integral(monkeypatch):
    seq = catalog.Sequence("hand-built", RING_Z, FACTORIAL_SPEC)
    monkeypatch.setattr(catalog, "sequence", lambda key: seq)
    with pytest.raises(InexactDivision) as exc:
        supercongruence_check("hand-built", 5, 2, 4)
    assert exc.value.index == 5
    with pytest.raises(InexactDivision):
        congruence.structured_congruence_check("hand-built", 5, 125, 1, {}, 4)


# 5 T(n+1) = 24 T(n): T(n) = (24/5)^n, integral only at n = 0
FIFTHS_SPEC = RecurrenceSpec((Poly([5]), Poly([-24])))


def test_kernel_certifies_p_integrality_only():
    # at p = 7 the denominator 5^n is a unit: the kernel returns the
    # residues in Z_(7), where the exact pass stops at n = 1
    seq = catalog.Sequence("hand-built", RING_Z, FIFTHS_SPEC)
    with pytest.raises(InexactDivision) as exc:
        _exact_residues(seq, 6, [(49, 7)])
    assert exc.value.index == 1
    kept = [n for n in range(43) if n <= 6 or n % 7 == 0]
    got = _padic_residues(FIFTHS_SPEC, 7, 2, 6)
    assert residue_dict(got, 6, 7) == {n: (24 ** n * pow(5, -n, 49) % 49, 0) for n in kept}
    with pytest.raises(InexactDivision) as exc:
        _padic_residues(FIFTHS_SPEC, 5, 2, 6)
    assert exc.value.index == 1


def test_vanishing_lead_raises_like_the_exact_pass():
    # (n - 3) T(n+1) = 6 T(n): T(1..3) = -2, 6, -36, then the lead vanishes
    spec = RecurrenceSpec((Poly([-3, 1]), Poly([-6])))
    seq = catalog.Sequence("hand-built", RING_Z, spec)
    with pytest.raises(ZeroDivisionError):
        _exact_residues(seq, 10, [(2, 2)])
    with pytest.raises(ZeroDivisionError):
        _padic_residues(spec, 2, 1, 10)


@pytest.mark.parametrize("key", ["level11", "level24", "apery", "14C", "15C"])
def test_lucas_scan_many_equals_per_prime_scans(key):
    primes = [2, 3, 5, 7, 11]
    many = lucas_scan_many(key, primes, 150)
    assert [r.to_json() for r in many] == [lucas_scan(key, p, 150).to_json() for p in primes]


@pytest.mark.parametrize("argv", [
    ["lucas", "--seq", "level11", "--prime", "5", "--jobs", "2"],
    ["scan", "--primes", "2,3", "--jobs", "2"],
    ["reproduce", "cp-counts", "--jobs", "2"],
])
def test_removed_jobs_flag_is_rejected(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
