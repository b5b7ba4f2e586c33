"""Differential tests: the p-adic residue kernel against the exact pass.

The kernel gives T(n) mod p^e for Z-ring sequences without building any
exact term; the exact pass reduces the exact terms.  Both must agree
residue for residue, and both must reject a term that is not p-integral at
the same index."""

from fractions import Fraction as F

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
from aperylike.recurrence import InexactDivision, Poly, RecurrenceSpec, generate_terms
from aperylike.rings import RING_Q, RING_Z

PRIMES = (2, 3, 5, 7)
EXPONENTS = (1, 2, 3)
N_MAX = 90

Z_KEYS = [k for k in catalog.sequence_keys() if catalog.sequence(k).ring.kind == "Z"]


@pytest.mark.parametrize("key", Z_KEYS)
def test_kernel_matches_exact_pass_on_the_catalog(key):
    seq = catalog.sequence(key)
    targets = [(p ** e, None) for p in PRIMES for e in EXPONENTS]
    exact = iter(_exact_residues(seq, N_MAX, targets))
    for p in PRIMES:
        for e in EXPONENTS:
            assert _padic_residues(seq.spec, p, e, N_MAX, None) == next(exact), (p, e)


def test_kernel_keeps_only_the_kept_indices():
    seq = catalog.sequence("level11")
    keep = lambda n: n <= 20 or n % 7 == 0  # noqa: E731
    got = _padic_residues(seq.spec, 7, 2, 140, keep)
    assert got == _exact_residues(seq, 140, [(49, keep)])[0]
    assert sorted(got) == [n for n in range(141) if keep(n)]


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
        want = _exact_residues(scaled, 150, [(p ** e, None)])[0]
        assert want == _exact_residues(seq, 150, [(p ** e, None)])[0]
        assert _padic_residues(spec, p, e, 150, None) == want


# (n+1) T(n+1) = 24 T(n): T(n) = 24^n / n!, integral up to n = 4; T(5) has
# denominator 5, and T(7) has denominator 35
FACTORIAL_SPEC = RecurrenceSpec((Poly([1, 1]), Poly([-24])))


def test_term_not_p_integral_raises_at_the_exact_index():
    seq = catalog.Sequence("hand-built", RING_Z, FACTORIAL_SPEC)
    with pytest.raises(InexactDivision) as exact:
        _exact_residues(seq, 20, [(25, None)])
    with pytest.raises(InexactDivision) as padic:
        _padic_residues(FACTORIAL_SPEC, 5, 2, 20, None)
    assert exact.value.index == padic.value.index == 5


def test_public_scans_reject_a_term_that_is_not_p_integral(monkeypatch):
    seq = catalog.Sequence("hand-built", RING_Z, FACTORIAL_SPEC)
    monkeypatch.setattr(catalog, "sequence", lambda key: seq)
    with pytest.raises(InexactDivision) as exc:
        supercongruence_check("hand-built", 5, 2, 4)
    assert exc.value.index == 5
    with pytest.raises(InexactDivision):
        congruence.structured_congruence_check("hand-built", 5, 125, 1, {}, 4)


def test_kernel_certifies_p_integrality_only():
    # at p = 7 the denominator 5 of T(5) and T(6) is a unit: the kernel
    # returns their residues in Z_(7), where the exact pass stops at n = 5
    terms = [F(t) for t in generate_terms(FACTORIAL_SPEC, 6, RING_Q)]
    assert [t.denominator for t in terms] == [1, 1, 1, 1, 1, 5, 5]
    got = _padic_residues(FACTORIAL_SPEC, 7, 2, 6, None)
    assert got == {n: (t.numerator * pow(t.denominator, -1, 49) % 49, 0)
                   for n, t in enumerate(terms)}
    with pytest.raises(InexactDivision) as exc:
        _padic_residues(FACTORIAL_SPEC, 7, 2, 10, None)
    assert exc.value.index == 7


def test_vanishing_lead_raises_like_the_exact_pass():
    # (n - 3) T(n+1) = 6 T(n): T(1..3) = -2, 6, -36, then the lead vanishes
    spec = RecurrenceSpec((Poly([-3, 1]), Poly([-6])))
    seq = catalog.Sequence("hand-built", RING_Z, spec)
    with pytest.raises(ZeroDivisionError):
        _exact_residues(seq, 10, [(2, None)])
    with pytest.raises(ZeroDivisionError):
        _padic_residues(spec, 2, 1, 10, None)


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
