"""The acceptance gate: each test runs one exit criterion at its stated
tolerance and reports a one-line PASS/FAIL in the terminal summary.

Stated tolerances are pinned here, not configurable: exact equality for
term tables and congruence counts, 1e-10 relative for R and b1, 1e-5
relative for the estimated constants (1e-6 for the weight-two 6(A) row),
1e-12 for the 1/pi partial sum.
"""

import random
import time
from fractions import Fraction as F

import mpmath as mp

from aperylike import catalog
from aperylike.asymptotics import (
    PrecisionConfig,
    analyze,
    apery_constant_check,
    conjectured_C,
    evaluate_sato_series,
    to_mp,
)
from aperylike.congruence import (
    PATTERNS,
    lucas_scan_many,
    primes_below,
    scan_c_counts,
    structured_congruence_check,
    supercongruence_check,
)
from aperylike.qseries import (
    IDENTITY_BANK,
    verify_identity_bank,
    verify_level_row,
    verify_weight_one,
)
from aperylike.recurrence import scaled_integrality_check
from aperylike.rings import QuadElem
from aperylike.series import verify_asz, verify_ctyz, verify_gf_independence


def test_criterion_1_term_tables(acceptance_record):
    t0 = time.perf_counter()
    checks = {
        "level11": catalog.REFERENCE_TERMS["level11"],
        "13scaled": catalog.REFERENCE_TERMS["13scaled"],
        "level14A": catalog.REFERENCE_TERMS["level14A"],
        "level14B": catalog.REFERENCE_TERMS["level14B"],
        "14C": catalog.REFERENCE_TERMS["14C"],
        "level15A": catalog.REFERENCE_TERMS["level15A"],
        "level15B": catalog.REFERENCE_TERMS["level15B"],
        "15C": catalog.REFERENCE_TERMS["15C"],
    }
    for key, want in checks.items():
        got = catalog.sequence(key).terms(10)
        assert got == want, key
    # the quoted closing entries, verbatim
    assert checks["level11"][10] == 18200713168
    assert checks["13scaled"][10] == 657035290739412
    assert checks["14C"][10] == QuadElem(2, 18601926816, -12933544448)
    assert checks["15C"][10] == QuadElem(-1, -151732284, 264070928)
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    acceptance_record(1, True, "term tables exact, %.2fs" % elapsed)


def test_criterion_2_oracle_equivalence(acceptance_record):
    t0 = time.perf_counter()
    keys = [k for k in catalog.sequence_keys()
            if catalog.sequence(k).oracle is not None]
    # sixteen level rows (1-10 spans twelve rows, plus 12, 14A, 18, 24)
    # and the twelve weight-one/weight-two rows
    assert len(keys) == 28
    for key in keys:
        seq = catalog.sequence(key)
        terms = seq.terms(50)
        for n in range(51):
            assert terms[n] == seq.oracle(n), (key, n)
    acceptance_record(2, True, "%d sequences match their binomial sums to n=50, %.1fs"
                      % (len(keys), time.perf_counter() - t0))


def test_criterion_3_qseries_sweep(acceptance_record):
    t0 = time.perf_counter()
    for key in catalog.TABLE_LEVEL_KEYS:
        row = catalog.LEVEL_ROWS[key]
        assert verify_level_row(row, 30) == ((True, None), (True, None)), key
    assert verify_level_row(catalog.LEVEL_ROWS["level13star"], 30) == ((True, None), (True, None))
    for key, row in catalog.ZAGIER_ROWS.items():
        assert verify_weight_one(row, 30) == (True, None), key
    for name in sorted(IDENTITY_BANK):
        order = 40 if name.startswith("level13") else 25 if name == "beukers-apery" else 30
        assert verify_identity_bank(name, order) == (True, None), name
    elapsed = time.perf_counter() - t0
    assert elapsed < 60
    acceptance_record(3, True,
                      "diff+ODE on %d rows, 6 weight-one rows, %d bank identities "
                      "at M=25..40, %.1fs"
                      % (len(catalog.TABLE_LEVEL_KEYS), len(IDENTITY_BANK), elapsed))


def test_criterion_4_clausen_identities(acceptance_record):
    t0 = time.perf_counter()
    for trip in catalog.SPORADIC_SET:
        assert verify_asz(*trip, order=30) == (True, None), trip
        assert verify_ctyz(*trip, order=30) == (True, None), trip
    rng = random.Random(271828)
    for _ in range(20):
        trip = (rng.randint(-10, 10), rng.randint(-10, 10), rng.randint(-10, 10))
        assert verify_asz(*trip, order=15) == (True, None), trip
        assert verify_ctyz(*trip, order=15) == (True, None), trip
    ok, why = verify_gf_independence(14, 6)
    assert ok, why
    ok, why = verify_gf_independence(15, 6)
    assert ok, why
    acceptance_record(4, True,
                      "ASZ+CTYZ on 6 sporadic and 20 random triples; generating "
                      "functions independent at levels 14, 15; %.1fs" % (time.perf_counter() - t0))


def test_criterion_5_lucas_congruences(acceptance_record):
    t0 = time.perf_counter()
    # level 11: p < 100, n < 5000
    for rep in lucas_scan_many("level11", primes_below(100), 4999):
        assert rep.ok, ("level11", rep.p, rep.violations[:3])
    # the six integer self-starting rows: p < 50, n < 2000
    for key in ("level14A", "level14B", "level15A", "level15B", "level24", "apery"):
        for rep in lucas_scan_many(key, primes_below(50), 1999):
            assert rep.ok, (key, rep.p, rep.violations[:3])
    # 14C: holds at 2 and p = 1, 7 mod 8; fails somewhere in p = 3, 5 mod 8
    reports = {r.p: r for r in lucas_scan_many("14C", primes_below(50), 1999)}
    for p in (2, 7, 17, 23, 31):
        assert reports[p].ok, (p, reports[p].violations[:3])
    assert any(not reports[p].ok for p in reports if p % 8 in (3, 5))
    # 15C: holds at 2 and p = 1 mod 4; fails somewhere in p = 3 mod 4
    reports = {r.p: r for r in lucas_scan_many("15C", primes_below(50), 1999)}
    for p in (2, 5, 13, 17):
        assert reports[p].ok, (p, reports[p].violations[:3])
    assert any(not reports[p].ok for p in reports if p % 4 == 3)
    elapsed = time.perf_counter() - t0
    assert elapsed < 600
    acceptance_record(5, True, "Lucas scans clean on conjectured prime classes, "
                               "violations found off them, %.1fs" % elapsed)


def test_criterion_6_supercongruence_counts(acceptance_record):
    t0 = time.perf_counter()
    counts = scan_c_counts("level11", [2, 3, 5, 7, 11, 13, 59], 1000)
    want = {2: 1000, 3: 333, 5: 200, 7: 750, 11: 875, 13: 274, 59: 1000}
    assert counts == want, counts
    rep = structured_congruence_check("level11", 3, 9, 3, {0: 0, 1: 3, 2: 6}, 3000)
    assert rep.ok, rep.violations[:5]
    rep = structured_congruence_check("level24", 3, 9, 6,
                                      {1: 6, 2: 6, 4: 3, 5: 3}, 3000)
    assert rep.ok, rep.violations[:5]
    rep = supercongruence_check("level11", 2, 6, 4096, PATTERNS["level11-2adic"])
    assert rep.violations == []       # every mismatch is a predicted exception
    assert rep.pattern_passes == []   # and every predicted exception mismatches
    elapsed = time.perf_counter() - t0
    assert elapsed < 600
    acceptance_record(6, True, "c(p) table cells exact; structured mod-9 maps and "
                               "the mod-64 exception pattern match, %.1fs" % elapsed)


def test_criterion_7_asymptotics(acceptance_record):
    t0 = time.perf_counter()
    cfg = PrecisionConfig(digits=60, terms=2000, diff_order=8)
    tol_Rb = mp.mpf("1e-10")
    tol_C = mp.mpf("1e-5")
    with mp.workdps(60):
        # closed forms reproduced exactly where the table gives them
        p15a = analyze("level15A", cfg)
        assert p15a.R_exact == 12 and p15a.b1_exact == F(-489, 1000)
        p14b = analyze("level14B", cfg)
        assert p14b.R_exact == QuadElem(2, 9, 4)       # (1 + 2 sqrt2)^2
        assert p14b.b1_exact == QuadElem(2, F(-7, 4), F(69, 64))
        for pr in (p15a, p14b):
            assert abs(pr.R - to_mp(pr.R_exact)) / abs(to_mp(pr.R_exact)) < tol_Rb
            assert abs(pr.b1 - to_mp(pr.b1_exact)) / abs(to_mp(pr.b1_exact)) < tol_Rb

        # level 11 against independently recomputed closed forms
        p11 = analyze("level11", cfg)
        R_indep = mp.findroot(lambda x: x ** 3 - 20 * x ** 2 + 56 * x - 44, 17)
        assert abs(p11.R - R_indep) / R_indep < tol_Rb
        r = 1 / R_indep
        b1_indep = -(275 * r ** 2 - 184 * r + 21) / (8 * (33 * r ** 2 - 28 * r + 5))
        assert abs(p11.b1 - b1_indep) / abs(b1_indep) < tol_Rb
        assert mp.nstr(p11.R, 7) == "16.8275"
        assert mp.nstr(p11.b1, 7) == "-0.3995791"

        # estimated constants against the conjectured closed forms
        assert abs(p11.C - conjectured_C("level11")) / conjectured_C("level11") < tol_C
        assert mp.nstr(p11.C, 7) == "0.3287369"  # rounds from 0.3287368...
        for key in ("level14A", "level14B", "14C", "14Cbar", "level15A",
                    "level15B", "15C", "15Cbar", "level24"):
            pr = analyze(key, cfg)
            want = conjectured_C(key)
            assert abs(pr.C - want) / abs(want) < tol_C, key

        chk = apery_constant_check(cfg)
        assert abs(chk["estimate"] - chk["cohen"]) / chk["cohen"] < mp.mpf("1e-6")
        assert not chk["variant_consistent"]  # the in-text variant is flagged
    acceptance_record(7, True, "R, b1 to 1e-10; C to 1e-5 on all ten rows; "
                               "Cohen prefactor confirmed and the in-text variant "
                               "flagged, %.1fs" % (time.perf_counter() - t0))


def test_criterion_8_sato_series(acceptance_record):
    t0 = time.perf_counter()
    with mp.workdps(60):
        err = abs(evaluate_sato_series(15, dps=60) - 1 / mp.pi)
        assert err < mp.mpf("1e-12")
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    acceptance_record(8, True, "15-term 1/pi partial sum within 1e-12, %.2fs" % elapsed)


def test_criterion_9_level13_integrality(acceptance_record):
    t0 = time.perf_counter()
    terms = catalog.sequence("level13").terms(500)
    rep4 = scaled_integrality_check(terms, 4)
    assert rep4.ok
    rep2 = scaled_integrality_check(terms, 2)
    assert not rep2.ok and rep2.first_failure == 2
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    acceptance_record(9, True, "4^n T(n) integral to n=500; base 2 fails at n=2, "
                               "%.2fs" % elapsed)
