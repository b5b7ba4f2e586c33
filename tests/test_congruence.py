import itertools
import os
import signal
import subprocess
import sys
import time
from fractions import Fraction

import pytest

from aperylike import catalog, congruence
from aperylike.cli import reproduce
from aperylike.congruence import (
    PATTERNS,
    CongruenceReport,
    _exact_residues,
    _lucas_report,
    lucas_scan,
    lucas_scan_many,
    primes_below,
    scan_c_counts,
    structured_congruence_check,
    supercongruence_check,
)
from aperylike.recurrence import InexactDivision, Poly, RecurrenceSpec, Sequence
from aperylike.rings import RING_Z, RingError, RingTag, reduce_mod, reduce_pair


def test_primes_below():
    assert primes_below(30) == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    assert primes_below(2) == []


def test_single_digit_is_trivially_consistent():
    rep = lucas_scan("level11", 101, 100)  # all n < p: one digit
    assert rep.ok and rep.passes == 100


def test_level11_p5_n7_worked_example():
    t = catalog.sequence("level11").terms(7)
    assert t[7] % 5 == 2 and (t[1] * t[2]) % 5 == 2
    rep = lucas_scan("level11", 5, 50)
    assert rep.ok


def test_apery_lucas_small_primes():
    for p in (2, 3, 5, 7, 11, 13):
        assert lucas_scan("apery", p, 400).ok, p


def test_quad_lucas_residue_classes():
    # conjectured: 14C satisfies Lucas iff p = 2 or p = 1, 7 mod 8
    assert lucas_scan("14C", 7, 250).ok
    assert lucas_scan("14C", 17, 250).ok
    bad5 = lucas_scan("14C", 5, 250)
    assert not bad5.ok
    # 15C: p = 2 or p = 1 mod 4
    assert lucas_scan("15C", 13, 250).ok
    assert not lucas_scan("15C", 3, 250).ok
    assert not lucas_scan("15C", 7, 250).ok


def test_conjugate_sequences_violate_identically():
    a = lucas_scan("14C", 5, 150)
    b = lucas_scan("14Cbar", 5, 150)
    assert a.violations == b.violations


def test_residues_two_ways():
    # reduce exact integer terms, or run over Q and clear denominators
    # modulo p: identical residues (guards against rational leakage)
    seq = catalog.sequence("level11")
    from aperylike.recurrence import generate_terms
    ints = generate_terms(seq.spec, 500, seq.ring)
    rats = generate_terms(seq.spec, 500, catalog.RING_Q)
    for p in (7, 13):
        for n in range(501):
            r1 = reduce_mod(ints[n], p)
            num = rats[n].numerator * pow(rats[n].denominator, -1, p)
            assert r1 == (num % p, 0)


def test_supercongruence_examples():
    t = catalog.sequence("level11").terms(2)
    assert (t[2] - t[1]) % 4 == 0        # 24 = 0 mod 4
    assert (t[2] - t[1]) % 64 == 24      # but not mod 2^6
    rep = supercongruence_check("level11", 2, 2, 40)
    assert rep.ok
    rep = supercongruence_check("level11", 2, 6, 40, PATTERNS["level11-2adic"])
    assert rep.ok and 1 in rep.pattern_hits and not rep.pattern_passes
    # pattern members that hold anyway are reported, not counted as hits
    rep = supercongruence_check("level11", 2, 2, 40, lambda n: n <= 3)
    assert rep.ok and rep.pattern_passes == [1, 2, 3] and rep.pattern_hits == []

    a = catalog.sequence("apery").terms(5)
    assert (a[5] - a[1]) % 125 == 0      # 819000 divisible by 5^3
    rep = supercongruence_check("apery", 5, 3, 30)
    assert rep.ok


def test_digit_shift_implication():
    # Lucas mod p up to p^2 - 1 forces T(pn) = T(n) mod p for n < p
    p = 5
    assert lucas_scan("level11", p, p * p - 1).ok
    rep = supercongruence_check("level11", p, 1, p - 1)
    assert rep.ok


def test_pattern_membership():
    pat = PATTERNS["level11-2adic"]
    members = [n for n in range(1, 130) if pat(n)]
    assert members == [1, 2, 3, 5, 7, 9, 13, 17, 25, 33, 49, 65, 97, 129]
    pat14 = PATTERNS["level14C-2adic"]
    assert [n for n in range(1, 60) if pat14(n)] == [1, 2, 3, 4, 7, 13, 25, 49]
    pat15 = PATTERNS["level15C-2adic"]
    assert [n for n in range(1, 40) if pat15(n)] == [1, 2, 3, 5, 9, 17, 33]
    b5 = PATTERNS["base5-zero-one"]
    assert [n for n in range(1, 40) if b5(n)] == [1, 2, 6, 7, 26, 27, 31, 32]


def test_scan_c_counts_small():
    counts = scan_c_counts("level11", [2, 3, 5], 100)
    assert counts == {2: 100, 3: 33, 5: 20}


def test_structured_congruences():
    # T11(3n) = T11(n) + 3n mod 9
    rep = structured_congruence_check("level11", 3, 9, 3, {0: 0, 1: 3, 2: 6}, 400)
    assert rep.ok
    # level 24 mod 9 residue map
    rep = structured_congruence_check(
        "level24", 3, 9, 6, {1: 6, 2: 6, 4: 3, 5: 3}, 400)
    assert rep.ok
    # a zero map is exactly the plain supercongruence check
    rep0 = structured_congruence_check("level11", 2, 4, 1, {}, 60)
    plain = supercongruence_check("level11", 2, 2, 60)
    assert rep0.ok == plain.ok and rep0.passes == plain.passes


def test_level11_mod25_iff_5_divides_n():
    rep = structured_congruence_check("level11", 5, 25, 5, {0: 0}, 300)
    holds = {n for n in range(1, 301) if n not in rep.violations}
    assert holds == {n for n in range(1, 301) if n % 5 == 0}


def test_lucas_scan_many_matches_single():
    reports = lucas_scan_many("level24", [3, 5, 7], 200)
    singles = [lucas_scan("level24", p, 200) for p in (3, 5, 7)]
    for r, s in zip(reports, singles):
        assert (r.p, r.ok, r.passes) == (s.p, s.ok, s.passes)


def test_report_json_shape():
    rep = supercongruence_check("level11", 2, 2, 10)
    doc = rep.to_json()
    assert set(doc) >= {"seq", "p", "e", "n_max", "passes", "violations",
                        "pattern_hits", "ok"}


@pytest.mark.parametrize("alias", ["11", "T11"])
def test_t_pn_reports_name_the_resolved_key(alias):
    assert supercongruence_check(alias, 3, 2, 5).seq == "level11"
    assert structured_congruence_check(alias, 3, 9, 1, {}, 5).seq == "level11"


def test_is_prime():
    from aperylike.congruence import is_prime
    small = set(primes_below(5000))
    assert all(is_prime(n) == (n in small) for n in range(-3, 5000))
    # Carmichael numbers and a strong pseudoprime to the bases 2, 3, 5, 7
    for n in (561, 41041, 3215031751):
        assert not is_prime(n)
    assert is_prime(2 ** 61 - 1) and not is_prime(2 ** 61 + 1)
    with pytest.raises(ValueError):
        is_prime(10 ** 30)


@pytest.mark.parametrize("scan", [
    lambda n: lucas_scan("level11", 5, n),
    lambda n: lucas_scan_many("level11", [2, 5], n),
    lambda n: supercongruence_check("level11", 5, 2, n),
    lambda n: scan_c_counts("level11", [2, 3], n),
    lambda n: structured_congruence_check("level11", 3, 9, 3, {}, n),
])
def test_empty_scans_are_rejected(scan):
    for n in (0, -3):
        with pytest.raises(ValueError, match="n_max"):
            scan(n)


def ref_lucas_report(key, p, d, res, n_max):
    """The Lucas report with the digit product rebuilt from scratch for
    every n, the form before it was built incrementally; the residues are
    read as (a, b) pairs, b = 0 on a one-component (rational) result."""
    lows = [low for low, _ in res]
    table = list(zip(lows[0], lows[1] if len(lows) == 2 else [0] * len(lows[0])))
    report = CongruenceReport(key, p, 1, n_max, 0, kind="lucas")
    for n in range(1, n_max + 1):
        a, b, m = 1, 0, n
        while m:
            m, digit = divmod(m, p)
            c, f = table[digit]
            a, b = (a * c + d * b * f) % p, (a * f + b * c) % p
        if (a, b) == table[n]:
            report.passes += 1
        else:
            report.violations.append(n)
    return report


LUCAS_PRIMES = primes_below(48)
LUCAS_N_MAX = 47 * 47 + 47  # n = p^2 + p has three base-p digits for every p <= 47


@pytest.mark.parametrize("key", catalog.sequence_keys())
def test_incremental_lucas_product_matches_the_digit_loop_on_the_catalog(key):
    seq = catalog.sequence(key)
    if key == "level13":
        # not integral: the one lcm reduction fails with the per-prime text
        with pytest.raises(RingError) as want:
            for a, b in seq.iter_pairs(LUCAS_N_MAX):
                for p in LUCAS_PRIMES:
                    reduce_pair(a, b, p)
        with pytest.raises(RingError) as got:
            lucas_scan_many(key, LUCAS_PRIMES, LUCAS_N_MAX)
        assert str(got.value) == str(want.value)
        return
    d = seq.ring.d if seq.ring.kind == "quad" else 0
    tables = _exact_residues(seq, LUCAS_N_MAX, [(p, 1) for p in LUCAS_PRIMES])
    for p, table in zip(LUCAS_PRIMES, tables):
        n_max = p * p + p
        got = _lucas_report(key, p, d, table, n_max).to_json()
        assert got == ref_lucas_report(key, p, d, table, n_max).to_json(), p


@pytest.mark.parametrize("scan", [
    lambda m: structured_congruence_check("level11", 3, m, 3, {}, 5),
    lambda m: structured_congruence_check("14C", 3, m, 1, {}, 5),
    lambda m: congruence._residues(catalog.sequence("level11"), 5, [(7, 1), (m, 3)]),
])
def test_moduli_below_two_are_rejected_before_the_stream(scan):
    # modulus 0 used to hang: 0 % p == 0 for every power of p
    for m in (0, 1, -9):
        with pytest.raises(RingError, match="^modulus must be >= 2$"):
            scan(m)


@pytest.mark.parametrize("scan", [
    lambda: lucas_scan_many("level11", [4, 9], 30),
    lambda: lucas_scan("14C", 4, 30),
    lambda: supercongruence_check("level11", 4, 1, 3),
    lambda: scan_c_counts("level11", [2, 4], 3),
    lambda: structured_congruence_check("level11", 4, 16, 1, {}, 3),
    lambda: structured_congruence_check("15C", 4, 7, 1, {}, 3),
])
def test_composite_primes_are_rejected(scan):
    with pytest.raises(ValueError, match="^4 is not prime$"):
        scan()


def _no_stream(*args):
    raise AssertionError("terms streamed before the arguments were checked")


@pytest.mark.parametrize("class_mod, offsets, match", [
    (0, {}, "^class_mod must be >= 1, got 0$"),
    (-3, {}, "^class_mod must be >= 1, got -3$"),
    (3, {5: 1}, r"^offset class 5 is not in range\(3\)$"),
])
@pytest.mark.parametrize("modulus", [9, 7])
def test_class_mod_and_offset_classes_are_checked_before_the_stream(
        class_mod, offsets, match, modulus, monkeypatch):
    # class_mod 0 used to stream the terms and end in a ZeroDivisionError
    monkeypatch.setattr(congruence, "_padic_residues", _no_stream)
    monkeypatch.setattr(congruence, "_exact_residues", _no_stream)
    with pytest.raises(ValueError, match=match):
        structured_congruence_check("level11", 3, modulus, class_mod, offsets, 5)


@pytest.mark.parametrize("offset", [Fraction(1, 2), Fraction(4, 2), 0.5, "1"])
@pytest.mark.parametrize("modulus", [25, 7])
def test_a_non_int_offset_is_refused_before_the_stream(offset, modulus, monkeypatch):
    # a Fraction offset used to be taken silently, every n then a violation
    monkeypatch.setattr(congruence, "_padic_residues", _no_stream)
    monkeypatch.setattr(congruence, "_exact_residues", _no_stream)
    with pytest.raises(ValueError, match=r"^offset .+ of class 0 is not an int$"):
        structured_congruence_check("level11", 5, modulus, 5, {0: offset}, 5)


@pytest.mark.parametrize("scan", [
    lambda: lucas_scan_many("level11", [], 5),
    lambda: scan_c_counts("level11", [], 5),
])
def test_empty_prime_lists_are_rejected_before_the_stream(scan, monkeypatch):
    monkeypatch.setattr(congruence, "_padic_residues", _no_stream)
    monkeypatch.setattr(congruence, "_exact_residues", _no_stream)
    with pytest.raises(ValueError, match="^no primes given$"):
        scan()


@pytest.mark.parametrize("scan", [
    lambda: lucas_scan_many("level11", [3, 3], 20),
    lambda: scan_c_counts("level11", [3, 3], 20),
    lambda: reproduce("cp-counts", nmax=20, primes=[3, 3]),
])
def test_a_prime_listed_twice_is_rejected_before_the_stream(scan, monkeypatch):
    # a repeated prime used to come back as a duplicate report or one merged count
    monkeypatch.setattr(congruence, "_padic_residues", _no_stream)
    monkeypatch.setattr(congruence, "_exact_residues", _no_stream)
    with pytest.raises(ValueError, match="^prime 3 is listed twice$"):
        scan()


@pytest.mark.parametrize("p", [1, 0, -3])
def test_non_primes_below_two_are_rejected(p):
    with pytest.raises(ValueError, match="%d is not prime" % p):
        lucas_scan_many("level11", [2, p], 10)


@pytest.mark.parametrize("key", ["level11", "apery"])
def test_quad_path_agrees_with_the_rational_path_on_rational_rows(key, monkeypatch):
    # the same (G, H) over Z[sqrt(2)]: every surd component is 0, and the
    # quadratic path must read what the rational path reads
    seq = catalog.sequence(key)
    twin = Sequence.from_gh(seq.key, RingTag("quad", 2), seq.G, seq.H)
    targets = [(p * p, p) for p in LUCAS_PRIMES]
    rational = _exact_residues(seq, 20, targets)
    lucas = [r.to_json() for r in lucas_scan_many(key, LUCAS_PRIMES, LUCAS_N_MAX)]
    padic = [supercongruence_check(key, p, 2, 20).to_json() for p in LUCAS_PRIMES]
    monkeypatch.setattr(catalog, "sequence", lambda k: twin)
    for (a, b), (want,) in zip(_exact_residues(twin, 20, targets), rational):
        assert a == want
        assert b == ([0] * 21, [0] * 21)
    assert [r.to_json() for r in lucas_scan_many(key, LUCAS_PRIMES, LUCAS_N_MAX)] == lucas
    assert [supercongruence_check(key, p, 2, 20).to_json() for p in LUCAS_PRIMES] == padic


def _count_streams(monkeypatch):
    calls = []
    iter_pairs = Sequence.iter_pairs
    monkeypatch.setattr(Sequence, "iter_pairs",
                        lambda self, n_max: calls.append(self.key) or iter_pairs(self, n_max))
    return calls


def test_a_lucas_scan_of_fifteen_primes_streams_once(monkeypatch):
    calls = _count_streams(monkeypatch)
    reports = lucas_scan_many("level11", LUCAS_PRIMES, 300)
    assert len(reports) == len(LUCAS_PRIMES) == 15
    assert calls == ["level11"]


def test_a_quad_row_structured_check_streams_once(monkeypatch):
    calls = _count_streams(monkeypatch)
    report = structured_congruence_check("14C", 3, 9, 3, {}, 40)
    assert report.n_max == 40
    assert calls == ["14C"]


# ---------------------------------------------------------------------------
# over Z, scan_c_counts spreads its p-adic runs over forked workers
# ---------------------------------------------------------------------------

FAN_OUT_PRIMES = [2, 3, 5, 7, 11, 13]
# (n+1) T(n+1) = 24 T(n): T(n) = 24^n / n!, 2- and 3-integral; the p-adic
# run stops at index 5 for p = 5 and at index 7 for p = 7
FACTORIAL_SPEC = RecurrenceSpec((Poly([1, 1]), Poly([-24])))


def _cpus(monkeypatch, k):
    """Let scan_c_counts see k CPUs; the pids of the workers it forks."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(k)), raising=False)
    pids = []
    fork = os.fork

    def recording_fork():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid
    monkeypatch.setattr(os, "fork", recording_fork)
    return pids


def _no_fork():
    raise AssertionError("forked a worker")


def _assert_reaped(pids):
    for pid in pids:
        with pytest.raises(ChildProcessError):
            os.waitpid(pid, os.WNOHANG)


@pytest.mark.parametrize("key", ["level11", "level24", "apery", "level14A", "13scaled"])
@pytest.mark.parametrize("cpus", [1, 2])
def test_scan_c_counts_equals_the_per_prime_checks(key, cpus, monkeypatch):
    want = {p: supercongruence_check(key, p, 2, 30).passes for p in FAN_OUT_PRIMES}
    pids = _cpus(monkeypatch, cpus)
    assert scan_c_counts(key, FAN_OUT_PRIMES[::-1], 30) == want
    assert len(pids) == (0 if cpus == 1 else 2)
    _assert_reaped(pids)


def test_one_cpu_never_forks(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    monkeypatch.setattr(os, "fork", _no_fork)
    assert scan_c_counts("level11", [2, 3, 5], 100) == {2: 100, 3: 33, 5: 20}


def test_no_fork_without_sched_getaffinity_on_one_cpu(monkeypatch):
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 1)
    monkeypatch.setattr(os, "fork", _no_fork)
    assert scan_c_counts("level11", [2, 3, 5], 100) == {2: 100, 3: 33, 5: 20}


def test_no_fork_while_another_thread_runs(monkeypatch):
    import threading

    _cpus(monkeypatch, 2)
    monkeypatch.setattr(os, "fork", _no_fork)
    done = threading.Event()
    thread = threading.Thread(target=done.wait)
    thread.start()
    try:
        assert scan_c_counts("level11", [2, 3, 5], 100) == {2: 100, 3: 33, 5: 20}
    finally:
        done.set()
        thread.join()


@pytest.mark.parametrize("cpus", [1, 2, 4])
def test_the_smallest_failing_prime_raises(cpus, monkeypatch):
    seq = Sequence("hand-built", RING_Z, FACTORIAL_SPEC)
    monkeypatch.setattr(catalog, "sequence", lambda key: seq)
    with pytest.raises(InexactDivision) as first:
        for p in [2, 3, 5, 7]:
            supercongruence_check("hand-built", p, 2, 4)
    pids = _cpus(monkeypatch, cpus)
    with pytest.raises(InexactDivision) as err:
        scan_c_counts("hand-built", [7, 3, 5, 2], 4)
    assert type(err.value) is type(first.value)
    assert (str(err.value), err.value.index) == (str(first.value), first.value.index)
    assert (str(err.value), err.value.index) == ("inexact division at index 5", 5)
    assert len(pids) == (0 if cpus == 1 else cpus)
    _assert_reaped(pids)


def test_a_failing_exact_pass_raises_as_the_sequential_loop_does(monkeypatch):
    _cpus(monkeypatch, 2)
    with pytest.raises(RingError, match=r"^residue needs integer components, got \(3/2, 0\)$"):
        scan_c_counts("level13", [2, 3], 10)


@pytest.mark.parametrize("key", ["14C", "14Cbar", "15C", "15Cbar"])
def test_a_quad_row_scan_streams_once_and_forks_nothing(key, monkeypatch):
    primes = primes_below(30)
    want = {p: supercongruence_check(key, p, 2, 40).passes for p in primes}
    calls = _count_streams(monkeypatch)
    _cpus(monkeypatch, 2)
    monkeypatch.setattr(os, "fork", _no_fork)
    assert scan_c_counts(key, primes, 40) == want
    assert calls == [key]


def test_a_worker_that_dies_names_its_primes(monkeypatch):
    # the worker for 5 is killed; the parent kills and reaps the one still
    # running for 3 instead of waiting for it
    parent = os.getpid()

    def check(spec, p, e, n_max):
        if os.getpid() != parent:
            if p == 5:
                os.kill(os.getpid(), signal.SIGKILL)
            time.sleep(60)
        raise AssertionError("ran in the parent")
    monkeypatch.setattr(congruence, "_padic_residues", check)
    pids = _cpus(monkeypatch, 2)
    t0 = time.perf_counter()
    with pytest.raises(ChildProcessError, match=r"^the worker for primes \[5\] ended without "
                                                r"a result \(wait status 9\)$"):
        scan_c_counts("level11", [3, 5], 10)
    assert time.perf_counter() - t0 < 30
    assert len(pids) == 2
    _assert_reaped(pids)


def _one_match_if(flag, n_max):
    """One target's residues on which T(pn) == T(n) holds at n = 1 alone if
    flag is true, and at no n if it is false."""
    return (([0] * (n_max + 1), [0, 0 if flag else 1] + [1] * (n_max - 1)),)


@pytest.mark.parametrize("caller", [signal.SIG_DFL, lambda signum, frame: None],
                         ids=["default", "caller's handler"])
def test_the_workers_run_and_the_caller_returns_with_sigterm_as_it_was(caller, monkeypatch):
    # each worker reports whether its SIGTERM handler is the caller's, as
    # residues that give a count of 1 if it is and 0 if not
    monkeypatch.setattr(congruence, "_padic_residues", lambda spec, p, e, n_max:
                        _one_match_if(signal.getsignal(signal.SIGTERM) is caller, n_max))
    pids = _cpus(monkeypatch, 2)
    previous = signal.signal(signal.SIGTERM, caller)
    try:
        assert scan_c_counts("level11", [2, 3], 10) == {2: 1, 3: 1}
        assert signal.getsignal(signal.SIGTERM) is caller
    finally:
        signal.signal(signal.SIGTERM, previous)
    assert len(pids) == 2
    _assert_reaped(pids)


# run in a fresh interpreter: a scan whose workers never finish, each
# worker's pid printed as it is forked
SIGTERM_SCAN = """
import os, sys, time
from aperylike import cli, congruence

os.sched_getaffinity = lambda pid: {0, 1}
fork = os.fork

def recording_fork():
    pid = fork()
    if pid:
        print(pid, flush=True)
    return pid
os.fork = recording_fork
congruence._padic_residues = lambda *args: time.sleep(60)
sys.exit(cli.main(["scan", "--seq", "level11", "--primes", "2,59", "--nmax", "10"]))
"""


def _gone(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return True
    return False


# SIGKILL and SIGHUP (a closed terminal) end the parent without unwinding it
@pytest.mark.parametrize("sig", [signal.SIGTERM, signal.SIGHUP, signal.SIGKILL],
                         ids=["SIGTERM", "SIGHUP", "SIGKILL"])
def test_a_sigterm_to_a_scan_stops_its_workers(sig):
    src = os.path.dirname(os.path.dirname(os.path.abspath(congruence.__file__)))
    proc = subprocess.Popen([sys.executable, "-c", SIGTERM_SCAN], stdout=subprocess.PIPE,
                            env=dict(os.environ, PYTHONPATH=src), text=True)
    pids = []
    try:
        pids = [int(proc.stdout.readline()) for _ in range(2)]
        proc.send_signal(sig)
        assert proc.wait(timeout=30) == -sig
        deadline = time.monotonic() + 5
        while not all(map(_gone, pids)) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert [pid for pid in pids if not _gone(pid)] == []
    finally:
        proc.kill()
        proc.wait()
        proc.stdout.close()
        for pid in pids:
            if not _gone(pid):
                os.kill(pid, signal.SIGKILL)
