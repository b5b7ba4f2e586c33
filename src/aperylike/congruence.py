"""Lucas-congruence and supercongruence scanning.

A residue request is a list of targets (modulus, stride): keep T(n) mod
modulus for n <= n_max and for n = stride * k with k <= n_max.  Lucas
scans use stride 1; every T(pn) scan uses stride p.  Every scan reads its
residues from one request, _residues, which checks n_max and the moduli
and picks the kernel by one rule, with no option:

* Over Z, a request whose targets are all (p^e, p), e >= 1, gets one
  p-adic run of the recurrence per prime.  The division by the lead
  coefficient, (n+1)^3 for the cubic family, is not invertible modulo p^e
  at the indices it vanishes mod p, so the run starts with a precision
  budget of e + sum_m v_p(lead(m)) p-adic digits, divides out p^v exactly
  at each such step, and shrinks the modulus by the precision spent; the
  p-free parts of the leads are folded into the back coefficients, so the
  run takes no modular inverse of its big modulus.  The coefficients are
  evaluated a block of indices at a time: each block strips the p-part
  from its leads once and builds the unit-folded weights
  b_j(m) u_(m-1)...u_(m-j+1), so a step is one sum of k products over a
  window of the last k values and one reduction.  It builds no exact term.
  It certifies p-integrality only: a term that is not p-integral raises
  InexactDivision, while a denominator prime to p goes unseen.  That is
  sound for residues in Z_(p), which is all a congruence mod p^e reads.
  The runs share no work, so they are spread over forked workers, at most
  one per CPU this process may use, and the request takes as long as its
  costliest prime rather than the sum over all of them (see _fan_out).
  Its residues and its errors are those of the primes run one after
  another.  No worker outlives the request: an error or an interrupt in
  the parent kills and reaps them all first, and a worker ends by itself
  once the parent process has ended, whatever ended it.
* Every other request (Lucas scans, the Z[sqrt(d)] and Q rings, moduli
  that are not a power of p) is one exact pass for all its targets: it
  streams the big-integer terms once and reduces each kept term once,
  modulo the lcm of the moduli of the targets that keep it; each target's
  residue is then read from that one small remainder.  A many-prime scan
  over Z[sqrt(d)] or Q thus streams once and forks nothing.

Both kernels return each target's residues as flat lists (see Residues):
one int per index over Z and Q, one list per component over Z[sqrt(d)].

A Lucas scan builds the digit product incrementally:
prod(n) = prod(n // p) * T(n mod p) mod p, one ring product per index.
Every modulus must be >= 2, every p prime, every list of primes nonempty
and every class modulus >= 1; all are checked before any term is streamed.
"""

from __future__ import annotations

import math
import os
from collections import deque
from dataclasses import dataclass, field
from itertools import islice
from operator import mul
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from . import catalog
from .recurrence import (
    InexactDivision,
    RecurrenceSpec,
    _coeff_blocks,
    _integral_relation,
)
from .rings import RING_Z, RingError, reduce_pair

Residue = Tuple[int, int]
Target = Tuple[int, int]  # (modulus, stride)
# The residues of one target (m, stride): one (low, high) pair of lists per
# component of T = a + b*sqrt(d), one component over Z and Q and two (a,
# then b) over Z[sqrt(d)].  low[n] = T(n) mod m for n <= n_max and
# high[k] = T(stride*k) mod m for k <= n_max; high is low when stride is 1.
Residues = Tuple[Tuple[List[int], List[int]], ...]


@dataclass
class CongruenceReport:
    seq: str
    p: int
    e: int
    n_max: int
    passes: int
    violations: List[int] = field(default_factory=list)
    pattern_hits: List[int] = field(default_factory=list)   # mismatches inside the pattern
    pattern_passes: List[int] = field(default_factory=list)  # pattern members that hold anyway
    kind: str = "lucas"

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_json(self) -> dict:
        return {
            "seq": self.seq, "p": self.p, "e": self.e, "n_max": self.n_max,
            "kind": self.kind, "passes": self.passes,
            "violations": self.violations, "pattern_hits": self.pattern_hits,
            "pattern_passes": self.pattern_passes, "ok": self.ok,
        }


def _exact_residues(seq: catalog.Sequence, n_max: int,
                    targets: Sequence[Target]) -> List[Residues]:
    """The exact pass: stream T(n) once, up to n_max times the largest
    stride, and reduce each kept term against its (modulus, stride)
    targets, one Residues per target.  Every target keeps n <= n_max;
    above n_max an index map names the lcm of the moduli that keep it.
    Each kept term is reduced once, as a pair, modulo the lcm P of its
    targets' moduli (that reduction raises RingError on a term whose
    components are not integers), and each target reads its residues from
    the small remainders mod P: one component over Z and Q, two over
    Z[sqrt(d)].  The exact terms are discarded beyond the recurrence
    window."""
    if not targets:
        return []
    P = math.lcm(*(m for m, _ in targets))
    above: Dict[int, int] = {}  # index above n_max -> lcm of the moduli that keep it
    for m, stride in targets:
        for k in range(n_max // stride + 1, n_max + 1):
            above[stride * k] = math.lcm(above.get(stride * k, 1), m)
    stream = seq.iter_pairs(max(above, default=n_max))
    pairs = [reduce_pair(a, b, P) for a, b in islice(stream, n_max + 1)]
    lows = list(zip(*pairs))[:2 if seq.ring.kind == "quad" else 1]
    highs: Dict[int, Residue] = {}
    for n, (a, b) in enumerate(stream, n_max + 1):
        if n in above:
            highs[n] = reduce_pair(a, b, above[n])
    out = []
    for m, stride in targets:
        res = []
        for c, base in enumerate(lows):
            low = [r % m for r in base]
            high = low if stride == 1 else low[::stride] + [
                highs[stride * k][c] % m for k in range(n_max // stride + 1, n_max + 1)]
            res.append((low, high))
        out.append(tuple(res))
    return out


def _check_primes(primes: Sequence[int]) -> None:
    if not primes:
        raise ValueError("no primes given")
    seen = set()
    for p in primes:
        if not is_prime(p):
            raise ValueError("%d is not prime" % p)
        if p in seen or seen.add(p):
            raise ValueError("prime %d is listed twice" % p)


def _unit_parts(leads: List[int], p: int, start: int) -> Tuple[List[int], Dict[int, int]]:
    """Strip the p-part from a block of leads, lead(m) for m = start, ...:
    the units u_m (lead(m) = p^v_m u_m, u_m prime to p) and the map m ->
    v_m over the indices with v_m > 0.  _coeff_blocks ends a block before
    any vanishing lead."""
    units = list(leads)
    hits = {}
    for i in [i for i, x in enumerate(leads) if x % p == 0]:
        u, v = units[i], 0
        while u % p == 0:
            u //= p
            v += 1
        units[i] = u
        hits[start + i] = v
    return units, hits


def _padic_residues(spec: RecurrenceSpec, p: int, e: int, n_max: int) -> Residues:
    """T(n) mod p^e for n <= n_max and for n = p k with k <= n_max, of the
    Z-ring stream with T(0) = 1, from a p-adic run of the recurrence to
    p n_max; no exact term is built.  The result has the shape of the
    exact pass with target (p^e, p).

    Write lead(m) = p^v_m * u_m with u_m prime to p, and D(n) = u_0...u_(n-1).
    The run carries W(n) = T(n) D(n) modulo p^prec, where
        lead(m) T(m+1) = sum_j b_j(m) T(m+1-j)
    becomes
        p^v_m W(m+1) = sum_j b_j(m) (u_(m-1)...u_(m-j+1)) W(m+1-j),
    so no unit is ever inverted modulo p^prec.  The precision starts at
    e + sum_m v_p(lead(m)) and each step with v_m > 0 spends v_m of it:
    the sum must be divisible by p^v_m (else T(m+1) is not p-integral and
    InexactDivision carries m+1), is divided exactly, and the modulus
    shrinks to p^prec.  A kept index returns W(n) D(n)^-1 mod p^e, with D
    tracked mod p^e.  The result certifies p-integrality only; a
    denominator prime to p is not detected.

    Both passes (the precision budget, then the run) read the coefficients
    a block of indices at a time from _coeff_blocks.  Each block of the run
    strips the p-part from its leads once and builds the unit-folded
    weights b_j(m) u_(m-1)...u_(m-j+1) as columns, carrying the last k-1
    units across block edges; a step is then one sum of weights times a
    deque of the last k values of W.
    """
    lead, backs, _ = _integral_relation(spec, RING_Z)
    k = len(backs)
    end = p * n_max
    prec = e
    for start, (leads,) in _coeff_blocks([lead], end):
        prec += sum(_unit_parts(leads, p, start)[1].values())
    pe = p ** e
    M = p ** prec
    window = deque([1] + [0] * (k - 1), maxlen=k)  # window[j-1] = W(m+1-j) while producing W(m+1)
    carry = [1] * (k - 1)  # u_(start-k+1), ..., u_(start-1); u is 1 at a negative index
    D = 1                  # D(m+1) mod p^e once u_m is folded in
    low = [1]   # T(n) mod p^e for n <= n_max
    above = []  # T(p k) mod p^e for n_max < p k <= p n_max
    for start, (leads, *bs) in _coeff_blocks([lead, *backs], end):
        n = len(leads)
        units, hits = _unit_parts(leads, p, start)
        ext = carry + units  # ext[k-1+i] = u_(start+i)
        carry = ext[n:]
        weights = bs[:1]
        fold = [1] * n  # fold[i] = u_(m-1)...u_(m-j+1) at m = start+i
        for j in range(2, k + 1):
            fold = [f * u for f, u in zip(fold, ext[k - j:k - j + n])]
            weights.append([b * f for b, f in zip(bs[j - 1], fold)])
        for m, u, row in zip(range(start, start + n), units, zip(*weights)):
            s = sum(map(mul, row, window))
            if m in hits:
                v = hits[m]
                pv = p ** v
                s, r = divmod(s, pv)
                if r:
                    raise InexactDivision(m + 1)
                prec -= v
                if prec < e:
                    raise ArithmeticError("p-adic precision below e at index %d" % (m + 1))
                M //= pv
            w = s % M
            D = D * u % pe
            if m < n_max:
                low.append(w * pow(D, -1, pe) % pe)
            elif (m + 1) % p == 0:
                above.append(w * pow(D, -1, pe) % pe)
            window.appendleft(w)
    return ((low, low[::p] + above),)


def _exponent_of(p: int, modulus: int) -> Optional[int]:
    """The e >= 1 with p^e == modulus, or None."""
    e, q = 0, modulus
    while p > 1 and q % p == 0:
        q //= p
        e += 1
    return e if e and q == 1 else None


def _residues(seq: catalog.Sequence, n_max: int,
              targets: Sequence[Target]) -> List[Residues]:
    """One Residues per (modulus, stride) target of seq, by the rule of the
    module docstring: over Z, targets that are all (p^e, p) with e >= 1
    and p distinct get one _padic_residues run per prime, spread by
    _fan_out over the primes in order, so the smallest failing prime's
    exception is raised; any other request is one _exact_residues pass.
    n_max and the moduli are checked first."""
    if n_max < 1:
        raise ValueError("n_max must be >= 1, got %d" % n_max)
    if any(m < 2 for m, _ in targets):
        raise RingError("modulus must be >= 2")
    exps = {p: _exponent_of(p, m) for m, p in targets}
    if (seq.ring.kind == "Z" and targets and len(exps) == len(targets)
            and None not in exps.values()):
        runs = _fan_out(lambda p: _padic_residues(seq.spec, p, exps[p], n_max), sorted(exps))
        return [runs[p] for _, p in targets]
    return _exact_residues(seq, n_max, targets)


def _tpn_matches(seq_key: str, targets: Sequence[Target], n_max: int,
                 offsets: Dict[int, int], class_mod: int = 1) -> List[List[bool]]:
    """For each target (modulus, p), in order, whether
    T(p n) - T(n) == offsets[n mod class_mod] (mod modulus) for
    n = 1..n_max, componentwise with the offset on the rational part; all
    the targets' residues come from one _residues request."""
    _check_primes([p for _, p in targets])
    if class_mod < 1:
        raise ValueError("class_mod must be >= 1, got %d" % class_mod)
    for k, v in offsets.items():
        if k not in range(class_mod):
            raise ValueError("offset class %r is not in range(%d)" % (k, class_mod))
        if not isinstance(v, int):
            raise ValueError("offset %r of class %d is not an int" % (v, k))
    out = []
    for (modulus, _), ((low, high), *surd) in zip(
            targets, _residues(catalog.sequence(seq_key), n_max, targets)):
        held = [(high[n] - low[n] - offsets.get(n % class_mod, 0)) % modulus == 0
                for n in range(1, n_max + 1)]
        for surd_low, surd_high in surd:
            held = [h and (surd_high[n] - surd_low[n]) % modulus == 0
                    for n, h in enumerate(held, 1)]
        out.append(held)
    return out


def _lucas_report(key: str, p: int, d: int, res: Residues,
                  n_max: int) -> CongruenceReport:
    """T(n) == prod T(n_i) mod p over the base-p digits n_i of n, for
    n = 1..n_max, from the residues mod p of a stride-1 target.  The
    product is built incrementally, prod(n) = prod(n // p) * T(n mod p), so
    each index costs one product.  Over Z[sqrt(d)] the product is taken
    mod p on component pairs: componentwise congruence is
    conjugation-stable and needs no choice of a square root of d mod p.
    Rational rows (one component) do no surd work and ignore d."""
    # prods[n] for n < p is T(n) itself; each later block of p indices
    # shares its n // p, so prods[n // p] is read once per block
    if len(res) == 1:
        (low, _), = res
        digits = low[:min(p, n_max + 1)]
        prods = list(digits)
        for q in range(1, n_max // p + 1):
            a = prods[q]
            prods += [a * c % p for c in digits]
    else:
        (la, _), (lb, _) = res
        low = list(zip(la, lb))
        digits = low[:min(p, n_max + 1)]
        prods = list(digits)
        for q in range(1, n_max // p + 1):
            a, b = prods[q]
            prods += [((a * c + d * b * f) % p, (a * f + b * c) % p) for c, f in digits]
    violations = [n for n in range(1, n_max + 1) if prods[n] != low[n]]
    return CongruenceReport(key, p, 1, n_max, n_max - len(violations), violations,
                            kind="lucas")


def lucas_scan_many(seq_key: str, primes: Sequence[int], n_max: int) -> List[CongruenceReport]:
    """Lucas scans for several primes, ordered by prime, from one exact pass
    that streams the terms once and reduces each once for all the primes."""
    primes = sorted(primes)
    _check_primes(primes)
    seq = catalog.sequence(seq_key)
    d = seq.ring.d if seq.ring.kind == "quad" else 0
    tables = _residues(seq, n_max, [(p, 1) for p in primes])
    return [_lucas_report(seq.key, p, d, res, n_max) for p, res in zip(primes, tables)]


def lucas_scan(seq_key: str, p: int, n_max: int) -> CongruenceReport:
    return lucas_scan_many(seq_key, [p], n_max)[0]


# ---------------------------------------------------------------------------
# Exception patterns
# ---------------------------------------------------------------------------


def _is_power_of_two(m: int) -> bool:
    return m > 0 and (m & (m - 1)) == 0


# Named exception patterns: predicates over n, each decidable by bounded search.
PATTERNS: Dict[str, Callable[[int], bool]] = {
    # n = 1, or n = 1 + 2^(j-1) (j >= 1), or n = 1 + 3*2^j (j >= 1)
    "level11-2adic":
        lambda n: n == 1 or _is_power_of_two(n - 1)
        or ((n - 1) % 3 == 0 and (n - 1) // 3 >= 2 and _is_power_of_two((n - 1) // 3)),
    # n in {1, 2, 3} or n = 3*2^j + 1 (j >= 0)
    "level14C-2adic":
        lambda n: n in (1, 2, 3)
        or ((n - 1) % 3 == 0 and _is_power_of_two((n - 1) // 3)),
    # n = 1 or n = 1 + 2^j (j >= 0)
    "level15C-2adic": lambda n: n == 1 or _is_power_of_two(n - 1),
    # n = 1 or n = 1 + 2^j (j >= 0): the level-24 mod-32 exceptions
    "level24-2adic": lambda n: n == 1 or _is_power_of_two(n - 1),
    # base-5 digits of n-1 all 0 or 1
    "base5-zero-one": lambda n: _digits_zero_one(n - 1, 5),
}


def _digits_zero_one(m: int, base: int) -> bool:
    if m < 0:
        return False
    while m:
        if m % base > 1:
            return False
        m //= base
    return True


# ---------------------------------------------------------------------------
# Supercongruences
# ---------------------------------------------------------------------------


def supercongruence_check(seq_key: str, p: int, e: int, n_max: int,
                          pattern: Optional[Callable[[int], bool]] = None
                          ) -> CongruenceReport:
    """T(p n) == T(n) mod p^e for n = 1..n_max, except where pattern says not.

    Mismatches outside the pattern are violations; mismatches inside it are
    pattern_hits (expected); pattern members that nevertheless hold are
    pattern_passes, reported so that stated exceptions can be matched
    exactly in both directions.  Over Z the residues come from the p-adic
    kernel (p-integrality certified, see the module docstring).
    """
    matches, = _tpn_matches(seq_key, [(p ** e, p)], n_max, {})
    report = CongruenceReport(catalog.sequence(seq_key).key, p, e, n_max, 0,
                              kind="supercongruence")
    for n, holds in enumerate(matches, 1):
        in_pattern = bool(pattern and pattern(n))
        if holds:
            report.passes += 1
            if in_pattern:
                report.pattern_passes.append(n)
        elif in_pattern:
            report.pattern_hits.append(n)
        else:
            report.violations.append(n)
    return report


def scan_c_counts(seq_key: str, primes: Sequence[int], n_max: int = 1000) -> Dict[int, int]:
    """c(p) = #{1 <= n <= n_max : T(p n) == T(n) mod p^2} for each prime,
    ordered by prime, from one _residues request for all the primes."""
    matches = _tpn_matches(seq_key, [(p * p, p) for p in primes], n_max, {})
    return {p: sum(held) for p, held in sorted(zip(primes, matches))}


def _fan_out(run: Callable[[int], Residues], primes: List[int]) -> Dict[int, Residues]:
    """{p: run(p)} for the primes in order, run in forked workers, one per
    CPU this process may use and at most one per prime.  A prime's cost is
    taken as its step count p*n_max, n_max being the same for all, so the
    primes go largest first, each to the worker with the smallest sum of
    primes so far.  The parent raises the exception of the smallest
    failing prime, or ChildProcessError naming the primes and wait status
    of a worker that ended without a result; every worker is reaped before
    this returns or raises, after a kill if the parent is unwinding.  The
    parent sets no signal handler.  Its workers end by themselves once it
    closes the lifeline pipe, in the finally or by ending, so a signal that
    ends it without unwinding, or an unwinding before a fork is recorded
    in live, leaves no worker running (see _fan_out_worker).  With one
    worker, no os.fork, or other threads running (forking those is
    unsafe), the primes run here in order."""
    import threading

    affinity = getattr(os, "sched_getaffinity", None)
    cpus = len(affinity(0)) if affinity else os.cpu_count() or 1
    workers = min(cpus, len(primes))
    if workers == 1 or not hasattr(os, "fork") or threading.active_count() > 1:
        return {p: run(p) for p in primes}
    groups: List[List[int]] = [[] for _ in range(workers)]
    loads = [0] * workers
    for p in sorted(primes, reverse=True):
        i = loads.index(min(loads))
        groups[i].append(p)
        loads[i] += p
    import pickle
    import signal

    outcomes: Dict[int, object] = {}
    live: Dict[int, Tuple[List[int], int]] = {}  # pid -> (primes, read end), until reaped
    reads: List[int] = []
    lifeline = os.pipe()  # never written; the workers see EOF once this process closes it
    try:
        for group in groups:
            r, w = os.pipe()
            reads.append(r)
            try:
                pid = os.fork()
                if pid == 0:
                    _fan_out_worker(run, group, r, w, lifeline)
                live[pid] = (group, r)
            finally:
                os.close(w)
        for pid, (group, r) in list(live.items()):
            with open(r, "rb", closefd=False) as fh:
                data = fh.read()
            status = os.waitpid(pid, 0)[1]
            del live[pid]
            if not data:
                raise ChildProcessError("the worker for primes %s ended without a result "
                                        "(wait status %d)" % (group, status))
            outcomes.update(pickle.loads(data))
    finally:
        for pid in live:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        for fd in reads + list(lifeline):
            os.close(fd)
    for p in primes:
        if isinstance(outcomes[p], BaseException):
            raise outcomes[p]
    return {p: outcomes[p] for p in primes}


def _fan_out_worker(run: Callable[[int], Residues], primes: List[int], r: int, w: int,
                    lifeline: Tuple[int, int]) -> None:
    """The body of a forked worker; never returns.  It closes the read end
    r of its pipe and its copy of the lifeline's write end, so that only
    the parent's stays open, and starts a daemon thread that blocks reading the
    lifeline and ends the worker when the read returns: at EOF, once the
    parent has ended by whatever means, a kill -9 included.  It then
    pickles one outcome per prime, run(p) or the exception it raised, into
    the write end w of its pipe and leaves with os._exit, so nothing
    inherited (atexit hooks, buffered output, the caller's frames) runs
    twice."""
    code = 1
    try:
        import pickle
        import threading

        os.close(r)
        os.close(lifeline[1])

        def exit_with_parent():
            os.read(lifeline[0], 1)
            os._exit(1)
        threading.Thread(target=exit_with_parent, daemon=True).start()
        out = {}
        for p in primes:
            try:
                out[p] = run(p)
            except Exception as exc:
                out[p] = exc
        with open(w, "wb") as fh:
            fh.write(pickle.dumps(out))
        code = 0
    finally:
        os._exit(code)


def structured_congruence_check(seq_key: str, p: int, modulus: int,
                                class_mod: int,
                                offsets: Dict[int, int],
                                n_max: int) -> CongruenceReport:
    """T(p n) - T(n) == offsets[n mod class_mod] (mod modulus) for n <= n_max.

    Offsets are ints and shift the rational component only (over Z[sqrt(d)]
    the surd components must agree); classes missing from the map default
    to 0, so the zero map reduces to the plain supercongruence check.  A
    modulus p^e over Z goes through the p-adic kernel, any other through
    the exact pass.
    """
    matches, = _tpn_matches(seq_key, [(modulus, p)], n_max, offsets, class_mod)
    violations = [n for n, holds in enumerate(matches, 1) if not holds]
    return CongruenceReport(catalog.sequence(seq_key).key, p, 0, n_max,
                            n_max - len(violations), violations, kind="structured")


# The sieve holds one byte per candidate, so the largest candidate is capped.
SIEVE_CAP = 10 ** 7


def primes_below(bound: int) -> List[int]:
    """The primes p < bound, by a sieve; bound - 1 may be at most SIEVE_CAP."""
    if bound - 1 > SIEVE_CAP:
        raise ValueError("primes below %d: the sieve stops at %d" % (bound, SIEVE_CAP))
    is_comp = bytearray(max(bound, 2))
    out = []
    for p in range(2, bound):
        if not is_comp[p]:
            out.append(p)
            for m in range(p * p, bound, p):
                is_comp[m] = 1
    return out


# Miller-Rabin with these bases is exact for every n below this bound.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_MR_BOUND = 318665857834031151167461


def is_prime(n: int) -> bool:
    """Deterministic primality test for n < 3.18e23; larger n raise ValueError."""
    if n >= _MR_BOUND:
        raise ValueError("primality of %d is not decided below %d" % (n, _MR_BOUND))
    if n < 2:
        return False
    for q in _MR_BASES:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True
