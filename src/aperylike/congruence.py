"""Lucas-congruence and supercongruence scanning.

Residues always come from exact big-integer terms reduced componentwise,
never from running the recurrence modulo p^e: the division by (n+1)^3 is
not invertible at indices divisible by p, and exact streaming is cheap at
the scales scanned here.  Scans over distinct primes are independent and
can run as parallel jobs.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from . import catalog
from .rings import reduce_pair

Residue = Tuple[int, int]


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


@dataclass
class ResidueTable:
    """Residues of T(0..n_max) modulo p^e as component pairs.

    For sequences over Z the surd component is always 0; over Z[sqrt(d)]
    congruence is componentwise, which is conjugation-stable and needs no
    choice of a square root of d mod p."""

    seq: str
    p: int
    e: int
    d: int  # 0 for rational sequences
    residues: Dict[int, Residue]
    n_max: int

    @property
    def modulus(self) -> int:
        return self.p ** self.e

    def __getitem__(self, n: int) -> Residue:
        try:
            return self.residues[n]
        except KeyError:
            raise IndexError("residue at n=%d not retained (n_max=%d)" % (n, self.n_max))

    def mul(self, x: Residue, y: Residue) -> Residue:
        m = self.modulus
        a, b = x
        c, dd = y
        return ((a * c + self.d * b * dd) % m, (a * dd + b * c) % m)


def residue_table(seq_key: str, p: int, e: int = 1, n_max: int = 1000,
                  keep: Optional[Callable[[int], bool]] = None) -> ResidueTable:
    """Stream T(0..n_max) exactly and retain residues mod p^e.

    keep(n) selects which indices to retain (all by default); the exact
    terms themselves are discarded beyond the recurrence window.
    """
    seq = catalog.sequence(seq_key)
    m = p ** e
    d = seq.ring.d if seq.ring.kind == "quad" else 0
    residues: Dict[int, Residue] = {}
    for n, (a, b) in enumerate(seq.iter_pairs()):
        if n > n_max:
            break
        if keep is None or keep(n):
            residues[n] = reduce_pair(a, b, m)
    return ResidueTable(seq.key, p, e, d, residues, n_max)


def lucas_check(table: ResidueTable, n_range: Tuple[int, int]) -> CongruenceReport:
    """T(n) == prod T(n_i) mod p over the base-p digits n_i of n."""
    if table.e != 1:
        raise ValueError("Lucas check runs modulo p (e = 1)")
    lo, hi = n_range
    if hi > table.n_max:
        raise IndexError("range exceeds table (%d > %d)" % (hi, table.n_max))
    p = table.p
    report = CongruenceReport(table.seq, p, 1, hi, 0, kind="lucas")
    for n in range(lo, hi + 1):
        acc = (1, 0)
        m = n
        while m:
            acc = table.mul(acc, table[m % p])
            m //= p
        if acc == table[n]:
            report.passes += 1
        else:
            report.violations.append(n)
    return report


def lucas_scan(seq_key: str, p: int, n_max: int) -> CongruenceReport:
    table = residue_table(seq_key, p, 1, n_max)
    return lucas_check(table, (1, n_max))


# ---------------------------------------------------------------------------
# Exception patterns
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ExceptionPattern:
    """A named predicate over n with decidable membership by bounded search."""

    name: str
    member: Callable[[int], bool]

    def __call__(self, n: int) -> bool:
        return self.member(n)


def _is_power_of_two(m: int) -> bool:
    return m > 0 and (m & (m - 1)) == 0


PATTERNS: Dict[str, ExceptionPattern] = {
    # n = 1, or n = 1 + 2^(j-1) (j >= 1), or n = 1 + 3*2^j (j >= 1)
    "level11-2adic": ExceptionPattern(
        "level11-2adic",
        lambda n: n == 1 or _is_power_of_two(n - 1)
        or ((n - 1) % 3 == 0 and (n - 1) // 3 >= 2 and _is_power_of_two((n - 1) // 3))),
    # n in {1, 2, 3} or n = 3*2^j + 1 (j >= 0)
    "level14C-2adic": ExceptionPattern(
        "level14C-2adic",
        lambda n: n in (1, 2, 3)
        or ((n - 1) % 3 == 0 and _is_power_of_two((n - 1) // 3))),
    # n = 1 or n = 1 + 2^j (j >= 0)
    "level15C-2adic": ExceptionPattern(
        "level15C-2adic", lambda n: n == 1 or _is_power_of_two(n - 1)),
    # n = 1 or n = 1 + 2^j (j >= 0): the level-24 mod-32 exceptions
    "level24-2adic": ExceptionPattern(
        "level24-2adic", lambda n: n == 1 or _is_power_of_two(n - 1)),
    # base-5 digits of n-1 all 0 or 1
    "base5-zero-one": ExceptionPattern(
        "base5-zero-one", lambda n: _digits_zero_one(n - 1, 5)),
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
                          pattern: Optional[ExceptionPattern] = None
                          ) -> CongruenceReport:
    """T(p n) == T(n) mod p^e for n = 1..n_max, except where pattern says not.

    Mismatches outside the pattern are violations; mismatches inside it are
    pattern_hits (expected); pattern members that nevertheless hold are
    pattern_passes, reported so that stated exceptions can be matched
    exactly in both directions.
    """
    table = residue_table(
        seq_key, p, e, p * n_max,
        keep=lambda n: n <= n_max or n % p == 0)
    report = CongruenceReport(seq_key, p, e, n_max, 0, kind="supercongruence")
    for n in range(1, n_max + 1):
        holds = table[p * n] == table[n]
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


def scan_c_counts(seq_key: str, primes: Sequence[int], n_max: int = 1000,
                  jobs: int = 1) -> Dict[int, int]:
    """c(p) = #{1 <= n <= n_max : T(p n) == T(n) mod p^2} for each prime.

    Each prime streams p*n_max exact terms once, retaining only residues.
    """
    args = [(seq_key, p, n_max) for p in sorted(primes)]
    if jobs > 1 and len(args) > 1:
        with ProcessPoolExecutor(max_workers=min(jobs, len(args))) as pool:
            counts = list(pool.map(_count_one, args))
    else:
        counts = [_count_one(a) for a in args]
    return dict(zip(sorted(primes), counts))


def _count_one(arg: Tuple[str, int, int]) -> int:
    seq_key, p, n_max = arg
    report = supercongruence_check(seq_key, p, 2, n_max)
    return report.passes


def structured_congruence_check(seq_key: str, p: int, modulus: int,
                                class_mod: int,
                                offsets: Dict[int, object],
                                n_max: int) -> CongruenceReport:
    """T(p n) - T(n) == offsets[n mod class_mod] (mod modulus) for n <= n_max.

    Offsets may be ints, component pairs, or callables n -> offset; classes
    missing from the map default to 0, so the zero map reduces to the plain
    supercongruence check.
    """
    seq = catalog.sequence(seq_key)
    residues: Dict[int, Residue] = {}
    for n, (a, b) in enumerate(seq.iter_pairs()):
        if n > p * n_max:
            break
        if n <= n_max or n % p == 0:
            residues[n] = reduce_pair(a, b, modulus)
    report = CongruenceReport(seq_key, p, 0, n_max, 0, kind="structured")
    for n in range(1, n_max + 1):
        want = offsets.get(n % class_mod, 0)
        if callable(want):
            want = want(n)
        wa, wb = want if isinstance(want, tuple) else (want, 0)
        a, b = residues[p * n]
        c, d = residues[n]
        if (a - c - wa) % modulus == 0 and (b - d - wb) % modulus == 0:
            report.passes += 1
        else:
            report.violations.append(n)
    return report


def lucas_scan_many(seq_key: str, primes: Sequence[int], n_max: int,
                    jobs: int = 1) -> List[CongruenceReport]:
    """Independent Lucas scans for several primes, ordered by prime.

    Sequentially this streams the exact terms once and reduces against all
    primes in one pass; with jobs > 1 each prime re-streams in its own
    process.
    """
    primes = sorted(primes)
    if jobs > 1 and len(primes) > 1:
        args = [(seq_key, p, n_max) for p in primes]
        with ProcessPoolExecutor(max_workers=min(jobs, len(args))) as pool:
            return list(pool.map(_lucas_one, args))
    seq = catalog.sequence(seq_key)
    d = seq.ring.d if seq.ring.kind == "quad" else 0
    tables = {p: {} for p in primes}
    for n, (a, b) in enumerate(seq.iter_pairs()):
        if n > n_max:
            break
        for p in primes:
            tables[p][n] = reduce_pair(a, b, p)
    return [
        lucas_check(ResidueTable(seq.key, p, 1, d, tables[p], n_max), (1, n_max))
        for p in primes
    ]


def _lucas_one(arg: Tuple[str, int, int]) -> CongruenceReport:
    seq_key, p, n_max = arg
    return lucas_scan(seq_key, p, n_max)


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
