"""Lucas-congruence and supercongruence scanning.

Residues come from one of two paths, chosen per call with no option:

* The T(pn)-shaped scans over Z (supercongruence_check, scan_c_counts, and
  structured_congruence_check when the modulus is a power of p) run the
  recurrence p-adically.  The division by the lead coefficient, (n+1)^3 for
  the cubic family, is not invertible modulo p^e at the indices it
  vanishes mod p, so the run starts with a precision budget of
  e + sum_m v_p(lead(m)) p-adic digits, divides out p^v exactly at each
  such step, and shrinks the modulus by the precision spent; the p-free
  parts of the leads are folded into the back coefficients, so the run
  takes no modular inverse of its big modulus.  It builds no exact term.
  It certifies p-integrality only: a term that is not p-integral raises
  InexactDivision, while a denominator prime to p goes unseen.  That is
  sound for residues in Z_(p), which is all a congruence mod p^e reads.
* Everything else (Lucas scans, the Z[sqrt(d)] and Q rings, moduli that
  are not a power of p) reduces exact big-integer terms: one pass streams
  the terms once and reduces each against every requested modulus.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from . import catalog
from .recurrence import InexactDivision, RecurrenceSpec, _eval_int_poly, _integral_relation
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


Keep = Optional[Callable[[int], bool]]  # which indices to retain; None keeps all


def _exact_residues(seq: catalog.Sequence, n_max: int,
                    targets: Sequence[Tuple[int, Keep]]) -> List[Dict[int, Residue]]:
    """The exact pass: stream T(0..n_max) once and reduce each term against
    every (modulus, keep) target, one residue dict per target.  The exact
    terms are discarded beyond the recurrence window."""
    tables: List[Dict[int, Residue]] = [{} for _ in targets]
    reducers = list(zip(targets, tables))
    for n, (a, b) in enumerate(seq.iter_pairs()):
        if n > n_max:
            break
        for (m, keep), table in reducers:
            if keep is None or keep(n):
                table[n] = reduce_pair(a, b, m)
    return tables


def _padic_residues(spec: RecurrenceSpec, p: int, e: int, n_max: int,
                    keep: Keep) -> Dict[int, Residue]:
    """T(n) mod p^e for the kept n <= n_max of the Z-ring stream with T(0) = 1,
    from a p-adic run of the recurrence; no exact term is built.

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
    """
    lead, backs = _integral_relation(spec)
    prec = e
    for m in range(n_max):
        x = _eval_int_poly(lead, m)
        if not x:
            raise ZeroDivisionError("lead coefficient vanishes at index %d" % m)
        while x % p == 0:
            x //= p
            prec += 1
    pe = p ** e
    M = p ** prec
    window = [0] * len(backs)  # window[j-1] = W(m+1-j) while producing W(m+1)
    window[0] = 1
    folds = [1] * len(backs)   # folds[j-1] = u_(m-1)...u_(m-j+1)
    D = 1                      # D(m+1) mod p^e once u_m is folded in
    out: Dict[int, Residue] = {}
    if keep is None or keep(0):
        out[0] = (1, 0)
    for m in range(n_max):
        s = 0
        for c, f, w in zip(backs, folds, window):
            if w:
                s += _eval_int_poly(c, m) * f * w
        u = _eval_int_poly(lead, m)
        if u % p == 0:
            v = 0
            while u % p == 0:
                u //= p
                v += 1
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
        if keep is None or keep(m + 1):
            out[m + 1] = (w * pow(D, -1, pe) % pe, 0)
        window.insert(0, w)
        window.pop()
        folds = [1] + [u * f for f in folds[:-1]]
    return out


def _exponent_of(p: int, modulus: int) -> Optional[int]:
    """The e >= 1 with p^e == modulus, or None."""
    e, q = 0, modulus
    while p > 1 and q % p == 0:
        q //= p
        e += 1
    return e if e and q == 1 else None


def _residues(seq: catalog.Sequence, p: int, modulus: int, n_max: int,
              keep: Keep) -> Dict[int, Residue]:
    """T(n) mod modulus for the kept n <= n_max: the p-adic kernel when the
    ring is Z and the modulus is a power of p, the exact pass otherwise."""
    e = _exponent_of(p, modulus)
    if seq.ring.kind == "Z" and e is not None:
        return _padic_residues(seq.spec, p, e, n_max, keep)
    return _exact_residues(seq, n_max, [(modulus, keep)])[0]


def _check_n_max(n_max: int) -> None:
    if n_max < 1:
        raise ValueError("n_max must be >= 1, got %d" % n_max)


def residue_table(seq_key: str, p: int, e: int = 1, n_max: int = 1000) -> ResidueTable:
    """Stream T(0..n_max) exactly and retain residues mod p^e."""
    seq = catalog.sequence(seq_key)
    d = seq.ring.d if seq.ring.kind == "quad" else 0
    residues = _exact_residues(seq, n_max, [(p ** e, None)])[0]
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
    _check_n_max(n_max)
    table = residue_table(seq_key, p, 1, n_max)
    return lucas_check(table, (1, n_max))


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
    _check_n_max(n_max)
    residues = _residues(catalog.sequence(seq_key), p, p ** e, p * n_max,
                         lambda n: n <= n_max or n % p == 0)
    report = CongruenceReport(seq_key, p, e, n_max, 0, kind="supercongruence")
    for n in range(1, n_max + 1):
        holds = residues[p * n] == residues[n]
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
    """c(p) = #{1 <= n <= n_max : T(p n) == T(n) mod p^2} for each prime.

    Each prime runs p*n_max steps of the recurrence once (p-adically over Z),
    retaining only residues.
    """
    return {p: supercongruence_check(seq_key, p, 2, n_max).passes for p in sorted(primes)}


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
    _check_n_max(n_max)
    residues = _residues(catalog.sequence(seq_key), p, modulus, p * n_max,
                         lambda n: n <= n_max or n % p == 0)
    report = CongruenceReport(seq_key, p, 0, n_max, 0, kind="structured")
    for n in range(1, n_max + 1):
        want = offsets.get(n % class_mod, 0)
        a, b = residues[p * n]
        c, d = residues[n]
        if (a - c - want) % modulus == 0 and (b - d) % modulus == 0:
            report.passes += 1
        else:
            report.violations.append(n)
    return report


def lucas_scan_many(seq_key: str, primes: Sequence[int], n_max: int) -> List[CongruenceReport]:
    """Lucas scans for several primes, ordered by prime, from one exact pass
    that streams the terms once and reduces each against every prime."""
    _check_n_max(n_max)
    primes = sorted(primes)
    seq = catalog.sequence(seq_key)
    d = seq.ring.d if seq.ring.kind == "quad" else 0
    tables = _exact_residues(seq, n_max, [(p, None) for p in primes])
    return [
        lucas_check(ResidueTable(seq.key, p, 1, d, table, n_max), (1, n_max))
        for p, table in zip(primes, tables)
    ]


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
