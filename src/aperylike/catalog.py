"""Tables of sequence data: modular parameterisations for levels 1-35,
the six weight-one sporadic rows, their weight-two companions, the
one-parameter level-14/15 families, binomial-sum formulas, and the frozen
reference values the test suite reproduces.

The level-14/15 eta quotients w are data too: ``ETA_W`` holds each one
once, and the level rows, the families' X_eps and the weight-0 relations
``LAURENT_RELATIONS`` (which the q-series identity bank checks) read it.

Table data is committed as literal source constants.  Each block carries a
row key so entries can be audited against the source tables one by one.
Rows flagged ``corrected`` differ from the printed source; see the note on
the entry.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from math import comb, factorial
from typing import Callable, Dict, List, Optional, Tuple

from .recurrence import (
    Poly,
    RecurrenceSpec,
    Sequence,
    asz_gh,
    mobius_shift,
    poly_product,
    recurrence_from_quadratic,
)
from .rings import QuadElem, RingTag, RING_Q, RING_Z, Scalar

F = Fraction
SQRT2 = QuadElem(2, 0, 1)


class UnknownKeyError(KeyError):
    __str__ = Exception.__str__  # the message itself, not KeyError's repr of it


# ---------------------------------------------------------------------------
# Binomial helpers and oracles
# ---------------------------------------------------------------------------


def comb0(m: int, k: int) -> int:
    """binomial(m, k), zero outside 0 <= k <= m."""
    if k < 0 or m < 0 or k > m:
        return 0
    return comb(m, k)


def combg(m: int, k: int) -> int:
    """Generalized binomial m(m-1)...(m-k+1)/k! for integer m, k >= 0."""
    if k < 0:
        return 0
    num = 1
    for i in range(k):
        num *= m - i
    return num // factorial(k)


def _apery(n: int) -> int:
    return sum(comb(n, k) ** 2 * comb(n + k, k) ** 2 for k in range(n + 1))


def _zagier5(n: int) -> int:
    return sum(comb(n, k) ** 2 * comb(n + k, k) for k in range(n + 1))


def _franel(n: int) -> int:
    return sum(comb(n, k) ** 3 for k in range(n + 1))


def _zagier6a(n: int) -> int:
    return sum((-8) ** (n - j) * comb(n, j) * _franel(j) for j in range(n + 1))


def _zagier6b(n: int) -> int:
    return sum(comb(n, j) ** 2 * comb(2 * j, j) for j in range(n + 1))


def _zagier8(n: int) -> int:
    s = sum(comb(n, j) * comb(2 * j, j) * comb0(2 * n - 2 * j, n - j) for j in range(n + 1))
    return (-1) ** n * s


def _zagier9(n: int) -> int:
    return sum(
        (-3) ** (n - 3 * j) * comb(n, j) * comb0(n - j, j) * comb0(n - 2 * j, j)
        for j in range(n // 3 + 1)
    )


def _w2_5(n: int) -> int:
    return sum((-1) ** (j + n) * comb(n, j) ** 3 * combg(4 * n - 5 * j, 3 * n)
               for j in range(n + 1))


def _w2_6b(n: int) -> int:
    s = sum(comb(n, j) ** 2 * comb(2 * j, j) * comb0(2 * n - 2 * j, n - j)
            for j in range(n + 1))
    return (-1) ** n * s


def _w2_6c(n: int) -> int:
    return sum(
        (-3) ** (n - 3 * j) * comb(n + j, j) * comb(n, j) * comb0(n - j, j) * comb0(n - 2 * j, j)
        for j in range(n // 3 + 1)
    )


def _w2_8(n: int) -> int:
    return sum(comb(n, j) ** 2 * comb0(2 * j, n) ** 2 for j in range(n + 1))


def _w2_9(n: int) -> int:
    return sum(
        comb(n, j) ** 2 * comb(n, l) * comb0(j, l) * comb0(j + l, n)
        for j in range(n + 1) for l in range(n + 1)
    )


def _level14a(n: int) -> int:
    total = 0
    for k in range(n // 2 + 1):
        for j in range(min(k, n - 2 * k) + 1):
            total += (comb0(n + j, 2 * j + 2 * k) * comb(2 * j + 2 * k, j + k)
                      * comb(2 * k, k) ** 2 * comb(k, j))
    return total


def _level18(n: int) -> int:
    # the final factor takes a negative upper index for large j
    return sum(
        (-1) ** j * comb(n, j) * comb(2 * j, j) * comb0(2 * n - 2 * j, n - j)
        * combg(2 * n - 3 * j, n)
        for j in range(n + 1)
    )


# The binomial-sum formula of each sequence that has one, by sequence key.
ORACLES: Dict[str, Callable[[int], Scalar]] = {
    "weight2-6A": _apery,
    "zagier6C": _franel,
    "zagier5": _zagier5,
    "zagier6A": _zagier6a,
    "zagier6B": _zagier6b,
    "zagier8": _zagier8,
    "zagier9": _zagier9,
    "weight2-5": _w2_5,
    "weight2-6B": _w2_6b,
    "weight2-6C": _w2_6c,
    "weight2-8": _w2_8,
    "weight2-9": _w2_9,
    "level1": lambda n: comb(6 * n, 3 * n) * comb(3 * n, n) * comb(2 * n, n),
    "level2": lambda n: comb(4 * n, 2 * n) * comb(2 * n, n) ** 2,
    "level3": lambda n: comb(3 * n, n) * comb(2 * n, n) ** 2,
    "level4": lambda n: comb(2 * n, n) ** 3,
    "level5": lambda n: comb(2 * n, n) * _zagier5(n),
    "level6A": lambda n: comb(2 * n, n) * _zagier6a(n),
    "level6B": lambda n: comb(2 * n, n) * _zagier6b(n),
    "level6C": lambda n: comb(2 * n, n) * _franel(n),
    "level7": lambda n: sum(comb(n, j) ** 2 * comb0(2 * j, n) * comb(n + j, j)
                            for j in range(n + 1)),
    "level8": lambda n: comb(2 * n, n) * _zagier8(n),
    "level9": lambda n: comb(2 * n, n) * _zagier9(n),
    "level10": lambda n: sum(comb(n, j) ** 4 for j in range(n + 1)),
    "level12": lambda n: sum(comb(n, j) ** 2 * comb(2 * j, j) * comb0(2 * n - 2 * j, n - j)
                             for j in range(n + 1)),
    "level14A": _level14a,
    "level18": _level18,
    "level24": lambda n: sum(comb(n, 2 * j) * comb(2 * j, j) ** 2
                             * comb0(2 * n - 4 * j, n - 2 * j)
                             for j in range(n // 2 + 1)),
}


def binomial_oracle(key: str, n: int) -> Scalar:
    """Evaluate the committed binomial-sum formula for a sequence, exactly."""
    seq = sequence(key)
    if seq.oracle is None:
        raise UnknownKeyError("no binomial oracle for %r" % (key,))
    if n < 0:
        raise ValueError("n must be >= 0")
    return seq.oracle(n)


# ---------------------------------------------------------------------------
# Weight-one rows (the six sporadic triples with their x, z forms)
# ---------------------------------------------------------------------------

# Product specs understood by the q-expansion builder:
#   ("eta",  ((N, e), ...))                 product of eta_N^e
#   ("poch", offset, ((a, m, e), ...))      q^offset * prod_{j>=0} (1-q^(a+j m))^e
#   ("eisenstein13",)                       (13 P(q^13) - P(q)) / 12
#   ("level1w",)                            (Q^{3/2} - R) / (432 (Q^{3/2} + R))
#   ("hauptmodul", w, D)                    w / D(w), w a product spec, D coefficients
#   ("eta_theta_sq", eta, theta)            (eta product / theta)^2
#   ("eta_over_theta_sum", eta, t1, t2, k)  k * eta product / (theta_t1 + theta_t2)
# qseries.build_product(spec, order) knows every kind exactly through
# q^(v + order), v its valuation.


@dataclass(frozen=True)
class WeightRow:
    """A weight-one sporadic row or its weight-two companion: the triple and
    the product specs of x and z, with z never divided by a power of x."""

    key: str
    level: str
    triple: Tuple[int, int, int]
    x: tuple
    z: tuple
    oeis: str
    corrected: Optional[str] = None
    z_xexp = F(0)


ZAGIER_ROWS: Dict[str, WeightRow] = {
    # row 5
    "zagier5": WeightRow(
        "zagier5", "5", (11, 3, 1),
        ("poch", F(1), ((1, 5, 5), (4, 5, 5), (2, 5, -5), (3, 5, -5))),
        ("poch", F(0), ((1, 1, 2), (1, 5, -5), (4, 5, -5))),
        "A005258"),
    # row 6 (A)
    "zagier6A": WeightRow(
        "zagier6A", "6 (A)", (-17, -6, -72),
        ("eta", ((2, 1), (6, 5), (1, -5), (3, -1))),
        ("eta", ((1, 6), (6, 1), (2, -3), (3, -2))),
        "A093388"),
    # row 6 (B)
    "zagier6B": WeightRow(
        "zagier6B", "6 (B)", (10, 3, -9),
        ("eta", ((1, 4), (6, 8), (2, -8), (3, -4))),
        ("eta", ((2, 6), (3, 1), (1, -3), (6, -2))),
        "A002893"),
    # row 6 (C)
    "zagier6C": WeightRow(
        "zagier6C", "6 (C)", (7, 2, 8),
        ("eta", ((1, 3), (6, 9), (2, -3), (3, -9))),
        ("eta", ((2, 1), (3, 6), (1, -2), (6, -3))),
        "A000172"),
    # row 8
    "zagier8": WeightRow(
        "zagier8", "8", (-12, -4, -32),
        ("eta", ((2, 2), (8, 4), (1, -4), (4, -2))),
        ("eta", ((1, 4), (2, -2))),
        "A081085"),
    # row 9
    "zagier9": WeightRow(
        "zagier9", "9", (-9, -3, -27),
        ("eta", ((9, 3), (1, -3))),
        ("eta", ((1, 3), (3, -1))),
        "A291898"),
}

# The sporadic parameter set as printed; the level-8 member differs in sign
# from the parameterised row above (see the erratum note on weight2-8).
SPORADIC_SET: Tuple[Tuple[int, int, int], ...] = (
    (11, 3, 1), (-17, -6, -72), (10, 3, -9), (7, 2, 8), (12, 4, -32), (-9, -3, -27),
)


# ---------------------------------------------------------------------------
# Weight-two rows (cubic companions; x, z are the printed w, y forms)
# ---------------------------------------------------------------------------


WEIGHT2_ROWS: Dict[str, WeightRow] = {
    "weight2-5": WeightRow(
        "weight2-5", "5", (11, 3, 1),
        ("eta", ((5, 6), (1, -6))),
        ("eta", ((1, 5), (5, -1))),
        "A229111"),
    "weight2-6A": WeightRow(
        "weight2-6A", "6 (A)", (-17, -6, -72),
        ("eta", ((1, 12), (6, 12), (2, -12), (3, -12))),
        ("eta", ((2, 7), (3, 7), (1, -5), (6, -5))),
        "A005259"),
    "weight2-6B": WeightRow(
        "weight2-6B", "6 (B)", (10, 3, -9),
        ("eta", ((2, 6), (6, 6), (1, -6), (3, -6))),
        ("eta", ((1, 4), (3, 4), (2, -2), (6, -2))),
        "A002895"),
    "weight2-6C": WeightRow(
        "weight2-6C", "6 (C)", (7, 2, 8),
        ("eta", ((3, 4), (6, 4), (1, -4), (2, -4))),
        ("eta", ((1, 3), (2, 3), (3, -1), (6, -1))),
        "A125143"),
    "weight2-8": WeightRow(
        "weight2-8", "8", (-12, -4, -32),
        ("eta", ((1, 8), (8, 8), (2, -8), (4, -8))),
        ("eta", ((2, 6), (4, 6), (1, -4), (8, -4))),
        "A290575",
        corrected="printed triple (12,4,-32) contradicts the printed w, y and "
                  "binomial sum; the q-expansion of y fixes (-12,-4,-32)"),
    "weight2-9": WeightRow(
        "weight2-9", "9", (-9, -3, -27),
        ("eta", ((1, 6), (9, 6), (3, -12))),
        ("eta", ((3, 10), (1, -3), (9, -3))),
        "A290576"),
}


# ---------------------------------------------------------------------------
# Level rows: (X, Z) with B^2 and H data
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LevelRow:
    """One row of the level tables: modular data plus (B^2, H)."""

    key: str
    level: str
    x: tuple                      # product spec of X
    z: tuple                      # product spec of the Z numerator
    z_xexp: Fraction              # Z = (z product) / X^m
    b2_factors: Tuple[tuple, ...]
    h_num: tuple
    h_den: tuple = (1,)
    ring: RingTag = RING_Z
    corrected: Optional[str] = None

    def G(self) -> Poly:
        return poly_product(self.b2_factors)

    def nterms(self) -> int:
        return 1 + max(self.G().degree, len(self.h_num) - 1)


def _eta(*pairs) -> tuple:
    return ("eta", tuple(pairs))


# The Atkin-Lehner eta quotients w at levels 14 and 15, as eta products
# ((N, e), ...) keyed by level and by the involutions "+m" that fix them;
# each has an integer valuation sum(N e)/24 >= 1.
ETA_W: Dict[int, Dict[str, Tuple[Tuple[int, int], ...]]] = {
    14: {"+2": ((7, 4), (14, 4), (1, -4), (2, -4)),
         "+7": ((2, 3), (14, 3), (1, -3), (7, -3)),
         "+14": ((1, 4), (14, 4), (2, -4), (7, -4))},
    15: {"+3": ((5, 3), (15, 3), (1, -3), (3, -3)),
         "+5": ((3, 2), (15, 2), (1, -2), (5, -2)),
         "+15": ((1, 3), (15, 3), (3, -3), (5, -3))},
}

# Weight-0 relations between two of them, (level, w, {k: a_k}, v, {k: b_k})
# for sum a_k w^k == sum b_k v^k as Laurent polynomials in w and v.
LAURENT_RELATIONS: Dict[str, Tuple[int, str, Dict[int, int], str, Dict[int, int]]] = {
    "level14-wbwc": (14, "+7", {-1: 1, 1: 8}, "+14", {-1: 1, 0: -7, 1: 1}),
    "level14-wawb": (14, "+2", {-1: 1, 1: 2401},
                     "+14", {-3: 1, -2: -16, -1: 48, 0: 32, 1: 48, 2: -16, 3: 1}),
    "level15-wbwc": (15, "+5", {-1: 1, 0: 5, 1: 9}, "+15", {-1: 1, 1: -1}),
    "level15-wawb": (15, "+3", {-1: 1, 1: -125}, "+5", {-2: 1, -1: 1, 1: -9, 2: -81}),
}


LEVEL_ROWS: Dict[str, LevelRow] = {
    # level 1: w from the weight-4 Eisenstein pair, X = w/(1+432w)^2
    "level1": LevelRow(
        "level1", "1", ("hauptmodul", ("level1w",), (1, 864, 186624)),
        _eta((1, 4)), F(1, 6),
        ((1, -1728),), (0, 120)),
    # level 2
    "level2": LevelRow(
        "level2", "2", ("hauptmodul", _eta((2, 24), (1, -24)), (1, 128, 4096)),
        _eta((1, 2), (2, 2)), F(1, 4),
        ((1, -256),), (0, 24)),
    # level 3
    "level3": LevelRow(
        "level3", "3", ("hauptmodul", _eta((3, 12), (1, -12)), (1, 54, 729)),
        _eta((1, 2), (3, 2)), F(1, 3),
        ((1, -108),), (0, 12)),
    # level 4
    "level4": LevelRow(
        "level4", "4", ("hauptmodul", _eta((4, 8), (1, -8)), (1, 32, 256)),
        _eta((1, 2), (4, 2)), F(5, 12),
        ((1, -64),), (0, 8)),
    # level 5
    "level5": LevelRow(
        "level5", "5", ("hauptmodul", _eta((5, 6), (1, -6)), (1, 22, 125)),
        _eta((1, 2), (5, 2)), F(1, 2),
        ((1, -44, -16),), (0, 6, 6)),
    # level 6 (A)
    "level6A": LevelRow(
        "level6A", "6 (A)", ("hauptmodul", _eta((1, 12), (6, 12), (2, -12), (3, -12)), (1, -34, 1)),
        _eta((1, 1), (2, 1), (3, 1), (6, 1)), F(1, 2),
        ((1, 32), (1, 36)), (0, -12, -432)),
    # level 6 (B)
    "level6B": LevelRow(
        "level6B", "6 (B)", ("hauptmodul", _eta((2, 6), (6, 6), (1, -6), (3, -6)), (1, 20, 64)),
        _eta((1, 1), (2, 1), (3, 1), (6, 1)), F(1, 2),
        ((1, -4), (1, -36)), (0, 6, -54)),
    # level 6 (C)
    "level6C": LevelRow(
        "level6C", "6 (C)", ("hauptmodul", _eta((3, 4), (6, 4), (1, -4), (2, -4)), (1, 14, 81)),
        _eta((1, 1), (2, 1), (3, 1), (6, 1)), F(1, 2),
        ((1, 4), (1, -32)), (0, 4, 48)),
    # level 7
    "level7": LevelRow(
        "level7", "7", ("hauptmodul", _eta((7, 4), (1, -4)), (1, 13, 49)),
        _eta((1, 2), (7, 2)), F(2, 3),
        ((1, 1), (1, -27)), (0, 4, 12)),
    # level 8: printed X lacks the w numerator; X = w/(1-24w+16w^2) restores
    # X = q + O(q^2) and matches the B^2, H row
    "level8": LevelRow(
        "level8", "8", ("hauptmodul", _eta((1, 8), (8, 8), (2, -8), (4, -8)), (1, -24, 16)),
        _eta((2, 2), (4, 2)), F(1, 2),
        ((1, 16), (1, 32)), (0, -8, -192),
        corrected="printed X(w) = 1/(1-24w+16w^2); the w numerator is restored"),
    # level 9
    "level9": LevelRow(
        "level9", "9", ("hauptmodul", _eta((1, 6), (9, 6), (3, -12)), (1, -18, -27)),
        _eta((3, 4)), F(1, 2),
        ((1, 36, 432),), (0, -6, -162)),
    # level 10
    "level10": LevelRow(
        "level10", "10", ("hauptmodul", _eta((2, 4), (10, 4), (1, -4), (5, -4)), (1, 8, 16)),
        _eta((1, 1), (2, 1), (5, 1), (10, 1)), F(3, 4),
        ((1, 4), (1, -16)), (0, 2, 30)),
    # level 11: X = (eta1 eta11 / theta_{1,1,3})^2
    "level11": LevelRow(
        "level11", "11", ("eta_theta_sq", ((1, 1), (11, 1)), (1, 1, 3)),
        _eta((1, 2), (11, 2)), F(1),
        ((1, -20, 56, -44),), (0, 4, -32, 44)),
    # level 12
    "level12": LevelRow(
        "level12", "12", ("hauptmodul", _eta((1, 4), (12, 4), (3, -4), (4, -4)), (1, 2, 1)),
        _eta((1, 1), (3, 1), (4, 1), (12, 1)), F(5, 6),
        ((1, -4), (1, -16)), (0, 4, -32)),
    # level 13 (rational terms; 4^n T(n) integral)
    "level13": LevelRow(
        "level13", "13", ("hauptmodul", _eta((13, 2), (1, -2)), (1, 5, 13)),
        _eta((1, 2), (13, 2)), F(7, 6),
        ((1, 1), (1, -10, -27)), (0, F(3, 2), F(175, 8), F(231, 8)),
        ring=RING_Q),
    # level 14 (A)
    "level14A": LevelRow(
        "level14A", "14 (A)", ("hauptmodul", ("eta", ETA_W[14]["+14"]), (1, -2, 1)),
        _eta((1, 1), (2, 1), (7, 1), (14, 1)), F(1),
        ((1, 4), (1, -10, -7)), (0, 1, F(51, 2), 28)),
    # level 14 (B)
    "level14B": LevelRow(
        "level14B", "14 (B)", ("hauptmodul", ("eta", ETA_W[14]["+14"]), (1, 2, 1)),
        _eta((1, 1), (2, 1), (7, 1), (14, 1)), F(1),
        ((1, -4), (1, -18, 49)), (0, 5, F(-141, 2), 196)),
    # level 15 (A)
    "level15A": LevelRow(
        "level15A", "15 (A)", ("hauptmodul", ("eta", ETA_W[15]["+5"]), (1, 6, 9)),
        _eta((1, 1), (3, 1), (5, 1), (15, 1)), F(1),
        ((1, -12), (1, -2, 5)), (0, 3, F(-33, 2), 60)),
    # level 15 (B)
    "level15B": LevelRow(
        "level15B", "15 (B)", ("hauptmodul", ("eta", ETA_W[15]["+5"]), (1, -6, 9)),
        _eta((1, 1), (3, 1), (5, 1), (15, 1)), F(1),
        ((1, 12), (1, 22, 125)), (0, -9, F(-465, 2), -1500)),
    # level 18
    "level18": LevelRow(
        "level18", "18", ("hauptmodul", _eta((1, 2), (2, 2), (9, 2), (18, 2), (3, -4), (6, -4)),
                          (1, 6, 9)),
        _eta((3, 2), (6, 2)), F(3, 4),
        ((1, -12), (1, -16)), (0, 6, -90)),
    # level 20
    "level20": LevelRow(
        "level20", "20", ("hauptmodul", _eta((1, 2), (20, 2), (4, -2), (5, -2)), (1, 2, 1)),
        _eta((2, 2), (10, 2)), F(1),
        ((1, -4), (1, -12, 16)), (0, 4, -40, 72)),
    # level 21
    "level21": LevelRow(
        "level21", "21", ("hauptmodul", _eta((1, 2), (21, 2), (3, -2), (7, -2)), (1, -2, 1)),
        _eta((1, 1), (3, 1), (7, 1), (21, 1)), F(4, 3),
        ((1, 4), (1, -2, -27)), (0, -1, F(47, 2), 120)),
    # level 22 (5-term row)
    "level22": LevelRow(
        "level22", "22", ("hauptmodul", _eta((2, 2), (22, 2), (1, -2), (11, -2)), (1, 4, 4)),
        _eta((1, 1), (2, 1), (11, 1), (22, 1)), F(3, 2),
        ((1, -8), (1, 0, -4, 4)), (0, 2, 2, -44, 60)),
    # level 23 (7-term row): X = 2 eta1 eta23 / (theta_{1,1,6} + theta_{2,1,3})
    "level23": LevelRow(
        "level23", "23", ("eta_over_theta_sum", ((1, 1), (23, 1)), (1, 1, 6), (2, 1, 3), 2),
        _eta((1, 2), (23, 2)), F(2),
        ((1, 0, -1, 1), (1, -8, 3, -7)), (0, 2, -2, -2, 24, -30, 28)),
    # level 24
    "level24": LevelRow(
        "level24", "24", ("hauptmodul", _eta((1, 2), (3, 2), (8, 2), (24, 2),
                                             (2, -2), (4, -2), (6, -2), (12, -2)), (1, 0, 4)),
        _eta((2, 1), (4, 1), (6, 1), (12, 1)), F(1),
        ((1, 4), (1, -4), (1, -8)), (0, 2, 10, -128)),
    # level 33 (6-term row)
    "level33": LevelRow(
        "level33", "33", ("hauptmodul", _eta((3, 1), (33, 1), (1, -1), (11, -1)), (1, 1, 3)),
        _eta((1, 1), (3, 1), (11, 1), (33, 1)), F(2),
        ((1, -2, -11), (1, 4, 8, 4)), (0, -1, F(15, 2), 76, 202, 132)),
    # level 35 (6-term row)
    "level35": LevelRow(
        "level35", "35", ("hauptmodul", _eta((1, 1), (35, 1), (5, -1), (7, -1)), (1, 1, -1)),
        _eta((1, 1), (5, 1), (7, 1), (35, 1)), F(2),
        ((1, -2, 5), (1, -8, 16, -28)), (0, 3, F(-61, 2), 148, -290, 420)),
    # level 13 starred variant: Z* is Eisenstein, H* is a rational function
    "level13star": LevelRow(
        "level13star", "13*", ("hauptmodul", _eta((13, 2), (1, -2)), (1, 6, 13)),
        ("eisenstein13",), F(0),
        ((1, -12, -16),), (0, 2, 10, -6, 6), h_den=(1, -2, 1),
        ring=RING_Z),
}

# Rows of the two printed level tables (level13star is supplementary).
TABLE_LEVEL_KEYS: Tuple[str, ...] = tuple(k for k in LEVEL_ROWS if k != "level13star")


def get_entry(key: str):
    """Look up a catalog row (level, weight-one, or weight-two) by key or alias."""
    key = ALIASES.get(key, key)
    for table in (LEVEL_ROWS, ZAGIER_ROWS, WEIGHT2_ROWS):
        if key in table:
            return table[key]
    raise UnknownKeyError("unknown catalog key %r" % (key,))


# ---------------------------------------------------------------------------
# The one-parameter level-14 and level-15 families
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EpsilonFamily:
    """The one-parameter family through a level-14 or level-15 row: the member
    at eps is the weight-4 shift of LEVEL_ROWS[base] by eps - base_eps
    (recurrence.mobius_shift).  The generating functions sum to a common
    series in X_eps = w / (1 + eps w + sigma w^2) independently of eps, where
    w is the eta quotient ETA_W[level][w].
    """

    level: int
    base: str
    base_eps: int
    sigma: int
    w: str
    specials: Tuple[Tuple[str, Scalar], ...]

    def specialize(self, eps: Scalar) -> Sequence:
        """The sequence at eps, keyed by the name of the special it matches,
        over the ring of eps: Z[sqrt(d)], else Z or Q by its denominator."""
        key = next((name for name, special in self.specials if special == eps),
                   "level%d(eps=%s)" % (self.level, eps))
        row = LEVEL_ROWS[self.base]
        factors, H = mobius_shift(row.b2_factors, row.h_num, eps - self.base_eps, 4)
        return _factored_sequence(key, RingTag.of(eps), factors, H, level=str(self.level))


EPSILON_FAMILIES: Dict[int, EpsilonFamily] = {
    14: EpsilonFamily(
        14, base="level14A", base_eps=5, sigma=8, w="+7",
        specials=(
            ("level14A", 5),
            ("level14B", 9),
            ("14C", QuadElem(2, 0, 4)),      # eps = sqrt(32)
            ("14Cbar", QuadElem(2, 0, -4)),
        )),
    15: EpsilonFamily(
        15, base="level15A", base_eps=1, sigma=-1, w="+15",
        specials=(
            ("level15A", 1),
            ("level15B", -11),
            ("15C", QuadElem(-1, 0, 2)),     # eps = 2i
            ("15Cbar", QuadElem(-1, 0, -2)),
        )),
}


def epsilon_family(level: int) -> EpsilonFamily:
    if level not in EPSILON_FAMILIES:
        raise UnknownKeyError("no epsilon family at level %r" % (level,))
    return EPSILON_FAMILIES[level]


def printed_five_term(level: int, eps: Scalar) -> RecurrenceSpec:
    """The five-term relation exactly as printed, for cross-checking the
    generalT construction from (B_eps^2, H_eps)."""
    e = eps
    n1 = Poly([1, 2])  # 2n + 1
    if level == 14:
        c1 = n1 * Poly([e - 4, 2 * e - 7, 2 * e - 7])
        c2 = Poly([0, e * e - 8 * e + 11, 0, 6 * e * e - 42 * e + 13])
        c3 = (2 * e ** 3 - 21 * e * e + 13 * e + 224) * Poly([0, 1]) * Poly([-1, 2]) * Poly([-1, 1])
        c4 = ((e - 5) * (e - 9) * (e * e - 32)) * Poly([0, 1]) * Poly([-1, 1]) * Poly([-2, 1])
    elif level == 15:
        c1 = n1 * Poly([e + 2, 2 * e + 5, 2 * e + 5])
        c2 = Poly([0, e * e + 4 * e - 1, 0, 6 * e * e + 30 * e - 7])
        c3 = (2 * e ** 3 + 15 * e * e - 7 * e + 20) * Poly([0, 1]) * Poly([-1, 2]) * Poly([-1, 1])
        c4 = ((e - 1) * (e + 11) * (e * e + 4)) * Poly([0, 1]) * Poly([-1, 1]) * Poly([-2, 1])
    else:
        raise UnknownKeyError("no five-term family at level %d" % level)
    return RecurrenceSpec((Poly([1, 1]) ** 3, -c1, c2, -c3, c4))


# ---------------------------------------------------------------------------
# Sequence registry
# ---------------------------------------------------------------------------


ALIASES: Dict[str, str] = {
    "apery": "weight2-6A",
    "franel": "zagier6C",
    "domb": "weight2-6B",
    "14A": "level14A", "14B": "level14B", "15A": "level15A", "15B": "level15B",
    "11": "level11", "24": "level24", "13": "level13",
    "T11": "level11", "T24": "level24",
}


def _factored_sequence(key: str, ring: RingTag, factors: Tuple[tuple, ...], H: Poly,
                       **extras) -> Sequence:
    return Sequence.from_gh(key, ring, poly_product(factors), H, G_factors=factors, **extras)


@cache
def _build_sequences() -> Dict[str, Sequence]:
    """The registry of catalog sequences by key, built once on first use."""
    seqs: Dict[str, Sequence] = {}
    for key, row in LEVEL_ROWS.items():
        if key == "level13star":
            continue
        seqs[key] = _factored_sequence(key, row.ring, row.b2_factors, Poly(row.h_num),
                                       oracle=ORACLES.get(key), level=row.level)
    for key, row in ZAGIER_ROWS.items():
        seqs[key] = Sequence(key, RING_Z, recurrence_from_quadratic(*row.triple),
                             oracle=ORACLES.get(key), level=row.level)
    for key, row in WEIGHT2_ROWS.items():
        G, H = asz_gh(*row.triple)
        seqs[key] = _factored_sequence(key, RING_Z, (G.coeffs,), H,
                                       oracle=ORACLES.get(key), level=row.level)
    for family in EPSILON_FAMILIES.values():
        for name, eps in family.specials:
            if name not in seqs:
                seqs[name] = family.specialize(eps)
    # S(n) = 4^n T(n) is the level-13 row in the variable 4X
    row = LEVEL_ROWS["level13"]
    seqs["13scaled"] = _factored_sequence(
        "13scaled", RING_Z, tuple(Poly(f).scale_arg(4).coeffs for f in row.b2_factors),
        Poly(row.h_num).scale_arg(4), level="13")
    return seqs


def sequence(key: str) -> Sequence:
    key = ALIASES.get(key, key)
    try:
        return _build_sequences()[key]
    except KeyError:
        raise UnknownKeyError("unknown sequence key %r" % (key,)) from None


def sequence_keys() -> List[str]:
    return sorted(_build_sequences())


def export_definitions() -> List[dict]:
    """All catalog sequences with (G, H) data, in the JSON def schema."""
    seqs = _build_sequences()
    return [seqs[key].to_json() for key in sorted(seqs) if seqs[key].G is not None]


# ---------------------------------------------------------------------------
# Frozen reference values (tables the artifact must reproduce)
# ---------------------------------------------------------------------------

REFERENCE_TERMS: Dict[str, list] = {
    "level11": [1, 4, 28, 268, 3004, 36784, 476476, 6418192, 88986172,
                1261473136, 18200713168],
    "13scaled": [1, 6, 182, 5148, 173862, 6266676, 237979196, 9366227832,
                 378768328198, 15643121895492, 657035290739412],
    "level13": [F(1), F(3, 2), F(91, 8), F(1287, 16), F(86931, 128),
                F(1566669, 256), F(59494799, 1024)],
    "level14A": [1, 1, 9, 49, 385, 2961, 24801, 212409, 1878129, 16924945,
                 155204329],
    "level14B": [1, 5, 33, 269, 2545, 26565, 295785, 3441765, 41336145,
                 508419125, 6370849633],
    "14C": [QuadElem(2, u, v) for u, v in [
        (1, 0), (-4, 4), (56, -32), (-520, 416), (6512, -4224),
        (-69664, 52416), (862904, -582400), (-9870928, 7232544),
        (123164432, -84724224), (-1472036416, 1063509568),
        (18601926816, -12933544448)]],
    "level15A": [1, 3, 15, 105, 855, 7533, 69909, 673515, 6673095, 67565445,
                 696024945],
    "level15B": [1, -9, 87, -867, 8775, -89559, 918141, -9432873, 96984423,
                 -997061295, 10245169737],
    "15C": [QuadElem(-1, u, v) for u, v in [
        (1, 0), (2, 2), (6, 8), (44, 52), (290, 480), (1612, 4372),
        (7140, 39568), (2536, 361688), (-559166, 3303552),
        (-10693900, 29823140), (-151732284, 264070928)]],
    # coefficients z(n) of Z^2 = sum z(n) X^n at level 13
    "level13-zsq": [1, 3, 25, 195, 1729, 16107, 156481],
}

REFERENCE_FOURTERM_PARAMS: Dict[str, tuple] = {
    "level11": (10, 4, -56, -8, 22),
    "level14A": (3, 1, 47, 4, 14),
    "level14B": (11, 5, -121, -20, 98),
    "14C": (QuadElem(2, -7, 8), QuadElem(2, -4, 4), QuadElem(2, -205, 168),
            QuadElem(2, -43, 32), QuadElem(2, -448, 308)),
    "14Cbar": (QuadElem(2, -7, -8), QuadElem(2, -4, -4), QuadElem(2, -205, -168),
               QuadElem(2, -43, -32), QuadElem(2, -448, -308)),
    "level15A": (7, 3, -29, -4, 30),
    "level15B": (-17, -9, -389, -76, -750),
    "15C": (QuadElem(-1, 5, 4), QuadElem(-1, 2, 2), QuadElem(-1, 31, -60),
            QuadElem(-1, 5, -8), QuadElem(-1, -40, -30)),
    "15Cbar": (QuadElem(-1, 5, -4), QuadElem(-1, 2, -2), QuadElem(-1, 31, 60),
               QuadElem(-1, 5, 8), QuadElem(-1, -40, 30)),
    "level24": (4, 2, 16, 4, -64),
}

# c(p) = #{ 1 <= n <= 1000 : T11(p n) = T11(n) mod p^2 } for p <= 101
REFERENCE_CP_COUNTS: Dict[int, int] = {
    2: 1000, 3: 333, 5: 200, 7: 750, 11: 875, 13: 274, 17: 222, 19: 286,
    23: 129, 29: 62, 31: 32, 37: 27, 41: 48, 43: 87, 47: 87, 53: 18,
    59: 1000, 61: 49, 67: 136, 71: 56, 73: 27, 79: 63, 83: 24, 89: 11,
    97: 10, 101: 9,
}

# Generating-function independence: common series prefixes
REFERENCE_GF_SERIES: Dict[int, list] = {
    14: [0, 1, -4, 16, -72, 368, -2080],
    15: [0, 1, 2, 11, 72, 545, 4450],
}

# Asymptotic parameters: exact closed forms where available, and the decimal
# prefixes quoted for level 11.  C closed forms live in asymptotics.py.
REFERENCE_ASYMPTOTICS: Dict[str, dict] = {
    "level11": {
        "R_poly": (-44, 56, -20, 1),       # R^3 - 20 R^2 + 56 R - 44 = 0
        "R_decimal": "16.82750",
        "b1_decimal": "-0.3995791",
        "C_decimal": "0.3287368",
        # C = x R / pi^(3/2) with 2^10*11 x^6 + 2^5*29 x^2 - 11 = 0, x > 0
        "C_x_poly": (-11, 0, 928, 0, 0, 0, 11264),
    },
    "level14A": {"R": QuadElem(2, 5, 4), "b1": QuadElem(2, F(-223, 196), F(1025, 3136))},
    "level14B": {"R": QuadElem(2, 9, 4), "b1": QuadElem(2, F(-7, 4), F(69, 64))},
    "14C": {"R": QuadElem(2, 0, 8), "b1": QuadElem(2, F(443, 392), F(-60, 49))},
    "14Cbar": {"R": QuadElem(2, -9, -4), "b1": QuadElem(2, F(339, 784), F(201, 196))},
    "level15A": {"R": 12, "b1": F(-489, 1000)},
    "level15B": {"R": -12, "b1": F(3, 8)},
    "15C": {"R": QuadElem(-1, 11, 2), "b1": QuadElem(-1, F(-1209, 2000), F(231, 1000))},
    "15Cbar": {"R": QuadElem(-1, 11, -2), "b1": QuadElem(-1, F(-1209, 2000), F(-231, 1000))},
    "level24": {"R": 8, "b1": F(-3, 8)},
}
