from fractions import Fraction as F

import pytest

from aperylike import catalog
from aperylike.qseries import (
    IDENTITY_BANK,
    QExpansion,
    QSeriesError,
    build_xz,
    eisenstein_expand,
    epsilon_x_expansion,
    eta_expand,
    eta_quotient,
    expansion_coefficients,
    phi_expand,
    printed_x14_matches_reciprocal,
    psi_expand,
    qexp_equal,
    theta_expand,
    verify_diff_formula,
    verify_identity_bank,
    verify_ode,
    verify_weight_one,
    verify_weight_two,
)
from aperylike.recurrence import generate_terms


def brute_theta(a, b, c, order, box=80):
    out = [0] * (order + 1)
    for j in range(-box, box + 1):
        for k in range(-box, box + 1):
            v = a * j * j + b * j * k + c * k * k
            if 0 <= v <= order:
                out[v] += 1
    return out


def test_eta_examples():
    e1 = eta_expand(1, 8)
    assert e1.offset == F(1, 24)
    assert e1.coeffs[:8] == [1, -1, -1, 0, 0, 1, 0, 1]  # pentagonal exponents
    e2 = eta_expand(2, 6)
    assert e2.offset == F(1, 12)
    assert e2.coeffs[:6] == [1, 0, -1, 0, -1, 0]
    e24 = eta_quotient(((1, 24),), 6)
    assert e24.offset == 1
    assert e24.coeffs[:3] == [1, -24, 252]  # the discriminant cusp form


def test_theta_examples_against_brute_force():
    for spec in ((1, 1, 3), (1, 0, 1), (1, 1, 6), (2, 1, 3), (3, 2, 5)):
        got = theta_expand(spec, 10)
        assert [int(c) for c in got.coeffs] == brute_theta(*spec, 10), spec
    assert theta_expand((1, 1, 3), 5).coeffs == [1, 2, 0, 4, 2, 4]
    assert theta_expand((1, 0, 1), 2).coeffs == [1, 4, 4]
    assert theta_expand((5, 1, 7), 0).coeffs == [1]
    with pytest.raises(QSeriesError):
        theta_expand((1, 5, 1), 5)  # indefinite


def test_eisenstein_examples():
    assert eisenstein_expand("P", 2).coeffs == [1, -24, -72]
    assert eisenstein_expand("Q", 1).coeffs == [1, 240]
    assert eisenstein_expand("R", 1).coeffs == [1, -504]
    # U13 coefficient of q^n is -sum_{d|n} (d|13) d; e.g. n=2: -(1 - 2) = 1
    U = eisenstein_expand("U13", 4)
    assert U.coeffs == [1, -1, 1, -4, -3]


def test_pow_rational():
    f = QExpansion(0, [1, 1, 0, 0, 0])
    h = f.pow_fraction(F(1, 2))
    assert h.coeffs[:3] == [1, F(1, 2), F(-1, 8)]
    assert f.pow_fraction(0).coeffs[0] == 1
    X, _ = build_xz(catalog.LEVEL_ROWS["level4"], 10)
    assert X.pow_fraction(F(5, 12)).offset == F(5, 12)
    with pytest.raises(QSeriesError):
        QExpansion(0, [2, 1]).pow_fraction(F(1, 2))


def test_build_xz_level4_and_10():
    X, Z = build_xz(catalog.LEVEL_ROWS["level4"], 22)
    from math import comb
    assert expansion_coefficients(Z, X, 20) == [comb(2 * n, n) ** 3 for n in range(21)]
    X, Z = build_xz(catalog.LEVEL_ROWS["level10"], 22)
    want = [sum(comb(n, j) ** 4 for j in range(n + 1)) for n in range(21)]
    assert expansion_coefficients(Z, X, 20) == want


def test_expansion_coefficients_corner_cases():
    X, Z = build_xz(catalog.LEVEL_ROWS["level11"], 8)
    assert expansion_coefficients(Z, X, 4) == [1, 4, 28, 268, 3004]
    one = QExpansion(0, [1] + [0] * 9)
    assert expansion_coefficients(one, X, 3) == [1, 0, 0, 0]
    with pytest.raises(QSeriesError):
        expansion_coefficients(Z, Z, 3)  # valuation 0 is rejected


def test_cross_oracle_every_level_row():
    # the module-level cross-check of the artifact: coefficients extracted
    # from the modular (X, Z) agree with the recurrence stream
    for key in catalog.TABLE_LEVEL_KEYS:
        row = catalog.LEVEL_ROWS[key]
        seq = catalog.sequence(key)
        X, Z = build_xz(row, 32)
        got = expansion_coefficients(Z, X, 30)
        want = generate_terms(seq.spec, 30, seq.ring)
        assert all(F(a) == F(b) for a, b in zip(got, want)), key


def test_z_coefficient_denominators():
    # every integer-sequence level has an integral Z expansion (including
    # the rows whose construction passes through fractional powers of X);
    # level 13 has denominators dividing 4^n at the coefficient stage
    for key in catalog.TABLE_LEVEL_KEYS:
        row = catalog.LEVEL_ROWS[key]
        if row.ring.kind != "Z":
            continue
        X, Z = build_xz(row, 14)
        for c in Z.coeffs:
            assert F(c).denominator == 1, key
    t13 = catalog.sequence("level13").terms(16)
    for n, c in enumerate(t13):
        assert (F(c) * 4 ** n).denominator == 1


def test_diff_formula_examples():
    assert verify_diff_formula(catalog.LEVEL_ROWS["level4"], 30) == (True, None)
    assert verify_diff_formula(catalog.LEVEL_ROWS["level10"], 30) == (True, None)


def test_ode_examples():
    assert verify_ode(catalog.LEVEL_ROWS["level4"], 30) == (True, None)
    assert verify_ode(catalog.LEVEL_ROWS["level23"], 30) == (True, None)
    assert verify_ode(catalog.LEVEL_ROWS["level13star"], 30) == (True, None)


def test_corrupted_row_is_caught():
    import dataclasses
    row = catalog.LEVEL_ROWS["level7"]
    wrong = dataclasses.replace(row, h_num=(0, 4, 13))
    ok, where = verify_ode(wrong, 12)
    assert not ok and where is not None
    wrong2 = dataclasses.replace(row, b2_factors=((1, 1), (1, -26)))
    ok, where = verify_diff_formula(wrong2, 12)
    assert not ok


def test_weight_one_rows():
    for key, row in catalog.ZAGIER_ROWS.items():
        assert verify_weight_one(row, 20) == (True, None), key


def test_weight_two_rows():
    for key, row in catalog.WEIGHT2_ROWS.items():
        assert verify_weight_two(row, 16) == (True, None), key


def test_identity_bank_all():
    for name in sorted(IDENTITY_BANK):
        order = 40 if name.startswith("level13") else 30
        assert verify_identity_bank(name, order) == (True, None), name


def test_unknown_identity():
    with pytest.raises(catalog.UnknownKeyError):
        verify_identity_bank("nope")


def test_p_derivative_invariant_at_30():
    assert verify_identity_bank("eisenstein-p-derivative", 30) == (True, None)


def test_epsilon_x_printed_series_matches_reciprocal():
    assert printed_x14_matches_reciprocal()
    X, inv = epsilon_x_expansion(14, 9, 8)
    assert X.normalized().offset == 1
    assert inv.normalized().offset == -1
    assert inv.coefficient(0) == 9 - 3


def test_qexp_equal_precision_guard():
    a = QExpansion(0, [1, 2, 3])
    b = QExpansion(0, [1, 2, 3])
    assert qexp_equal(a, b, 2) == (True, None)
    with pytest.raises(QSeriesError):
        qexp_equal(a, b, 5)
    c = QExpansion(0, [1, 2, 4])
    assert qexp_equal(a, c, 2) == (False, F(2))


def test_phi_psi_expansions():
    assert phi_expand(5).coeffs == [1, 2, 0, 0, 2, 0]
    assert psi_expand(7).coeffs == [1, 1, 0, 1, 0, 0, 1, 0]


def test_eisenstein_sieve_against_brute_force_divisor_sums():
    order = 200

    def brute(weight):
        return [sum(weight(d) for d in range(1, n + 1) if n % d == 0)
                for n in range(1, order + 1)]

    for kind, mult, power in (("P", -24, 1), ("Q", 240, 3), ("R", -504, 5)):
        assert eisenstein_expand(kind, order).coeffs == \
            [1] + [mult * s for s in brute(lambda d: d ** power)], kind

    def chi13(d):
        r = d % 13
        return 0 if r == 0 else 1 if r in (1, 3, 4, 9, 10, 12) else -1
    assert eisenstein_expand("U13", order).coeffs == \
        [1] + [-s for s in brute(lambda d: chi13(d) * d)]


def test_orders_below_one_are_rejected():
    row = catalog.LEVEL_ROWS["level11"]
    for order in (0, -1):
        with pytest.raises(QSeriesError):
            verify_diff_formula(row, order)
        with pytest.raises(QSeriesError):
            verify_ode(row, order)
        with pytest.raises(QSeriesError):
            verify_weight_one(catalog.ZAGIER_ROWS["zagier5"], order)
        with pytest.raises(QSeriesError):
            verify_weight_two(catalog.WEIGHT2_ROWS["weight2-5"], order)
    with pytest.raises(QSeriesError):
        verify_identity_bank("phi-eta", -3)
    a = QExpansion(0, [1, 2, 3])
    assert qexp_equal(a, a, 0) == (True, None)
    with pytest.raises(QSeriesError):
        qexp_equal(a, a, -1)
