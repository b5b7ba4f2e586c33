import dataclasses
import hashlib
from fractions import Fraction as F
from functools import partial

import pytest
from hypothesis import given, settings, strategies as st

from aperylike import catalog, qseries
from aperylike.qseries import (
    IDENTITY_BANK,
    QExpansion,
    QSeriesError,
    _check_order,
    build_product,
    build_xz,
    eisenstein_expand,
    epsilon_x_expansion,
    eta_expand,
    eta_quotient,
    expansion_coefficients,
    phi_expand,
    poch_quotient,
    poch_unit,
    printed_x14_matches_reciprocal,
    psi_expand,
    qexp_equal,
    poly_at_series,
    theta_expand,
    verify_identity_bank,
    verify_level_row,
    verify_weight_one,
    verify_weight_two,
)
from aperylike.recurrence import (Poly, cubic_from_quadratic_asz, generate_terms,
                                  recurrence_from_quadratic)


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
    with pytest.raises(QSeriesError, match=r"precision q\^-1 is negative"):
        theta_expand((1, 1, 3), -1)


@pytest.mark.parametrize("a, m", [(1, 0), (0, 5), (2, -1), (-3, 2)])
def test_pochhammer_factors_need_positive_start_and_step(a, m):
    # m = 0 used to loop forever in poch_unit
    with pytest.raises(QSeriesError, match="needs a >= 1 and m >= 1"):
        poch_unit(a, m, 5)
    with pytest.raises(QSeriesError, match="needs a >= 1 and m >= 1"):
        poch_quotient(0, ((1, 5, 1), (a, m, 0)), 5)


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
    assert verify_level_row(catalog.LEVEL_ROWS["level4"], 30)[0] == (True, None)
    assert verify_level_row(catalog.LEVEL_ROWS["level10"], 30)[0] == (True, None)


def test_ode_examples():
    assert verify_level_row(catalog.LEVEL_ROWS["level4"], 30)[1] == (True, None)
    assert verify_level_row(catalog.LEVEL_ROWS["level23"], 30)[1] == (True, None)
    assert verify_level_row(catalog.LEVEL_ROWS["level13star"], 30)[1] == (True, None)


def test_corrupted_row_is_caught():
    row = catalog.LEVEL_ROWS["level7"]
    wrong = dataclasses.replace(row, h_num=(0, 4, 13))
    ok, where = verify_level_row(wrong, 12)[1]
    assert not ok and where is not None
    wrong2 = dataclasses.replace(row, b2_factors=((1, 1), (1, -26)))
    ok, where = verify_level_row(wrong2, 12)[0]
    assert not ok


# The two level-row verifiers that verify_level_row replaced, kept as the
# differential reference: each builds its own (X, Z), the differentiation
# formula at order + 2 and the ODE at order + 4.  (H_parts, a one-line
# wrapper on the row, is spelled out.)
def ref_diff(row, order=30):
    """(q dX/dq)^2 == Z^2 X^2 G(X) through q^order (squared form, no roots)."""
    _check_order(order)
    X, Z = build_xz(row, order + 2)
    lhs = X.q_derivative()
    lhs = lhs * lhs
    G = poly_at_series(row.G(), X)
    rhs = Z * Z * X * X * G
    return qexp_equal(lhs, rhs, order)


def ref_ode(row, order=30):
    """D^2 Z - (DZ)^2/(2Z) == H(X) Z with D = (1/Z) q d/dq, through q^order."""
    _check_order(order)
    X, Z = build_xz(row, order + 4)
    DZ = Z.q_derivative() / Z
    D2Z = DZ.q_derivative() / Z
    lhs = D2Z - (DZ * DZ) / (2 * Z)
    hnum, hden = Poly(row.h_num), Poly(row.h_den)
    rhs = poly_at_series(hnum, X) * Z
    if hden.degree > 0 or hden[0] != 1:
        lhs = lhs * poly_at_series(hden, X)
    return qexp_equal(lhs, rhs, order)


def _bump_last(coeffs):
    return tuple(coeffs[:-1]) + (coeffs[-1] + 1,)


@pytest.mark.parametrize("key", sorted(catalog.LEVEL_ROWS))
def test_verify_level_row_matches_the_two_verifiers_it_replaced(key):
    row = catalog.LEVEL_ROWS[key]
    wrong_b2 = dataclasses.replace(
        row, b2_factors=(_bump_last(row.b2_factors[0]),) + row.b2_factors[1:])
    wrong_h = dataclasses.replace(row, h_num=_bump_last(row.h_num))
    for r in (row, wrong_b2, wrong_h):
        assert verify_level_row(r, 12) == (ref_diff(r, 12), ref_ode(r, 12)), r
    # the perturbations are caught, so the mismatch exponents are compared
    assert verify_level_row(wrong_b2, 12)[0][0] is False
    assert verify_level_row(wrong_h, 12)[1][0] is False


# sha256 of repr([(str(offset), num, den) for X and Z of build_xz(row, 30)]),
# recorded at 00595b9, when X and Z were read from the row fields w, x_denom,
# x_special and z_eta
XZ_DIGESTS = {
    "level1": "b15c2753cc0c2f5b708a3ec4adc13315c8c150c2d5a625142715330bb432a760",
    "level2": "3c3f422cdeacc778ceec1d2a3757856d68400631159a50ddad1145db84dcaf32",
    "level3": "b30522a5fc75d86834d32ea83b5cf0a85a416f9fc54b6a90632afd07d8e36e85",
    "level4": "40e924ece4d46424811e72fc2c79e75036ed04eeea14df54923001672bee69b4",
    "level5": "4a5a91b3aebe8acf30d21c5fe55438cf6e2f25e0f2e21ac74966dccfd9b8fb14",
    "level6A": "c16ec4bba55741e13765cf96c360d36739feb6b04962cb139a141ac7fb1a10e1",
    "level6B": "e06c74c5d3f4fcff7537f4f6f0f01f98416571b78fbb390a8d3346b186dfa308",
    "level6C": "7ec261b66909a42806649386866a48418c500e0f50867f7fe3a51642865080c9",
    "level7": "e73db01303af41e70abcee882b44c7d7588fd421aa57535d7dd8ea55b581624b",
    "level8": "0ff42b7658600d361bc33aee4be65c28ffeb49c31484f8641bcb45b4ab0805b1",
    "level9": "34ddff663d86f8c4dec6a6c2e32010a0982d49a4e7c296db2c84a762b9005006",
    "level10": "d5c777dde03ad5bb77666f893f3b3f7d17e95831feb1cc6dcce2a472be54442f",
    "level11": "7211d130b2abfa317c1c3bdf1224a09afe883820884ab6489e28296f07392137",
    "level12": "5c1fb8ea909707b6c55cb531a04614a7a9dd4bc066c586311a53519f4a3c70e7",
    "level13": "b2e9862cd3a69ccddd71ca431c1707c16644b4713380d0b4ff442b65c7ecdff6",
    "level14A": "290e2e566733b2f06e756caf1f9e513cdba78755385814c683fc7989917a92f2",
    "level14B": "e37d6bba6602bf550dc1856b6b8e63a22e0a4b88ea5909da79125401650c85fb",
    "level15A": "76a05e41822aabbd794a428d5496422b2d64f99881a3ec2faacdd63fdb2599b1",
    "level15B": "305e0f3ef7909e1937f47f4157e17a8c75c83c389164e61cc56a40faa26a7e9d",
    "level18": "92a981ed8a13d5bd679a85b1dac08e184332b2c8012584af6e4e6ff24231e0d1",
    "level20": "6a50894a0400af101d70a385c02936995a41bd3f8517ab4dfb04389484fd0717",
    "level21": "de0fe5269c4676ab143399053480ad61743cee52d8406d624e8b34aa559a8669",
    "level22": "f959de0e73cb6337337a21895f6f4f97a1a466cef48c4d824ff1d159a0955314",
    "level23": "6cf14613791264e15cf553c6c2c014447b3b7da4557d30b4d9bf0315711e234c",
    "level24": "f9b37e60de5fd75145cb6dd3f42e85a8142817f1aa350085f5cfd20d54ea4ca1",
    "level33": "24834d80ef0c6bfce792d3b8f5ce03578922f2c1721370b34b9f4374d8dc5534",
    "level35": "caef8def45a43b8df6d13a595d36d63f9feda927d5550d4bedf986510b510d48",
    "level13star": "9a2e5ea86b2a8ef210da0d00169ca00e311127c7db7380edcd55bf686fe7da35",
}


def test_every_level_row_builds_its_pinned_xz():
    assert sorted(XZ_DIGESTS) == sorted(catalog.LEVEL_ROWS)
    for key, row in catalog.LEVEL_ROWS.items():
        X, Z = build_xz(row, 30)
        text = repr([(str(f.offset), f.num, f.den) for f in (X, Z)])
        assert hashlib.sha256(text.encode()).hexdigest() == XZ_DIGESTS[key], key


def _catalog_specs():
    rows = {**catalog.LEVEL_ROWS, **catalog.ZAGIER_ROWS, **catalog.WEIGHT2_ROWS}
    assert len(rows) == 40
    for key, row in rows.items():
        yield key + ".x", row.x
        yield key + ".z", row.z
    yield "level13.w", catalog.LEVEL_ROWS["level13"].x[1]
    for level, family in catalog.EPSILON_FAMILIES.items():
        w = ("eta", catalog.ETA_W[level][family.w])
        yield "family%d" % level, ("hauptmodul", w, (1, 4, family.sigma))


@pytest.mark.parametrize("order", [0, 1, 2, 30])
def test_build_product_knows_every_spec_through_its_valuation_plus_order(order):
    for name, spec in _catalog_specs():
        f = build_product(spec, order)
        assert f.prec == f.normalized().offset + order + 1, name


def test_level13_z_squared_has_the_reference_coefficients():
    X, Z = build_xz(catalog.LEVEL_ROWS["level13"], 8)
    assert expansion_coefficients(Z * Z, X, 6) == catalog.REFERENCE_TERMS["level13-zsq"]


_BUILDERS = ("eta_quotient", "poch_quotient", "theta_expand", "eisenstein_expand",
             "phi_expand", "psi_expand")


@pytest.mark.parametrize("N", [1, 20])
def test_checks_through_q_N_build_nothing_past_q_N(N, monkeypatch):
    calls = []
    for name in _BUILDERS:
        def recorded(*args, _name=name, _build=getattr(qseries, name)):
            calls.append((_name, args[:-1], args[-1]))  # every builder takes order last
            return _build(*args)
        monkeypatch.setattr(qseries, name, recorded)

    def limit(check, name, args):
        """N, but N + 1 for level1w's Q and R (Q^(3/2) - R starts at q^1)
        and N + K v_f for a Laurent relation's quotient f and its power f^-K."""
        if check == "level1" and name == "eisenstein_expand" and args[0] in ("Q", "R"):
            return N + 1
        if check in catalog.LAURENT_RELATIONS:
            level, w, a, v, b = catalog.LAURENT_RELATIONS[check]
            for symbol, coeffs in ((w, a), (v, b)):
                factors = catalog.ETA_W[level][symbol]
                if args == (factors,):
                    return N + max(0, -min(coeffs)) * sum(M * e for M, e in factors) // 24
        return N

    checks = {key: partial(verify_level_row, row, N) for key, row in catalog.LEVEL_ROWS.items()}
    checks.update((key, partial(verify_weight_one, row, N))
                  for key, row in catalog.ZAGIER_ROWS.items())
    checks.update((key, partial(verify_weight_two, row, N))
                  for key, row in catalog.WEIGHT2_ROWS.items())
    checks.update((name, partial(verify_identity_bank, name, N)) for name in IDENTITY_BANK)
    assert len(checks) == 28 + 12 + len(IDENTITY_BANK)
    for check, run in checks.items():
        calls.clear()
        assert run() in ((True, None), ((True, None), (True, None))), check
        assert calls, check
        for name, args, order in calls:
            assert order <= limit(check, name, args), (check, name, args, order)


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


@pytest.mark.parametrize("level", sorted(catalog.EPSILON_FAMILIES))
@pytest.mark.parametrize("eps", [0, 4, -11, F(1, 2)])
def test_epsilon_x_is_w_over_its_quadratic(level, eps):
    # against the per-level formula it replaced, 1/X_eps = 1/w + sigma w + eps
    # with w built through q^(order + 7), at the same precision
    family = catalog.EPSILON_FAMILIES[level]
    order = 8
    w = eta_quotient(catalog.ETA_W[level][family.w], order + 6)
    one = QExpansion(0, [1] + [0] * (order + 3))
    inv = one / w + family.sigma * w + eps
    X = one / inv
    got = epsilon_x_expansion(level, eps, order)
    for f, g in zip(got, (X, inv)):
        assert (f.offset, f.num, f.den) == (g.offset, g.num, g.den)
    assert got[0].offset == 1 and got[0].coefficient(1) == 1
    assert got[1].offset == -1 and got[1].prec == order + 3


def test_epsilon_x_needs_a_family_level():
    with pytest.raises(catalog.UnknownKeyError, match="^no epsilon family at level 13$"):
        epsilon_x_expansion(13, 0)


def test_laurent_relations_hold_at_every_precision():
    # each eta quotient is built only as far as its most negative power needs
    for name in catalog.LAURENT_RELATIONS:
        for order in (1, 2, 60):
            assert verify_identity_bank(name, order) == (True, None), (name, order)


@pytest.mark.parametrize("name", sorted(catalog.LAURENT_RELATIONS))
def test_a_changed_laurent_coefficient_is_caught(name, monkeypatch):
    # bumping c_k of w^k leaves c w^k as the whole difference, so the first
    # mismatch is at q^(k v_w), v_w the valuation of w
    level, w, a, v, b = catalog.LAURENT_RELATIONS[name]
    order = 30
    for i, (symbol, coeffs) in enumerate(((w, a), (v, b))):
        valuation = sum(N * e for N, e in catalog.ETA_W[level][symbol]) // 24
        for k in list(coeffs) + [max(coeffs) + 1]:
            changed = dict(coeffs)
            changed[k] = changed.get(k, 0) + 1
            relation = (level, w, changed, v, b) if i == 0 else (level, w, a, v, changed)
            monkeypatch.setattr(catalog, "LAURENT_RELATIONS",
                                {**catalog.LAURENT_RELATIONS, name: relation})
            assert verify_identity_bank(name, order) == (False, k * valuation), (symbol, k)
            assert k * valuation <= order
    monkeypatch.undo()
    assert verify_identity_bank(name, order) == (True, None)


def test_eta_w_valuations_are_positive_integers():
    for level, table in catalog.ETA_W.items():
        for symbol, factors in table.items():
            total = sum(N * e for N, e in factors)
            assert total % 24 == 0 and total > 0, (level, symbol)
            assert all(level % N == 0 for N, _ in factors), (level, symbol)
    assert catalog.LEVEL_ROWS["level14A"].x[1] == ("eta", catalog.ETA_W[14]["+14"])
    assert catalog.LEVEL_ROWS["level15B"].x[1] == ("eta", catalog.ETA_W[15]["+5"])


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
    assert phi_expand(0).coeffs == psi_expand(0).coeffs == [1]


def test_phi_rejects_a_negative_precision():
    # used to end in a bare IndexError from out[0] = 1 on an empty list
    with pytest.raises(QSeriesError, match=r"^precision q\^-1 is negative$"):
        phi_expand(-1)


def test_psi_rejects_a_negative_precision():
    # used to end in "empty coefficient list"
    with pytest.raises(QSeriesError, match=r"^precision q\^-1 is negative$"):
        psi_expand(-1)


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
            verify_level_row(row, order)
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


@pytest.mark.parametrize("order", [-1, -2, -5])
def test_printed_x14_comparison_needs_a_nonnegative_order(order):
    # orders <= -2 used to compare nothing and return True
    with pytest.raises(QSeriesError, match=r"^comparison through q\^%d: need order >= 0$" % order):
        printed_x14_matches_reciprocal(order)
    assert printed_x14_matches_reciprocal(0)


# ---------------------------------------------------------------------------
# poly_at_series against the Horner evaluator it replaced
# ---------------------------------------------------------------------------


def ref_horner(p, X):
    """The previous poly_at_series, verbatim apart from its name and the
    module prefix on _embed_scalar."""
    Xn = X.normalized()
    if Xn.offset <= 0:
        raise QSeriesError("polynomial substitution needs valuation >= 1")
    prec = Xn.prec
    acc = qseries._embed_scalar(p.coeffs[-1], prec)
    for c in reversed(p.coeffs[:-1]):
        acc = acc * X + qseries._embed_scalar(c, prec)
    return acc


def composed(p, X):
    """The coefficients of q^0 .. q^(X.prec - 1) in p(X), by Horner on plain
    lists of Fractions cut at q^X.prec: X has valuation >= 1, so what it
    leaves unknown changes nothing below q^X.prec."""
    Xn = X.normalized()
    x = [F(0)] * Xn.offset + Xn.coeffs
    acc = [F(0)] * len(x)
    for c in reversed(p.coeffs):
        acc = [sum(acc[j] * x[i - j] for j in range(i + 1)) for i in range(len(x))]
        acc[0] += c
    return acc


def assert_evaluates_as_horner(p, X):
    """poly_at_series(p, X) is the reference's (offset, num, den) where the
    reference returns, and p(X) through X's precision where it raised."""
    got = poly_at_series(p, X)
    try:
        ref = ref_horner(p, X)
    except QSeriesError as exc:
        assert str(exc) == "series is zero to working precision"
        assert (got.offset, got.prec) == (0, X.normalized().prec)
        assert got.coeffs == composed(p, X)
        return False
    assert (got.offset, got.num, got.den) == (ref.offset, ref.num, ref.den)
    return True


def _row_polys():
    """Every level row's G, h_num and h_den and every Hauptmodul D, once each."""
    polys = {}
    for row in catalog.LEVEL_ROWS.values():
        for p in (row.G(), Poly(row.h_num), Poly(row.h_den)):
            polys[p.coeffs] = p
        if row.x[0] == "hauptmodul":
            polys[tuple(row.x[2])] = Poly(row.x[2])
    return list(polys.values())


@pytest.mark.parametrize("order", [0, 1, 2, 8, 30])
def test_poly_at_series_matches_horner_on_every_level_row(order):
    polys = _row_polys()
    returned = 0
    for key, row in sorted(catalog.LEVEL_ROWS.items()):
        X = build_xz(row, order)[0]
        for p in polys:
            returned += assert_evaluates_as_horner(p, X)
    assert returned > 0


def test_poly_at_series_knows_what_horner_lost():
    # 1 + X^4 with X = q + 5 q^2 + O(q^3) is 1 + O(q^3); Horner's running
    # X^3 = O(q^3) raised "series is zero to working precision"
    got = poly_at_series(Poly([1, 0, 0, 0, 1]), QExpansion(1, [1, 5]))
    assert (got.offset, got.num, got.den) == (0, [1, 0, 0], 1)


def test_poly_at_series_refuses_a_float_past_the_known_powers():
    # X^10 = O(q^3) adds nothing known, but its float coefficient is refused
    with pytest.raises(QSeriesError, match=r"^0\.5 is not an exact rational"):
        poly_at_series(Poly([1] + [0] * 9 + [0.5]), QExpansion(1, [1, 2]))


def outcome_message(fn, *args):
    try:
        return fn(*args)
    except QSeriesError as exc:
        return QSeriesError, str(exc)


def test_poly_at_series_needs_a_positive_valuation():
    for X in (QExpansion(0, [1, 2]), QExpansion(-1, [1, 2, 3]), QExpansion(-2, [0, 0, 4])):
        got = outcome_message(poly_at_series, Poly([1, 2]), X)
        assert got == outcome_message(ref_horner, Poly([1, 2]), X)
        assert got == (QSeriesError, "polynomial substitution needs valuation >= 1")


_rationals = st.one_of(st.integers(-10 ** 6, 10 ** 6),
                       st.builds(F, st.integers(-10 ** 9, 10 ** 9), st.integers(1, 10 ** 4)))
_sparse_polys = st.builds(
    lambda degree, terms: Poly(dict(terms).get(k, 0) for k in range(degree + 1)),
    st.integers(0, 40),
    st.lists(st.tuples(st.integers(0, 40), _rationals), max_size=5))
_series_x = st.one_of(
    st.builds(lambda key, order: build_xz(catalog.LEVEL_ROWS[key], order)[0],
              st.sampled_from(sorted(catalog.LEVEL_ROWS)), st.sampled_from((0, 2, 12))),
    st.builds(lambda v, lead, rest: QExpansion(v, [lead] + rest),
              st.integers(1, 4), _rationals.filter(bool), st.lists(_rationals, max_size=14)))


@settings(max_examples=150, deadline=None)
@given(_sparse_polys, _series_x, st.integers(0, 3))
def test_poly_at_series_matches_horner_on_sparse_polynomials(p, X, lead_zeros):
    assert_evaluates_as_horner(p, X)
    # the same series with leading zeros: poly_at_series normalizes first
    assert_evaluates_as_horner(p, QExpansion(X.offset - lead_zeros, [0] * lead_zeros + X.coeffs))


# ---------------------------------------------------------------------------
# The expansion check against the coefficient extraction it replaced
# ---------------------------------------------------------------------------


def ref_expansion_matches(terms, z, x, order):
    """The previous _expansion_matches: solve for the coefficients, compare."""
    got = expansion_coefficients(z, x, order)
    for n, (u, v) in enumerate(zip(terms, got)):
        if u != v:
            return False, n
    return True, None


def _expansion_cases(order):
    """(name, row, T(0..order)) for every weight-one and weight-two row and
    the beukers-apery bank identity."""
    for key, row in sorted(catalog.ZAGIER_ROWS.items()):
        yield key, row, generate_terms(recurrence_from_quadratic(*row.triple), order)
    for key, row in sorted(catalog.WEIGHT2_ROWS.items()):
        yield key, row, generate_terms(cubic_from_quadratic_asz(*row.triple), order)
    apery = catalog.ORACLES["weight2-6A"]
    yield ("beukers-apery", catalog.WEIGHT2_ROWS["weight2-6A"],
           [apery(n) for n in range(order + 1)])


@pytest.mark.parametrize("order", [1, 2, 9, 20])
def test_a_changed_expansion_term_is_caught_where_extraction_caught_it(order):
    for name, row, terms in _expansion_cases(order):
        x, z = build_xz(row, order)
        assert qseries._expansion_matches(terms, z, x, order) == (True, None), name
        assert ref_expansion_matches(terms, z, x, order) == (True, None), name
        for n in sorted({0, 1, order // 2, order}):
            for bump in (1, -1, F(1, 3), -terms[n] or 7):
                changed = list(terms)
                changed[n] += bump
                got = qseries._expansion_matches(changed, z, x, order)
                assert got == ref_expansion_matches(changed, z, x, order) == (False, n), \
                    (name, n, bump)
