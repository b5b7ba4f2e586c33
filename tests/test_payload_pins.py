"""Payload pins for the verification sweeps, the sequence definitions, the
congruence scans and every ``reproduce`` table.

Each digest is the sha256 of a command's payload as canonical JSON (sorted
keys, no spaces; the same text the benchmark gate hashes).  The two sweep
pins were recorded at commit b8fc6e4, before the Clausen and
generating-function rows of ``verify-identities`` and ``verify-qseries
--all`` came from one builder; the ``catalog --export`` and ``terms`` pins
at d6a63ac, before def files and catalog keys shared one sequence type;
the ``lucas``, ``supercong`` and ``scan`` pins at b5d7cd0, before residue
requests became (modulus, stride) targets; the ``reproduce levels-*`` and
default and ``--level`` ``verify-qseries`` pins at 00595b9, before each
level row's X and Z became product specs built once per row; the other
``reproduce`` pins at 477e434, before every table came from one registry;
the ``catalog`` listing and ``--key`` pins at b6fbb59, before the weight-one
and weight-two rows became one row type.
A refactor must leave every pinned payload byte-identical.
"""

import hashlib
import json

import pytest

from aperylike import cli
from aperylike.cli import main

PINS = {
    # the full identity bank, the Clausen rows and the gf rows
    ("verify-identities", "--order", "10"):
        "cfcc5085c08ee526984e05fea6b6bb4e158256c705ca6413ac30f0215f3b8296",
    # every level row, the weight-one rows, the bank, Clausen and gf rows
    ("verify-qseries", "--all", "--order", "10"):
        "57d208279e74be00d039cfce4ae93300eafbf75bf174141d337bc603df4f3014",
    # every (G, H) definition in the def-file schema; recorded at d6a63ac
    ("catalog", "--export"):
        "7dbb39d27a593d78fd5943dffbb5d4bbb9f83e7ac897e51afc9441df98389877",
    # a Z[i] epsilon special streamed by key; recorded at d6a63ac
    ("terms", "--seq", "15Cbar", "--nmax", "40"):
        "a88246207ab9ab095c42765d0f2b0e60f2cc98b645abe8057a54cd0ea84f279a",
    # Lucas scans over Z[sqrt(2)] from one exact pass; recorded at b5d7cd0
    ("lucas", "--seq", "14C", "--primes", "2,7,17,23", "--nmax", "300"):
        "e405b116339f9bf0ca90aaf4c6b0d0c7c30dbc69cbf20362a590c691381dcc8c",
    # the stride-p exact pass over Z[i]; recorded at b5d7cd0
    ("supercong", "--seq", "15C", "--prime", "5", "--exp", "1", "--nmax", "60"):
        "882f17ac8e22bc247c7b1a6682114703c77abfde32d9fa770843f61805ecf429",
    # c(p) counts from the p-adic kernel; recorded at b5d7cd0
    ("scan", "--primes", "2..31", "--nmax", "100"):
        "df4fdd0dec77e7878986de461ea35b129123ca92257cf0423266eb774b58f851",
    # coefficients of every table row's (X, Z) against its terms; recorded at 00595b9
    ("reproduce", "levels-XZ"):
        "3077e7cd8b4419fb87ba9d89425d257228a3e3770375ced8620a003db079cead",
    # diff formula and ODE per level row, reduced to one status; recorded at 00595b9
    ("reproduce", "levels-BH", "--order", "10"):
        "39d32bbb9019b256b03fab4a28c54dda85b956d7f6ce4cd6e22e915df988a162",
    # the oracle and the weight-one check per Zagier row; recorded at 477e434
    ("reproduce", "zagier-table"):
        "84d6dc6e166d0788500ab0863a9a73955a27d92d12344d5675d03bb2af57089f",
    # the oracle and the weight-two check per Apery-like row; recorded at 477e434
    ("reproduce", "apery-table"):
        "eadcd1d9742d35d7242f814c2a17c128a4647cbc2879323e232be60addd551e2",
    # the four-term parameters of every self-starting row; recorded at 477e434
    ("reproduce", "fourterm-params"):
        "25b91854ab3325e33c7ec60eefe949663c43a30528401f24afbab6149ac07f4b",
    # the level-14 terms, and 14Cbar as the conjugate of 14C; recorded at 477e434
    ("reproduce", "terms-14"):
        "ac15f1f3b5da825e2a53e251729ea98f45acf4f3483ce5ea382a4acd2af4bf30",
    # the level-15 terms, and 15Cbar as the conjugate of 15C; recorded at 477e434
    ("reproduce", "terms-15"):
        "accb160ade0b7314fb4eed2d4dc2461ad48656127833dccd2fc7b088dc980e0b",
    # R, b1 and C per committed row; recorded at 477e434
    ("reproduce", "asymptotic-params"):
        "0e5378d01a08189371c229536a93776b8f40de8818c5f7395381e94a6a9e3a4c",
    # c(p) counts outside the committed n <= 1000 window, so DATA; recorded at 477e434
    ("reproduce", "cp-counts", "--nmax", "20", "--primes", "2,103"):
        "91f27a8dd3bef73da462f7de7c94e2adc81fdf216684c50a893f9012381d80a2",
    # the default level rows; recorded at 00595b9
    ("verify-qseries", "--order", "10"):
        "d723cad8345cee1e8abd5cacec365e59204b64e198eb44ed2101321d6223821b",
    # one 7-term row, X from a theta sum; recorded at 00595b9
    ("verify-qseries", "--level", "level23", "--order", "10"):
        "88d8ed87acefedc8b3a4934f0ff4710c05757769ac0ccd509d2788fc16ef487c",
    # every sequence, level, weight-one and weight-two key; recorded at b6fbb59
    ("catalog",):
        "560f5e99b7f9e29222a3b0fae47648f4d3c6b0a700b29b3a77e8c6f13f0ab07d",
    # a weight-one row; recorded at b6fbb59
    ("catalog", "--key", "zagier5"):
        "64fdff2ad6267df7936380b32711c15632443d1fd65e9a0daa841cc07751982d",
    # a corrected weight-two row; recorded at b6fbb59
    ("catalog", "--key", "weight2-8"):
        "f13c3cc530aeaf78cafb554242fa115eb1148babe4af63d95eff6f48054a06f9",
    # a corrected level row with its B^2 and H data; recorded at b6fbb59
    ("catalog", "--key", "level8"):
        "5e88f89b6daec40fa0434453d946acf94029f1b5f4f1959a96802388e850bf25",
}


def payload_digest(payload) -> str:
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("argv", sorted(PINS), ids=" ".join)
def test_sweep_payload_matches_its_pin(argv, capsys):
    assert main(list(argv)) == 0
    doc = json.loads(capsys.readouterr().out)
    data = argv[0] in ("catalog", "terms", "scan") or argv[:2] == ("reproduce", "cp-counts")
    assert doc["outcome"] == ("DATA" if data else "PASS")
    assert payload_digest(doc["payload"]) == PINS[argv]


def test_every_reproduce_table_has_a_pin():
    pinned = {argv[1] for argv in PINS if argv[0] == "reproduce"}
    assert set(cli.REPRODUCE) - pinned == set()
