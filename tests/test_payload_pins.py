"""Payload pins for the verification sweeps.

Each digest is the sha256 of a command's payload as canonical JSON (sorted
keys, no spaces; the same text the benchmark gate hashes), recorded at
commit b8fc6e4, before the Clausen and generating-function rows of
``verify-identities`` and ``verify-qseries --all`` came from one builder.
A refactor of either sweep must leave both payloads byte-identical.
"""

import hashlib
import json

import pytest

from aperylike.cli import main

PINS = {
    # the full identity bank, the Clausen rows and the gf rows
    ("verify-identities", "--order", "10"):
        "cfcc5085c08ee526984e05fea6b6bb4e158256c705ca6413ac30f0215f3b8296",
    # every level row, the weight-one rows, the bank, Clausen and gf rows
    ("verify-qseries", "--all", "--order", "10"):
        "57d208279e74be00d039cfce4ae93300eafbf75bf174141d337bc603df4f3014",
}


def payload_digest(payload) -> str:
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("argv", sorted(PINS), ids=" ".join)
def test_sweep_payload_matches_its_pin(argv, capsys):
    assert main(list(argv)) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["outcome"] == "PASS"
    assert payload_digest(doc["payload"]) == PINS[argv]
