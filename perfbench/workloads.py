"""The benchmark's workloads and its correctness gate.

An op is a JSON-able dict.  ``{"kind": "cli", "argv": [...]}`` runs one
command through ``aperylike.cli.main`` with the CLI's own defaults (no
``--jobs``, so the argv stays valid when that flag goes away).
``{"kind": "clausen", "fn": "verify_asz" | "verify_ctyz", ...}`` calls the
public ``aperylike.series`` function, for work that has no command.

The gate: a cli op passes when its exit code and the sha256 of its
canonical payload equal the ones recorded in ``expected.json``; a Clausen
op passes when it returns ``(True, None)``.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
from typing import Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
RECORD_PATH = os.path.join(HERE, "expected.json")

WORKLOADS = ("cp-scan", "row-survey", "qseries-sweep")

# the rows whose asymptotics acceptance criterion 7 checks
CRITERION7_ROWS = ("level11", "level14A", "level14B", "14C", "14Cbar",
                   "level15A", "level15B", "15C", "15Cbar", "level24")
LUCAS_SMALL_ROWS = ("level14A", "level14B", "level15A", "level15B", "level24",
                    "apery", "14C", "15C")
CLAUSEN_TRIPLES = 20
CLAUSEN_ORDER = 30


def cli_op(*argv: str) -> dict:
    return {"kind": "cli", "argv": list(argv), "id": " ".join(argv)}


def clausen_op(fn: str, triple, order: int) -> dict:
    return {"kind": "clausen", "fn": fn, "triple": list(triple), "order": order,
            "id": "%s%s order=%d" % (fn, tuple(triple), order)}


def fixed_ops(workload: str) -> List[dict]:
    """The ops of a workload whose inputs do not depend on the seed."""
    if workload == "cp-scan":
        return [cli_op("reproduce", "cp-counts"),
                cli_op("supercong", "--seq", "level11", "--prime", "2", "--exp", "6",
                       "--nmax", "4096", "--pattern", "level11-2adic")]
    if workload == "row-survey":
        ops = [cli_op("lucas", "--seq", "level11", "--primes", "2..97", "--nmax", "4999")]
        ops += [cli_op("lucas", "--seq", key, "--primes", "2..47", "--nmax", "1999")
                for key in LUCAS_SMALL_ROWS]
        ops += [cli_op("asymptotics", "--seq", key) for key in CRITERION7_ROWS]
        ops.append(cli_op("terms", "--seq", "level13", "--nmax", "2000"))
        return ops
    if workload == "qseries-sweep":
        return [cli_op("verify-qseries", "--all", "--order", "60")]
    raise ValueError("unknown workload %r (choose from %s)" % (workload, ", ".join(WORKLOADS)))


def seeded_ops(workload: str, rng: random.Random) -> List[dict]:
    """The ops drawn from the seed: Clausen triples in [-10, 10]^3."""
    if workload != "qseries-sweep":
        return []
    ops = []
    for _ in range(CLAUSEN_TRIPLES):
        trip = (rng.randint(-10, 10), rng.randint(-10, 10), rng.randint(-10, 10))
        ops.append(clausen_op("verify_asz", trip, CLAUSEN_ORDER))
        ops.append(clausen_op("verify_ctyz", trip, CLAUSEN_ORDER))
    return ops


def payload_digest(payload) -> str:
    """sha256 of the payload as canonical JSON (sorted keys, no spaces)."""
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def load_record(path: str = RECORD_PATH) -> Dict[str, dict]:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)["ops"]


def gate(op: dict, outcome: dict, record: Dict[str, dict]) -> Optional[str]:
    """None when the op's outcome is correct, else the reason it is not."""
    if "error" in outcome:
        return outcome["error"]
    if op["kind"] == "clausen":
        if outcome["result"] != [True, None]:
            return "returned %r, want [True, None]" % (outcome["result"],)
        return None
    want = record.get(op["id"])
    if want is None:
        return "no recorded outcome for this op"
    if outcome["exit"] != want["exit"]:
        return "exit code %r, recorded %r" % (outcome["exit"], want["exit"])
    if outcome["sha256"] != want["sha256"]:
        return "payload digest differs from the record"
    return None
