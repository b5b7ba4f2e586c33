"""Self-test of the benchmark's correctness gate: it must not pass vacuously.

Runs one cheap recorded op and one seeded Clausen op, checks that both pass
the gate against the committed record, then corrupts the op's digest in a
copy of the record and checks that the gate now counts the op as failed.
"""

import copy
import os
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import passrun  # noqa: E402
from run import SCRATCH  # noqa: E402
from workloads import clausen_op, fixed_ops, gate, load_record  # noqa: E402

OP_ID = "asymptotics --seq level15A"


def _run(op):
    passrun.setup()
    from aperylike import cli
    tmp = os.path.join(SCRATCH, "test-%d" % os.getpid())
    os.makedirs(tmp, exist_ok=True)
    try:
        return passrun.run_op(op, cli.main, os.path.join(tmp, "stdout.json"))
    finally:
        shutil.rmtree(tmp)
        if not os.listdir(SCRATCH):
            os.rmdir(SCRATCH)


def test_gate_rejects_a_corrupted_digest():
    record = load_record()
    op = next(op for op in fixed_ops("row-survey") if op["id"] == OP_ID)
    outcome = _run(op)
    assert gate(op, outcome, record) is None

    corrupted = copy.deepcopy(record)
    digest = corrupted[OP_ID]["sha256"]
    corrupted[OP_ID]["sha256"] = ("0" if digest[0] != "0" else "1") + digest[1:]
    assert gate(op, outcome, corrupted) == "payload digest differs from the record"
    assert gate(op, outcome, record) is None  # the committed record is untouched


def test_gate_checks_exit_code_and_clausen_result():
    record = load_record()
    op = next(op for op in fixed_ops("row-survey") if op["id"] == OP_ID)
    outcome = dict(_run(op), exit=1)
    assert gate(op, outcome, record).startswith("exit code")

    clausen = clausen_op("verify_asz", (1, 2, 3), 10)
    assert gate(clausen, _run(clausen), record) is None
    assert gate(clausen, {"result": [False, 4]}, record) is not None


def test_benchmark_json_lists_what_the_runner_reports():
    import json
    import run
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END_UNITS
    layers = [(name, unit) for name, unit, _ in run.PER_LAYER] + [run.OVERHEAD]
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == layers
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)
