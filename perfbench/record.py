"""Record the gate's expected outcomes: ``python3 perfbench/record.py``.

Runs every fixed-input op of every workload once, in a fresh interpreter,
and writes its exit code and payload digest to ``expected.json``.  Run it
only at a commit whose outputs are known to be right: the gate then holds
every later commit to the same payloads.
"""

import json
import os
import sys
import time

from run import SCRATCH, provenance, run_child
from workloads import RECORD_PATH, WORKLOADS, fixed_ops


def main() -> int:
    ops = [op for w in WORKLOADS for op in fixed_ops(w)]
    scratch = os.path.join(SCRATCH, "record-%d" % os.getpid())
    os.makedirs(scratch)
    try:
        res = run_child("pass", time.monotonic() + 600,
                        {"ops": ops, "scratch_dir": scratch, "trace": False})
    finally:
        os.rmdir(scratch)
        if not os.listdir(SCRATCH):
            os.rmdir(SCRATCH)
    recorded = {}
    for op, out in zip(ops, res["ops"]):
        if "error" in out:
            print("%s: %s" % (op["id"], out["error"]), file=sys.stderr)
            return 1
        recorded[op["id"]] = {"exit": out["exit"], "sha256": out["sha256"]}
    doc = {"recorded_at": provenance(seed=0), "ops": recorded}
    with open(RECORD_PATH, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print("recorded %d ops to %s" % (len(recorded), RECORD_PATH))
    return 0


if __name__ == "__main__":
    sys.exit(main())
