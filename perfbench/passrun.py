"""One pass of a workload, in a fresh interpreter.

    python3 perfbench/passrun.py setup    time the set-up only
    python3 perfbench/passrun.py pass     run the ops read as JSON on stdin

Set-up is importing ``aperylike.cli`` from the checkout's ``src`` and
building the sequence catalog.  A pass then runs each op, timing only the
call into aperylike (wall clock, and user plus system CPU of this process
and of the pool workers it has reaped), and prints one JSON line with the
timings, each op's outcome for the gate, the peak resident memory and,
when a trace directory is given, the per-layer aggregate.
"""

import contextlib
import json
import os
import resource
import sys
import time

from workloads import payload_digest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def setup() -> float:
    """Import the package from the checkout's src and build the catalog;
    seconds taken."""
    src = os.path.join(ROOT, "src")
    t0 = time.perf_counter()
    sys.path.insert(0, src)
    import aperylike.cli  # noqa: F401
    from aperylike import catalog
    catalog.sequence_keys()
    elapsed = time.perf_counter() - t0
    import aperylike
    if not os.path.abspath(aperylike.__file__).startswith(os.path.join(src, "")):
        raise SystemExit("aperylike was imported from %s, not from %s"
                         % (aperylike.__file__, src))
    return elapsed


def cpu_seconds() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0  # ru_maxrss is in KiB on Linux


def call_op(op: dict, main, out):
    """The timed part of an op: the call into aperylike."""
    if op["kind"] == "cli":
        with contextlib.redirect_stdout(out):
            return main(op["argv"])
    from aperylike import series
    ok, mismatch = getattr(series, op["fn"])(*op["triple"], order=op["order"])
    return [ok, mismatch]


def outcome_of(op: dict, value, out_path: str) -> dict:
    if op["kind"] != "cli":
        return {"result": value}
    with open(out_path, encoding="utf-8") as fh:
        text = fh.read()
    payload = json.loads(text)["payload"] if text.strip() else None
    return {"exit": value, "sha256": payload_digest(payload)}


def run_op(op: dict, main, out_path: str) -> dict:
    """Run one op; its outcome for the gate plus wall_s and cpu_s."""
    with open(out_path, "w", encoding="utf-8") as out:
        c0 = cpu_seconds()
        t0 = time.perf_counter()
        try:
            value = call_op(op, main, out)
        except Exception as exc:  # the gate counts it; the pass goes on
            return {"error": "%s: %s" % (type(exc).__name__, exc),
                    "wall_s": time.perf_counter() - t0, "cpu_s": cpu_seconds() - c0}
        wall = time.perf_counter() - t0
        cpu = cpu_seconds() - c0
    outcome = outcome_of(op, value, out_path)
    outcome.update(wall_s=wall, cpu_s=cpu)
    return outcome


def run_pass(ops, scratch_dir: str, trace: bool) -> dict:
    from aperylike import cli
    main = cli.main
    tracer = None
    if trace:
        from tracer import Tracer
        tracer = Tracer(scratch_dir)
        tracer.install()
        main = tracer.wrap("cli", cli.main)
    out_path = os.path.join(scratch_dir, "stdout-%d.json" % os.getpid())
    outcomes = [dict(run_op(op, main, out_path), id=op["id"]) for op in ops]
    os.remove(out_path)
    result = {"wall_s": sum(o["wall_s"] for o in outcomes),
              "cpu_s": sum(o["cpu_s"] for o in outcomes),
              "peak_rss_mb": peak_rss_mb(), "ops": outcomes}
    if tracer is not None:
        result["layers"] = tracer.collect()
        result["skipped"] = tracer.skipped
    return result


def main(argv) -> int:
    setup_s = setup()
    if argv[1:] == ["setup"]:
        result = {"setup_s": setup_s}
    elif argv[1:] == ["pass"]:
        spec = json.load(sys.stdin)
        result = run_pass(spec["ops"], spec["scratch_dir"], spec["trace"])
        result["setup_s"] = setup_s
    else:
        print("usage: passrun.py setup|pass", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
