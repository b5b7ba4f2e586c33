"""The aperylike benchmark.

    python3 perfbench/run.py --workload cp-scan --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 40 --trace 1

Workloads (see ``workloads.py`` and ``predictions.json`` for why each one):
``cp-scan`` (few long Z streams), ``row-survey`` (many short streams over
Z, Z[sqrt d] and Q, plus mpmath asymptotics) and ``qseries-sweep``
(truncated q-series and formal-series arithmetic).

The seed draws the order of the ops in every pass and the random Clausen
triples.  Every pass starts a fresh interpreter (``passrun.py``) that
imports aperylike from ``src`` and runs the ops through
``aperylike.cli.main``.  Passes repeat until the next one would end after
``--seconds``; at least one always runs.  Set-up (import plus catalog
build) is also timed in five interpreters that run nothing else.

With ``--trace 0`` the result line carries the end-to-end metrics: the
median over passes of ``wall_s`` and ``cpu_s`` (ops only), of
``peak_rss_mb`` (largest process among the pass and its pool workers) and
the median set-up time ``setup_s``.  ``fail_ratio`` is ``failed`` over
``attempted``: every op that misses the correctness gate counts.

With ``--trace 1`` untraced and traced passes alternate; the result line
carries the per-layer metrics of the traced passes (medians) and
``trace.overhead_s``, the traced minus the untraced median wall time.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
print every metric by name and unit, and the run's provenance.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Optional

from workloads import WORKLOADS, fixed_ops, gate, load_record, seeded_ops

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
PASSRUN = os.path.join(HERE, "passrun.py")
SCRATCH = os.path.join(ROOT, ".perfbench_run")

SETUP_PROBES = 5
RUN_LIMIT_S = 170.0  # every run must end within 180 s

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}

# per-layer metrics: (name, unit, how to read it from the merged trace)
SPAN = {"calls": 0, "total_s": 1, "self_s": 2}


def _span(field: str, span: str):
    return lambda layers: layers["spans"].get(span, [0, 0.0, 0.0])[SPAN[field]]


def _count(name: str):
    return lambda layers: layers["counts"].get(name, 0)


def _useful_ratio(layers) -> float:
    streamed = layers["counts"].get("congruence.terms_streamed", 0)
    needed = layers["counts"].get("congruence.terms_needed", 0)
    return needed / streamed if streamed else 1.0  # nothing streamed, nothing wasted


PER_LAYER = [
    ("recurrence.stream_z.terms", "count", _span("calls", "recurrence.stream_z")),
    ("recurrence.stream_z.self_s", "s", _span("self_s", "recurrence.stream_z")),
    ("recurrence.max_term_digits", "digits", lambda layers: layers["max_digits"]),
    ("recurrence.stream_quad.terms", "count", _span("calls", "recurrence.stream_quad")),
    ("recurrence.stream_quad.self_s", "s", _span("self_s", "recurrence.stream_quad")),
    ("rings.quadelem_new", "count", _count("rings.quadelem_new")),
    ("recurrence.stream_q.terms", "count", _span("calls", "recurrence.stream_q")),
    ("recurrence.stream_q.self_s", "s", _span("self_s", "recurrence.stream_q")),
    ("congruence.terms_streamed", "count", _count("congruence.terms_streamed")),
    ("congruence.terms_needed", "count", _count("congruence.terms_needed")),
    ("congruence.stream_useful_ratio", "ratio", _useful_ratio),
    ("congruence.check.self_s", "s", _span("self_s", "congruence.check")),
    ("rings.reduce_mod.calls", "count", _span("calls", "rings.reduce_mod")),
    ("rings.reduce_mod.self_s", "s", _span("self_s", "rings.reduce_mod")),
    ("congruence.pool_wait_s", "s", _span("total_s", "congruence.pool_wait")),
    ("cli.pool_wait_s", "s", _span("total_s", "cli.pool_wait")),
    ("qseries.mul.calls", "count", _span("calls", "qseries.mul")),
    ("qseries.mul.self_s", "s", _span("self_s", "qseries.mul")),
    ("qseries.div.calls", "count", _span("calls", "qseries.div")),
    ("qseries.div.self_s", "s", _span("self_s", "qseries.div")),
    ("qseries.pow_fraction.calls", "count", _span("calls", "qseries.pow_fraction")),
    ("qseries.pow_fraction.self_s", "s", _span("self_s", "qseries.pow_fraction")),
    ("qseries.build.self_s", "s", _span("self_s", "qseries.build")),
    ("qseries.verify.self_s", "s", _span("self_s", "qseries.verify")),
    ("series.mul.calls", "count", _span("calls", "series.mul")),
    ("series.mul.self_s", "s", _span("self_s", "series.mul")),
    ("series.div.self_s", "s", _span("self_s", "series.div")),
    ("series.verify.self_s", "s", _span("self_s", "series.verify")),
    ("asymptotics.smallest_root.self_s", "s", _span("self_s", "asymptotics.smallest_root")),
    ("asymptotics.estimate_C.self_s", "s", _span("self_s", "asymptotics.estimate_C")),
    ("asymptotics.analyze.self_s", "s", _span("self_s", "asymptotics.analyze")),
    ("catalog.sequence.calls", "count", _span("calls", "catalog.sequence")),
    ("catalog.sequence.self_s", "s", _span("self_s", "catalog.sequence")),
    ("cli.ops", "count", _span("calls", "cli")),
    ("cli.self_s", "s", _span("self_s", "cli")),
]
OVERHEAD = ("trace.overhead_s", "s")


class PassFailed(RuntimeError):
    pass


def _child_env() -> Dict[str, str]:
    env = dict(os.environ)
    env.pop("APERYLIKE_DIGITS", None)  # the CLI's own default precision
    env.pop("PYTHONPATH", None)        # aperylike comes from this checkout only
    return env


def run_child(mode: str, deadline: float, stdin: Optional[dict] = None) -> dict:
    """Run passrun.py in a fresh interpreter and parse its JSON line.

    The child gets its own process group, so that on a timeout the pool
    workers it started are killed with it."""
    proc = subprocess.Popen([sys.executable, PASSRUN, mode], cwd=ROOT, env=_child_env(),
                            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, start_new_session=True)
    try:
        out, err = proc.communicate(json.dumps(stdin) if stdin else "",
                                    timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise PassFailed("passrun.py %s timed out" % mode) from None
    finally:
        try:  # also pool workers left behind by a pass that crashed
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
    if proc.returncode != 0:
        raise PassFailed("passrun.py %s exited %d:\n%s" % (mode, proc.returncode, err[-3000:]))
    return json.loads(out.strip().splitlines()[-1])


def provenance(seed: int) -> dict:
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    cpu_model = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        from importlib.metadata import version
        mpmath_version = version("mpmath")
    except ImportError:
        mpmath_version = None
    return {"git_commit": commit, "src_sha256": _tree_digest(os.path.join(ROOT, "src")),
            "seed": seed, "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)), "cpu_model": cpu_model,
            "python": platform.python_version(), "mpmath": mpmath_version,
            "loadavg_start": list(os.getloadavg())}


def _tree_digest(top: str) -> Optional[str]:
    """sha256 over the checkout's Python sources: identifies the code measured
    when the checkout is not a git repository."""
    h = hashlib.sha256()
    found = False
    for dirpath, dirnames, filenames in os.walk(top):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for fname in sorted(f for f in filenames if f.endswith(".py")):
            path = os.path.join(dirpath, fname)
            h.update(os.path.relpath(path, top).encode() + b"\0")
            with open(path, "rb") as fh:
                h.update(fh.read())
            found = True
    return h.hexdigest() if found else None


def tail_percentile(samples: List[float]):
    """The highest percentile with at least ten samples beyond it, or None."""
    n = len(samples)
    if n < 11:
        return None
    return 100.0 * (n - 10) / n, sorted(samples)[n - 11]


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 record: dict, deadline: float) -> dict:
    rng = random.Random("%s:%d" % (workload, seed))
    base_ops = fixed_ops(workload) + seeded_ops(workload, rng)
    scratch = os.path.join(SCRATCH, "%d-%s" % (os.getpid(), workload))
    os.makedirs(scratch)
    start = time.monotonic()
    try:
        run_child("setup", deadline)  # discarded: fills caches, compiles .pyc
        setups = [run_child("setup", deadline)["setup_s"] for _ in range(SETUP_PROBES)]
        passes: Dict[bool, List[dict]] = {False: [], True: []}
        longest = {False: 0.0, True: 0.0}
        modes = [False, True] if trace else [False]
        i = 0
        while True:
            traced = modes[i % len(modes)]
            if i >= len(modes) and time.monotonic() - start + longest[traced] > seconds:
                break
            ops = list(base_ops)
            rng.shuffle(ops)
            pass_dir = os.path.join(scratch, "pass-%d" % i)
            os.makedirs(pass_dir)
            t0 = time.monotonic()
            res = run_child("pass", deadline,
                            {"ops": ops, "scratch_dir": pass_dir, "trace": traced})
            longest[traced] = max(longest[traced], time.monotonic() - t0)
            res["failures"] = [(o["id"], why) for op, o in zip(ops, res["ops"])
                               for why in [gate(op, o, record)] if why]
            passes[traced].append(res)
            setups.append(res["setup_s"])
            i += 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    return summarize(workload, setups, passes, trace)


def summarize(workload: str, setups: List[float], passes: Dict[bool, List[dict]],
              trace: bool) -> dict:
    every = passes[False] + passes[True]
    attempted = sum(len(p["ops"]) for p in every)
    failures = [f for p in every for f in p["failures"]]
    plain = passes[False]
    e2e = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(p["wall_s"] for p in plain),
        "cpu_s": statistics.median(p["cpu_s"] for p in plain),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in plain),
    }
    out = {"workload": workload, "attempted": attempted, "failures": failures,
           "e2e": e2e, "setup_n": len(setups), "walls": [p["wall_s"] for p in plain],
           "skipped": sorted({s for p in passes[True] for s in p.get("skipped", [])})}
    if trace:
        traced = passes[True]
        layers = {name: statistics.median(read(p["layers"]) for p in traced)
                  for name, _, read in PER_LAYER}
        layers[OVERHEAD[0]] = (statistics.median(p["wall_s"] for p in traced)
                               - e2e["wall_s"])
        out["layers"] = layers
        out["traced_walls"] = [p["wall_s"] for p in traced]
    return out


def report(summary: dict, trace: bool) -> Dict[str, dict]:
    """Print every metric by name and unit; return the result line's metrics."""
    w = summary["workload"]
    walls = summary["walls"]
    print("== %s: %d untraced pass(es), %d set-ups" % (w, len(walls), summary["setup_n"]))
    for name, unit in END_TO_END_UNITS.items():
        print("  %-14s %12.6f %s" % (name, summary["e2e"][name], unit))
    tail = tail_percentile(walls)
    print("  wall_s samples n=%d, median %.6f s, %s" % (
        len(walls), statistics.median(walls),
        "p%.1f %.6f s" % tail if tail else
        "no percentile has ten samples beyond it (n < 11); max %.6f s" % max(walls)))
    failed = len(summary["failures"])
    print("  %-14s %12.6f ratio (%d failed / %d attempted)"
          % ("fail_ratio", failed / summary["attempted"], failed, summary["attempted"]))
    for op_id, why in summary["failures"]:
        print("  FAILED %s: %s" % (op_id, why))
    if not trace:
        return {name: {"value": summary["e2e"][name], "unit": unit}
                for name, unit in END_TO_END_UNITS.items()}
    units = dict((name, unit) for name, unit, _ in PER_LAYER)
    units[OVERHEAD[0]] = OVERHEAD[1]
    print("  traced pass(es): %d, wall %s s" % (
        len(summary["traced_walls"]), ", ".join("%.3f" % x for x in summary["traced_walls"])))
    if summary["skipped"]:
        print("  not traced (name not found): %s" % ", ".join(summary["skipped"]))
    for name, value in summary["layers"].items():
        print("  %-34s %16s %s" % (name, round(value, 6), units[name]))
    return {name: {"value": value, "unit": units[name]}
            for name, value in summary["layers"].items()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "aperylike", "cli.py")):
        print("perfbench: no aperylike sources under %s" % os.path.join(ROOT, "src"),
              file=sys.stderr)
        return 2
    record = load_record()
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    print(json.dumps({"provenance": dict(provenance(args.seed), workload=args.workload,
                                         seconds=args.seconds, trace=args.trace)}))
    attempted = failed = 0
    metrics: Dict[str, dict] = {}
    try:
        for name in names:
            summary = run_workload(name, args.seed, args.seconds, bool(args.trace),
                                   record, time.monotonic() + RUN_LIMIT_S)
            attempted += summary["attempted"]
            failed += len(summary["failures"])
            for key, value in report(summary, bool(args.trace)).items():
                metrics[key if len(names) == 1 else "%s.%s" % (name, key)] = value
    except PassFailed as exc:
        print("perfbench: %s" % exc, file=sys.stderr)
        return 1
    finally:
        if os.path.isdir(SCRATCH) and not os.listdir(SCRATCH):
            os.rmdir(SCRATCH)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
