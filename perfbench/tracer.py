"""Per-layer tracing of aperylike, installed from outside the package.

``Tracer.install`` replaces public names where the package looks them up
(``catalog.term_iterator``, ``congruence.reduce_mod``, the ``QExpansion``
and ``FormalSeries`` operators, ...) with wrappers that record spans.  A
name that no longer exists is skipped and reported, so one benchmark can
measure the code before and after a refactor.

A span's self time is its duration minus the time its child spans cover;
spans are aggregated per name in memory as ``[calls, total_s, self_s]``.
Term streams are timed per ``next()`` call, so a stream's self time is the
time spent producing terms, not consuming them.

Process pools: ``ProcessPoolExecutor`` is replaced by a subclass that
records how long the parent is blocked in the pool as
``<layer>.pool_wait`` (a child span of the caller, so waiting is not
counted as the caller's self time), and gives each worker an initializer
that clears the state inherited by fork and writes the worker's aggregate
to the trace directory when the worker exits.
"""

from __future__ import annotations

import concurrent.futures
import copy
import functools
import inspect
import json
import os
import time
from fractions import Fraction
from multiprocessing import util as mp_util

perf = time.perf_counter

LOG10_2 = 0.30102999566398120

# terms the congruence layer needs, from the arguments of its outermost call
CONGRUENCE_NEEDED = {
    "residue_table": lambda a: a["n_max"] + 1,
    "lucas_check": lambda a: 0,
    "lucas_scan": lambda a: a["n_max"] + 1,
    "lucas_scan_many": lambda a: a["n_max"] + 1,
    "supercongruence_check": lambda a: a["p"] * a["n_max"] + 1,
    "structured_congruence_check": lambda a: a["p"] * a["n_max"] + 1,
    "scan_c_counts": lambda a: max(a["primes"], default=0) * a["n_max"] + 1,
}

QSERIES_BUILD = ("build_xz", "build_x", "build_w", "build_product", "eta_expand",
                 "eta_quotient", "poch_quotient", "theta_expand", "phi_expand",
                 "psi_expand", "eisenstein_expand", "epsilon_x_expansion")
QSERIES_VERIFY = ("verify_diff_formula", "verify_ode", "verify_weight_one",
                  "verify_weight_two", "verify_identity_bank", "qexp_equal",
                  "expansion_coefficients")
SERIES_VERIFY = ("verify_asz", "verify_ctyz", "verify_gf_independence")
STREAM_NAMES = {"Z": "recurrence.stream_z", "Q": "recurrence.stream_q",
                "quad": "recurrence.stream_quad"}


def term_bits(t) -> int:
    """Size in bits of the largest integer inside an exact term."""
    if isinstance(t, int):
        return t.bit_length()
    if isinstance(t, Fraction):
        return max(t.numerator.bit_length(), t.denominator.bit_length())
    if hasattr(t, "a") and hasattr(t, "b"):
        return max(term_bits(t.a), term_bits(t.b))
    return 0


class Tracer:
    def __init__(self, trace_dir: str):
        self.trace_dir = trace_dir
        # the wrappers keep references to these containers: clear, never rebind
        self.stack: list = []    # open spans: [name, time covered by children]
        self.spans: dict = {}    # name -> [calls, total_s, self_s]
        self.counts: dict = {}   # name -> int
        self.max_bits = 0
        self.congruence_depth = 0
        self.worker = False
        self.skipped: list = []

    # -- recording ------------------------------------------------------

    def _close(self, name: str, dur: float, child: float) -> None:
        rec = self.spans.get(name)
        if rec is None:
            rec = self.spans[name] = [0, 0.0, 0.0]
        rec[0] += 1
        rec[1] += dur
        rec[2] += dur - child
        if self.stack:
            self.stack[-1][1] += dur

    def count(self, name: str, k: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + k

    def wrap(self, name: str, fn):
        stack, close = self.stack, self._close

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [name, 0.0]
            stack.append(frame)
            t0 = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = perf() - t0
                stack.pop()
                close(name, dur, frame[1])
        return traced

    def wrap_congruence(self, fn, needed):
        inner = self.wrap("congruence.check", fn)
        sig = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.congruence_depth == 0 and not self.worker:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                self.count("congruence.terms_needed", needed(bound.arguments))
            self.congruence_depth += 1
            try:
                return inner(*args, **kwargs)
            finally:
                self.congruence_depth -= 1
        return traced

    def wrap_stream(self, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            ring = args[1] if len(args) > 1 else kwargs.get("ring")
            kind = getattr(ring, "kind", "Z")
            return self._stream(fn(*args, **kwargs), STREAM_NAMES.get(kind, kind))
        return traced

    def _stream(self, it, name):
        stack, close = self.stack, self._close
        while True:
            frame = [name, 0.0]
            stack.append(frame)
            t0 = perf()
            try:
                t = next(it)
            except StopIteration:
                stack.pop()
                return
            except BaseException:
                stack.pop()
                raise
            dur = perf() - t0
            stack.pop()
            close(name, dur, frame[1])
            if self.congruence_depth:
                self.count("congruence.terms_streamed")
            bits = term_bits(t)
            if bits > self.max_bits:
                self.max_bits = bits
            yield t

    def pool_class(self, base):
        tracer = self

        class TracedPool(base):
            def __init__(self, max_workers=None, mp_context=None, initializer=None,
                         initargs=(), **kwargs):
                self._trace_open = (perf(), tracer.stack[-1] if tracer.stack else None)
                super().__init__(max_workers, mp_context, worker_start,
                                 (tracer, initializer, initargs), **kwargs)

            def shutdown(self, wait=True, *, cancel_futures=False):
                super().shutdown(wait=wait, cancel_futures=cancel_futures)
                opened = self.__dict__.pop("_trace_open", None)
                if opened is not None:
                    t0, frame = opened
                    dur = perf() - t0
                    layer = frame[0].split(".")[0] if frame else "bench"
                    rec = tracer.spans.setdefault(layer + ".pool_wait", [0, 0.0, 0.0])
                    rec[0] += 1
                    rec[1] += dur
                    rec[2] += dur
                    if frame is not None:
                        frame[1] += dur

        return TracedPool

    def reset_for_worker(self) -> None:
        self.stack.clear()
        self.spans.clear()
        self.counts.clear()
        self.max_bits = 0
        self.congruence_depth = 0
        self.worker = True

    # -- installation ---------------------------------------------------

    def _patch(self, module, path: str, make) -> None:
        """Replace module.<path> (a function, or Class.method) by make(original)."""
        *parents, attr = path.split(".")
        owner = module
        for name in parents:
            owner = getattr(owner, name, None)
        if owner is None:
            orig = None
        elif isinstance(owner, type):
            orig = vars(owner).get(attr)  # not an inherited slot such as object.__init__
        else:
            orig = getattr(owner, attr, None)
        if orig is None:
            self.skipped.append("%s.%s" % (module.__name__, path))
            return
        setattr(owner, attr, make(orig))

    def install(self) -> None:
        """Patch every traced name; names that are missing go to self.skipped."""
        from aperylike import asymptotics, catalog, congruence, qseries, recurrence, rings, series

        span = lambda name: (lambda fn: self.wrap(name, fn))  # noqa: E731
        self._patch(catalog, "sequence", span("catalog.sequence"))
        for module in (recurrence, catalog):
            self._patch(module, "term_iterator", self.wrap_stream)
        counts = self.counts

        def count_new(init):
            def counted(obj, *args, **kwargs):
                counts["rings.quadelem_new"] = counts.get("rings.quadelem_new", 0) + 1
                init(obj, *args, **kwargs)
            return counted
        self._patch(rings, "QuadElem.__init__", count_new)
        self._patch(congruence, "reduce_mod", span("rings.reduce_mod"))
        for name, needed in CONGRUENCE_NEEDED.items():
            self._patch(congruence, name,
                        lambda fn, needed=needed: self.wrap_congruence(fn, needed))
        for attr, name in (("__mul__", "qseries.mul"), ("__rmul__", "qseries.mul"),
                           ("__truediv__", "qseries.div"), ("__rtruediv__", "qseries.div"),
                           ("pow_fraction", "qseries.pow_fraction")):
            self._patch(qseries, "QExpansion." + attr, span(name))
        for attr in QSERIES_BUILD:
            self._patch(qseries, attr, span("qseries.build"))
        for attr in QSERIES_VERIFY:
            self._patch(qseries, attr, span("qseries.verify"))
        for attr, name in (("__mul__", "series.mul"), ("__rmul__", "series.mul"),
                           ("__truediv__", "series.div"), ("__rtruediv__", "series.div")):
            self._patch(series, "FormalSeries." + attr, span(name))
        for attr in SERIES_VERIFY:
            self._patch(series, attr, span("series.verify"))
        for attr in ("smallest_root", "estimate_C", "analyze"):
            self._patch(asymptotics, attr, span("asymptotics." + attr))
        # pools: where congruence imported the class, and where cli imports it lazily
        pool = self.pool_class(concurrent.futures.ProcessPoolExecutor)
        self._patch(congruence, "ProcessPoolExecutor", lambda _: pool)
        concurrent.futures.ProcessPoolExecutor = pool

    # -- output ---------------------------------------------------------

    def snapshot(self) -> dict:
        return {"spans": self.spans, "counts": self.counts, "max_bits": self.max_bits}

    def dump(self) -> None:
        path = os.path.join(self.trace_dir, "worker-%d-%d.json" % (os.getpid(), time.time_ns()))
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.snapshot(), fh)

    def collect(self) -> dict:
        """This process's aggregate merged with every worker's dump."""
        total = copy.deepcopy(self.snapshot())
        for fname in sorted(os.listdir(self.trace_dir)):
            if not fname.startswith("worker-"):
                continue
            with open(os.path.join(self.trace_dir, fname), encoding="utf-8") as fh:
                part = json.load(fh)
            for name, rec in part["spans"].items():
                acc = total["spans"].setdefault(name, [0, 0.0, 0.0])
                for i in range(3):
                    acc[i] += rec[i]
            for name, k in part["counts"].items():
                total["counts"][name] = total["counts"].get(name, 0) + k
            total["max_bits"] = max(total["max_bits"], part["max_bits"])
        total["max_digits"] = int(total["max_bits"] * LOG10_2) + 1
        return total


def worker_start(tracer: Tracer, initializer, initargs) -> None:
    """Pool-worker initializer: drop the state inherited from the parent and
    write this worker's aggregate when it exits."""
    tracer.reset_for_worker()
    mp_util.Finalize(None, tracer.dump, exitpriority=100)
    if initializer is not None:
        initializer(*initargs)
