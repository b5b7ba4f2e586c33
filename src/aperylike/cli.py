"""Command-line interface.

Subcommands: terms, catalog, verify-qseries, verify-identities, lucas,
supercong, scan, asymptotics, reproduce.  Every command prints a run
report whose payload is deterministic for fixed inputs and precision:
exact scalars are decimal strings, floats are fixed-precision strings,
and sweep results are emitted in sorted order regardless of scheduling.
Exit status is 0 for PASS/DATA, 2 for bad keys and usage errors, else 1.

Each command loads only the layers it uses.  Only the asymptotics commands
need floating-point numerics, so only they import the asymptotics module
and the numeric library behind it.  qseries is imported by the commands
and reproduce tables that check q-expansions (verify-qseries,
verify-identities, reproduce zagier-table, apery-table, levels-XZ and
levels-BH), and series by those that run the Clausen and
generating-function checks (verify-qseries --all, verify-identities
without --name).  The catalog builds a sequence on its first use, so
terms, catalog, lucas, supercong, scan and the other reproduce tables
build only the rows they use and load neither series module; csv loads
for --format csv only.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from functools import cache
from typing import Dict, List, Optional, Sequence

from . import catalog, congruence
from .recurrence import InexactDivision, fourterm_params
from .rings import conj, scalar_to_str


class RunReport:
    def __init__(self, command: str, parameters: dict, outcome: str, payload):
        assert outcome in ("PASS", "FAIL", "DATA")
        self.command = command
        self.parameters = parameters
        self.outcome = outcome
        self.payload = payload
        self.wall_time = 0.0

    def to_json(self) -> dict:
        return {
            "command": self.command,
            "parameters": self.parameters,
            "outcome": self.outcome,
            "payload": self.payload,
            "wall_time_s": round(self.wall_time, 3),
        }

    @property
    def exit_code(self) -> int:
        return 0 if self.outcome in ("PASS", "DATA") else 1


def _emit(report: RunReport, fmt: str) -> int:
    if fmt == "csv":
        _emit_csv(report)
    else:
        json.dump(report.to_json(), sys.stdout, indent=2, sort_keys=True)
        sys.stdout.write("\n")
    return report.exit_code


def _emit_csv(report: RunReport) -> None:
    import csv

    payload = report.payload
    rows = payload.get("rows") if isinstance(payload, dict) else None
    # a cell with a comma (a list, say) is quoted, so each row keeps its width
    out = csv.writer(sys.stdout, lineterminator="\n")
    if isinstance(payload, dict) and "terms" in payload:
        out.writerow(["n", "value"])
        out.writerows(enumerate(payload["terms"]))
    elif rows:
        keys = sorted({k for r in rows for k in r})
        out.writerow(keys)
        out.writerows([str(r.get(k, "")) for k in keys] for r in rows)
    else:
        print(json.dumps(report.to_json(), sort_keys=True))


# ---------------------------------------------------------------------------
# terms / catalog
# ---------------------------------------------------------------------------


def cmd_terms(args) -> RunReport:
    if args.def_file:
        try:
            seq = catalog.Sequence.load(args.def_file)
        except OSError as exc:
            raise ValueError("cannot read --def-file: %s" % exc) from None
    else:
        seq = catalog.sequence(args.seq)
    # each term becomes its string as it is streamed, so the exact terms are
    # never all held at once
    payload = {"seq": seq.key, "n_max": args.nmax,
               "terms": [scalar_to_str(t) for t in seq.iter_terms(args.nmax)]}
    return RunReport("terms", {"seq": seq.key, "nmax": args.nmax}, "DATA", payload)


def cmd_catalog(args) -> RunReport:
    if args.export:
        payload = {"definitions": catalog.export_definitions()}
        return RunReport("catalog", {"export": True}, "DATA", payload)
    if args.key:
        entry = catalog.get_entry(args.key)
        # the kind names the row's table; both weight tables share one class
        doc = {"key": entry.key, "kind": "LevelRow" if entry.key in catalog.LEVEL_ROWS else
               "Weight1Row" if entry.key in catalog.ZAGIER_ROWS else "Weight2Row"}
        if hasattr(entry, "triple"):
            doc["triple"] = list(entry.triple)
            doc["oeis"] = entry.oeis
        if hasattr(entry, "b2_factors"):
            doc["B2"] = [scalar_to_str(c) for c in entry.G().coeffs]
            doc["H_num"] = [scalar_to_str(c) for c in entry.h_num]
            doc["H_den"] = [scalar_to_str(c) for c in entry.h_den]
            doc["terms_in_recurrence"] = entry.nterms()
        if getattr(entry, "corrected", None):
            doc["corrected"] = entry.corrected
        return RunReport("catalog", {"key": args.key}, "DATA", doc)
    payload = {"sequences": catalog.sequence_keys(),
               "levels": sorted(catalog.LEVEL_ROWS),
               "weight1": sorted(catalog.ZAGIER_ROWS),
               "weight2": sorted(catalog.WEIGHT2_ROWS)}
    return RunReport("catalog", {}, "DATA", payload)


# ---------------------------------------------------------------------------
# verification sweeps
# ---------------------------------------------------------------------------


def _qseries_rows(keys: Sequence[str], order: int):
    """(row, ok) per key: the differentiation formula and the ODE for a
    level row, the weight-one check for a Zagier row."""
    from . import qseries

    for key in keys:
        if key in catalog.LEVEL_ROWS:
            (ok_d, m_d), (ok_o, m_o) = qseries.verify_level_row(catalog.LEVEL_ROWS[key], order)
            out = {"level": key, "diff_formula": "PASS" if ok_d else "FAIL",
                   "ode": "PASS" if ok_o else "FAIL"}
            if not ok_d:
                out["diff_mismatch_at"] = str(m_d)
            if not ok_o:
                out["ode_mismatch_at"] = str(m_o)
            yield out, ok_d and ok_o
        else:
            okk, m = qseries.verify_weight_one(catalog.ZAGIER_ROWS[key], order)
            out = {"level": key, "weight_one": "PASS" if okk else "FAIL"}
            yield (out if okk else dict(out, mismatch_at=str(m))), okk


def _clausen_and_gf(order: int):
    """The Clausen-type identities on the sporadic set through x^order and
    the level-14/15 generating-function independence through w^6, as
    [(triple, asz ok, ctyz ok)] and [(level, ok)]; callers shape the rows."""
    from . import series

    clausen = [(trip, series.verify_asz(*trip, order=order)[0],
                series.verify_ctyz(*trip, order=order)[0])
               for trip in catalog.SPORADIC_SET]
    gf = [(level, series.verify_gf_independence(level, 6)[0]) for level in (14, 15)]
    return clausen, gf


def _sweep_report(command: str, parameters: dict, order: int, pairs) -> RunReport:
    """A sweep's report from its (row, ok) pairs: PASS only if every row is."""
    pairs = list(pairs)
    return RunReport(command, parameters, "PASS" if all(ok for _, ok in pairs) else "FAIL",
                     {"order": order, "rows": [row for row, _ in pairs]})


def verify_all(order: int = 30) -> RunReport:
    """The full verification sweep: differentiation formula and ODE on every
    level row, the six weight-one rows, the identity bank, the Clausen-type
    identities on the sporadic set, and the generating-function independence
    at levels 14 and 15.  Aggregate PASS only if every check passes."""
    from . import qseries

    pairs = list(_qseries_rows(list(catalog.LEVEL_ROWS) + sorted(catalog.ZAGIER_ROWS), order))
    for name in sorted(qseries.IDENTITY_BANK):
        okk, m = qseries.verify_identity_bank(name, order)
        row = {"level": "identity:" + name, "identity": "PASS" if okk else "FAIL"}
        pairs.append((row if okk else dict(row, mismatch_at=str(m)), okk))
    clausen, gf = _clausen_and_gf(min(order, 30))
    for trip, ok_a, ok_c in clausen:
        pairs.append(({"level": "clausen:%s" % (trip,), "asz": "PASS" if ok_a else "FAIL",
                       "ctyz": "PASS" if ok_c else "FAIL"}, ok_a and ok_c))
    for level, okk in gf:
        pairs.append(({"level": "gf-independence:%d" % level,
                       "identity": "PASS" if okk else "FAIL"}, okk))
    return _sweep_report("verify-qseries", {"order": order, "all": True}, order, pairs)


def cmd_verify_qseries(args) -> RunReport:
    order = args.order
    if args.all:
        return verify_all(order)
    level = catalog.ALIASES.get(args.level, args.level)
    keys = [level] if level else list(catalog.LEVEL_ROWS)
    if level and level not in catalog.LEVEL_ROWS.keys() | catalog.ZAGIER_ROWS.keys():
        raise catalog.UnknownKeyError("unknown level key %r" % (args.level,))
    return _sweep_report("verify-qseries", {"order": order, "level": args.level, "all": args.all},
                         order, _qseries_rows(keys, order))


def cmd_verify_identities(args) -> RunReport:
    from . import qseries

    order = args.order
    pairs = []
    for name in [args.name] if args.name else sorted(qseries.IDENTITY_BANK):
        okk, m = qseries.verify_identity_bank(name, order)
        row = {"identity": name, "status": "PASS" if okk else "FAIL"}
        pairs.append((row if okk else dict(row, mismatch_at=str(m)), okk))
    if not args.name:
        clausen, gf = _clausen_and_gf(order)
        for trip, ok_a, ok_c in clausen:
            pairs += [({"identity": "clausen-%s%s" % (kind, trip),
                        "status": "PASS" if okk else "FAIL"}, okk)
                      for kind, okk in (("asz", ok_a), ("ctyz", ok_c))]
        pairs += [({"identity": "gf-independence-%d" % level,
                    "status": "PASS" if okk else "FAIL"}, okk) for level, okk in gf]
    return _sweep_report("verify-identities", {"order": order, "name": args.name},
                         order, pairs)


# ---------------------------------------------------------------------------
# congruence commands
# ---------------------------------------------------------------------------


def _prime(text: str) -> int:
    p = int(text)
    try:
        prime = congruence.is_prime(p)
    except ValueError as exc:  # at or above the Miller-Rabin bound
        raise argparse.ArgumentTypeError(str(exc)) from None
    if not prime:
        raise argparse.ArgumentTypeError("%d is not prime" % p)
    return p


def _primes(text: str) -> List[int]:
    """"2,3,5" or "2..101" (primes in the inclusive range, hi <= SIEVE_CAP)."""
    if ".." in text:
        lo, hi = (int(t) for t in text.split(".."))
        if hi > congruence.SIEVE_CAP:
            raise argparse.ArgumentTypeError(
                "range end %d is above the sieve cap %d" % (hi, congruence.SIEVE_CAP))
        primes = [p for p in congruence.primes_below(hi + 1) if p >= lo]
    else:
        primes = [_prime(t) for t in text.split(",") if t]
        for i, p in enumerate(primes):
            if p in primes[:i]:
                raise argparse.ArgumentTypeError("prime %d is listed twice" % p)
    if not primes:
        raise argparse.ArgumentTypeError("no primes in %r" % text)
    return primes


def _positive_int(text: str) -> int:
    k = int(text)
    if k < 1:
        raise argparse.ArgumentTypeError("must be >= 1, got %d" % k)
    return k


def _nonnegative_int(text: str) -> int:
    k = int(text)
    if k < 0:
        raise argparse.ArgumentTypeError("must be >= 0, got %d" % k)
    return k


def _digits(text: str) -> int:
    k = int(text)
    if k < 30:
        raise argparse.ArgumentTypeError("must be >= 30, got %d" % k)
    return k


def cmd_lucas(args) -> RunReport:
    primes = args.primes or [args.prime]
    reports = congruence.lucas_scan_many(args.seq, primes, args.nmax)
    rows = [r.to_json() for r in reports]
    ok = all(r.ok for r in reports)
    return RunReport("lucas", {"seq": args.seq, "primes": primes, "nmax": args.nmax},
                     "PASS" if ok else "FAIL", {"rows": rows})


def cmd_supercong(args) -> RunReport:
    pattern = congruence.PATTERNS[args.pattern] if args.pattern else None
    rep = congruence.supercongruence_check(args.seq, args.prime, args.exp,
                                           args.nmax, pattern)
    return RunReport(
        "supercong",
        {"seq": args.seq, "p": args.prime, "e": args.exp, "nmax": args.nmax,
         "pattern": args.pattern},
        "PASS" if rep.ok else "FAIL", rep.to_json())


def cmd_scan(args) -> RunReport:
    counts = congruence.scan_c_counts(args.seq, args.primes, args.nmax)
    payload = {"seq": catalog.sequence(args.seq).key, "n_max": args.nmax,
               "counts": {str(p): counts[p] for p in sorted(counts)}}
    return RunReport("scan", {"seq": args.seq, "primes": args.primes,
                              "nmax": args.nmax}, "DATA", payload)


# ---------------------------------------------------------------------------
# asymptotics
# ---------------------------------------------------------------------------


def cmd_asymptotics(args) -> RunReport:
    from . import asymptotics

    cfg = asymptotics.PrecisionConfig(digits=args.digits, terms=args.terms,
                                      diff_order=args.diffs)
    params = asymptotics.analyze(args.seq, cfg, with_C=not args.no_constant)
    digits = args.digits
    payload = {
        "seq": catalog.sequence(args.seq).key,
        "R": asymptotics.nstr(params.R, digits),
        "alpha": "-3/2",
        "b1": asymptotics.nstr(params.b1, digits),
        "certificates": asymptotics.certificate_strings(params.certificate),
    }
    if params.R_exact is not None:
        payload["R_exact"] = scalar_to_str(params.R_exact)
    if params.b1_exact is not None:
        payload["b1_exact"] = scalar_to_str(params.b1_exact)
    if params.C is not None:
        payload["C"] = asymptotics.nstr(params.C, digits)
        payload["C_error"] = asymptotics.nstr(params.C_error, 5)
    return RunReport("asymptotics",
                     {"seq": args.seq, "terms": args.terms, "diffs": args.diffs,
                      "digits": digits},
                     "DATA", payload)


# ---------------------------------------------------------------------------
# reproduce
# ---------------------------------------------------------------------------

# the terms checked against each weight row's closed-form oracle
ORACLE_TERMS = 10


def _weight_rows(table: Dict, verifier: str):
    """Each row's terms against its oracle, and qseries.<verifier> on it."""
    from . import qseries

    verify = getattr(qseries, verifier)
    for key, row in sorted(table.items()):
        seq = catalog.sequence(key)
        terms = seq.terms(ORACLE_TERMS)
        oracle_ok = all(seq.oracle(n) == terms[n] for n in range(ORACLE_TERMS + 1))
        mod_ok, _ = verify(row, 14)
        yield ({"row": key, "oracle": "PASS" if oracle_ok else "FAIL",
                "modular": "PASS" if mod_ok else "FAIL"}, oracle_ok and mod_ok)


def _levels_xz_rows():
    from . import qseries

    for key in catalog.TABLE_LEVEL_KEYS:
        X, Z = qseries.build_xz(catalog.LEVEL_ROWS[key], 8)
        got = qseries.expansion_coefficients(Z, X, 8)
        seq = catalog.sequence(key)
        want = seq.terms(8)
        ok = all(a == b for a, b in zip(got, want))
        if seq.oracle:
            ok &= all(seq.oracle(n) == want[n] for n in range(9))
        yield {"row": key}, ok


def _levels_bh_rows(order: int):
    for r, ok in _qseries_rows(list(catalog.LEVEL_ROWS), order):
        yield {"row": r["level"]}, ok


def _fourterm_rows():
    for key, want in sorted(catalog.REFERENCE_FOURTERM_PARAMS.items()):
        seq = catalog.sequence(key)
        got = fourterm_params(seq.G, seq.H)
        yield {"row": key, "params": [scalar_to_str(x) for x in got]}, tuple(got) == tuple(want)


def _level_terms_rows(level: int):
    for key in ("level%dA" % level, "level%dB" % level, "%dC" % level):
        yield {"row": key}, catalog.sequence(key).terms(10) == catalog.REFERENCE_TERMS[key]
    bar = catalog.sequence("%dCbar" % level).terms(10)
    yield ({"row": "%dCbar (conjugate)" % level},
           all(conj(a) == b for a, b in zip(catalog.REFERENCE_TERMS["%dC" % level], bar)))


def _asymptotic_rows():
    from . import asymptotics

    cfg = asymptotics.PrecisionConfig()
    for key, ref in sorted(catalog.REFERENCE_ASYMPTOTICS.items()):
        pr = asymptotics.analyze(key, cfg)
        if "R" in ref:
            cells = {"R": pr.R_exact == ref["R"], "b1": pr.b1_exact == ref["b1"]}
        else:  # the committed decimals are rounded at 7 significant digits
            cells = {"R": asymptotics.nstr(pr.R, 7) == ref["R_decimal"],
                     "b1": asymptotics.nstr(pr.b1, 7) == ref["b1_decimal"]}
        cells["C"] = asymptotics.C_matches_conjecture(key, pr.C)
        yield ({"row": key, "cells": {k: "PASS" if v else "FAIL" for k, v in cells.items()},
                "C": asymptotics.nstr(pr.C, 10)}, all(cells.values()))


def _cp_count_rows(nmax: int, primes: List[int]):
    counts = congruence.scan_c_counts("level11", primes, nmax)
    for p in sorted(counts):
        # the committed counts are for the n <= 1000 window only
        want = catalog.REFERENCE_CP_COUNTS.get(p) if nmax == 1000 else None
        yield ({"row": "c(%d)" % p, "count": counts[p], "expected": want},
               None if want is None else counts[p] == want)


# table id -> (row builder, {option it reads: default}); a builder yields
# (row, ok), with ok None for a row that has no committed value to compare
REPRODUCE = {
    "zagier-table": (lambda: _weight_rows(catalog.ZAGIER_ROWS, "verify_weight_one"), {}),
    "apery-table": (lambda: _weight_rows(catalog.WEIGHT2_ROWS, "verify_weight_two"), {}),
    "levels-XZ": (_levels_xz_rows, {}),
    "levels-BH": (_levels_bh_rows, {"order": 30}),
    "fourterm-params": (_fourterm_rows, {}),
    "terms-14": (lambda: _level_terms_rows(14), {}),
    "terms-15": (lambda: _level_terms_rows(15), {}),
    "asymptotic-params": (_asymptotic_rows, {}),
    "cp-counts": (_cp_count_rows, {"nmax": 1000, "primes": (2, 3, 5, 7, 11, 13, 59)}),
}
_CLI_OPTION_TYPES = {"order": _positive_int, "nmax": _positive_int, "primes": _primes}


def _unread_options(table_id: str, options: dict) -> List[str]:
    """The options given (not None) that the table does not read."""
    return [name for name, value in options.items()
            if value is not None and name not in REPRODUCE[table_id][1]]


def reproduce(table_id: str, **options) -> RunReport:
    """Regenerate a committed table and diff it.  The table reads the
    options its REPRODUCE entry lists (None means the default listed there)
    and records them in the parameters; any other option raises ValueError.
    A row with no committed value to compare is DATA, and the outcome is
    FAIL if a row failed, else DATA if a row is DATA, else PASS."""
    if table_id not in REPRODUCE:
        raise catalog.UnknownKeyError("unknown table id %r" % (table_id,))
    unread = _unread_options(table_id, options)
    if unread:
        raise ValueError("reproduce %s does not read %s" % (table_id, ", ".join(unread)))
    build, defaults = REPRODUCE[table_id]
    read = {name: default if options.get(name) is None else options[name]
            for name, default in defaults.items()}
    # a sequence is recorded as a list of its own
    read = {k: v if isinstance(v, (int, str)) else list(v) for k, v in read.items()}
    rows = [dict(row, status="DATA" if ok is None else "PASS" if ok else "FAIL")
            for row, ok in build(**read)]
    bad = [r for r in rows if r["status"] == "FAIL"]
    outcome = "FAIL" if bad else "DATA" if any(r["status"] == "DATA" for r in rows) else "PASS"
    return RunReport("reproduce", dict(table=table_id, **read), outcome,
                     {"rows": rows, "mismatches": bad})


def _cli_options(args) -> dict:
    return {name: getattr(args, name) for name in _CLI_OPTION_TYPES}


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def _late(name: str):
    """The command called name in this module, looked up when it runs, so
    the one parser a process builds reaches a function replaced later."""
    return lambda args: globals()[name](args)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="aperylike",
        description="Exact computation and verification for Apery-like "
                    "sequences: term streams, q-series identities, congruence "
                    "scans, and asymptotics.")
    ap.add_argument("--format", choices=("json", "csv"), default="json")
    sub = ap.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("terms", help="print T(0..n) exactly")
    which = p.add_mutually_exclusive_group(required=True)
    which.add_argument("--seq")
    which.add_argument("--def-file", help="JSON sequence definition file")
    p.add_argument("--nmax", type=_nonnegative_int, default=10)
    p.set_defaults(func=_late("cmd_terms"))

    p = sub.add_parser("catalog", help="list or export catalog entries")
    which = p.add_mutually_exclusive_group()
    which.add_argument("--key")
    which.add_argument("--export", action="store_true")
    p.set_defaults(func=_late("cmd_catalog"))

    p = sub.add_parser("verify-qseries",
                       help="check the differentiation formula and ODE rows")
    which = p.add_mutually_exclusive_group()
    which.add_argument("--level", help="one catalog level key")
    which.add_argument("--all", action="store_true", help="include weight-one rows")
    p.add_argument("--order", type=_positive_int, default=30)
    p.set_defaults(func=_late("cmd_verify_qseries"))

    p = sub.add_parser("verify-identities",
                       help="check the named q-series identity bank and the "
                            "Clausen-type series identities")
    p.add_argument("--name", help="a single identity from the bank")
    p.add_argument("--order", type=_positive_int, default=30)
    p.set_defaults(func=_late("cmd_verify_identities"))

    p = sub.add_parser("lucas", help="Lucas congruence scan")
    p.add_argument("--seq", required=True)
    which = p.add_mutually_exclusive_group(required=True)
    which.add_argument("--prime", type=_prime)
    which.add_argument("--primes", type=_primes, help='"2,3,5" or "2..97"')
    p.add_argument("--nmax", type=_positive_int, default=2000)
    p.set_defaults(func=_late("cmd_lucas"))

    p = sub.add_parser("supercong", help="T(pn) = T(n) mod p^e scan")
    p.add_argument("--seq", required=True)
    p.add_argument("--prime", type=_prime, required=True)
    p.add_argument("--exp", type=_positive_int, default=2)
    p.add_argument("--nmax", type=_positive_int, default=1000)
    p.add_argument("--pattern", choices=sorted(congruence.PATTERNS))
    p.set_defaults(func=_late("cmd_supercong"))

    p = sub.add_parser("scan", help="c(p) counts over a prime range")
    p.add_argument("--seq", default="level11")
    p.add_argument("--primes", type=_primes, required=True)
    p.add_argument("--nmax", type=_positive_int, default=1000)
    p.set_defaults(func=_late("cmd_scan"))

    p = sub.add_parser("asymptotics", help="R, b1 and the constant C")
    p.add_argument("--seq", required=True)
    p.add_argument("--terms", type=_positive_int, default=2000)
    p.add_argument("--diffs", type=_positive_int, default=8)
    p.add_argument("--digits", type=_digits, default=60)
    p.add_argument("--no-constant", action="store_true")
    p.set_defaults(func=_late("cmd_asymptotics"))

    p = sub.add_parser("reproduce", help="regenerate a committed table and diff")
    p.add_argument("table", choices=list(REPRODUCE))
    for name, kind in _CLI_OPTION_TYPES.items():
        p.add_argument("--" + name, type=kind, help="read by " + "; ".join(
            "%s, default %s" % (table_id, defaults[name])
            for table_id, (_, defaults) in REPRODUCE.items() if name in defaults))
    p.set_defaults(func=lambda args: reproduce(args.table, **_cli_options(args)))

    return ap


@cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built on the first call and reused by every later one."""
    return build_parser()


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _parser()
    args = parser.parse_args(argv)
    if args.cmd == "asymptotics" and args.terms <= 10 * args.diffs:
        parser.error("asymptotics: --terms %d must be > 10 * --diffs %d"
                     % (args.terms, args.diffs))
    if args.cmd == "reproduce":
        unread = _unread_options(args.table, _cli_options(args))
        if unread:
            parser.error("reproduce %s does not read --%s" % (args.table, unread[0]))
    # exact terms run past the 4,300-digit default of int -> str conversion;
    # the caller's limit is back in place on every return
    get_int_max_str_digits = getattr(sys, "get_int_max_str_digits", None)
    if get_int_max_str_digits is None:
        return _run(args)
    limit = get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return _run(args)
    finally:
        sys.set_int_max_str_digits(limit)


def _run(args) -> int:
    """Run the parsed command and emit its report; the exit code."""
    t0 = time.perf_counter()
    try:
        report = args.func(args)
    except catalog.UnknownKeyError as exc:
        print(json.dumps({"error": str(exc)}), file=sys.stderr)
        return 2
    except InexactDivision as exc:
        print(json.dumps({"error": str(exc), "index": exc.index}), file=sys.stderr)
        return 1
    except (ValueError, ArithmeticError, ChildProcessError) as exc:
        print(json.dumps({"error": str(exc)}), file=sys.stderr)
        return 1
    report.wall_time = time.perf_counter() - t0
    try:
        code = _emit(report, args.format)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader closed stdout, so the report was not delivered; what is
        # still buffered goes to devnull, so the final flush at exit is quiet
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1


if __name__ == "__main__":
    sys.exit(main())
