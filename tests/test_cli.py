import ast
import contextlib
import csv
import io
import json
import os
import re
import shlex
import subprocess
import sys
import tempfile
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import aperylike
from aperylike import catalog, cli, congruence, qseries, series
from aperylike.cli import build_parser, main, reproduce


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run_cli(capsys, *argv)
    return code, json.loads(out)


def test_terms_level11(capsys):
    code, doc = run_json(capsys, "terms", "--seq", "level11", "--nmax", "10")
    assert code == 0 and doc["outcome"] == "DATA"
    assert doc["payload"]["terms"][-1] == "18200713168"


def test_terms_beyond_the_int_string_digit_limit(capsys):
    code, doc = run_json(capsys, "terms", "--seq", "level11", "--nmax", "3600")
    assert code == 0
    last = catalog.sequence("level11").terms(3600)[-1]
    assert last > 10 ** 4300
    # main gives the caller's limit back, so reading the term back lifts it here
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        assert int(doc["payload"]["terms"][-1]) == last
    finally:
        sys.set_int_max_str_digits(limit)


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                    reason="no int -> str digit limit before Python 3.10.7")
@pytest.mark.parametrize("argv, code", [
    (["catalog"], 0),
    (["terms", "--def-file", "{tmp}/missing.json"], 1),
    (["catalog", "--key", "bogus"], 2),
], ids=["exit-0", "exit-1", "exit-2"])
def test_main_restores_the_callers_int_string_digit_limit(argv, code, tmp_path, capsys):
    before = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(5000)
    try:
        assert main([a.format(tmp=tmp_path) for a in argv]) == code
        assert sys.get_int_max_str_digits() == 5000
    finally:
        sys.set_int_max_str_digits(before)


def test_terms_13scaled_and_15C(capsys):
    code, doc = run_json(capsys, "terms", "--seq", "13scaled", "--nmax", "10")
    assert doc["payload"]["terms"][-1] == "657035290739412"
    code, doc = run_json(capsys, "terms", "--seq", "15C", "--nmax", "3")
    assert doc["payload"]["terms"] == ["1", "2+2*sqrt(-1)", "6+8*sqrt(-1)",
                                       "44+52*sqrt(-1)"]


def test_terms_csv(capsys):
    code, out = run_cli(capsys, "--format", "csv", "terms", "--seq", "apery",
                        "--nmax", "3")
    assert code == 0
    assert out.splitlines() == ["n,value", "0,1", "1,5", "2,73", "3,1445"]


def test_terms_def_file(tmp_path, capsys):
    sdef = catalog.sequence("level24")
    path = tmp_path / "seq.json"
    path.write_text(json.dumps(sdef.to_json()))
    code, doc = run_json(capsys, "terms", "--def-file", str(path), "--nmax", "4")
    assert doc["payload"]["terms"] == ["1", "2", "10", "44", "250"]


def test_def_files_match_catalog_keys(tmp_path, capsys):
    docs = catalog.export_definitions()
    assert len(docs) == 38
    path = tmp_path / "seq.json"
    for d in docs:
        path.write_text(json.dumps(d))
        code, by_file = run_json(capsys, "terms", "--def-file", str(path), "--nmax", "8")
        assert code == 0
        code, by_key = run_json(capsys, "terms", "--seq", d["name"], "--nmax", "8")
        assert code == 0
        assert by_file["payload"] == by_key["payload"], d["name"]


def test_unknown_key_exit_code(capsys):
    code = main(["terms", "--seq", "bogus"])
    assert code == 2


@pytest.mark.parametrize("argv, message", [
    (["terms", "--seq", "bogus"], "unknown sequence key 'bogus'"),
    (["verify-identities", "--name", "bogus"], "unknown identity 'bogus'"),
    (["catalog", "--key", "bogus"], "unknown catalog key 'bogus'"),
    # an alias of a weight-two row is no level key
    (["verify-qseries", "--level", "apery"], "unknown level key 'apery'"),
])
def test_unknown_key_error_is_the_bare_message(argv, message, capsys):
    assert main(argv) == 2
    assert capsys.readouterr().err == json.dumps({"error": message}) + "\n"


@pytest.mark.parametrize("argv", [
    ["lucas", "--seq", "14C", "--primes", "3", "--nmax", "12"],
    ["reproduce", "fourterm-params"],
])
def test_csv_rows_have_the_header_width(argv, capsys):
    code, out = run_cli(capsys, "--format", "csv", *argv)
    header, *rows = list(csv.reader(io.StringIO(out)))
    assert rows and all(len(row) == len(header) for row in rows)


def test_catalog_show_and_export(capsys):
    code, doc = run_json(capsys, "catalog", "--key", "level8")
    assert "corrected" in doc["payload"]
    code, doc = run_json(capsys, "catalog", "--export")
    assert any(d["name"] == "level11" for d in doc["payload"]["definitions"])


def test_catalog_key_resolves_aliases(capsys):
    code, doc = run_json(capsys, "catalog", "--key", "apery")
    assert code == 0 and doc["payload"]["key"] == "weight2-6A"


@pytest.mark.parametrize("alias, key", [("14A", "level14A"), ("11", "level11"),
                                        ("franel", "zagier6C")])
def test_verify_qseries_level_resolves_aliases(alias, key, capsys):
    code, by_alias = run_json(capsys, "verify-qseries", "--level", alias, "--order", "5")
    assert code == 0
    code, by_key = run_json(capsys, "verify-qseries", "--level", key, "--order", "5")
    assert by_alias["payload"]["rows"] == by_key["payload"]["rows"]
    assert by_alias["payload"]["rows"][0]["level"] == key


@pytest.mark.parametrize("alias, key", [("11", "level11"), ("T11", "level11"),
                                        ("14A", "level14A")])
@pytest.mark.parametrize("argv", [
    ["supercong", "--prime", "3", "--exp", "2", "--nmax", "5"],
    ["scan", "--primes", "2,3", "--nmax", "5"],
    ["asymptotics", "--terms", "200", "--diffs", "4", "--no-constant"],
], ids=["supercong", "scan", "asymptotics"])
def test_payloads_name_the_resolved_key(alias, key, argv, capsys):
    # the payload names the row that ran; the parameters echo the input
    code_alias, by_alias = run_json(capsys, argv[0], "--seq", alias, *argv[1:])
    code_key, by_key = run_json(capsys, argv[0], "--seq", key, *argv[1:])
    assert code_alias == code_key
    assert by_alias["payload"] == by_key["payload"]
    assert by_alias["payload"]["seq"] == key
    assert by_alias["parameters"]["seq"] == alias


def test_verify_qseries_single_level(capsys):
    code, doc = run_json(capsys, "verify-qseries", "--level", "level4",
                         "--order", "12")
    assert code == 0 and doc["outcome"] == "PASS"


def test_verify_identities_one(capsys):
    code, doc = run_json(capsys, "verify-identities", "--name", "jacobi-phi4",
                         "--order", "20")
    assert code == 0 and doc["outcome"] == "PASS"


def test_lucas_cli(capsys):
    code, doc = run_json(capsys, "lucas", "--seq", "level24", "--primes", "2,3,5",
                         "--nmax", "120")
    assert code == 0 and doc["outcome"] == "PASS"
    assert [r["p"] for r in doc["payload"]["rows"]] == [2, 3, 5]


def test_supercong_cli_with_pattern(capsys):
    code, doc = run_json(capsys, "supercong", "--seq", "level11", "--prime", "2",
                         "--exp", "6", "--nmax", "64", "--pattern", "level11-2adic")
    assert code == 0
    assert doc["payload"]["violations"] == []
    assert doc["payload"]["pattern_hits"][:3] == [1, 2, 3]


def test_scan_cli(capsys):
    code, doc = run_json(capsys, "scan", "--seq", "level11", "--primes", "2,3",
                         "--nmax", "60")
    assert code == 0
    assert doc["payload"]["counts"] == {"2": 60, "3": 20}


def test_asymptotics_cli(capsys):
    code, doc = run_json(capsys, "asymptotics", "--seq", "level15A",
                         "--terms", "300", "--diffs", "6")
    assert code == 0
    assert doc["payload"]["R_exact"] == "12"
    assert doc["payload"]["b1_exact"] == "-489/1000"
    assert doc["payload"]["C"].startswith("0.3732648")
    # --no-constant drops C and its error bound and nothing else
    code, bare = run_json(capsys, "asymptotics", "--seq", "level15A",
                          "--terms", "300", "--diffs", "6", "--no-constant")
    assert code == 0
    assert "C" not in bare["payload"] and "C_error" not in bare["payload"]
    assert bare["payload"] == {k: v for k, v in doc["payload"].items()
                               if k not in ("C", "C_error")}


def test_reproduce_fourterm(capsys):
    code, doc = run_json(capsys, "reproduce", "fourterm-params")
    assert code == 0 and doc["outcome"] == "PASS"
    rows = {r["row"]: r["params"] for r in doc["payload"]["rows"]}
    assert rows["14C"] == ["-7+8*sqrt(2)", "-4+4*sqrt(2)", "-205+168*sqrt(2)",
                           "-43+32*sqrt(2)", "-448+308*sqrt(2)"]


def test_payloads_are_deterministic(capsys):
    _, doc1 = run_json(capsys, "terms", "--seq", "14C", "--nmax", "8")
    _, doc2 = run_json(capsys, "terms", "--seq", "14C", "--nmax", "8")
    assert json.dumps(doc1["payload"], sort_keys=True) == \
        json.dumps(doc2["payload"], sort_keys=True)
    _, a1 = run_json(capsys, "asymptotics", "--seq", "level24",
                     "--terms", "200", "--diffs", "5")
    _, a2 = run_json(capsys, "asymptotics", "--seq", "level24",
                     "--terms", "200", "--diffs", "5")
    assert json.dumps(a1["payload"], sort_keys=True) == \
        json.dumps(a2["payload"], sort_keys=True)


def test_verify_all_aggregate(capsys):
    # a weaker order still passes (prefix of a passing check)
    code, doc = run_json(capsys, "verify-qseries", "--all", "--order", "8")
    assert code == 0 and doc["outcome"] == "PASS"
    kinds = {r["level"].split(":")[0] for r in doc["payload"]["rows"]}
    assert {"level4", "identity", "clausen", "gf-independence"} <= kinds


def test_reproduce_rejects_unknown_table():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["reproduce", "nope"])


def test_reproduce_terms_tables():
    rep = reproduce("terms-14")
    assert rep.outcome == "PASS"
    rep = reproduce("terms-15")
    assert rep.outcome == "PASS"


@pytest.mark.parametrize("table, options, unread", [
    ("terms-14", {"order": 2, "nmax": 5, "primes": [4]}, "order, nmax, primes"),
    ("levels-XZ", {"primes": [5]}, "primes"),
    ("levels-BH", {"nmax": 3}, "nmax"),
    ("cp-counts", {"order": 3}, "order"),
    ("cp-counts", {"bogus": 1}, "bogus"),
])
def test_library_reproduce_rejects_options_its_table_does_not_read(table, options, unread):
    # the library reads the same option table as the CLI parser
    with pytest.raises(ValueError, match="reproduce %s does not read %s$" % (table, unread)):
        reproduce(table, **options)


def test_the_command_line_parses_every_option_a_table_reads():
    read = {name for _, defaults in cli.REPRODUCE.values() for name in defaults}
    assert read == set(cli._CLI_OPTION_TYPES)


def test_library_reproduce_takes_the_options_its_table_reads():
    rep = reproduce("cp-counts", nmax=20, primes=[3, 2])
    assert rep.outcome == "DATA"  # no committed counts at n <= 20
    assert rep.parameters == {"table": "cp-counts", "nmax": 20, "primes": [3, 2]}
    with pytest.raises(ValueError, match="4 is not prime"):
        reproduce("cp-counts", primes=[4, 6])
    with pytest.raises(catalog.UnknownKeyError):
        reproduce("nope", order=3)


def test_cp_counts_with_nothing_to_compare_is_data_not_pass(monkeypatch, capsys):
    code, doc = run_json(capsys, "reproduce", "cp-counts", "--nmax", "20", "--primes", "2,103")
    assert code == 0 and doc["outcome"] == "DATA"
    assert [r["status"] for r in doc["payload"]["rows"]] == ["DATA", "DATA"]
    assert doc["payload"]["mismatches"] == []
    # 103 has no committed count at n <= 1000 either, 2 does; a small prime
    # whose count is taken out reaches that branch without the long p = 103 scan
    assert 103 not in catalog.REFERENCE_CP_COUNTS
    monkeypatch.delitem(catalog.REFERENCE_CP_COUNTS, 3)
    rep = reproduce("cp-counts", nmax=1000, primes=[2, 3])
    assert rep.outcome == "DATA"
    assert [r["status"] for r in rep.payload["rows"]] == ["PASS", "DATA"]


def test_reproduce_rejects_an_empty_prime_list():
    # None selects the seven default primes; an empty list is not None
    with pytest.raises(ValueError, match="^no primes given$"):
        reproduce("cp-counts", nmax=5, primes=[])


def _readme_text():
    readme = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                          "README.md")
    with open(readme, encoding="utf-8") as fh:
        return fh.read()


def _readme_command_lines():
    block = _readme_text().split("## Command line", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    return [line.split(" #", 1)[0].strip() for line in block.splitlines()
            if line.startswith("aperylike ")]


def test_readme_lists_every_reproduce_table_and_its_options():
    block = _readme_text().split("| table | options it reads (default) |", 1)[1].split("\n\n", 1)[0]
    rows = [line.split("|")[1:3] for line in block.splitlines()[2:]]
    tables = [re.fullmatch(r" `(.+)` ", table).group(1) for table, _ in rows]
    assert tables == sorted(cli.REPRODUCE)
    for table, (_, options) in zip(tables, rows):
        assert re.findall(r"`--(\w+)`", options) == list(cli.REPRODUCE[table][1]), table


def test_readme_command_examples_parse():
    lines = _readme_command_lines()
    assert len(lines) == 11
    parser = build_parser()
    for line in lines:
        argv = shlex.split(line)[1:]
        assert callable(parser.parse_args(argv).func), line


def test_readme_library_tour_runs_and_shows_its_commented_values(tmp_path, monkeypatch):
    # each bare expression in the tour that has a value is followed by a
    # comment that starts with that value (a list shows the str of its items)
    block = _readme_text().split("## Library quick tour", 1)[1].split("```python", 1)[1]
    block = block.split("```", 1)[0]
    lines = block.splitlines()
    monkeypatch.chdir(tmp_path)  # the tour writes seq.json
    namespace, shown = {}, []
    for stmt in ast.parse(block).body:
        if not isinstance(stmt, ast.Expr):
            exec(compile(ast.Module([stmt], []), "README.md", "exec"), namespace)
            continue
        value = eval(compile(ast.Expression(stmt.value), "README.md", "eval"), namespace)
        if value is None:
            continue
        text = "[%s]" % ", ".join(map(str, value)) if isinstance(value, list) else str(value)
        comment = lines[stmt.end_lineno - 1][stmt.end_col_offset:].strip()
        assert re.match(r"# %s($|[:;]| \()" % re.escape(text), comment), (text, comment)
        shown.append(text)
    assert shown == ["[1, 8, 216, 8000, 343000]", "[1, -4+4*sqrt(2), 56-32*sqrt(2)]",
                     "True", "True", "True", "-7/4+69/64*sqrt(2)"]


def test_terms_negative_nmax_fails_fast(capsys):
    # a subprocess under a timeout: an unchecked negative n_max never ends the stream
    src = os.path.dirname(os.path.dirname(os.path.abspath(aperylike.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-m", "aperylike.cli", "terms", "--seq", "level11", "--nmax", "-1"],
        capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 2
    assert "--nmax" in proc.stderr


def test_terms_accepts_nmax_zero(capsys):
    assert main(["terms", "--seq", "level11", "--nmax", "0"]) == 0
    assert json.loads(capsys.readouterr().out)["payload"]["terms"] == ["1"]


def test_def_file_errors_are_json(tmp_path, capsys):
    code = main(["terms", "--def-file", str(tmp_path / "missing.json")])
    assert code == 1
    assert "missing.json" in json.loads(capsys.readouterr().err)["error"]
    path = tmp_path / "partial.json"
    path.write_text(json.dumps({"name": "x", "ring": "Z", "G": ["1"]}))
    assert main(["terms", "--def-file", str(path)]) == 1
    assert "lacks H" in json.loads(capsys.readouterr().err)["error"]
    path.write_text(json.dumps({"name": "x", "ring": "quad:abc", "G": ["1"], "H": ["0"]}))
    assert main(["terms", "--def-file", str(path)]) == 1
    error = json.loads(capsys.readouterr().err)["error"]
    assert "'ring'" in error and "'quad:abc'" in error


def test_a_zero_denominator_in_a_def_file_is_named(tmp_path, capsys):
    path = tmp_path / "def.json"
    path.write_text(json.dumps({"name": "x", "ring": "Z", "G": ["1", "1/0"], "H": ["0"]}))
    assert main(["terms", "--def-file", str(path)]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    (line,) = err.splitlines()
    assert "'1/0': zero denominator" in json.loads(line)["error"]


def test_inexact_division_exits_1_with_its_index(tmp_path, capsys):
    # G = 1, H = n: over Q the terms run 1, 1, 3/8, so T(2) is not in Z
    path = tmp_path / "def.json"
    path.write_text(json.dumps({"name": "x", "ring": "Z", "G": ["1"], "H": ["0", "1"]}))
    assert main(["terms", "--def-file", str(path)]) == 1
    assert capsys.readouterr().err == \
        '{"error": "inexact division at index 2", "index": 2}\n'


def test_inexact_division_part_way_prints_no_terms(tmp_path, capsys):
    # the stream fails at index 2 of 10, after two terms were converted
    path = tmp_path / "def.json"
    path.write_text(json.dumps({"name": "x", "ring": "Z", "G": ["1"], "H": ["0", "1"]}))
    assert main(["terms", "--def-file", str(path), "--nmax", "10"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert json.loads(err) == {"error": "inexact division at index 2", "index": 2}


def test_terms_are_converted_as_they_are_streamed(monkeypatch, capsys):
    from aperylike import recurrence

    events = []
    stream, to_str = recurrence.term_iterator, cli.scalar_to_str

    def logged_stream(*args):
        for term in stream(*args):
            events.append("term")
            yield term
    monkeypatch.setattr(recurrence, "term_iterator", logged_stream)
    monkeypatch.setattr(cli, "scalar_to_str", lambda x: events.append("str") or to_str(x))
    code, doc = run_json(capsys, "terms", "--seq", "level11", "--nmax", "4")
    assert code == 0 and doc["payload"]["terms"] == ["1", "4", "28", "268", "3004"]
    assert events == ["term", "str"] * 5


def test_the_json_report_is_written_as_it_is_encoded():
    # the indented text of a long payload is never held whole beside it
    import tracemalloc

    argv = ["terms", "--seq", "level13", "--nmax", "2000"]
    args = build_parser().parse_args(argv)

    def peak(run):
        with open(os.devnull, "w") as devnull, contextlib.redirect_stdout(devnull):
            run()  # the row is built and cached before the traced run
            tracemalloc.start()
            try:
                run()
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
    assert peak(lambda: main(argv)) <= 1.25 * peak(lambda: cli.cmd_terms(args))


# a worker that ends without a result, as a kill -9 on it leaves the parent
LOST_WORKER = """
import sys
from aperylike import cli, congruence

def lost(run, primes):
    raise ChildProcessError("the worker for primes [59] ended without a result "
                            "(wait status 9)")
congruence._fan_out = lost
sys.exit(cli.main(sys.argv[1:]))
"""


@pytest.mark.parametrize("argv", [["scan", "--primes", "2,59", "--nmax", "10"],
                                  ["reproduce", "cp-counts", "--nmax", "10"]])
def test_a_lost_worker_exits_1_with_one_json_line(argv):
    src = os.path.dirname(os.path.dirname(os.path.abspath(aperylike.__file__)))
    proc = subprocess.run([sys.executable, "-c", LOST_WORKER] + argv, capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=src), timeout=60)
    assert proc.returncode == 1
    assert proc.stdout == "" and "Traceback" not in proc.stderr
    (line,) = proc.stderr.splitlines()
    assert json.loads(line) == {"error": "the worker for primes [59] ended without a result "
                                         "(wait status 9)"}


def test_huge_quad_radicand_fails_fast(tmp_path, capsys):
    # a subprocess under a timeout first: trial division to sqrt(d) would not end
    path = tmp_path / "def.json"
    path.write_text(json.dumps({"name": "x", "ring": "quad:1000000000000000003",
                                "G": ["1", "-64"], "H": ["0", "8"]}))
    argv = ["terms", "--def-file", str(path), "--nmax", "1"]
    src = os.path.dirname(os.path.dirname(os.path.abspath(aperylike.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-m", "aperylike.cli"] + argv,
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 1
    assert "1000000000000" in json.loads(proc.stderr)["error"]
    t0 = time.perf_counter()
    assert main(argv) == 1
    assert time.perf_counter() - t0 < 1
    assert "1000000000000" in json.loads(capsys.readouterr().err)["error"]


@pytest.mark.parametrize("doc, field", [
    ({"name": "x", "ring": "Z", "G": 5, "H": ["0"]}, "'G'"),
    ({"name": "x", "ring": "Z", "G": [1, -64], "H": ["0"]}, "'G'"),
    ({"name": "x", "ring": "Z", "G": ["1"], "H": "0"}, "'H'"),
    ({"name": "x", "ring": 7, "G": ["1"], "H": ["0"]}, "'ring'"),
    ({"name": ["x"], "ring": "Z", "G": ["1"], "H": ["0"]}, "'name'"),
    ({"name": "x", "ring": "Q", "G": ["1", "sqrt(2)"], "H": ["0"]}, "'G'"),
    ({"name": "x", "ring": "Z", "G": ["1"], "H": ["0"], "level": [1, 2]}, "'level'"),
])
def test_malformed_def_fields_are_named(doc, field, tmp_path, capsys):
    path = tmp_path / "def.json"
    path.write_text(json.dumps(doc))
    assert main(["terms", "--def-file", str(path), "--nmax", "3"]) == 1
    assert field in json.loads(capsys.readouterr().err)["error"]


_json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=4), inner,
                                                              max_size=3),
    max_leaves=8)
_scalar_texts = st.sampled_from(
    ["1", "0", "-3", "7/2", "1/0", "sqrt(2)", "1+sqrt(2)", "2-2*sqrt(-1)", "0*sqrt(2)",
     "x", ""])


@settings(max_examples=100, deadline=None)
@given(name=_json_values | st.text(max_size=8),
       ring=_json_values | st.sampled_from(["Z", "Q", "quad:2", "quad:-1", "quad:4", "quad:x"]),
       G=_json_values | st.lists(_scalar_texts | st.text(max_size=6), max_size=4),
       H=_json_values | st.lists(_scalar_texts | st.text(max_size=6), max_size=4))
def test_def_file_fuzz_never_raises(name, ring, G, H):
    doc = {"name": name, "ring": ring, "G": G, "H": H}
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "def.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["terms", "--def-file", path, "--nmax", "3"])
    if code == 0:
        assert json.loads(out.getvalue())["outcome"] == "DATA"
    else:
        assert code in (1, 2)
        assert "error" in json.loads(err.getvalue())


def test_the_parser_is_built_once_per_process(monkeypatch, capsys):
    cli._parser.cache_clear()
    built = []
    real = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or real())
    try:
        assert main(["catalog", "--key", "level11"]) == 0
        assert main(["catalog"]) == 0
        with pytest.raises(SystemExit):
            main(["catalog", "--nope"])
        assert built == [1]
    finally:
        cli._parser.cache_clear()


def test_internal_key_error_is_not_a_bad_key(monkeypatch):
    def broken(args):
        raise KeyError(7)
    monkeypatch.setattr(cli, "cmd_catalog", broken)
    with pytest.raises(KeyError):
        main(["catalog"])


@pytest.mark.parametrize("argv", [
    ["lucas", "--seq", "level24", "--prime", "4"],
    ["lucas", "--seq", "level24", "--primes", "4,6"],
    ["lucas", "--seq", "level24", "--primes", "2,9"],
    ["lucas", "--seq", "level24", "--primes", "24..28"],
    ["supercong", "--seq", "level11", "--prime", "6"],
    ["supercong", "--seq", "level11", "--prime", "2", "--exp", "0"],
    ["scan", "--primes", "2,4"],
])
def test_composite_primes_and_bad_exponents_are_rejected(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2


@pytest.mark.parametrize("argv, prime", [
    (["lucas", "--seq", "level11", "--primes", "3,3,2", "--nmax", "20"], 3),
    (["scan", "--primes", "2,5,7,5", "--nmax", "20"], 5),
    (["reproduce", "cp-counts", "--nmax", "20", "--primes", "13,2,13"], 13),
])
def test_a_prime_listed_twice_is_rejected(argv, prime, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "prime %d is listed twice" % prime in capsys.readouterr().err


@pytest.mark.parametrize("argv, message", [
    (["terms", "--nmax", "3"], "one of the arguments --seq --def-file is required"),
    (["terms", "--seq", "level11", "--def-file", "seq.json"], "not allowed with"),
    (["lucas", "--seq", "level11"], "one of the arguments --prime --primes is required"),
    (["lucas", "--seq", "level11", "--prime", "3", "--primes", "5"], "not allowed with"),
    (["verify-qseries", "--level", "level5", "--all"], "not allowed with"),
    (["catalog", "--key", "level5", "--export"], "not allowed with"),
])
def test_exclusive_argument_pairs_are_required(argv, message, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["verify-qseries", "--level", "level11", "--order", "-1"],
    ["verify-qseries", "--all", "--order", "0"],
    ["verify-identities", "--name", "phi-eta", "--order", "-3"],
    ["reproduce", "levels-BH", "--order", "0"],
    ["verify-qseries", "--jobs", "2"],
])
def test_meaningless_orders_and_removed_jobs_flag_are_rejected(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2


@pytest.mark.parametrize("argv", [
    ["reproduce", "zagier-table", "--nmax", "3", "--primes", "5", "--order", "2"],
    ["reproduce", "levels-XZ", "--primes", "5"],
    ["reproduce", "levels-BH", "--nmax", "3"],
    ["reproduce", "cp-counts", "--order", "3"],
])
def test_reproduce_rejects_options_its_table_does_not_read(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "does not read" in capsys.readouterr().err


@pytest.mark.parametrize("argv, parameters", [
    (["reproduce", "levels-BH", "--order", "4"], {"table": "levels-BH", "order": 4}),
    (["reproduce", "cp-counts", "--nmax", "20", "--primes", "3,2"],
     {"table": "cp-counts", "nmax": 20, "primes": [3, 2]}),
    (["reproduce", "terms-14"], {"table": "terms-14"}),
])
def test_reproduce_reports_the_options_its_table_reads(argv, parameters, capsys):
    code, doc = run_json(capsys, *argv)
    assert code == 0
    assert doc["parameters"] == parameters


@pytest.mark.parametrize("argv", [
    ["supercong", "--seq", "level11", "--prime", "400000000000000000000000"],
    ["scan", "--primes", "2,400000000000000000000000"],
])
def test_prime_beyond_the_primality_bound_names_the_bound(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "is not decided below %d" % congruence._MR_BOUND in err
    assert "invalid _prime value" not in err


def test_prime_range_cap_fires_before_the_sieve(monkeypatch, capsys):
    from aperylike import congruence

    def no_sieve(size):
        raise AssertionError("sieve allocated for %d candidates" % size)
    monkeypatch.setattr(congruence, "bytearray", no_sieve, raising=False)
    cap = congruence.SIEVE_CAP
    with pytest.raises(SystemExit) as exc:
        main(["scan", "--primes", "2..%d" % (cap + 1)])
    assert exc.value.code == 2
    assert "sieve cap" in capsys.readouterr().err
    with pytest.raises(ValueError):
        congruence.primes_below(cap + 2)
    with pytest.raises(ValueError):
        congruence.primes_below(10 ** 30)


@pytest.mark.parametrize("argv", [
    ["lucas", "--seq", "level11", "--prime", "5", "--nmax", "-3"],
    ["supercong", "--seq", "level11", "--prime", "5", "--nmax", "0"],
    ["scan", "--primes", "2,3", "--nmax", "-2"],
    ["reproduce", "cp-counts", "--nmax", "0"],
    ["asymptotics", "--seq", "level11", "--diffs", "0"],
    ["asymptotics", "--seq", "level11", "--diffs", "-1", "--terms", "200"],
])
def test_empty_scans_and_diff_orders_are_rejected(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2


@pytest.mark.parametrize("argv, message", [
    (["--digits", "0"], "--digits: must be >= 30"),
    (["--digits", "29"], "--digits: must be >= 30"),
    (["--terms", "0"], "--terms: must be >= 1"),
    (["--terms", "-5"], "--terms: must be >= 1"),
    (["--terms", "80"], "--terms 80 must be > 10 * --diffs 8"),
    (["--terms", "30", "--diffs", "3"], "--terms 30 must be > 10 * --diffs 3"),
])
def test_asymptotics_precision_bounds_are_parse_errors(argv, message, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["asymptotics", "--seq", "level11"] + argv)
    assert exc.value.code == 2
    assert message in capsys.readouterr().err


def test_closed_stdout_exits_quietly(monkeypatch, capsys):
    # a pipe whose reader is gone: every write to it raises BrokenPipeError
    read_fd, write_fd = os.pipe()
    os.close(read_fd)
    with open(write_fd, "w") as closed:
        monkeypatch.setattr(sys, "stdout", closed)
        code = main(["supercong", "--seq", "level11", "--prime", "5", "--nmax", "200"])
        monkeypatch.undo()
    assert code == 1
    assert capsys.readouterr().err == ""


# ---------------------------------------------------------------------------
# FAIL paths of the q-series sweeps: one verifier made to fail on one row
# ---------------------------------------------------------------------------


def _fail_on(monkeypatch, module, name, which, result):
    """Make module.name return result for the arguments which() accepts."""
    real = getattr(module, name)
    monkeypatch.setattr(module, name,
                        lambda *a, **kw: result if which(*a) else real(*a, **kw))


def _row(doc, field, key):
    (row,) = [r for r in doc["payload"]["rows"] if r[field] == key]
    return row


@pytest.mark.parametrize("argv", [("--level", "level5"), ()])
@pytest.mark.parametrize("result, cells", [
    (((False, Fraction(7)), (True, None)),
     {"diff_formula": "FAIL", "ode": "PASS", "diff_mismatch_at": "7"}),
    (((True, None), (False, Fraction(3))),
     {"diff_formula": "PASS", "ode": "FAIL", "ode_mismatch_at": "3"}),
])
def test_verify_qseries_reports_a_failing_level_row(argv, result, cells,
                                                    monkeypatch, capsys):
    _fail_on(monkeypatch, qseries, "verify_level_row",
             lambda row, order: row.key == "level5", result)
    code, doc = run_json(capsys, "verify-qseries", *argv, "--order", "10")
    assert code == 1 and doc["outcome"] == "FAIL"
    assert _row(doc, "level", "level5") == dict(level="level5", **cells)


@pytest.mark.parametrize("argv", [("--level", "zagier5"), ("--all",)])
def test_verify_qseries_reports_a_failing_weight_one_row(argv, monkeypatch, capsys):
    _fail_on(monkeypatch, qseries, "verify_weight_one",
             lambda row, order: row.key == "zagier5", (False, Fraction(4)))
    code, doc = run_json(capsys, "verify-qseries", *argv, "--order", "10")
    assert code == 1 and doc["outcome"] == "FAIL"
    assert _row(doc, "level", "zagier5") == \
        {"level": "zagier5", "weight_one": "FAIL", "mismatch_at": "4"}


@pytest.mark.parametrize("argv, field, key, row", [
    (("verify-identities",), "identity", "phi-eta",
     {"identity": "phi-eta", "status": "FAIL", "mismatch_at": "5"}),
    (("verify-identities", "--name", "phi-eta"), "identity", "phi-eta",
     {"identity": "phi-eta", "status": "FAIL", "mismatch_at": "5"}),
    (("verify-qseries", "--all"), "level", "identity:phi-eta",
     {"level": "identity:phi-eta", "identity": "FAIL", "mismatch_at": "5"}),
])
def test_sweeps_report_a_failing_bank_identity(argv, field, key, row,
                                               monkeypatch, capsys):
    _fail_on(monkeypatch, qseries, "verify_identity_bank",
             lambda name, order: name == "phi-eta", (False, Fraction(5)))
    code, doc = run_json(capsys, *argv, "--order", "10")
    assert code == 1 and doc["outcome"] == "FAIL"
    assert _row(doc, field, key) == row


@pytest.mark.parametrize("name, which, result, argv, field, row", [
    ("verify_asz", lambda *trip: trip == (11, 3, 1), (False, 6),
     ("verify-identities",), "identity",
     {"identity": "clausen-asz(11, 3, 1)", "status": "FAIL"}),
    ("verify_asz", lambda *trip: trip == (11, 3, 1), (False, 6),
     ("verify-qseries", "--all"), "level",
     {"level": "clausen:(11, 3, 1)", "asz": "FAIL", "ctyz": "PASS"}),
    ("verify_gf_independence", lambda level, order: level == 14, (False, "w^3"),
     ("verify-identities",), "identity",
     {"identity": "gf-independence-14", "status": "FAIL"}),
    ("verify_gf_independence", lambda level, order: level == 14, (False, "w^3"),
     ("verify-qseries", "--all"), "level",
     {"level": "gf-independence:14", "identity": "FAIL"}),
])
def test_sweeps_report_a_failing_clausen_or_gf_row(name, which, result, argv, field,
                                                   row, monkeypatch, capsys):
    _fail_on(monkeypatch, series, name, which, result)
    code, doc = run_json(capsys, *argv, "--order", "10")
    assert code == 1 and doc["outcome"] == "FAIL"
    assert _row(doc, field, row[field]) == row


def test_reproduce_levels_bh_reports_a_failing_level_row(monkeypatch, capsys):
    _fail_on(monkeypatch, qseries, "verify_level_row",
             lambda row, order: row.key == "level5", ((True, None), (False, Fraction(3))))
    code, doc = run_json(capsys, "reproduce", "levels-BH", "--order", "10")
    assert code == 1 and doc["outcome"] == "FAIL"
    assert doc["payload"]["mismatches"] == [{"row": "level5", "status": "FAIL"}]
    assert _row(doc, "row", "level5") == {"row": "level5", "status": "FAIL"}
