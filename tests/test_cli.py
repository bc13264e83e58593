import json
import time
from pathlib import Path

import pytest

from qpusim.cli import main

ROOT = Path(__file__).resolve().parent.parent
STUDENTS = str(ROOT / "scenarios" / "students.json")
MAINTENANCE = str(ROOT / "scenarios" / "maintenance.json")


def test_run_writes_outputs(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["run", STUDENTS, "--out-dir", str(out)]) == 0
    for name in ("metrics.csv", "traces.txt", "verify.txt", "manifest.json"):
        assert (out / name).exists(), name
    assert not (out / "messages.csv").exists()  # only written with --trace
    stdout = capsys.readouterr().out
    assert "queries" in stdout and "verify" in stdout


def test_verify_prints_pass_lines(capsys):
    assert main(["verify", STUDENTS]) == 0
    out = capsys.readouterr().out
    assert "PASS index" in out
    assert "PASS convergence" in out
    assert "FAIL" not in out


def test_bad_scenario_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"dcs": ["dc1"], "schema": {"x": {"kind": "float"}}}')
    assert main(["run", str(bad)]) == 2
    assert "scenario error" in capsys.readouterr().err


def test_bad_query_text_exits_2(capsys):
    assert main(["query", STUDENTS, "Nope > 1", "--dc", "dc1"]) == 2
    assert "query error" in capsys.readouterr().err


def test_query_past_the_dnf_bound_exits_2(tmp_path, capsys):
    text = " AND ".join(f"(GPA > 3.{i} OR GPA < 0.{i})" for i in range(14))
    assert main(["query", STUDENTS, text, "--dc", "dc1"]) == 2
    err = capsys.readouterr().err
    assert "DNF terms" in err and "at byte" in err
    doc = json.loads(Path(STUDENTS).read_text())
    doc["workload"].append({"op": "query", "t": 5, "dc": "dc1", "text": text})
    path = tmp_path / "students.json"
    path.write_text(json.dumps(doc, indent=2))
    assert main(["run", str(path), "--out-dir", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "scenario error" in err and "DNF terms" in err and "at byte" in err


def dnf_of(terms: int, by: str) -> str:
    """A query over GPA whose DNF has `terms` conjuncts: one OR of that many
    predicates, or an AND of ORs whose sizes multiply to it."""
    if by == "or":
        return " OR ".join(f"GPA > {i / 1000}" for i in range(terms))
    sizes = {1024: [2] * 10, 1025: [5, 5, 41]}[terms]
    return " AND ".join(
        "(" + " OR ".join(f"GPA > 0.{j}{i}" for i in range(n)) + ")"
        for j, n in enumerate(sizes))


@pytest.mark.parametrize("by", ["or", "and"])
def test_a_query_of_exactly_the_dnf_bound_runs_and_one_more_exits_2(
        capsys, by):
    # the bound is 1024 conjuncts, inclusive, whether they come from one
    # OR or from a product of ORs; the first conjunct past it is located
    # at the operator that adds it
    assert main(["query", STUDENTS, dnf_of(1024, by), "--dc", "dc1"]) == 0
    assert capsys.readouterr().err == ""
    text = dnf_of(1025, by)
    at = text.rindex(" OR ") + 1 if by == "or" else text.rindex(" AND ") + 1
    assert main(["query", STUDENTS, text, "--dc", "dc1"]) == 2
    assert capsys.readouterr().err == (
        f"query error: query expands to more than 1024 DNF terms "
        f"(at byte {at})\n")


# an int literal past the float range on a float attribute, and parentheses
# nested past the bound, each once ended in a traceback
DEEP_LITERAL = "GPA > 1" + "0" * 400
DEEP_PARENS = "(" * 330 + "GPA > 1" + ")" * 330


@pytest.mark.parametrize("text, message", [
    (DEEP_LITERAL, "outside domain of GPA (at byte 6)"),
    (DEEP_PARENS, "parentheses nest deeper than 64 (at byte 64)"),
], ids=["literal-past-float-range", "nesting-330"])
def test_query_text_that_once_crashed_exits_2(capsys, text, message):
    assert main(["query", STUDENTS, text, "--dc", "dc1"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("query error: ") and message in err
    assert "Traceback" not in err


# each document text, and what the message must hold: json.loads raises a
# plain ValueError past int()'s digit limit and RecursionError on deep
# nesting, and a structure check follows a good decode
@pytest.mark.parametrize("text, message", [
    ('{"seed": 1' + "0" * 5000 + "}", "not valid JSON: Exceeds the limit"),
    ("[" * 100_000, "not valid JSON: nested too deeply"),
    ("[1, 2]", "scenario document must be a JSON object"),
], ids=["seed-5001-digits", "nesting-100000", "list"])
def test_a_document_that_holds_no_scenario_exits_2(tmp_path, capsys, text,
                                                   message):
    path = tmp_path / "doc.json"
    path.write_text(text)
    start = time.perf_counter()
    assert main(["verify", str(path)]) == 2
    assert time.perf_counter() - start < 1.0
    err = capsys.readouterr().err
    assert err.startswith("scenario error: ") and message in err
    assert "Traceback" not in err
    # an output directory's manifest.json is decoded the same way
    (tmp_path / "manifest.json").write_text(text)
    assert main(["query", str(tmp_path), "GPA > 2.0"]) == 2
    err = capsys.readouterr().err
    assert "scenario error: " in err and "Traceback" not in err
    if message.startswith("not valid JSON"):
        assert f"manifest.json is {message}" in err


def test_missing_scenario_file_exits_2(tmp_path, capsys):
    assert main(["run", str(tmp_path / "nope.json")]) == 2
    assert "cannot read" in capsys.readouterr().err


def test_out_dir_without_manifest_exits_2(tmp_path, capsys):
    assert main(["query", str(tmp_path), "GPA > 2.0"]) == 2
    assert "manifest.json" in capsys.readouterr().err


def test_query_against_scenario_and_out_dir(tmp_path, capsys):
    text = 'GPA > 2.0 AND GPA < 3.0 FRESHNESS strong'
    assert main(["query", STUDENTS, text, "--dc", "dc2", "--trace"]) == 0
    direct = capsys.readouterr().out
    out = tmp_path / "o"
    assert main(["run", STUDENTS, "--out-dir", str(out)]) == 0
    capsys.readouterr()
    assert main(["query", str(out), text, "--dc", "dc2", "--trace"]) == 0
    replayed = capsys.readouterr().out
    assert direct.splitlines()[0] == replayed.splitlines()[0]
    keys = [ln for ln in direct.splitlines() if ln.startswith("s")]
    assert keys and all(k.startswith("s") for k in keys)
    assert "[freshness]" in direct  # trace was requested


def test_gen_workload_is_deterministic(tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    args = ["gen-workload", "--base", STUDENTS, "--actions", "60",
            "--objects", "12", "--seed", "5"]
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert a.read_text() == b.read_text()
    doc = json.loads(a.read_text())
    assert len(doc["workload"]) == 60
    assert "generate" not in doc
    # the generated file is itself runnable
    assert main(["run", str(a), "--out-dir", str(tmp_path / "run")]) == 0


def test_gen_workload_keeps_the_base_splits_merges_partitions_and_scrubs(
        tmp_path, capsys):
    out = tmp_path / "g.json"
    assert main(["gen-workload", "--base", MAINTENANCE, "--actions", "200",
                 "--objects", "20", "--seed", "3", "--out", str(out)]) == 0
    base = json.loads(Path(MAINTENANCE).read_text())["workload"]
    want = [a for a in base
            if a["op"] in ("force-split", "force-merge", "partition", "scrub")]
    assert want
    workload = json.loads(out.read_text())["workload"]
    assert [a for a in workload
            if a["op"] not in ("put", "delete", "query")] == want
    assert len(workload) == 200 + len(want)
    ticks = [a["t"] for a in workload]
    assert ticks == sorted(ticks)
    assert f"{len(want)} kept from the base" in capsys.readouterr().out
    assert main(["verify", str(out)]) == 0


def test_seed_override_redraws_generated_workload(tmp_path, capsys):
    base = {
        "name": "g",
        "seed": 1,
        "dcs": ["dc1"],
        "schema": {"x": {"kind": "float", "lo": 0.0, "hi": 1.0}},
        "generate": {"objects": 10, "actions": 40, "query_frac": 0.0},
    }
    src = tmp_path / "g.json"
    src.write_text(json.dumps(base))
    outs = []
    for seed in (None, 7):
        out = tmp_path / f"out{seed}"
        argv = ["run", str(src), "--out-dir", str(out)]
        if seed is not None:
            argv += ["--seed", str(seed)]
        assert main(argv) == 0
        outs.append(json.loads((out / "manifest.json").read_text()))
    assert outs[0]["seed"] == 1 and outs[1]["seed"] == 7
    # the manifests carry the raw scenario; expanding both proves the
    # override actually redrew the generated actions
    from qpusim import parse_scenario

    w0 = parse_scenario(outs[0]["scenario"]).workload
    w7 = parse_scenario(outs[1]["scenario"]).workload
    assert len(w0) == len(w7) == 40
    assert w0 != w7


def test_run_exit_1_on_failed_verification(tmp_path, capsys, monkeypatch):
    from qpusim.qpu import Qpu

    orig = Qpu._lookup

    def crooked(self, rects):
        # drop each lookup's smallest key: a fixed choice, unlike the first
        # key, which depends on the hash seed
        return tuple(sorted(orig(self, rects))[1:])

    monkeypatch.setattr(Qpu, "_lookup", crooked)
    code = main(["run", STUDENTS, "--oracle", "--out-dir", str(tmp_path / "o")])
    assert code == 1
    assert "FAILED" in capsys.readouterr().err


def students_with_history(tmp_path, history):
    doc = json.loads(Path(STUDENTS).read_text())
    doc["tree"]["history"] = history
    path = tmp_path / "students.json"
    path.write_text(json.dumps(doc, indent=2))
    return str(path)


def test_history_leaf_list_is_rejected(tmp_path, capsys):
    path = students_with_history(tmp_path, {"leaves": [
        {"region": {"GPA": [0.0, 2.0, False, True]}},
        {"region": {"GPA": [2.0, 4.0]}}]})
    assert main(["run", path, "--out-dir", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "tree.history must be" in err and "['leaves']" in err
    assert "(line " in err


def test_history_per_dc_map_is_rejected(tmp_path, capsys):
    cut = {"attr": "GPA", "at": 2.0, "lo": "leaf", "hi": "leaf"}
    path = students_with_history(
        tmp_path, {"dc1": cut, "dc2": "leaf", "dc3": cut})
    assert main(["run", path, "--out-dir", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "tree.history must be" in err and "['dc1', 'dc2', 'dc3']" in err
    assert "(line " in err


def test_history_error_names_the_nested_node(tmp_path, capsys):
    path = students_with_history(tmp_path, {
        "attr": "GPA", "at": 2.0, "lo": "leaf",
        "hi": {"attr": "GPA", "at": 3.0, "lo": "leaf"}})
    assert main(["run", path, "--out-dir", str(tmp_path / "o")]) == 2
    assert "tree.history.hi must be" in capsys.readouterr().err


def test_run_trace_writes_messages_csv(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["run", STUDENTS, "--trace", "--out-dir", str(out)]) == 0
    rows = (out / "messages.csv").read_text().splitlines()
    assert rows[0] == "tick,src,dst,kind,detail"
    assert len(rows) > 1
    manifest = json.loads((out / "manifest.json").read_text())
    assert len(rows) - 1 == manifest["delivered"]
    assert "messages.csv" in capsys.readouterr().out


@pytest.mark.parametrize("flag, value", [
    ("--objects", "0"), ("--gap", "-1"), ("--actions", "-5"),
    ("--theta", "-1"), ("--query-frac", "2"), ("--delete-frac", "1.5")])
def test_gen_workload_out_of_range_flag_exits_2(tmp_path, capsys, flag, value):
    out = tmp_path / "w.json"
    with pytest.raises(SystemExit) as exc:
        main(["gen-workload", "--base", STUDENTS, "--out", str(out),
              flag, value])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"argument {flag}: must be" in err and f"got {value}" in err
    assert not out.exists()


@pytest.mark.parametrize("flag", ["--actions", "--objects"])
def test_gen_workload_past_the_base_event_limit_exits_2(tmp_path, capsys,
                                                        flag):
    out = tmp_path / "w.json"
    assert main(["gen-workload", "--base", STUDENTS, "--out", str(out),
                 flag, str(2**40)]) == 2
    assert (f"usage error: {flag} 1099511627776 exceeds the base's "
            f"limits.max_events (5000000)") in capsys.readouterr().err
    assert not out.exists()


def test_gen_workload_fractions_over_one_exit_2(tmp_path, capsys):
    out = tmp_path / "w.json"
    assert main(["gen-workload", "--base", STUDENTS, "--out", str(out),
                 "--query-frac", "0.6", "--delete-frac", "0.5"]) == 2
    assert "--query-frac plus --delete-frac" in capsys.readouterr().err
    assert not out.exists()



def test_gen_workload_fractions_summing_to_one_and_one_object_run(tmp_path,
                                                                 capsys):
    # both bounds are inclusive: the fractions may sum to exactly 1, and
    # the key space may be a single object
    out = tmp_path / "w.json"
    assert main(["gen-workload", "--base", STUDENTS, "--out", str(out),
                 "--actions", "80", "--objects", "1", "--seed", "2",
                 "--query-frac", "0.75", "--delete-frac", "0.25"]) == 0
    workload = json.loads(out.read_text())["workload"]
    generated = [a for a in workload if a["op"] in ("put", "delete")]
    assert {a["key"] for a in generated} == {"k0"}
    assert {a["op"] for a in generated} == {"put", "delete"}
    assert main(["verify", str(out)]) == 0


@pytest.mark.parametrize("base, kept", [(STUDENTS, 0), (MAINTENANCE, 5)])
def test_gen_workload_summary_counts_what_it_wrote(tmp_path, capsys, base,
                                                   kept):
    out = tmp_path / "w.json"
    assert main(["gen-workload", "--base", base, "--out", str(out),
                 "--actions", "120", "--objects", "15", "--seed", "6",
                 "--query-frac", "0.3", "--delete-frac", "0.1"]) == 0
    workload = json.loads(out.read_text())["workload"]
    ops = [a["op"] for a in workload]
    assert len(workload) == 120 + kept
    assert 0 < ops.count("delete") and ops.count("put") > ops.count("query")
    assert capsys.readouterr().out == (
        f"{out}: {120 + kept} actions ({ops.count('put')} puts, "
        f"{ops.count('query')} queries, {kept} kept from the base), seed 6\n")


@pytest.mark.parametrize("args, out, strerror", [
    (["gen-workload", "--base", STUDENTS, "--out"], "missing/x.json",
     "No such file or directory"),
    (["run", STUDENTS, "--out-dir"], "file", "File exists"),
    (["verify", STUDENTS, "--out-dir"], "file/sub", "Not a directory"),
], ids=["gen-workload", "run", "verify"])
def test_an_output_path_that_cannot_be_written_exits_2(tmp_path, capsys, args,
                                                       out, strerror):
    (tmp_path / "file").write_text("")
    path = tmp_path / out
    assert main(args + [str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.err == (f"scenario error: cannot write {path}: "
                            f"{strerror}\n")
    assert captured.out == ""

@pytest.mark.parametrize("manifest", ['{"delivered": 3}', "[1, 2]", '"x"'])
def test_manifest_without_a_scenario_object_exits_2(tmp_path, capsys,
                                                    manifest):
    (tmp_path / "manifest.json").write_text(manifest)
    assert main(["query", str(tmp_path), "GPA > 2.0"]) == 2
    err = capsys.readouterr().err
    assert "scenario error" in err and "manifest.json" in err


def students_with(tmp_path, **fields):
    doc = json.loads(Path(STUDENTS).read_text())
    doc.update(fields)
    path = tmp_path / "students.json"
    path.write_text(json.dumps(doc, indent=2))
    return str(path)


@pytest.mark.parametrize("fields, field", [
    ({"schema": 5}, "schema"),
    ({"schema": [1]}, "schema"),
    ({"tree": [1]}, "tree"),
    ({"verify": True}, "verify"),
    ({"limits": 7}, "limits"),
    ({"limits": {"max_ticks": "abc"}}, "max_ticks"),
    ({"limits": {"max_ticks": None}}, "max_ticks"),
    ({"seed": [1]}, "seed"),
], ids=lambda v: json.dumps(v) if isinstance(v, dict) else v)
def test_section_of_the_wrong_type_exits_2(tmp_path, capsys, fields, field):
    assert main(["verify", students_with(tmp_path, **fields)]) == 2
    err = capsys.readouterr().err
    assert "scenario error" in err and field in err
    assert "(line " in err


@pytest.mark.parametrize("limit", ["max_events", "max_ticks"])
@pytest.mark.parametrize("cmd", [["verify"], ["run"], ["query"]],
                         ids=lambda c: c[0])
def test_run_that_hits_its_limits_exits_2(tmp_path, capsys, cmd, limit):
    path = students_with(tmp_path, limits={limit: 5})
    args = cmd + [path]
    if cmd == ["run"]:
        args += ["--out-dir", str(tmp_path / "out")]
    if cmd == ["query"]:
        args += ["GPA > 2.0"]
    assert main(args) == 2
    err = capsys.readouterr().err
    assert f"limits.{limit}" in err
    assert "at tick " in err and "events pending" in err
    assert "Traceback" not in err


def _in_tree(**fields):
    return lambda doc: doc["tree"].update(fields)


def _in_net(**fields):
    return lambda doc: doc["net"].update(fields)


def _in_schema(attr, **spec):
    return lambda doc: doc["schema"].update({attr: spec})


def _cut(attr, at):
    return _in_tree(history={"attr": attr, "at": at, "lo": "leaf", "hi": "leaf"})


def _generated(*phases, **limits):
    def edit(doc):
        del doc["workload"]
        doc["generate"] = {"phases": list(phases)}
        doc["limits"] = limits
    return edit


def _phases(value):
    def edit(doc):
        _generated()(doc)
        doc["generate"]["phases"] = value
    return edit


def _actions(*actions):
    def edit(doc):
        doc["workload"] = list(actions)
    return edit


def _put(**fields):
    return {"t": 1, "op": "put", "dc": "dc1", **fields}


def _cut_off(t, until, a="dc1", b="dc2"):
    return {"t": t, "op": "partition", "a": a, "b": b, "until": until}


_GOOD_ATTRS = {"GPA": 1.0, "Major": "Art"}


# each input: the edit to students.json, a text the message must hold,
# and a text the line it names must hold
@pytest.mark.parametrize("edit, message, on_line", [
    (_actions(_put(attrs=_GOOD_ATTRS)),
     "workload action 0: put needs a string key", '"op": "put"'),
    (_actions(_put(key="z", attrs=5)),
     "workload action 0: attrs must be an object, got 5", '"op": "put"'),
    (_actions(_put(key="z", attrs=[1, "a"])),
     "workload action 0: attrs must be an object", '"op": "put"'),
    (_actions(_put(key="z", attrs={"GPA": 1.0})),
     "workload action 0: attrs must give every schema attribute exactly "
     "once, got ['GPA']", '"op": "put"'),
    (lambda doc: _in_schema("Year", kind="int", lo=1, hi=5)(doc) or _actions(
        _put(key="z", attrs={**_GOOD_ATTRS, "Year": 1}),
        _put(key="y", attrs={**_GOOD_ATTRS, "Year": 2.0}))(doc),
     "workload action 1: attribute 'Year' takes int values", '"op": "put"'),
    (_actions(_put(key="z", attrs={**_GOOD_ATTRS, "GPA": True})),
     "workload action 0: value True is outside the domain of 'GPA'",
     '"op": "put"'),
    (_actions(_put(key="z", attrs=_GOOD_ATTRS),
              _put(key="y", attrs={**_GOOD_ATTRS, "GPA": 4.5})),
     "workload action 1: value 4.5 is outside the domain of 'GPA'",
     '"op": "put"'),
    (_actions(_cut_off(5, 9, b="dc1")),
     "workload action 0: partition needs two different DCs",
     '"op": "partition"'),
    (_actions(_cut_off(5, 20), _put(key="z", attrs=_GOOD_ATTRS),
              _cut_off(10, 30, "dc2", "dc1")),
     "workload action 2: partition overlaps another window on dc1-dc2",
     '"op": "partition"'),
    (_in_tree(cache_capacity=0), "tree: cache_capacity must be a positive",
     '"tree"'),
    (_in_tree(selectivity={"window": 2.5}),
     "tree: window must be a positive integer, got 2.5", '"tree"'),
    (_in_tree(replicated="no"), "tree.replicated must be true, got 'no'",
     '"replicated"'),
    (_in_tree(replicated=False), "tree.replicated must be true, got False",
     '"replicated"'),
    (_in_tree(history=None),
     'tree.history must be "leaf" or a cut with exactly attr, at, lo and hi, '
     "got None", '"history"'),
    (_cut(["GPA"], 2.0), "tree.history cuts unknown attribute ['GPA']",
     '"history"'),
    (_cut("GPA", "x"), "tree.history cut at 'x' is not a value of 'GPA'",
     '"history"'),
    (_in_tree(split={"auto": False}),
     "tree: ", '"tree"'),
    (lambda doc: doc["verify"].update(oracle="no"),
     "verify.oracle must be true or false, got 'no'", '"oracle"'),
    (lambda doc: doc.update(scrub_at_end="no"),
     "unknown top-level field 'scrub_at_end'", '"scrub_at_end"'),
    (_actions({"t": 1, "op": ["put"]}),
     "workload action 0: unknown op ['put']", '"op": ['),
    (_in_net(jitter=2.5),
     "net: jitter must be a whole number of ticks >= 0, got 2.5", '"net"'),
    (_in_net(inter_dc_delay=2.5),
     "net: inter_dc_delay must be a whole number of ticks >= 0, got 2.5",
     '"net"'),
    (_in_net(jitter=True),
     "net: jitter must be a whole number of ticks >= 0, got True", '"net"'),
    (_in_net(dup_prob=True),
     "net: dup_prob must be a number in [0, 1], got True", '"net"'),
    (_in_schema("X", kind="float", lo="a", hi=3),
     "schema attribute 'X': X: numeric bounds lo and hi must be numbers, "
     "got 'a'", '"X"'),
    (_in_schema("X", kind="int", lo=0, hi=True),
     "schema attribute 'X': X: numeric bounds lo and hi must be numbers, "
     "got True", '"X"'),
    (_actions(_put(t=True, key="z", attrs=_GOOD_ATTRS)),
     "workload action 0: t must be a non-negative integer tick", '"op": "put"'),
    (_actions(_cut_off(0, True)),
     "workload action 0: partition needs until > t", '"op": "partition"'),
    (lambda doc: doc.update(dcs=["dc1", {"name": "dc2"}]),
     "dcs must be a list of unique datacenter names", '"dcs"'),
    (lambda doc: doc.update(dcs=["dc1", ["dc2"]]),
     "dcs must be a list of unique datacenter names", '"dcs"'),
    (lambda doc: doc.update(dcs=["dc1", "dc2", "dc3", "dc1/h0"]),
     'dcs may not name "root" or hold a "/"', '"dcs"'),
    (lambda doc: doc.update(dcs=["dc1", "dc2", "dc3", "root"]),
     'dcs may not name "root" or hold a "/"', '"dcs"'),
    (_in_schema("X", kind="text", alphabet=5),
     "schema attribute 'X': X: text domain needs a non-empty, duplicate-free "
     "string alphabet, got 5", '"X"'),
    (_in_schema("X", kind="text", alphabet=True),
     "schema attribute 'X': X: text domain needs a non-empty, duplicate-free "
     "string alphabet, got True", '"X"'),
    (lambda doc: doc["binning"].update(GPA=2**40),
     "binning: GPA: bin count must be 'none' or an integer in [1, 65536], "
     "got 1099511627776", '"binning"'),
    (lambda doc: doc["binning"].update(GPA=True),
     "binning: GPA: bin count must be 'none' or an integer in [1, 65536], "
     "got True", '"binning"'),
    (lambda doc: doc["schema"]["GPA"].update(lo=-1e308, hi=1e308),
     "binning: GPA: 8 bins over [-1e+308, 1e+308] have edges that do not "
     "strictly increase", '"binning"'),
    (lambda doc: doc["schema"]["GPA"].update(lo=1e15, hi=1e15 + 1)
     or doc["binning"].update(GPA=65_536),
     "binning: GPA: 65536 bins over [1000000000000000.0, 1000000000000001.0] "
     "have edges that do not strictly increase", '"binning"'),
    (_generated({"actions": 2**40}),
     "generate: 1099511627776 actions and 200 objects may not exceed "
     "limits.max_events (5000000)", '"generate"'),
    (_generated({"objects": 2**40}),
     "generate: 1000 actions and 1099511627776 objects may not exceed "
     "limits.max_events (5000000)", '"generate"'),
    (_generated({"actions": 60}, {"actions": 60}, max_events=100),
     "generate: 120 actions and 200 objects may not exceed "
     "limits.max_events (100)", '"generate"'),
    (_generated({"actions": 2.5}),
     "generate: actions must be an integer, got 2.5", '"generate"'),
    (lambda doc: _generated({"actions": 5})(doc) or doc["generate"].update(
        objects=5),
     "generate: give either phases or one phase's fields, not both, got "
     "['objects', 'phases']", '"generate"'),
    (_phases({}),
     "generate.phases must be a list of objects, got {}", '"generate"'),
    (_phases("x"),
     "generate.phases must be a list of objects, got 'x'", '"generate"'),
    (_phases([1]),
     "generate.phases must be a list of objects, got [1]", '"generate"'),
    (_phases({"a": 1}),
     "generate.phases must be a list of objects, got {'a': 1}", '"generate"'),
    (lambda doc: doc.update(scrub_at_endd=False),
     "unknown top-level field 'scrub_at_endd'", '"scrub_at_endd"'),
    (lambda doc: doc.update(limits={"max_tick": 10}),
     "limits: unknown field 'max_tick'", '"max_tick"'),
    # an action is found by its place in the workload list: action 0's
    # key "op" is not action 1's op
    (_actions(_put(key="op", attrs=_GOOD_ATTRS), {"t": 2, "op": "nope"}),
     "workload action 1: unknown op 'nope'", '"op": "nope"'),
    # nor is a schema attribute named op, declared and given in each put
    (lambda doc: _in_schema("op", kind="int", lo=0, hi=9)(doc)
     or _actions(_put(key="z", attrs={**_GOOD_ATTRS, "op": 1}),
                 {"t": 2, "op": "nope"})(doc),
     "workload action 1: unknown op 'nope'", '"op": "nope"'),
    (_actions({"t": 1, "op": "query", "dc": "dc1", "text": DEEP_LITERAL}),
     "workload action 0: query does not parse: value 1" + "0" * 400
     + " outside domain of GPA (at byte 6)", '"op": "query"'),
    (_actions({"t": 1, "op": "query", "dc": "dc1", "text": DEEP_PARENS}),
     "workload action 0: query does not parse: parentheses nest deeper "
     "than 64 (at byte 64)", '"op": "query"'),
    (_in_schema("X", kind="int", lo=0, hi=10**400),
     "schema attribute 'X': X: numeric bounds lo and hi must lie within "
     "the float range", '"X"'),
    (lambda doc: _in_schema("X", kind="float", lo=-10**400, hi=10**400)(doc)
     or _cut("X", 0.0)(doc),
     "schema attribute 'X': X: numeric bounds lo and hi must lie within "
     "the float range", '"X"'),
    # in the float range, but wider than it: an int width overflows
    (lambda doc: _in_schema("X", kind="int", lo=-10**308, hi=10**308)(doc)
     or doc["binning"].update(X=1),
     f"binning: X: 1 bins over [{-10**308}, {10**308}] have edges that do "
     "not strictly increase", '"binning"'),
    (_in_tree(selectivity={"window": 10**30}),
     "tree: window must be at most 9223372036854775807, got 10" + "0" * 29,
     '"tree"'),
    # the rules below have no check past parse
    (lambda doc: doc["binning"].update(Nope=4),
     "binning names unknown attribute 'Nope'", '"Nope"'),
    (_in_tree(root_dc="dc9"), "tree.root_dc 'dc9' is not a declared DC",
     '"root_dc"'),
    (lambda doc: doc.update(workload={"t": 1}), "workload must be a list",
     '"workload"'),
    (_actions(_put(key="z", attrs=_GOOD_ATTRS), {"t": 2}),
     "workload action 1 needs an op", '"workload"'),
    (_actions({"t": 1, "op": "force-split", "qpu": 3}),
     "workload action 0: force-split needs a qpu actor name",
     '"op": "force-split"'),
    (_actions({"t": 1, "op": "force-merge", "a": "qpu/dc1/h1"}),
     "workload action 0: force-merge needs actor names a and b",
     '"op": "force-merge"'),
    (_actions(_cut_off(5, 9, b="dc9")),
     "workload action 0: partition needs two declared DCs",
     '"op": "partition"'),
    (_in_tree(repl_mode="fast"), "tree: unknown replication mode 'fast'",
     '"tree"'),
    (_in_tree(selectivity={"theta_low": 0.5, "theta_high": 0.2}),
     "tree: need 0 < theta_low < theta_high < 1", '"tree"'),
    # json.loads keeps the last of a key given twice, so the message must
    # name the line of that one
    (lambda doc: json.dumps(doc, indent=2)[:-2]
     + ',\n  "net": {"jitter": -1}\n}',
     "net: jitter must be a whole number of ticks >= 0, got -1",
     '"net": {"jitter": -1}'),
], ids=["put-without-key", "put-attrs-number", "put-attrs-list",
        "put-attr-missing", "put-float-for-int", "put-true-for-float",
        "put-outside-domain",
        "partition-from-itself", "partition-overlap", "cache-capacity-0", "window-float",
        "replicated-string", "replicated-false", "history-null",
        "cut-attr-list", "cut-at-wrong-type",
        "tree-split", "oracle-string", "scrub-at-end-string", "op-list",
        "jitter-float", "inter-dc-delay-float", "jitter-bool", "dup-prob-bool",
        "schema-lo-string", "schema-hi-bool", "t-bool", "until-bool",
        "dcs-entry-object", "dcs-entry-list", "dcs-slash", "dcs-root",
        "alphabet-int", "alphabet-bool",
        "bins-2**40", "bins-bool", "bins-overflowing-width",
        "bins-narrower-than-an-ulp", "generate-actions-2**40",
        "generate-objects-2**40", "generate-phase-actions-summed",
        "generate-actions-float", "generate-phases-and-fields",
        "generate-phases-empty-object", "generate-phases-string",
        "generate-phases-number-list", "generate-phases-object",
        "top-level-unknown", "limits-unknown", "op-after-a-key-named-op",
        "op-after-an-attribute-named-op",
        "query-literal-past-float-range", "query-nesting-330",
        "int-bound-past-float-range", "float-bounds-past-float-range",
        "int-bins-wider-than-floats",
        "window-10**30", "binning-unknown-attr", "root-dc-undeclared",
        "workload-object", "action-without-op", "force-split-without-qpu",
        "force-merge-without-b", "partition-undeclared-dc",
        "repl-mode-unknown", "thetas-reversed", "net-given-twice"])
def test_malformed_input_exits_2_with_a_located_message(
        tmp_path, capsys, edit, message, on_line):
    exits_2_with(tmp_path, capsys, edit, message, on_line)


def test_empty_phases_are_an_empty_workload(tmp_path, capsys):
    doc = json.loads(Path(STUDENTS).read_text())
    _phases([])(doc)
    path = tmp_path / "students.json"
    path.write_text(json.dumps(doc, indent=2))
    assert main(["verify", str(path)]) == 0
    assert "Traceback" not in capsys.readouterr().err


def exits_2_with(tmp_path, capsys, edit, message, on_line):
    """`qpusim verify` on students.json after `edit` exits 2, and its
    message holds `message` and names a line that holds `on_line`. An edit
    changes the document in place, or returns the text to write."""
    doc = json.loads(Path(STUDENTS).read_text())
    text = edit(doc)
    path = tmp_path / "students.json"
    path.write_text(text or json.dumps(doc, indent=2))
    assert main(["verify", str(path)]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert message in err
    line = int(err.rsplit("(line ", 1)[1].split(")")[0])
    assert on_line in path.read_text().splitlines()[line - 1]


def _drawn(**fields):
    """One generated phase of `fields`, over the students schema plus an
    int attribute, so a range of each numeric kind can be tried."""
    def edit(doc):
        _generated(fields)(doc)
        doc["schema"]["Year"] = {"kind": "int", "lo": 1, "hi": 5}
    return edit


# generate blocks that validate field by field but cannot be drawn
@pytest.mark.parametrize("fields, message", [
    ({"key_dist": "gauss"}, "unknown key distribution 'gauss'"),
    ({"theta": 0}, "zipf needs a number theta > 0, got 0"),
    ({"theta": -1.5}, "zipf needs a number theta > 0, got -1.5"),
    ({"theta": "x"}, "zipf needs a number theta > 0, got 'x'"),
    ({"staleness_mix": []}, "staleness_mix must be [level, weight >= 0] "
                            "pairs with a positive, finite total weight, got []"),
    ({"staleness_mix": "any"}, "staleness_mix must be"),
    ({"staleness_mix": [["any", 1, 2]]}, "staleness_mix must be"),
    ({"staleness_mix": [["any", 0], ["strong", 0]]}, "staleness_mix must be"),
    ({"staleness_mix": [["any", -1], ["strong", 2]]}, "staleness_mix must be"),
    ({"staleness_mix": [["any", "1"]]}, "staleness_mix must be"),
    ({"staleness_mix": [["fresh", 1]]}, "staleness_mix must be"),
    ({"staleness_mix": [["bounded:-1", 1]]}, "staleness_mix must be"),
    ({"query_frac": "x"}, "fractions must be numbers in [0, 1]"),
    ({"value_ranges": []},
     "value_ranges must map attributes to [lo, hi] number pairs, got []"),
    ({"value_ranges": {"GPA": 1.0}}, "value_ranges must map attributes"),
    ({"value_ranges": {"GPA": [1.0]}}, "value_ranges must map attributes"),
    ({"value_ranges": {"GPA": ["a", "b"]}}, "value_ranges must map attributes"),
    ({"value_ranges": {"Year": [1.0, 3.0]}},
     "value_ranges 'Year' must be int bounds lo <= hi within [1, 5], "
     "got [1.0, 3.0]"),
    ({"value_ranges": {"Year": [4, 2]}},
     "value_ranges 'Year' must be int bounds lo <= hi within [1, 5], "
     "got [4, 2]"),
    ({"value_ranges": {"GPA": [1.0, 9.0]}},
     "value_ranges 'GPA' must be float bounds lo <= hi within [0.0, 4.0]"),
    ({"value_ranges": {"Nope": [1, 2]}},
     "value_ranges names 'Nope', which is not a numeric attribute"),
    ({"value_ranges": {"Major": [1, 2]}},
     "value_ranges names 'Major', which is not a numeric attribute"),
], ids=["key-dist-gauss", "theta-0", "theta-negative", "theta-string",
        "mix-empty", "mix-string", "mix-triple", "mix-zero-total",
        "mix-negative-weight", "mix-string-weight", "mix-unknown-level",
        "mix-bounded-negative", "query-frac-string", "ranges-list",
        "range-number", "range-single", "range-strings",
        "range-int-float-bounds", "range-lo-above-hi", "range-outside-domain",
        "range-unknown-attr", "range-text-attr"])
def test_generate_blocks_that_cannot_be_drawn_exit_2(
        tmp_path, capsys, fields, message):
    exits_2_with(tmp_path, capsys, _drawn(**fields), f"generate: {message}",
                 '"generate"')


def test_every_checked_generate_field_still_draws(tmp_path, capsys):
    # each check above, given a value it must accept
    fields = {"key_dist": "uniform", "theta": "unused by uniform",
              "staleness_mix": [["bounded:0", 0], ["snapshot", 2**40]],
              "value_ranges": {"GPA": [1, 1], "Year": [2, 4]},
              "objects": 20, "actions": 60}
    doc = json.loads(Path(STUDENTS).read_text())
    _drawn(**fields)(doc)
    path = tmp_path / "students.json"
    path.write_text(json.dumps(doc, indent=2))
    assert main(["verify", str(path)]) == 0
