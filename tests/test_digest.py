import importlib.util
import json
import random
import sys
from pathlib import Path

import pytest

from qpusim import scenario

ROOT = Path(__file__).resolve().parent.parent
MODES = ("log", "delta", "adaptive")


def load_digest_tool():
    spec = importlib.util.spec_from_file_location(
        "digest_tool", ROOT / "tools" / "digest.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


@pytest.fixture
def tool(monkeypatch):
    # main and the table put the checkout's src and bench on the path;
    # undo it after
    monkeypatch.setattr(sys, "path",
                        [str(ROOT / "bench")] + sys.path)
    return load_digest_tool()


def table_cases(tool, *labels):
    cases = {case[0]: case for case in tool.runs(ROOT)}
    return [cases[label] for label in labels]


def plant(monkeypatch, name, change):
    """Run each scenario as it is, then apply `change` to the report of
    the one named `name`; returns the reports, in run order."""
    real = scenario.run_scenario
    reports = []

    def planted(sc, **kw):
        report = real(sc, **kw)
        if sc.name == name:
            change(report)
        reports.append(report)
        return report

    monkeypatch.setattr(scenario, "run_scenario", planted)
    return reports


def test_a_fail_line_exits_1_and_leaves_the_digest_lines_as_they_are(
        tool, monkeypatch, capsys):
    # maintenance.json's refused split is a runtime error, not a FAIL
    docs = [(f"{name} oracle on",
             json.loads((ROOT / "scenarios" / f"{name}.json").read_text()))
            for name in ("students", "maintenance")]
    monkeypatch.setattr(tool, "runs", lambda root: [
        (label, doc, True, True) for label, doc in docs])
    assert tool.main([]) == 0
    clean = capsys.readouterr()
    assert clean.err == ""

    reports = plant(monkeypatch, "student-records",
                    lambda report: report.verify_lines.append(
                        "FAIL index qpu/dc1/h1: planted"))
    assert tool.main([]) == 1
    out = capsys.readouterr()
    assert out.err == "oracle FAIL in students oracle on\n"
    # every run's line still prints, as the digest of what the run output
    want = [f"{label}: {tool.digest(report)}"
            for (label, _), report in zip(docs, reports)]
    assert out.out.splitlines() == want
    assert want[1] == clean.out.splitlines()[1]
    assert want[0] != clean.out.splitlines()[0]


def test_a_missing_pass_line_exits_1_and_names_the_case(
        tool, monkeypatch, capsys):
    cases = table_cases(tool, "students.json log oracle on",
                        "maintenance.json log oracle on")
    monkeypatch.setattr(tool, "runs", lambda root: cases)
    assert tool.main([]) == 0
    clean = capsys.readouterr()
    assert clean.err == ""

    def drop_cache_line(report):
        report.verify_lines[:] = [line for line in report.verify_lines
                                  if not line.startswith("PASS cache: ")]

    reports = plant(monkeypatch, "student-records", drop_cache_line)
    assert tool.main([]) == 1
    out = capsys.readouterr()
    assert out.err == "no PASS cache line in students.json log oracle on\n"
    want = [f"{case[0]}: {tool.digest(report)}"
            for case, report in zip(cases, reports)]
    assert out.out.splitlines() == want
    assert want[1] == clean.out.splitlines()[1]


def test_a_refusal_fails_only_a_late_ops_case(tool, monkeypatch, capsys):
    late = "gen-workload maintenance.json seed 1 late ops log oracle on"
    cases = table_cases(tool, "maintenance.json log oracle on", late)
    monkeypatch.setattr(tool, "runs", lambda root: cases)
    assert tool.main([]) == 0
    assert capsys.readouterr().err == ""

    reports = plant(monkeypatch, "split-merge-partition",
                    lambda report: report.runtime_errors.append("planted"))
    assert tool.main([]) == 1
    assert capsys.readouterr().err == f"structural ops refused in {late}\n"
    # maintenance.json's own split of qpu/beta/h0 is refused by design
    assert len(reports[0].runtime_errors) == 2


def test_the_table_holds_every_case_once(tool):
    cases = list(tool.runs(ROOT))
    labels = [case[0] for case in cases]
    assert len(labels) == len(set(labels)) == 131
    assert sum(1 for case in cases if case[2]) == 113
    # the cases that predate the generated, late-ops and GPA-in-10-bins
    # ones keep their labels, first and in order, so their digest lines
    # diff against an older checkout's
    older = [f"bench {name} seed {seed} {mode} oracle {oracle}"
             for name in ("churn", "readheavy", "ingest")
             for seed in (1, 2, 3) for mode in ("default", "delta")
             for oracle in ("off", "on")]
    older += [f"{name}.json {mode} oracle on"
              for name in ("churn", "convergence", "hysteresis",
                           "maintenance", "students") for mode in MODES]
    older += [f"students.json {variant} {mode} oracle on"
              for variant in ("Major cut", "GPA unbinned") for mode in MODES]
    assert labels[:57] == older
    # only late-ops and seeded-sweep cases forbid a refused structural op;
    # the sweep comes next, and the wide trees last, so the 105 earlier
    # lines, and the sweep's, diff as they did
    sweep = [f"bench {name} seed {seed} default oracle on"
             for name in ("churn", "readheavy", "ingest")
             for seed in range(4, 9)]
    sweep += [f"bench {name} x4 seed {seed} default oracle on"
              for name in ("churn", "readheavy", "ingest") for seed in (1, 2)]
    assert labels[105:126] == sweep
    assert labels[126:] == [
        f"convergence.json 8 leaves per DC {mode} oracle on"
        for mode in MODES] + [
        f"bench ingest seed 1 8 leaves per DC {mode} oracle on"
        for mode in ("default", "delta")]
    assert [case[0] for case in cases if not case[3]] == [
        f"gen-workload maintenance.json seed {seed} late ops {mode} oracle on"
        for seed in (1, 2, 3) for mode in MODES] + sweep
    # a scale-4 case runs four times its workload's actions
    x4 = cases[labels.index("bench ingest x4 seed 1 default oracle on")]
    one = cases[labels.index("bench ingest seed 1 default oracle on")]
    assert len(x4[1]["workload"]) == 4 * len(one[1]["workload"])
    # a wide case runs its base's workload over 8 leaves per DC
    wide = cases[labels.index(
        "bench ingest seed 1 8 leaves per DC default oracle on")]
    assert wide[1]["workload"] == one[1]["workload"]
    sc = scenario.parse_scenario(wide[1])
    sim, store, net = scenario.build_scenario(sc)
    assert [len(net.nodes[f"qpu/{dc}"].children[0].children) for dc in
            store.dcs] == [2] * len(store.dcs)
    assert sorted({leaf.region.ivs["price"].hi for leaf in net.hist_leaves()
                   }) == [125.0 * i for i in range(1, 9)]
    assert len(net.hist_leaves()) == 8 * len(store.dcs)


def test_an_out_of_order_action_list_digests_as_its_sorted_copy(tool):
    # a run feeds its actions in tick order, and equal ticks in file order,
    # so shuffling a workload changes nothing but the order of equal ticks
    (case,) = table_cases(
        tool, "gen-workload maintenance.json seed 1 late ops log oracle on")
    shuffled = list(case[1]["workload"])
    random.Random(3).shuffle(shuffled)
    ordered = sorted(shuffled, key=lambda a: a["t"])
    assert shuffled != ordered
    assert {a["op"] for a in shuffled} == {
        "put", "delete", "query", "force-split", "force-merge", "partition",
        "scrub"}
    reports = [scenario.run_scenario(scenario.parse_scenario(
        {**case[1], "workload": w}), oracle=True) for w in (shuffled, ordered)]
    assert reports[0].verify_ok and not reports[0].runtime_errors
    assert tool.digest(reports[0]) == tool.digest(reports[1])
