import importlib.util
import json
import sys
from pathlib import Path

from qpusim import scenario

ROOT = Path(__file__).resolve().parent.parent


def load_digest_tool():
    spec = importlib.util.spec_from_file_location(
        "digest_tool", ROOT / "tools" / "digest.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def test_a_fail_line_exits_1_and_leaves_the_digest_lines_as_they_are(
        monkeypatch, capsys):
    tool = load_digest_tool()
    # main puts the checkout's src and bench on the path; undo it after
    monkeypatch.setattr(sys, "path", list(sys.path))
    # maintenance.json's refused split is a runtime error, not a FAIL
    docs = [(f"{name} oracle on",
             json.loads((ROOT / "scenarios" / f"{name}.json").read_text()))
            for name in ("students", "maintenance")]
    monkeypatch.setattr(tool, "runs",
                        lambda root: [(label, doc, True) for label, doc in docs])
    assert tool.main([]) == 0
    clean = capsys.readouterr()
    assert clean.err == ""

    real = scenario.run_scenario
    reports = []

    def planted(sc, **kw):
        report = real(sc, **kw)
        if sc.name == "student-records":
            report.verify_lines.append("FAIL index qpu/dc1/h1: planted")
        reports.append(report)
        return report

    monkeypatch.setattr(scenario, "run_scenario", planted)
    assert tool.main([]) == 1
    out = capsys.readouterr()
    assert out.err == "oracle FAIL in students oracle on\n"
    # every run's line still prints, as the digest of what the run output
    want = [f"{label}: {tool.digest(report)}"
            for (label, _), report in zip(docs, reports)]
    assert out.out.splitlines() == want
    assert want[1] == clean.out.splitlines()[1]
    assert want[0] != clean.out.splitlines()[0]
