"""Run every case in the table, print one output digest per case, and
check each case's verify lines, so two checkouts can be diffed.

    python3 tools/digest.py                   # this checkout
    python3 tools/digest.py --root ../other   # another checkout

Each line names a case and gives the SHA-256 of everything it outputs: the
metrics CSV, traces.txt, the verify lines and runtime errors, each result's
sorted keys, clock, claim, target, stats and error, and the messages
delivered, the final tick and the scrub count. `runs` is the one list of
cases that CI checks. Its 131 cases are:

- bench churn, readheavy and ingest at scale 1, seeds 1-3, in the
  workload's own replication mode and in delta mode, oracle off and on (36)
- each bundled scenario in log, delta and adaptive mode (15)
- students.json with its history cut on the text attribute Major first
  (TEXT_CUT), in log, delta and adaptive mode (3)
- students.json with GPA unbinned, the only run whose numeric postings
  are keyed by value, in log, delta and adaptive mode (3)
- students.json with GPA in 10 bins and two queries on the rounded bin
  edge 2.4, in log, delta and adaptive mode (3)
- `qpusim gen-workload` on students, hysteresis, maintenance and churn,
  200 objects, 800 actions, seeds 1-3, in the base's own mode, delta and
  adaptive mode (36)
- each generated maintenance file with its structural ops moved late
  (`late_ops`) in log, delta and adaptive mode (9)
- the seeded sweep, in each workload's own mode: bench churn, readheavy
  and ingest at scale 1, seeds 4-8 (15), and at scale 4, seeds 1-2 (6).
  Scale 4 runs four times the history, so the oracle's views, caps and
  forward folds run long past their first uses, and the replica logs are
  cut many times
- wide trees: convergence.json in log, delta and adaptive mode, and bench
  ingest seed 1 in its own mode and delta mode, each with its history of
  one `price` cut replaced by three levels of them, 8 leaves per DC (5)

Every case but the bench's oracle-off runs has the oracle on. Outputs that
must not change give equal lines under `diff`, between two checkouts or
between two PYTHONHASHSEED values. The tool reads bench's ACTIONS and
WORKLOADS and writes nothing.

After the last digest line, the tool names on stderr each case that broke
the rule, and exits 1 if any did. The rule:
- an oracle-on case prints a PASS line for each check in REQUIRED, and no
  FAIL line
- a late-ops or sweep case refuses no structural op; elsewhere a refused
  op, such as maintenance.json's split of qpu/beta/h0, is an output, not a
  failure
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path


# a history that cuts a text axis, which no bundled scenario and no split does
TEXT_CUT = {"attr": "Major", "at": "Math",
            "lo": {"attr": "GPA", "at": 2.0, "lo": "leaf", "hi": "leaf"},
            "hi": "leaf"}
# GPA over [0, 4] in 10 bins rounds edge 6 to 2.4000000000000004, just
# above s09's GPA of 2.4; both queries must find s09 in the bin that holds it
GPA_EDGE_QUERIES = [
    {"t": 500, "op": "query", "dc": "dc1",
     "text": "GPA >= 2.4 FRESHNESS strong"},
    {"t": 502, "op": "query", "dc": "dc2", "text": "GPA <= 2.4"}]
REQUIRED = ("run", "ingest", "index", "convergence", "cache")
MODES = ("log", "delta", "adaptive")


def halves(attr: str, lo: float, hi: float, levels: int):
    """A history of `levels` levels of cuts of `attr`, each at the midpoint
    of its side of [lo, hi]: 2 ** levels leaves."""
    if not levels:
        return "leaf"
    mid = (lo + hi) / 2
    return {"attr": attr, "at": mid, "lo": halves(attr, lo, mid, levels - 1),
            "hi": halves(attr, mid, hi, levels - 1)}


# convergence.json's and bench ingest's schema, with 8 leaves per DC
WIDE = halves("price", 0.0, 1000.0, 3)


def digest(report) -> str:
    from qpusim.scenario import metrics_csv, traces_text

    h = hashlib.sha256()

    def part(text: str):
        h.update(text.encode())
        h.update(b"\0")

    part(metrics_csv(report.net))
    part(traces_text(report.results))
    part("\n".join(report.verify_lines + report.runtime_errors))
    for res in report.results:
        part(f"{res.query_id} {sorted(res.keys)} {res.clock!r} "
             f"{res.claimed!r} {res.target!r} {sorted(res.stats.items())} "
             f"{res.error!r}")
    part(f"{report.sim.delivered} {report.sim.now} {report.scrubbed}")
    return h.hexdigest()


def in_mode(doc: dict, mode: str) -> dict:
    """A copy of `doc` in replication mode `mode`, sharing all but its tree."""
    return {**doc, "tree": {**doc.get("tree", {}), "repl_mode": mode}}


def wide(doc: dict) -> dict:
    """A copy of `doc` whose history is WIDE, sharing all but its tree."""
    return {**doc, "tree": {**doc["tree"], "history": WIDE}}


def late_ops(doc: dict) -> dict:
    """The generated maintenance document's kept splits, merges, partitions
    and scrubs 100 ticks on, and beta's halves merged too. As generated,
    the split of qpu/beta/h0 at tick 4 finds one write and is refused."""
    workload = []
    for a in doc["workload"]:
        if a["op"] in ("force-split", "force-merge", "partition", "scrub"):
            a = {**a, "t": a["t"] + 100}
            if a["op"] == "partition":
                a["until"] += 100
        workload.append(a)
    workload.append({"t": 400, "op": "force-merge",
                     "a": "qpu/beta/h0.a", "b": "qpu/beta/h0.b"})
    workload.sort(key=lambda a: a["t"])
    return {**doc, "workload": workload}


def runs(root: Path):
    """(label, raw scenario document, oracle, whether a refused structural
    op is allowed) for every case, in order."""
    from run import ACTIONS
    from workloads import WORKLOADS

    from qpusim.scenario import generated_document, load_scenario
    from qpusim.workload import WorkloadSpec

    scenarios = root / "scenarios"

    def students() -> dict:
        return json.loads((scenarios / "students.json").read_text())

    for name in ("churn", "readheavy", "ingest"):
        for seed in (1, 2, 3):
            for mode in ("default", "delta"):
                doc = WORKLOADS[name](seed, ACTIONS[name])
                if mode == "delta":
                    doc = in_mode(doc, "delta")
                for oracle in (False, True):
                    yield (f"bench {name} seed {seed} {mode} "
                           f"oracle {'on' if oracle else 'off'}",
                           doc, oracle, True)
    for path in sorted(scenarios.glob("*.json")):
        for mode in MODES:
            doc = in_mode(json.loads(path.read_text()), mode)
            yield f"{path.name} {mode} oracle on", doc, True, True
    for mode in MODES:
        doc = students()
        doc["tree"]["history"] = TEXT_CUT
        yield (f"students.json Major cut {mode} oracle on",
               in_mode(doc, mode), True, True)
    for mode in MODES:
        doc = {**students(), "binning": {"GPA": "none"}}
        yield (f"students.json GPA unbinned {mode} oracle on",
               in_mode(doc, mode), True, True)
    for mode in MODES:
        doc = students()
        doc.update(binning={"GPA": 10},
                   workload=doc["workload"] + GPA_EDGE_QUERIES)
        yield (f"students.json GPA in 10 bins {mode} oracle on",
               in_mode(doc, mode), True, True)
    spec = WorkloadSpec(objects=200, actions=800)
    for base in ("students", "hysteresis", "maintenance", "churn"):
        sc = load_scenario(scenarios / f"{base}.json")
        for seed in (1, 2, 3):
            label = f"gen-workload {base}.json seed {seed}"
            doc = generated_document(sc, spec, seed)
            yield f"{label} default oracle on", doc, True, True
            for mode in ("delta", "adaptive"):
                yield (f"{label} {mode} oracle on", in_mode(doc, mode),
                       True, True)
            if base == "maintenance":
                for mode in MODES:
                    yield (f"{label} late ops {mode} oracle on",
                           in_mode(late_ops(doc), mode), True, False)
    for scale, seeds in ((1, range(4, 9)), (4, (1, 2))):
        for name in ("churn", "readheavy", "ingest"):
            for seed in seeds:
                at = "" if scale == 1 else f"x{scale} "
                yield (f"bench {name} {at}seed {seed} default oracle on",
                       WORKLOADS[name](seed, ACTIONS[name] * scale), True,
                       False)
    convergence = json.loads((scenarios / "convergence.json").read_text())
    for mode in MODES:
        yield (f"convergence.json 8 leaves per DC {mode} oracle on",
               in_mode(wide(convergence), mode), True, True)
    ingest = wide(WORKLOADS["ingest"](1, ACTIONS["ingest"]))
    for mode in ("default", "delta"):
        doc = ingest if mode == "default" else in_mode(ingest, "delta")
        yield (f"bench ingest seed 1 8 leaves per DC {mode} oracle on",
               doc, True, True)


def broken(report, oracle: bool, may_refuse: bool) -> list[str]:
    """How a case's report breaks the rule, one phrase each."""
    faults = []
    if oracle:
        if not report.verify_ok:
            faults.append("oracle FAIL")
        faults += [f"no PASS {check} line" for check in REQUIRED
                   if not any(line.startswith(f"PASS {check}: ")
                              for line in report.verify_lines)]
    if report.runtime_errors and not may_refuse:
        faults.append("structural ops refused")
    return faults


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--root", type=Path,
                    default=Path(__file__).resolve().parent.parent,
                    help="checkout whose src, bench and scenarios to run "
                         "(default: this one)")
    args = ap.parse_args(argv)
    root = args.root.resolve()
    # that checkout's package and bench, ahead of any installed copy
    sys.path[:0] = [str(root / "src"), str(root / "bench")]
    from qpusim.scenario import parse_scenario, run_scenario

    failed = []
    for label, doc, oracle, may_refuse in runs(root):
        report = run_scenario(parse_scenario(doc), oracle=oracle)
        print(f"{label}: {digest(report)}", flush=True)
        failed += [f"{fault} in {label}"
                   for fault in broken(report, oracle, may_refuse)]
    for line in failed:
        print(line, file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
