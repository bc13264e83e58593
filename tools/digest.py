"""Print one output digest per run, so two checkouts can be diffed.

    python3 tools/digest.py                   # this checkout
    python3 tools/digest.py --root ../other   # another checkout

Each line names a run and gives the SHA-256 of everything it outputs: the
metrics CSV, traces.txt, the verify lines and runtime errors, each result's
sorted keys, clock, claim, target, stats and error, and the messages
delivered, the final tick and the scrub count. The 57 runs are:

- bench churn, readheavy and ingest at scale 1, seeds 1-3, in the
  workload's own replication mode and in delta mode, oracle off and on
- each bundled scenario in log, delta and adaptive mode, oracle on
- students.json with its history cut on the text attribute Major first
  (TEXT_CUT), in log, delta and adaptive mode, oracle on
- students.json with GPA unbinned, the only run whose numeric postings
  are keyed by value, in log, delta and adaptive mode, oracle on

Outputs that must not change give equal lines under `diff`, between two
checkouts or between two PYTHONHASHSEED values. The tool reads bench's
ACTIONS and WORKLOADS and writes nothing.

When a run's verify lines hold a FAIL line, an oracle check that failed,
the tool still prints every digest line, then names each such run on stderr
and exits 1. Runtime errors, such as a refused structural op, are outputs,
not failures.
"""

from __future__ import annotations

import argparse
import copy
import hashlib
import json
import sys
from pathlib import Path


# a history that cuts a text axis, which no bundled scenario and no split does
TEXT_CUT = {"attr": "Major", "at": "Math",
            "lo": {"attr": "GPA", "at": 2.0, "lo": "leaf", "hi": "leaf"},
            "hi": "leaf"}


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


def runs(root: Path):
    """(label, raw scenario document, oracle) for every run, in order."""
    from run import ACTIONS
    from workloads import WORKLOADS

    for name in ("churn", "readheavy", "ingest"):
        for seed in (1, 2, 3):
            for mode in ("default", "delta"):
                doc = WORKLOADS[name](seed, ACTIONS[name])
                if mode == "delta":
                    # the workloads share their base's tree object
                    doc = copy.deepcopy(doc)
                    doc["tree"]["repl_mode"] = "delta"
                for oracle in (False, True):
                    yield (f"bench {name} seed {seed} {mode} "
                           f"oracle {'on' if oracle else 'off'}", doc, oracle)
    for path in sorted((root / "scenarios").glob("*.json")):
        for mode in ("log", "delta", "adaptive"):
            doc = json.loads(path.read_text())
            doc.setdefault("tree", {})["repl_mode"] = mode
            yield f"{path.name} {mode} oracle on", doc, True
    for mode in ("log", "delta", "adaptive"):
        doc = json.loads((root / "scenarios" / "students.json").read_text())
        doc["tree"].update(history=TEXT_CUT, repl_mode=mode)
        yield f"students.json Major cut {mode} oracle on", doc, True
    for mode in ("log", "delta", "adaptive"):
        doc = json.loads((root / "scenarios" / "students.json").read_text())
        doc["binning"] = {"GPA": "none"}
        doc["tree"]["repl_mode"] = mode
        yield f"students.json GPA unbinned {mode} oracle on", doc, True


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
    for label, doc, oracle in runs(root):
        report = run_scenario(parse_scenario(doc), oracle=oracle)
        print(f"{label}: {digest(report)}", flush=True)
        if any(line.startswith("FAIL") for line in report.verify_lines):
            failed.append(label)
    for label in failed:
        print(f"oracle FAIL in {label}", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
