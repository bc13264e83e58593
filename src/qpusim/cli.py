"""Command line front end.

Exit codes: 0 on success, 1 when a run finished but verification failed,
2 when inputs did not validate, an output could not be written, or a run
hit its limits.
"""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import contextmanager
from pathlib import Path

from .router import QueryError, parse, route
from .scenario import (
    ScenarioError,
    generated_document,
    load_scenario,
    parse_scenario,
    run_scenario,
    write_outputs,
)
from .simcore import LivelockError
from .workload import WorkloadSpec


def _in_range(kind, lo, hi=None, lo_open=False):
    """An argparse type: `kind` parsed from the text and checked against
    the bounds, so a bad value exits 2 with a message naming its flag
    instead of failing inside the generator."""
    def convert(text: str):
        value = kind(text)  # a ValueError reads "invalid <kind> value"
        low_ok = value > lo if lo_open else value >= lo
        if not (low_ok and (hi is None or value <= hi)):  # NaN fails too
            need = [f"> {lo}" if lo_open else f">= {lo}"]
            if hi is not None:
                need.append(f"<= {hi}")
            raise argparse.ArgumentTypeError(
                f"must be {' and '.join(need)}, got {text}")
        return value
    convert.__name__ = kind.__name__
    return convert


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="qpusim",
        description="Deterministic simulator for a geo-distributed "
                    "secondary-index tree over a weakly consistent store.")
    sub = p.add_subparsers(dest="cmd", required=True)

    run_p = sub.add_parser("run", help="run a scenario and write its outputs")
    run_p.add_argument("scenario", help="scenario JSON file")
    run_p.add_argument("--out-dir", help="output directory "
                                         "(default: <scenario name>.out)")
    run_p.add_argument("--seed", type=int, help="override the scenario seed")
    run_p.add_argument("--trace", action="store_true",
                       help="also write every delivered message to "
                            "messages.csv")
    run_p.add_argument("--oracle", action="store_true",
                       help="check every query against a full scan as it "
                            "completes, plus end-state index rebuilds")

    gen_p = sub.add_parser("gen-workload",
                           help="synthesize a workload into a scenario file")
    gen_p.add_argument("--base", required=True,
                       help="scenario file supplying schema, DCs, tree, and the "
                            "splits, merges, partitions and scrubs to keep")
    gen_p.add_argument("--out", required=True, help="scenario file to write")
    gen_p.add_argument("--objects", type=_in_range(int, 1), default=200)
    gen_p.add_argument("--actions", type=_in_range(int, 0), default=1000)
    gen_p.add_argument("--key-dist", choices=["uniform", "zipf"], default="zipf")
    gen_p.add_argument("--theta", type=_in_range(float, 0, lo_open=True),
                       default=0.99)
    gen_p.add_argument("--query-frac", type=_in_range(float, 0, 1), default=0.2)
    gen_p.add_argument("--delete-frac", type=_in_range(float, 0, 1),
                       default=0.05)
    gen_p.add_argument("--gap", type=_in_range(int, 1), default=2,
                       help="ticks between consecutive actions")
    gen_p.add_argument("--seed", type=int, default=0)

    ver_p = sub.add_parser("verify",
                           help="run a scenario with every oracle check on")
    ver_p.add_argument("scenario")
    ver_p.add_argument("--out-dir")
    ver_p.add_argument("--seed", type=int)

    q_p = sub.add_parser("query",
                         help="replay a run deterministically, then answer "
                              "one query against its final state")
    q_p.add_argument("source",
                     help="scenario file, or an output directory holding "
                          "manifest.json")
    q_p.add_argument("text", help="query text, e.g. 'gpa > 2.0 FRESHNESS strong'")
    q_p.add_argument("--dc", help="origin datacenter (default: first declared)")
    q_p.add_argument("--trace", action="store_true",
                     help="print the routing trace")
    return p


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    handlers = {"run": _cmd_run, "gen-workload": _cmd_gen,
                "verify": _cmd_verify, "query": _cmd_query}
    try:
        return handlers[args.cmd](args)
    except ScenarioError as exc:
        print(f"scenario error: {exc}", file=sys.stderr)
        return 2
    except QueryError as exc:
        print(f"query error: {exc}", file=sys.stderr)
        return 2
    except LivelockError as exc:
        print(f"run error: reached limits.{exc.limit} at tick {exc.now} "
              f"with {exc.pending} events pending", file=sys.stderr)
        return 2


@contextmanager
def _writing(path: str):
    """An OSError in the block becomes a ScenarioError naming the path it
    could not write, so the command exits 2, as for a file it cannot read."""
    try:
        yield
    except OSError as exc:
        raise ScenarioError(
            f"cannot write {exc.filename or path}: {exc.strerror}") from None


def _load_with_seed(path: str, seed: int | None):
    sc = load_scenario(path)
    if seed is not None and seed != sc.seed:
        # reparse so a generated workload is drawn from the new seed too
        raw = dict(sc.raw)
        raw["seed"] = seed
        sc = parse_scenario(raw, "", sc.path)
    return sc


def _cmd_run(args) -> int:
    sc = _load_with_seed(args.scenario, args.seed)
    report = run_scenario(sc, trace=args.trace, oracle=args.oracle or sc.oracle)
    out_dir = args.out_dir or f"{Path(args.scenario).stem}.out"
    with _writing(out_dir):
        paths = write_outputs(report, out_dir)
    print(f"{sc.name}: {len(report.results)} queries, "
          f"{report.sim.delivered} messages, finished at tick {report.sim.now}")
    for name in ("metrics", "traces", "verify", "messages"):
        if name in paths:
            print(f"  {name}: {paths[name]}")
    if report.runtime_errors:
        print(f"  {len(report.runtime_errors)} structural ops refused "
              f"(see verify report)")
    if not report.verify_ok:
        print("verification FAILED", file=sys.stderr)
        return 1
    return 0


def _cmd_verify(args) -> int:
    sc = _load_with_seed(args.scenario, args.seed)
    report = run_scenario(sc, oracle=True)
    if args.out_dir:
        with _writing(args.out_dir):
            write_outputs(report, args.out_dir)
    for line in report.verify_lines:
        print(line)
    if not report.verify_ok:
        return 1
    return 0


def _cmd_gen(args) -> int:
    if args.query_frac + args.delete_frac > 1:
        print("usage error: --query-frac plus --delete-frac exceeds 1",
              file=sys.stderr)
        return 2
    base = load_scenario(args.base)
    for flag, value in (("--actions", args.actions), ("--objects", args.objects)):
        if value > base.max_events:  # the bound a generate block gets
            print(f"usage error: {flag} {value} exceeds the base's "
                  f"limits.max_events ({base.max_events})", file=sys.stderr)
            return 2
    spec = WorkloadSpec(
        objects=args.objects, actions=args.actions, key_dist=args.key_dist,
        theta=args.theta, query_frac=args.query_frac,
        delete_frac=args.delete_frac, gap=args.gap)
    doc = generated_document(base, spec, args.seed)
    parse_scenario(doc, "", args.out)  # reject anything the run would reject
    with _writing(args.out):
        Path(args.out).write_text(
            json.dumps(doc, indent=2, sort_keys=True) + "\n")
    actions = doc["workload"]
    puts = sum(1 for a in actions if a["op"] == "put")
    queries = sum(1 for a in actions if a["op"] == "query")
    print(f"{args.out}: {len(actions)} actions "
          f"({puts} puts, {queries} queries, "
          f"{len(actions) - args.actions} kept from the base), "
          f"seed {args.seed}")
    return 0


def _cmd_query(args) -> int:
    path = Path(args.source)
    if path.is_dir():
        try:
            manifest = json.loads((path / "manifest.json").read_text())
        except OSError as exc:
            raise ScenarioError(
                f"{path} has no readable manifest.json: {exc.strerror}") from None
        except json.JSONDecodeError as exc:
            raise ScenarioError(f"manifest.json is not valid JSON: {exc.msg}",
                                exc.lineno) from None
        if not isinstance(manifest, dict) or "scenario" not in manifest:
            raise ScenarioError(
                f"{path / 'manifest.json'} is not a JSON object with a "
                f"\"scenario\" field")
        sc = parse_scenario(manifest["scenario"], "", str(path))
    else:
        sc = load_scenario(path)
    dc = args.dc or sc.dcs[0]
    if dc not in sc.dcs:
        raise ScenarioError(f"dc {dc!r} is not part of this scenario")
    q = parse(args.text, sc.schema).at(dc)
    report = run_scenario(sc, oracle=False)
    res = route(q, report.net)
    print(f"{len(res.keys)} keys at {res.staleness} from {dc} "
          f"(coverage {res.clock!r})")
    for key in sorted(res.keys):
        print(key)
    if args.trace:
        print(res.trace)
    return 0


if __name__ == "__main__":
    sys.exit(main())
