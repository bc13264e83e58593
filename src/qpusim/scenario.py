"""Scenario files: load, validate, run, and write the run's outputs.

A scenario is one JSON document holding the schema, the network parameters,
the tree layout, and a timed workload. Loading validates everything it can
statically (unknown attributes, uncovered regions, malformed actions) and
reports failures with the line in the file they came from. It is the one
check: a run trusts a parsed `Scenario`, and the store commits its puts
unchecked. Running is fully deterministic for a given file, so reports can
be compared byte for byte.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field, replace
from itertools import pairwise
from operator import itemgetter
from pathlib import Path

from .crdt_index import Binner
from .geostore import GeoStore
from .oracle import (
    HitCheck,
    ScanViews,
    rebuild_index,
    reported_floor,
    scan,
    target_fault,
)
from .qpu import (
    METRICS_COLUMNS,
    MergeRefused,
    QpuNetwork,
    SelectivityConfig,
    SplitRefused,
    TreeConfig,
)
from .regions import AttributeSchema, Region, is_int
from .router import Query, QueryError, QueryResult, parse
from .simcore import NetConfig, Simulation
from .staleness import Level
from .workload import WorkloadSpec, gen_phases, gen_workload


class ScenarioError(Exception):
    def __init__(self, msg: str, line: int = 0):
        self.line = line
        where = f" (line {line})" if line else ""
        super().__init__(f"{msg}{where}")


@dataclass
class Scenario:
    name: str
    seed: int
    dcs: list[str]
    schema: dict[str, AttributeSchema]
    binner: Binner  # parse's one binner; every run of the scenario uses it
    net: NetConfig
    tree: TreeConfig
    workload: list[dict]  # in tick order; equal ticks in file order
    queries: dict[int, Query]  # workload index -> parsed query action
    oracle: bool = False
    max_ticks: int = 1_000_000
    max_events: int = 5_000_000
    raw: dict = field(default_factory=dict)
    path: str = ""


# -- loading ------------------------------------------------------------------------


_DECODE = json.JSONDecoder().raw_decode
_GAP = re.compile(r"\s*[,:]?\s*")  # what parts two tokens of a document


def _line_of(text: str, path: tuple) -> int:
    """The line in JSON `text` of the member at `path`, a key or an index
    per level: a key's own line, an item's first; 0 when there is none. An
    action is found by its place in the list, not by a key of its name, and
    a key given twice by its last occurrence, whose value json.loads keeps."""
    pos = start = 0
    try:
        for step in path:
            pos = _GAP.match(text, pos).end()
            obj = "[{".index(text[pos])  # 1 an object, 0 a list, else raise
            pos, n, found = pos + 1, 0, None
            while text[pos := _GAP.match(text, pos).end()] != "}":
                start = pos
                if obj:
                    key, pos = _DECODE(text, pos)
                    pos = _GAP.match(text, pos).end()
                if (key if obj else n) == step:
                    found = start, pos
                    if not obj:
                        break
                pos, n = _GAP.match(text, _DECODE(text, pos)[1]).end(), n + 1
            if found is None:
                return 0
            start, pos = found
    except (ValueError, IndexError):  # no such member
        return 0
    return text.count("\n", 0, start) + 1


def load_scenario(path: str | Path) -> Scenario:
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ScenarioError(f"cannot read {path}: {exc.strerror}") from None
    return parse_scenario(decode_json(text), text, str(path))


def decode_json(text: str, what: str = "") -> object:
    """The JSON value `text` holds, or a ScenarioError saying why it holds
    none; `what` names the text's source in the message."""
    err = f"{what} is not valid JSON" if what else "not valid JSON"
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"{err}: {exc.msg}", exc.lineno) from None
    except ValueError as exc:  # an int of more digits than int() takes
        raise ScenarioError(f"{err}: {str(exc).split(';')[0]}") from None
    except RecursionError:
        raise ScenarioError(f"{err}: nested too deeply") from None


_FIELDS = {"name", "seed", "dcs", "schema", "binning", "net", "tree",
           "workload", "generate", "verify", "limits"}
_LIMITS = {"max_ticks": 1_000_000, "max_events": 5_000_000}


def parse_scenario(raw: dict, text: str = "", path: str = "") -> Scenario:
    def fail(msg: str, *path):
        raise ScenarioError(msg, _line_of(text, path) if path else 0)

    def section(name: str) -> dict:
        """The optional top-level object `name`, empty when absent."""
        value = raw.get(name, {})
        if not isinstance(value, dict):
            fail(f"{name} must be a JSON object", name)
        return value

    if not isinstance(raw, dict):
        fail("scenario document must be a JSON object")
    for name in raw:
        if name not in _FIELDS:
            fail(f"unknown top-level field {name!r}", name)
    for req in ("dcs", "schema"):
        if req not in raw:
            fail(f"missing required field {req!r}")
    dcs = raw["dcs"]
    if (not isinstance(dcs, list) or not dcs
            or not all(isinstance(d, str) for d in dcs)
            or len(set(dcs)) != len(dcs)):
        fail("dcs must be a list of unique datacenter names", "dcs")
    if "root" in dcs or any("/" in d for d in dcs):
        # actor names are built from DC names: qpu/root, qpu/<dc>/h<n>
        fail('dcs may not name "root" or hold a "/"', "dcs")
    seed = raw.get("seed", 0)
    if not is_int(seed):
        fail("seed must be an integer", "seed")

    schema: dict[str, AttributeSchema] = {}
    for attr, spec in section("schema").items():
        try:
            schema[attr] = AttributeSchema(
                attr, spec.get("kind", ""), spec.get("lo"), spec.get("hi"),
                spec.get("alphabet"))
        except (ValueError, AttributeError) as exc:
            fail(f"schema attribute {attr!r}: {exc}", "schema", attr)

    binning = section("binning")
    for attr in binning:
        if attr not in schema:
            fail(f"binning names unknown attribute {attr!r}", "binning", attr)
    try:
        binner = Binner(schema, binning)
    except ValueError as exc:
        fail(f"binning: {exc}", "binning")

    try:
        net = NetConfig(**section("net"))
    except (TypeError, ValueError) as exc:
        fail(f"net: {exc}", "net")

    tree_raw = dict(section("tree"))
    if "root_dc" not in tree_raw:
        tree_raw["root_dc"] = dcs[0]
    history = tree_raw.pop("history", "leaf")
    # every replica indexes every origin; the key stays accepted as true
    replicated = tree_raw.pop("replicated", True)
    if replicated is not True:
        fail(f"tree.replicated must be true, got {replicated!r}",
             "tree", "replicated")
    try:
        sel = SelectivityConfig(**tree_raw.pop("selectivity", {}))
        tree = TreeConfig(selectivity=sel, history_tree=history, **tree_raw)
    except (TypeError, ValueError) as exc:
        fail(f"tree: {exc}", "tree")
    if tree.root_dc not in dcs:
        fail(f"tree.root_dc {tree.root_dc!r} is not a declared DC",
             "tree", "root_dc")
    _validate_history(history, Region.whole(schema), schema,
                      lambda msg: fail(msg, "tree", "history"))

    limits = section("limits")
    for name in limits:
        if name not in _LIMITS:
            fail(f"limits: unknown field {name!r}", "limits", name)
    bounds = {}
    for name, default in _LIMITS.items():
        value = bounds[name] = limits.get(name, default)
        if not is_int(value) or value < 1:
            fail(f"limits.{name} must be a positive integer", "limits", name)

    workload = raw.get("workload", [])
    if "generate" in raw:
        if workload:
            fail("give either workload or generate, not both", "generate")
        gen = section("generate")
        if "phases" in gen and len(gen) > 1:
            fail(f"generate: give either phases or one phase's fields, not "
                 f"both, got {sorted(gen)}", "generate")
        phases = gen["phases"] if "phases" in gen else [gen]
        if (not isinstance(phases, list)
                or not all(isinstance(p, dict) for p in phases)):
            fail(f"generate.phases must be a list of objects, got {phases!r}",
                 "generate")
        try:
            specs = [WorkloadSpec(**{k: tuple(v) if k == "staleness_mix"
                                     else v for k, v in p.items()})
                     for p in phases]
        except (TypeError, ValueError) as exc:
            fail(f"generate: {exc}", "generate")
        for spec in specs:
            for attr, (lo, hi) in spec.value_ranges.items():
                sch = schema.get(attr)
                if sch is None or sch.kind == "text":
                    fail(f"generate: value_ranges names {attr!r}, which is "
                         f"not a numeric attribute", "generate")
                if not (sch.validate(lo) and sch.validate(hi) and lo <= hi):
                    fail(f"generate: value_ranges {attr!r} must be {sch.kind} "
                         f"bounds lo <= hi within [{sch.lo!r}, {sch.hi!r}], "
                         f"got [{lo!r}, {hi!r}]", "generate")
        # each action is at least one event, and a zipf key table holds one
        # weight per object, so both are bounded before anything is drawn
        actions = sum(s.actions for s in specs)
        objects = max((s.objects for s in specs), default=0)
        if max(actions, objects) > bounds["max_events"]:
            fail(f"generate: {actions} actions and {objects} objects may not "
                 f"exceed limits.max_events ({bounds['max_events']})",
                 "generate")
        workload = gen_phases(schema, dcs, specs, seed)
    queries = _validate_workload(workload, dcs, schema, fail)
    if any(a["t"] > b["t"] for a, b in pairwise(workload)):
        # a run feeds the actions in tick order; the sort is stable, so
        # equal ticks keep file order, the order they have always run in
        order = sorted(range(len(workload)), key=lambda i: workload[i]["t"])
        at = {old: new for new, old in enumerate(order)}
        workload = [workload[i] for i in order]
        queries = {at[i]: q for i, q in queries.items()}

    # unknown verify fields are let through: documents still pass the
    # retired verify.caches switch
    verify = section("verify")
    oracle = verify.get("oracle", False)
    if not isinstance(oracle, bool):
        fail(f"verify.oracle must be true or false, got {oracle!r}",
             "verify", "oracle")
    return Scenario(
        name=raw.get("name", path or "scenario"),
        seed=seed,
        dcs=list(dcs),
        schema=schema,
        binner=binner,
        net=net,
        tree=tree,
        workload=workload,
        queries=queries,
        oracle=oracle,
        max_ticks=bounds["max_ticks"],
        max_events=bounds["max_events"],
        raw=raw,
        path=path,
    )


def _validate_history(spec, region, schema, fail, where="tree.history"):
    """A history node is "leaf" or a cut {attr, at, lo, hi} whose two sides
    are history nodes again, so the leaves always tile the value space.
    Anything else is rejected with its path in the tree."""
    if spec == "leaf":
        return
    if not isinstance(spec, dict) or set(spec) != {"attr", "at", "lo", "hi"}:
        got = sorted(spec) if isinstance(spec, dict) else repr(spec)
        fail(f"{where} must be \"leaf\" or a cut with exactly attr, at, lo "
             f"and hi, got {got}")
    attr, at = spec["attr"], spec["at"]
    if not isinstance(attr, str) or attr not in schema:
        fail(f"{where} cuts unknown attribute {attr!r}")
    if not schema[attr].validate(at):
        fail(f"{where} cut at {at!r} is not a value of {attr!r}")
    lo_part, hi_part = region.cut(attr, at)
    if lo_part is None or hi_part is None:
        fail(f"{where} cut {attr}@{at!r} leaves an empty side")
    _validate_history(spec["lo"], lo_part, schema, fail, f"{where}.lo")
    _validate_history(spec["hi"], hi_part, schema, fail, f"{where}.hi")


_OPS = {"put", "delete", "query", "force-split", "force-merge", "partition",
        "scrub"}


def _validate_workload(workload, dcs, schema, fail) -> dict[int, Query]:
    """Check every action; returns the parsed query of each query action by
    its index, so a run does not parse the texts again."""
    if not isinstance(workload, list):
        fail("workload must be a list", "workload")
    queries: dict[int, Query] = {}
    parsed: dict[str, Query] = {}  # query text -> its one parse
    exprs: dict[object, object] = {}  # expression -> one shared object
    windows: dict[tuple, list] = {}  # DC pair -> its partitions' (t, until, i)
    for i, act in enumerate(workload):
        def bad(msg):
            fail(f"workload action {i}: {msg}", "workload", i, "op")

        if not isinstance(act, dict) or "op" not in act:
            fail(f"workload action {i} needs an op", "workload")
        op = act["op"]
        if not isinstance(op, str) or op not in _OPS:
            bad(f"unknown op {op!r}")
        t = act.get("t")
        if not is_int(t) or t < 0:
            bad("t must be a non-negative integer tick")
        if op in ("put", "delete", "query") and act.get("dc") not in dcs:
            bad(f"dc {act.get('dc')!r} is not declared")
        if op in ("put", "delete") and not isinstance(act.get("key"), str):
            bad(f"{op} needs a string key")
        if op == "put":
            attrs = act.get("attrs")
            if not isinstance(attrs, dict):
                bad(f"attrs must be an object, got {attrs!r}")
            if attrs.keys() != schema.keys():
                bad(f"attrs must give every schema attribute exactly once, "
                    f"got {sorted(attrs)}")
            for a, v in attrs.items():
                sch = schema[a]
                if isinstance(v, float) and sch.kind == "int":
                    bad(f"attribute {a!r} takes int values")
                if not sch.validate(v):
                    bad(f"value {v!r} is outside the domain of {a!r}")
        if op == "query":
            text = act.get("text", "")
            if not isinstance(text, str):
                bad("query text must be a string")
            if text not in parsed:
                try:
                    q = parse(text, schema)
                except QueryError as exc:
                    bad(f"query does not parse: {exc}")
                # equal expressions share one object, so the run's plan
                # memo finds it by identity
                expr = exprs.setdefault(q.expr, q.expr)
                parsed[text] = replace(q, expr=expr)
            queries[i] = parsed[text]
        if op == "force-split" and not isinstance(act.get("qpu"), str):
            bad("force-split needs a qpu actor name")
        if op == "force-merge" and not (
                isinstance(act.get("a"), str) and isinstance(act.get("b"), str)):
            bad("force-merge needs actor names a and b")
        if op == "partition":
            if act.get("a") not in dcs or act.get("b") not in dcs:
                bad("partition needs two declared DCs")
            if act["a"] == act["b"]:
                bad("partition needs two different DCs")
            if not is_int(act.get("until")) or act["until"] <= t:
                bad("partition needs until > t")
            pair = tuple(sorted((act["a"], act["b"])))
            windows.setdefault(pair, []).append((t, act["until"], i))
    for pair, spans in windows.items():
        # windows may touch, [50, 60) then [60, 70), but not overlap
        spans.sort()
        for (_, until, _), (t, _, i) in zip(spans, spans[1:]):
            if t < until:
                fail(f"workload action {i}: partition overlaps another "
                     f"window on {pair[0]}-{pair[1]}", "workload", i, "op")
    return queries


def generated_document(base: Scenario, spec: WorkloadSpec, seed: int) -> dict:
    """`base`'s document with a workload drawn from `spec` and `seed` in
    place of its own. The base's splits, merges, partitions and scrubs keep
    their ticks among the generated actions."""
    kept = [a for a in base.workload
            if a["op"] not in ("put", "delete", "query")]
    doc = dict(base.raw)
    doc.pop("generate", None)
    doc["workload"] = sorted(
        kept + gen_workload(base.schema, base.dcs, spec, seed),
        key=itemgetter("t"))
    doc["seed"] = seed
    return doc


# -- running ------------------------------------------------------------------------


@dataclass
class RunReport:
    scenario: Scenario
    sim: Simulation
    store: GeoStore
    net: QpuNetwork
    results: list[QueryResult]
    verify_lines: list[str]
    runtime_errors: list[str]
    scrubbed: int

    @property
    def verify_ok(self) -> bool:
        return not any(ln.startswith("FAIL") for ln in self.verify_lines)


def build_scenario(sc: Scenario, trace: bool = False):
    sim = Simulation(sc.net, seed=sc.seed, trace=trace)
    store = GeoStore(sim, sc.dcs, sc.binner)
    net = QpuNetwork(sim, store, sc.tree)
    return sim, store, net


def run_scenario(sc: Scenario, trace: bool = False,
                 oracle: bool | None = None) -> RunReport:
    """Run the scenario to quiescence, scrub, and run again to quiescence.

    The actions enter the simulation through a cursor (`Simulation.feed`):
    the heap holds the next action's event, not one closure per action, so
    what the run holds does not grow with the workload's length. Each
    action keeps the heap seq its index gives it, so events pop in the
    order they would if every action had been scheduled up front."""
    oracle = sc.oracle if oracle is None else oracle
    sim, store, net = build_scenario(sc, trace=trace)
    if oracle:
        net.check_hit = HitCheck(store)
        views = ScanViews(scan)  # full scans go through this module's scan
    results: list[QueryResult] = []
    verify_lines: list[str] = []
    runtime_errors: list[str] = []

    def on_result(query: Query):
        heads = store.replicas[query.origin_dc].heads if oracle else None
        # what a snapshot target must dominate: the root's reports only grow
        reported = (reported_floor(net.root) if oracle
                    and query.staleness.level is Level.SNAPSHOT else None)

        def cb(res: QueryResult):
            results.append(res)
            if not oracle:
                return
            replica = store.replicas[query.origin_dc]
            want = views(replica, query)
            if res.keys != want:
                verify_lines.append(
                    f"FAIL query {res.query_id}: keys diverge from full scan "
                    f"(extra {sorted(res.keys - want)}, "
                    f"missing {sorted(want - res.keys)})")
            if res.target is None:  # an empty plan resolves no target
                return
            fault = target_fault(query.staleness, res.target, heads, store,
                                 reported)
            if fault is not None:
                verify_lines.append(f"FAIL query {res.query_id}: {fault}")
            if not res.claimed.dominates(res.target):
                verify_lines.append(f"FAIL query {res.query_id}: claimed "
                                    f"{res.claimed!r} below target {res.target!r}")
        return cb

    workload, queries = sc.workload, sc.queries

    def act(i: int):
        a = workload[i]
        op = a["op"]
        if op == "put":
            store.put(a["dc"], a["key"], a["attrs"])
        elif op == "delete":
            store.delete(a["dc"], a["key"])
        elif op == "query":
            q = queries[i].at(a["dc"])
            net.submit(q, on_result(q))
        elif op == "force-split":
            _forced(net.force_split, (a["qpu"],), runtime_errors)
        elif op == "force-merge":
            _forced(net.merge_siblings, (a["a"], a["b"]), runtime_errors)
        elif op == "partition":
            sim.open_partition(a["a"], a["b"], a["until"])
        elif op == "scrub":
            net.scrub_all()

    sim.feed(len(workload), lambda i: workload[i]["t"], act)
    sim.run_until_quiescent(max_ticks=sc.max_ticks, max_events=sc.max_events)
    if oracle:
        verify_lines.append(_verify_ingest(net))
    scrubbed = net.scrub_all()
    sim.run_until_quiescent(max_ticks=sc.max_ticks, max_events=sc.max_events)
    if oracle:
        verify_lines.extend(_verify_end_state(net, scrubbed))
        verify_lines.extend(views.lines())
        verify_lines.extend(net.check_hit.lines())
    return RunReport(sc, sim, store, net, results, verify_lines,
                     runtime_errors, scrubbed)


def _forced(fn, args, errors: list[str]):
    try:
        fn(*args)
    except (SplitRefused, MergeRefused, ValueError) as exc:
        errors.append(str(exc))


def _verify_ingest(net) -> str:
    """Whether each ingest cursor, shared or a leaf's copy, has indexed all
    its replica holds and holds no remove for an add that never came, and
    whether every leaf is back on its DC's shared cursor. A leaf keeps no
    entry past its clock, so that is all it can owe."""
    leaves = net.hist_leaves()
    cursors = {id(leaf.index.clock): leaf for leaf in leaves}
    behind = sum(n for leaf in cursors.values() for n
                 in leaf.index.clock.lag_behind(leaf.replica.heads).values()
                 if n > 0)
    held = {(leaf.dc, r) for leaf in leaves for r in leaf.index.removed}
    ahead = sum(leaf.own_puts is not None for leaf in leaves)
    if behind or held or ahead:
        return (f"FAIL ingest: leaves {behind} entries behind their replica "
                f"heads, {len(held)} removes held, {ahead} leaves off the "
                f"shared cursor")
    return "PASS ingest: every leaf at its replica heads"


def _verify_end_state(net, scrubbed: int) -> list[str]:
    # at quiescence an empty-plan query has completed; one still pending
    # lost its response, and one still parked waits for good
    stuck = sum(len(c.pending) + len(c.parked)
                for c in net.coordinators.values())
    if stuck:
        lines = [f"FAIL run: {stuck} queries never completed"]
    else:
        lines = [f"PASS run: quiesced at tick {net.sim.now}, scrubbed {scrubbed}"]
    # Leaves and rebuilds are compared as `CrdtIndex.state()`, with ==, not
    # as `canonical()` bytes. The two agree, since canonical serializes
    # exactly that state and == sees no difference the bytes would not:
    # - a VectorClock holds no zero component, so equal clocks have equal
    #   entries
    # - no posting set is empty, since `_cull` deletes a bin it empties,
    #   so canonical skips none
    # - an int attribute holds only ints, and a float point bin written as
    #   2 and 2.0, or as -0.0 and 0.0, is one dict key, just as
    #   `Binner.interval` renders both the same
    # A rebuild reads only the region and the replica's heads and winners,
    # so a region's rebuild serves each later leaf of the region whose
    # replica has equal heads and an equal `objects` map. At quiescence the
    # replicas' winners are the same `LogEntry` objects, so that compare
    # walks one dict and compares no entry field by field.
    rebuilt: dict[tuple, tuple] = {}  # region key -> (replica, rebuild state)
    by_region: dict[tuple, dict[str, tuple]] = {}
    bad = 0
    for leaf in net.hist_leaves():
        region, replica = leaf.region.key(), leaf.replica
        prior = rebuilt.get(region)
        if (prior is not None and prior[0].heads == replica.heads
                and prior[0].objects == replica.objects):
            want = prior[1]
        else:
            want = rebuild_index(replica, net.binner, leaf.region).state()
            rebuilt[region] = (replica, want)
        got = leaf.index.state()
        if want != got:
            bad += 1
            lines.append(f"FAIL index {leaf.actor}: diverges from a rebuild "
                         f"of its replica")
        by_region.setdefault(region, {})[leaf.dc] = got
    if not bad:
        lines.append(f"PASS index: {len(net.hist_leaves())} leaves equal "
                     f"their replica rebuilds")
    mismatched = 0
    for per_dc in by_region.values():
        first, *rest = per_dc.values()
        mismatched += any(state != first for state in rest)
    if mismatched:
        lines.append(f"FAIL convergence: {mismatched} regions differ "
                     f"across DCs")
    else:
        lines.append("PASS convergence: replicated leaves byte-identical "
                     "across DCs")
    return lines


# -- outputs ------------------------------------------------------------------------

def metrics_csv(net: QpuNetwork) -> str:
    return ",".join(METRICS_COLUMNS) + "\n" + "".join(net.metrics)


def traces_text(results: list[QueryResult]) -> str:
    out = []
    for res in results:
        out.append(f"=== {res.query_id} tick={res.response_tick} "
                   f"dc={res.origin_dc} staleness={res.staleness} "
                   f"error={res.error or '-'}")
        out.append(res.trace)
        out.append("")
    return "\n".join(out) + ("\n" if out else "")


def write_outputs(report: RunReport, out_dir: str | Path) -> dict[str, Path]:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = {
        "metrics": out / "metrics.csv",
        "traces": out / "traces.txt",
        "verify": out / "verify.txt",
        "manifest": out / "manifest.json",
    }
    paths["metrics"].write_text(metrics_csv(report.net))
    paths["traces"].write_text(traces_text(report.results))
    status = "OK" if report.verify_ok else "FAILED"
    body = "\n".join(report.verify_lines + report.runtime_errors + [status, ""])
    paths["verify"].write_text(body)
    manifest = {
        "scenario": report.scenario.raw,
        "source": report.scenario.path,
        "seed": report.scenario.seed,
        "finished_tick": report.sim.now,
        "delivered": report.sim.delivered,
        "queries": len(report.results),
    }
    paths["manifest"].write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    if report.sim.trace_rows is not None:
        paths["messages"] = out / "messages.csv"
        report.sim.dump_trace(paths["messages"])
    return paths
