import dataclasses
import json
from pathlib import Path

import pytest

from qpusim import (
    AttributeSchema,
    Binner,
    LogEntry,
    ScenarioError,
    Simulation,
    Stamp,
    VectorClock,
    WorkloadSpec,
    load_scenario,
    parse_scenario,
    run_scenario,
    write_outputs,
)
from qpusim import geostore, scenario
from qpusim.scenario import _verify_end_state, _verify_ingest

ROOT = Path(__file__).resolve().parent.parent
SCENARIOS = ROOT / "scenarios"


def minimal(**over):
    raw = {
        "name": "t",
        "seed": 1,
        "dcs": ["dc1", "dc2"],
        "schema": {"x": {"kind": "float", "lo": 0.0, "hi": 10.0}},
        "workload": [
            {"t": 1, "op": "put", "dc": "dc1", "key": "a", "attrs": {"x": 3.0}},
            {"t": 5, "op": "query", "dc": "dc2",
             "text": "x > 1.0 FRESHNESS strong"},
        ],
    }
    raw.update(over)
    return raw


def test_students_scenario_runs_clean():
    sc = load_scenario(SCENARIOS / "students.json")
    report = run_scenario(sc)
    assert report.verify_ok
    assert all(r.error is None for r in report.results)
    assert any(ln.startswith("PASS") for ln in report.verify_lines)


def test_minimal_scenario_round_trip():
    report = run_scenario(parse_scenario(minimal()))
    assert report.verify_ok
    (res,) = report.results
    assert {k for k in res.keys} == {"a"}


def test_rerun_is_deterministic(tmp_path):
    sc = load_scenario(SCENARIOS / "students.json")
    a = write_outputs(run_scenario(sc), tmp_path / "a")
    b = write_outputs(run_scenario(load_scenario(SCENARIOS / "students.json")),
                      tmp_path / "b")
    for name in ("metrics", "traces", "verify"):
        assert a[name].read_text() == b[name].read_text(), name


def test_invalid_json_reports_line():
    import tempfile

    with tempfile.NamedTemporaryFile("w", suffix=".json", delete=False) as f:
        f.write('{\n  "dcs": [1,,]\n}\n')
        path = f.name
    with pytest.raises(ScenarioError) as exc:
        load_scenario(path)
    assert exc.value.line == 2


def test_missing_required_fields():
    with pytest.raises(ScenarioError, match="missing required field"):
        parse_scenario({"dcs": ["dc1"]})
    with pytest.raises(ScenarioError, match="unique"):
        parse_scenario(minimal(dcs=["dc1", "dc1"]))


def test_history_cut_must_leave_two_sides():
    tree = {"history": {"attr": "x", "at": 0.0, "lo": "leaf", "hi": "leaf"}}
    with pytest.raises(ScenarioError, match="empty side"):
        parse_scenario(minimal(tree=tree))


def test_generate_and_workload_are_exclusive():
    raw = minimal(generate={"objects": 5, "actions": 10})
    with pytest.raises(ScenarioError, match="not both"):
        parse_scenario(raw)
    del raw["workload"]
    sc = parse_scenario(raw)
    assert len(sc.workload) == 10


def test_workload_validation_messages():
    with pytest.raises(ScenarioError, match="unknown op"):
        parse_scenario(minimal(workload=[{"t": 1, "op": "frob"}]))
    with pytest.raises(ScenarioError, match="every schema attribute"):
        parse_scenario(minimal(workload=[
            {"t": 1, "op": "put", "dc": "dc1", "key": "a", "attrs": {}}]))
    with pytest.raises(ScenarioError, match="outside the domain"):
        parse_scenario(minimal(workload=[
            {"t": 1, "op": "put", "dc": "dc1", "key": "a",
             "attrs": {"x": 99.0}}]))
    with pytest.raises(ScenarioError, match="does not parse"):
        parse_scenario(minimal(workload=[
            {"t": 1, "op": "query", "dc": "dc1", "text": "y > 1"}]))
    with pytest.raises(ScenarioError, match="until > t"):
        parse_scenario(minimal(workload=[
            {"t": 9, "op": "partition", "a": "dc1", "b": "dc2", "until": 9}]))
    with pytest.raises(ScenarioError, match="not declared"):
        parse_scenario(minimal(workload=[
            {"t": 1, "op": "put", "dc": "dc9", "key": "a",
             "attrs": {"x": 1.0}}]))


def test_scenario_error_knows_json_lines():
    text = json.dumps(minimal(workload=[
        {"t": 1, "op": "put", "dc": "dc1", "key": "a", "attrs": {"x": 1.0}},
        {"t": 2, "op": "frob"},
    ]), indent=2)
    with pytest.raises(ScenarioError) as exc:
        parse_scenario(json.loads(text), text=text)
    want = next(i + 1 for i, ln in enumerate(text.splitlines())
                if '"op": "frob"' in ln) - 1  # points at the action's op line
    assert exc.value.line in (want, want + 1)


def test_forced_split_refusal_is_reported_not_fatal():
    sc = load_scenario(SCENARIOS / "maintenance.json")
    report = run_scenario(sc)
    assert report.verify_ok
    assert any("non-degenerate median" in e for e in report.runtime_errors)


def test_oracle_flag_checks_results_inline():
    raw = minimal(verify={"oracle": True, "caches": True})
    report = run_scenario(parse_scenario(raw))
    assert report.verify_ok
    assert any(ln.startswith("PASS index") for ln in report.verify_lines)
    assert any(ln.startswith("PASS convergence") for ln in report.verify_lines)
    assert any(ln.startswith("PASS cache") for ln in report.verify_lines)


def test_oracle_flags_a_wrong_result(monkeypatch):
    # fault injection: leaves that silently drop a key must turn the report red
    from qpusim.qpu import Qpu

    orig = Qpu._lookup

    def crooked(self, rects):
        return tuple(k for k in orig(self, rects) if k != "a")

    monkeypatch.setattr(Qpu, "_lookup", crooked)
    report = run_scenario(parse_scenario(minimal(verify={"oracle": True})))
    assert not report.verify_ok
    assert any(ln.startswith("FAIL query") and "missing ['a']" in ln
               for ln in report.verify_lines)


def test_oracle_flags_a_claim_below_the_target(monkeypatch):
    # the root claims nothing; the rescan still finds the key, so only the
    # claim check can see it
    from qpusim.qpu import Qpu

    monkeypatch.setattr(Qpu, "_joined_clock", lambda self, resps: VectorClock())
    raw = minimal(verify={"oracle": True})
    raw["workload"][1]["dc"] = "dc1"
    report = run_scenario(parse_scenario(raw))
    assert [r.keys for r in report.results] == [frozenset({"a"})]
    assert [ln for ln in report.verify_lines if ln.startswith("FAIL")] == [
        "FAIL query q1: claimed {} below target {dc1:1}"]


def test_oracle_flags_a_query_that_never_completes(monkeypatch):
    from qpusim.qpu import Coordinator

    monkeypatch.setattr(Coordinator, "handle", lambda self, env: None)
    report = run_scenario(parse_scenario(minimal(verify={"oracle": True})))
    assert report.results == []
    assert "FAIL run: 1 queries never completed" in report.verify_lines


def test_oracle_flags_a_query_parked_for_good(monkeypatch):
    from qpusim.qpu import Coordinator

    def park(self, env):
        resp = env.payload
        info = self.pending.pop(resp.qid, None)
        if info is not None:
            self.parked.append((info, resp))

    monkeypatch.setattr(Coordinator, "handle", park)
    monkeypatch.setattr(Coordinator, "_on_feed", lambda self, entry: None)
    report = run_scenario(parse_scenario(minimal(verify={"oracle": True})))
    assert report.results == []
    assert "FAIL run: 1 queries never completed" in report.verify_lines


# -- planted defects in the end-of-run index lines ------------------------------

# students.json: three DCs, each with a leaf below GPA 2 (h1) and one above (h2)
INDEX_FAIL = "FAIL index {}: diverges from a rebuild of its replica"
CONVERGED = "PASS convergence: replicated leaves byte-identical across DCs"


def quiesced_students():
    """The oracle-on run of students.json, and the first of its end-of-run
    lines, which no plant below changes."""
    report = run_scenario(load_scenario(SCENARIOS / "students.json"),
                          oracle=True)
    lines = _verify_end_state(report.net, report.scrubbed)
    assert lines == [ln for ln in report.verify_lines
                     if ln.startswith(("PASS run", "PASS index",
                                       "PASS convergence"))]
    assert lines[1:] == ["PASS index: 6 leaves equal their replica rebuilds",
                         CONVERGED]
    return report, lines[0]


def test_ingest_check_counts_each_cursor_and_hold_once():
    # dc2's two leaves share one cursor, so a shared clock one entry behind
    # is one entry owed and a shared hold one remove; a leaf off the
    # shared cursor at quiescence fails the check too
    report, _ = quiesced_students()
    net = report.net
    assert _verify_ingest(net) == "PASS ingest: every leaf at its replica heads"
    router = net.nodes["qpu/dc2"]

    def fault(behind, held, ahead):
        return (f"FAIL ingest: leaves {behind} entries behind their replica "
                f"heads, {held} removes held, {ahead} leaves off the shared "
                f"cursor")

    router.removed.add(("dc1", 99))
    assert _verify_ingest(net) == fault(0, 1, 0)
    router.removed.clear()
    router.clock.entries["dc1"] -= 1
    assert _verify_ingest(net) == fault(1, 0, 0)
    router.clock.entries["dc1"] += 1
    leaf = net.nodes["qpu/dc2/h1"]  # on a copy of the cursor, as ahead
    leaf.index.clock = router.clock.copy()
    leaf.index.removed = set()
    leaf.own_puts = router.puts
    assert _verify_ingest(net) == fault(0, 0, 1)
    leaf.index.clock.entries["dc3"] -= 1
    leaf.index.removed.add(("dc1", 99))
    assert _verify_ingest(net) == fault(1, 1, 1)


def cull_a_tag(index):
    index._cull(min(index.tag_info))


def advance_the_clock(index):
    # a clock of its own: at quiescence the DC's leaves share one
    index.clock = VectorClock({**index.clock.entries,
                               "dc1": index.clock.get("dc1") + 1})


def map_a_tag_to_another_key(index):
    tag, other = min(index.tag_info), max(index.tag_info)
    wrong = index.tag_info[other].key
    index.tag_info[tag] = dataclasses.replace(index.tag_info[tag], key=wrong)


@pytest.mark.parametrize("plant", [cull_a_tag, advance_the_clock,
                                   map_a_tag_to_another_key])
def test_end_state_flags_a_leaf_that_left_its_rebuild(plant):
    # dc2's h2 is checked against the rebuild made for dc1's h2, which the
    # replicas' equal heads and winners let it share
    report, run_line = quiesced_students()
    plant(report.net.nodes["qpu/dc2/h2"].index)
    assert _verify_end_state(report.net, report.scrubbed) == [
        run_line, INDEX_FAIL.format("qpu/dc2/h2"),
        "FAIL convergence: 1 regions differ across DCs"]


def test_end_state_rebuilds_from_a_replica_that_lost_a_winner():
    # dc3 is the last DC of each region, so a rebuild shared without
    # comparing the winners would hide this; only the leaf whose region
    # holds the dropped key differs from its own replica's rebuild
    report, run_line = quiesced_students()
    objects = report.store.replicas["dc3"].objects
    leaf = report.net.nodes["qpu/dc3/h2"]
    key = min(k for k, ver in objects.items() if ver.attrs is not None
              and leaf.region.contains_point(ver.attrs))
    del objects[key]
    assert _verify_end_state(report.net, report.scrubbed) == [
        run_line, INDEX_FAIL.format("qpu/dc3/h2"), CONVERGED]


def test_end_state_rebuilds_from_a_replica_with_other_heads():
    # dc3 applies one more dc1 entry, a delete that wins nothing, and its
    # leaves ingest it: their replica's winners are dc1's, its heads are
    # not, so each leaf equals only its own replica's rebuild
    report, _ = quiesced_students()
    rep = report.store.replicas["dc3"]
    seq = rep.base["dc1"] + len(rep.log["dc1"]) + 1
    winners = dict(rep.objects)
    rep.apply_remote(LogEntry("dc1", seq, Stamp(-1, "dc1", seq),
                              min(rep.objects), None, None, None))
    report.sim.run_until_quiescent()
    assert rep.objects == winners
    assert rep.heads != report.store.replicas["dc1"].heads
    # the run line gives the later tick the leaves quiesced at
    assert _verify_end_state(report.net, report.scrubbed)[1:] == [
        "PASS index: 6 leaves equal their replica rebuilds",
        "FAIL convergence: 2 regions differ across DCs"]


def test_write_outputs_files(tmp_path):
    report = run_scenario(parse_scenario(minimal()))
    paths = write_outputs(report, tmp_path)
    assert paths["metrics"].read_text().startswith("tick,")
    assert "=== q" in paths["traces"].read_text()
    assert paths["verify"].read_text().rstrip().endswith("OK")
    manifest = json.loads(paths["manifest"].read_text())
    assert manifest["queries"] == 1
    assert manifest["scenario"]["name"] == "t"


def test_metrics_rows_quote_dc_names_as_the_csv_module_does():
    import csv
    import io

    from qpusim import metrics_csv

    dcs = ["a,b", 'c"d']
    report = run_scenario(parse_scenario(minimal(dcs=dcs, workload=[
        {"t": 1, "op": "put", "dc": dcs[0], "key": "k", "attrs": {"x": 3.0}},
        {"t": 2, "op": "query", "dc": dcs[1], "text": "x > 1.0"},
        {"t": 3, "op": "query", "dc": dcs[0], "text": "x > 1.0"}])))
    got = metrics_csv(report.net)
    rows = list(csv.reader(io.StringIO(got)))
    assert len(rows) == 3
    assert all(r[-1].startswith("a,b:") and '|c"d:' in r[-1] for r in rows[1:])
    want = io.StringIO()
    csv.writer(want, lineterminator="\n").writerows(rows)
    assert got == want.getvalue()


def test_each_distinct_query_text_is_parsed_once():
    texts = ["x > 0.0 FRESHNESS strong", "x < 4.0", "x > 0.0 FRESHNESS strong",
             "x > 0.0", "x > -0.0"]
    sc = parse_scenario(minimal(workload=[
        {"t": t, "op": "query", "dc": "dc1", "text": text}
        for t, text in enumerate(texts)]))
    first, second, third, fourth, fifth = (sc.queries[i] for i in range(5))
    assert first is third and first is not second
    # one expression object per expression, whatever the FRESHNESS clause,
    # and -0.0 is the 0.0 it compares equal to
    assert fourth is not first and fourth.expr is first.expr
    assert fifth.expr is first.expr


# the values each generate field is set to in turn
MUTANTS = (True, None, 0, -1, 2**40, 1.5, "x", [], {})


def generate_paths(node, path=()):
    """The path to every value inside a generate phase, nested ones too."""
    items = (node.items() if isinstance(node, dict)
             else enumerate(node) if isinstance(node, list) else ())
    for k, v in items:
        yield path + (k,)
        yield from generate_paths(v, path + (k,))


@pytest.mark.parametrize("name", ["churn.json", "convergence.json",
                                  "hysteresis.json"])
def test_a_mutated_generate_field_parses_or_is_rejected(name):
    # every WorkloadSpec field of each phase, given or not, and every value
    # nested in one, set to each mutant in turn: the scenario either parses
    # or is rejected with a ScenarioError, never another exception
    doc = json.loads((SCENARIOS / name).read_text())
    phased = "phases" in doc["generate"]
    phases = doc["generate"]["phases"] if phased else [doc["generate"]]
    rejected = 0
    for i, phase in enumerate(phases):
        paths = ({(f.name,) for f in dataclasses.fields(WorkloadSpec)}
                 | set(generate_paths(phase)))
        for path in sorted(paths, key=repr):
            for value in MUTANTS:
                mutant = json.loads(json.dumps(doc))
                gen = mutant["generate"]
                node = gen["phases"][i] if phased else gen
                for k in path[:-1]:
                    node = node[k]
                node[path[-1]] = value
                try:
                    parse_scenario(mutant)
                except ScenarioError:
                    rejected += 1
    assert rejected


def test_query_text_that_is_not_a_string_is_rejected():
    raw = minimal(workload=[{"t": 1, "op": "query", "dc": "dc1", "text": 5}])
    with pytest.raises(ScenarioError, match="query text must be a string"):
        parse_scenario(raw)


def write_heavy(mode: str, seed: int) -> dict:
    """A generated write-heavy run over three DCs with duplicated, jittered
    replication. The written prices move from the low half of the space to
    the high half, so adaptive leaves switch modes. Every DC splits its low
    leaf a quarter of the way in, and dc2 merges the halves back at three
    quarters, which leaves the other DCs' halves without a peer."""
    raw = {
        "name": f"write-heavy-{mode}",
        "seed": seed,
        "dcs": ["dc1", "dc2", "dc3"],
        "schema": {"price": {"kind": "float", "lo": 0.0, "hi": 1000.0},
                   "stock": {"kind": "int", "lo": 0, "hi": 500}},
        "binning": {"price": 16, "stock": 10},
        "net": {"intra_dc_delay": 1, "inter_dc_delay": 6, "jitter": 20,
                "dup_prob": 0.2},
        "tree": {"root_dc": "dc2", "repl_mode": mode,
                 "selectivity": {"window": 60, "theta_low": 0.05,
                                 "theta_high": 0.15},
                 "history": {"attr": "price", "at": 500.0,
                             "lo": "leaf", "hi": "leaf"}},
        "verify": {"oracle": True},
        "generate": {"phases": [
            {"objects": 300, "actions": 300, "query_frac": 0.03,
             "delete_frac": 0.05, "gap": 1,
             "value_ranges": {"price": [0.0, 499.0]}},
            {"objects": 300, "actions": 300, "query_frac": 0.03,
             "delete_frac": 0.05, "gap": 1,
             "value_ranges": {"price": [501.0, 1000.0]}},
        ]},
    }
    acts = parse_scenario(raw).workload
    end = acts[-1]["t"]
    forced = [{"t": end // 4, "op": "force-split", "qpu": f"qpu/{dc}/h1"}
              for dc in raw["dcs"]]
    forced.append({"t": end * 3 // 4, "op": "force-merge",
                   "a": "qpu/dc2/h1.a", "b": "qpu/dc2/h1.b"})
    raw.pop("generate")
    raw["workload"] = sorted(acts + forced, key=lambda a: a["t"])
    return raw


@pytest.mark.parametrize("mode, seed", [
    (mode, seed) for mode in ("log", "delta", "adaptive") for seed in (1, 2, 3)])
def test_every_replication_mode_ingests_without_a_gap(mode, seed):
    report = run_scenario(parse_scenario(write_heavy(mode, seed)))
    assert report.runtime_errors == []
    assert "PASS ingest: every leaf at its replica heads" in report.verify_lines
    assert report.verify_ok, [ln for ln in report.verify_lines
                              if ln.startswith("FAIL")]


@pytest.mark.parametrize("oracle", [False, True])
def test_each_put_is_binned_once_and_each_rebuilt_winner_once(
        monkeypatch, oracle):
    # the commit bins a write and every leaf posts and culls it from those
    # bins, across splits, merges, peer deltas and the scrub; the oracle
    # bins again only the winners it rebuilds, from their attrs
    calls, rebuilt = 0, 0
    keys_for, rebuild = Binner.keys_for, scenario.rebuild_index

    def counted_keys_for(self, attrs):
        nonlocal calls
        calls += 1
        return keys_for(self, attrs)

    def counted_rebuild(*args, **kw):
        nonlocal rebuilt
        idx = rebuild(*args, **kw)
        rebuilt += idx.visible_count()
        return idx

    monkeypatch.setattr(Binner, "keys_for", counted_keys_for)
    monkeypatch.setattr(scenario, "rebuild_index", counted_rebuild)
    sc = parse_scenario(write_heavy("adaptive", 1))
    report = run_scenario(sc, oracle=oracle)
    assert report.runtime_errors == [] and report.verify_ok
    puts = sum(a["op"] == "put" for a in sc.workload)
    assert puts > 500 and (rebuilt > 0) == oracle
    assert calls == puts + rebuilt


def test_each_put_is_checked_once(monkeypatch):
    # parse checks every put's values against the schema; the run, with
    # the oracle on, trusts them and checks none again
    calls = 0
    validate = AttributeSchema.validate

    def counted_validate(self, value):
        nonlocal calls
        calls += 1
        return validate(self, value)

    raw = write_heavy("adaptive", 1)
    monkeypatch.setattr(AttributeSchema, "validate", counted_validate)
    sc = parse_scenario(raw)
    puts = sum(a["op"] == "put" for a in sc.workload)
    assert puts > 500 and calls >= puts * len(sc.schema)
    calls = 0
    report = run_scenario(sc, oracle=True)
    assert report.runtime_errors == [] and report.verify_ok
    assert calls == 0


def test_a_scenario_builds_one_binner(monkeypatch):
    # parse builds the binner that checks the binning, and every run of
    # the scenario bins with that one
    built = 0
    init = Binner.__init__

    def counted_init(self, *args, **kw):
        nonlocal built
        built += 1
        init(self, *args, **kw)

    raw = write_heavy("adaptive", 1)
    monkeypatch.setattr(Binner, "__init__", counted_init)
    sc = parse_scenario(raw)
    for _ in range(2):
        report = run_scenario(sc, oracle=True)
        assert report.verify_ok and report.store.binner is sc.binner
    assert built == 1


def test_a_commit_binned_off_by_one_fails_the_index_check(monkeypatch):
    # the end-of-run check bins each winner from its attrs, so a leaf that
    # posted under the bins its commit gave is caught when those are wrong
    real = geostore.LogEntry

    def planted(*, bins, **fields):
        if bins is not None:
            bins = (bins[0] + 1,) + bins[1:]  # price, one bin up
        return real(bins=bins, **fields)

    monkeypatch.setattr(geostore, "LogEntry", planted)
    report = run_scenario(parse_scenario(write_heavy("log", 1)), oracle=True)
    assert any(ln.startswith("FAIL index") for ln in report.verify_lines)


# Seeds where a key moved between the two low-price leaves while a query
# was in flight: one leaf had culled it and the other had not yet posted it.
# Completing before the coordinator's replica held the write that moved the
# key lost it from the answer. Delta seeds 5, 12 and 20 lost a key while
# every tree node gossiped; delta seeds 3 and 11 lose one with gossip from
# the freshness nodes alone, since fewer messages draw different jitter.
@pytest.mark.parametrize("mode, seed", [
    ("delta", 3), ("delta", 5), ("delta", 11), ("delta", 12), ("delta", 20)])
def test_a_key_moving_between_leaves_mid_query_is_not_lost(mode, seed):
    report = run_scenario(parse_scenario(write_heavy(mode, seed)))
    assert report.verify_ok, [ln for ln in report.verify_lines
                              if ln.startswith("FAIL")]


def test_adaptive_leaves_switch_at_most_once_per_tick():
    switches = 0
    for seed in (1, 2, 3):
        report = run_scenario(parse_scenario(write_heavy("adaptive", seed)))
        for leaf in report.net.nodes.values():
            ticks = [s[0] for s in leaf.switch_log]
            switches += len(ticks)
            assert len(ticks) == len(set(ticks)), (seed, leaf.actor,
                                                   leaf.switch_log)
    assert switches > 0


@pytest.mark.parametrize("mode", ["log", "delta", "adaptive"])
@pytest.mark.parametrize("first, then", [(2.0, 2), (-0.0, 0.0), (0.0, -0.0)])
def test_an_unbinned_float_written_two_ways_verifies(mode, first, then):
    # the store takes 2 and 2.0 alike (and -0.0 and 0.0), and a point bin
    # keeps whichever of them was posted first: a leaf that posted k2 first
    # and its rebuild, which posts k1 first, must serialize alike
    raw = minimal(binning={"x": "none"}, tree={"repl_mode": mode},
                  verify={"oracle": True}, workload=[
        {"t": 2, "op": "put", "dc": "dc1", "key": "k1", "attrs": {"x": 5.0}},
        {"t": 4, "op": "put", "dc": "dc1", "key": "k2", "attrs": {"x": first}},
        {"t": 6, "op": "put", "dc": "dc1", "key": "k1", "attrs": {"x": then}},
        {"t": 40, "op": "query", "dc": "dc1", "text": f"x = {then}"},
    ])
    report = run_scenario(parse_scenario(raw))
    assert all(ln.startswith("PASS") for ln in report.verify_lines), \
        report.verify_lines
    assert any(ln.startswith("PASS index") for ln in report.verify_lines)
    assert sorted(report.results[0].keys) == ["k1", "k2"]


def test_touching_partition_windows_run_and_verify():
    workload = minimal()["workload"] + [
        {"t": 2, "op": "partition", "a": "dc1", "b": "dc2", "until": 6},
        {"t": 6, "op": "partition", "a": "dc2", "b": "dc1", "until": 12},
        {"t": 8, "op": "put", "dc": "dc2", "key": "b", "attrs": {"x": 4.0}},
        {"t": 9, "op": "query", "dc": "dc1",
         "text": "x > 1.0 FRESHNESS any"},
    ]
    report = run_scenario(parse_scenario(minimal(workload=workload)),
                          oracle=True)
    assert report.verify_ok, report.verify_lines
    assert report.sim.now >= 12


def test_a_long_workload_keeps_one_action_event_on_the_heap(monkeypatch):
    # 10,000 actions, one a tick, with the oracle on: the run feeds them
    # from a cursor, so the heap holds the next action and the messages
    # and timers in flight, never the whole list
    actions = []
    for i in range(10_000):
        dc = ("dc1", "dc2")[i % 2]
        if i % 10 == 9:
            actions.append({"t": i, "op": "query", "dc": dc,
                            "text": f"x > {i % 7}.0 FRESHNESS strong"})
        else:
            actions.append({"t": i, "op": "put", "dc": dc, "key": f"k{i % 90}",
                            "attrs": {"x": float(i % 11)}})
    peak = 0
    step = Simulation.step

    def counted_step(sim):
        nonlocal peak
        peak = max(peak, sim.pending())
        return step(sim)

    monkeypatch.setattr(Simulation, "step", counted_step)
    report = run_scenario(parse_scenario(minimal(workload=actions)),
                          oracle=True)
    assert report.verify_ok and len(report.results) == 1000
    assert peak < 40
