"""Acceptance checklist for the whole package.

Each test prints one PASS/FAIL line on the real stdout (bypassing pytest's
capture) so a full run shows the checklist at a glance; the assertion right
after keeps pytest's verdict in sync with the printed line. The checks lean
on the bundled scenarios where one fits and build dedicated networks where
they need tighter control. Reports for scenarios that later checks reuse are
cached so the expensive runs happen once.
"""

import hashlib
import random
import sys
from pathlib import Path

import pytest

from qpusim import (
    Interval,
    load_scenario,
    metrics_csv,
    parse,
    rebuild_index,
    route,
    run_scenario,
    scan,
    to_rectangles,
    traces_text,
)
from qpusim.workload import random_query_text

from conftest import (
    ask,
    build,
    clear_caches,
    fill,
    random_partition,
    random_rect,
    record_logs,
    ref_uncovered,
    replay_matches,
    student_schema,
    wide_schema,
)

ROOT = Path(__file__).resolve().parent.parent
SCENARIOS = ROOT / "scenarios"
POOLS = {"dept": ["math", "physics", "cs", "bio", "art"]}

_reports = {}


def bundled(name):
    if name not in _reports:
        _reports[name] = run_scenario(load_scenario(SCENARIOS / name))
    return _reports[name]


def output_bytes(report):
    status = "OK" if report.verify_ok else "FAILED"
    verify = "\n".join(report.verify_lines + report.runtime_errors
                       + [status, ""])
    return (metrics_csv(report.net), traces_text(report.results), verify)


# pytest captures at the fd level by default, which swallows even
# sys.__stdout__; verdict() suspends capture through the test's capfd so
# the checklist line lands on the real terminal.
_cap = None


@pytest.fixture(autouse=True)
def _expose_capture(capfd):
    global _cap
    _cap = capfd
    yield
    _cap = None


def verdict(num, name, ok, detail):
    mark = "PASS" if ok else "FAIL"
    line = f"acceptance {num:>2} {name}: {mark} ({detail})\n"
    if _cap is not None:
        with _cap.disabled():
            sys.stdout.write(line)
            sys.stdout.flush()
    else:
        sys.__stdout__.write(line)
        sys.__stdout__.flush()
    assert ok, f"{name}: {detail}"


def test_01_crdt_convergence():
    report = bundled("convergence.json")
    canon = {}
    bad = []
    for leaf in report.net.hist_leaves():
        want = rebuild_index(leaf.replica, report.net.binner,
                             region=leaf.region).canonical()
        got = leaf.index.canonical()
        if got != want:
            bad.append(f"{leaf.actor} != rebuild")
        canon.setdefault(leaf.region.key(), set()).add(got)
    diverged = [k for k, blobs in canon.items() if len(blobs) > 1]
    ok = not bad and not diverged and report.verify_ok
    verdict(1, "crdt-convergence", ok,
            f"{len(report.net.hist_leaves())} leaves byte-identical across "
            f"3 DCs and equal to rebuilds" if ok else f"{bad + diverged}")


def test_02_strong_oracle_equivalence():
    sim, store, net = build(binning={"gpa": 8}, jitter=6, dup=0.1, seed=501)
    rng = random.Random(501)
    fill(store, rng, 600)
    sim.run_until_quiescent()
    mismatches = 0
    for i in range(500):
        text = random_query_text(rng, net.schema, POOLS, staleness="strong")
        dc = store.dcs[i % 3]
        res = route(parse(text, net.schema).at(dc), net)
        if res.keys != scan(store.replicas[dc], parse(text, net.schema)):
            mismatches += 1
    verdict(2, "strong-oracle-equivalence", mismatches == 0,
            f"500 routed strong queries, {mismatches} diverged from scans")


def test_03_no_false_positives_under_churn():
    report = bundled("churn.json")
    queries = len(report.results)
    bad = [ln for ln in report.verify_lines if ln.startswith("FAIL query")]
    ok = queries >= 1000 and not bad and report.verify_ok
    verdict(3, "no-false-positives-under-churn", ok,
            f"{queries} mixed-staleness queries during writes, "
            f"{len(bad)} violations")


def test_04_bounded_staleness_soundness():
    sim, store, net = build(binning={"gpa": 8}, jitter=6, dup=0.1, seed=404)
    logs = record_logs(store)  # the network cuts the replicas' logs
    rng = random.Random(404)
    violations = []
    done = []

    def on_done(q):
        def cb(res):
            done.append(res)
            if res.error is not None:
                violations.append(f"{res.query_id}: {res.error}")
                return
            if res.target is None:
                # contradictory bounds never resolve a target; nothing can
                # match at any clock, so the subset property holds vacuously
                if to_rectangles(q, net.schema):
                    violations.append(f"{res.query_id}: missing target")
                return
            rep = store.replicas[q.origin_dc]
            need = replay_matches(rep, res.target, q, logs) & scan(rep, q)
            if not need <= res.keys:
                violations.append(
                    f"{res.query_id} misses {sorted(need - res.keys)}")
        return cb

    t = 0
    for i in range(1500):
        t += 2
        dc = store.dcs[i % 3]
        key = f"k{rng.randrange(200)}"
        if rng.random() < 0.05:
            sim.at(t, lambda dc=dc, key=key: store.delete(dc, key))
        else:
            attrs = {"gpa": round(rng.uniform(0, 4), 3),
                     "dept": rng.choice(POOLS["dept"])}
            sim.at(t, lambda dc=dc, key=key, attrs=attrs:
                   store.put(dc, key, attrs))
        if i % 3 == 0:
            k = (0, 5, 50)[(i // 3) % 3]
            text = random_query_text(rng, net.schema, POOLS,
                                     staleness=f"bounded:{k}")
            q = parse(text, net.schema).at(dc)
            sim.at(t + 1, lambda q=q: net.submit(q, on_done(q)))
    sim.run_until_quiescent()
    ok = len(done) == 500 and not violations
    verdict(4, "bounded-staleness-soundness", ok,
            f"{len(done)} bounded queries with k in {{0, 5, 50}}, "
            f"{len(violations)} violations")


def test_05_reference_scenario_reproduction():
    report = bundled("students.json")
    res = next(r for r in report.results if r.origin_dc == "dc1")
    want = {"s01", "s03", "s07", "s11", "s15"}
    q = parse('(GPA > 2.0 AND GPA < 3.0) AND Major = "Computer Science"',
              report.net.schema)
    stages = all(f"[{k}]" in res.trace for k in ("dc", "freshness", "value",
                                                 "hist"))
    ok = (res.keys == want
          and res.keys == scan(report.store.replicas["dc1"], q)
          and res.stats["false_positives_removed"] >= 1
          and stages and report.verify_ok)
    verdict(5, "reference-scenario-reproduction", ok,
            f"keys={sorted(res.keys)}, "
            f"fp_removed={res.stats['false_positives_removed']}, "
            f"dispatch stages {'all present' if stages else 'missing'}")


def test_06_concurrent_conflict_lifecycle():
    sim, store, net = build(dcs=("dc1", "dc2"), seed=6)
    sim.at(5, lambda: store.put("dc1", "obj", {"gpa": 3.0, "dept": "aaa"}))
    sim.at(5, lambda: store.put("dc2", "obj", {"gpa": 3.0, "dept": "bbb"}))
    sim.run_until_quiescent()
    leaves = {leaf.dc: leaf for leaf in net.hist_leaves()}

    def postings(leaf, value):
        rect = net.nodes["qpu/root"].region.narrowed(
            "dept", Interval.point(value))
        return leaf.index.lookup(rect)

    both_visible = all(
        postings(leaf, "aaa") == {"obj"} and postings(leaf, "bbb") == {"obj"}
        for leaf in leaves.values())
    # the equal-stamp tie goes to the higher DC name, so "aaa" lost
    res = ask(net, 'dept = "aaa" FRESHNESS strong', "dc1")
    losing_empty = res.keys == frozenset()
    removed = res.stats["false_positives_removed"] >= 1
    net.scrub_all()
    scrub_clean = all(
        postings(leaf, "aaa") == set() and postings(leaf, "bbb") == {"obj"}
        for leaf in leaves.values())
    winner = ask(net, 'dept = "bbb" FRESHNESS strong', "dc2")
    ok = (both_visible and losing_empty and removed and scrub_clean
          and winner.keys == frozenset({"obj"}))
    verdict(6, "concurrent-conflict-lifecycle", ok,
            "both postings visible after propagation, losing query empty "
            "after check, scrub culled the loser at both DCs"
            if ok else f"visible={both_visible} empty={losing_empty} "
                       f"removed={removed} scrubbed={scrub_clean}")


def test_07_metamorphic_split_merge():
    rng = random.Random(707)
    failures = []
    for i in range(100):
        sim, store, net = build(dcs=("dc1", "dc2"), seed=1000 + i,
                                jitter=3, dup=0.05)
        fill(store, rng, 60)
        sim.run_until_quiescent()
        text = random_query_text(rng, net.schema, POOLS, staleness="strong")
        base = ask(net, text, "dc2")
        splits = {dc: net.force_split(f"qpu/{dc}/h0") for dc in store.dcs}
        sim.run_until_quiescent()
        clear_caches(net)
        after_split = ask(net, text, "dc2")
        for a, b in splits.values():
            net.merge_siblings(a, b)
        sim.run_until_quiescent()
        clear_caches(net)
        after_merge = ask(net, text, "dc2")
        if not (base.keys == after_split.keys == after_merge.keys
                and base.error is None):
            failures.append((i, text))
    verdict(7, "metamorphic-split-merge", not failures,
            f"100 workload/query pairs, {len(failures)} changed results "
            f"across split and merge")


def test_08_replication_mode_equivalence():
    per_mode = {}
    for mode in ("log", "delta", "adaptive"):
        sc = load_scenario(SCENARIOS / "hysteresis.json")
        sc.tree.repl_mode = mode
        report = run_scenario(sc)
        if mode == "adaptive":
            _reports["hysteresis.json"] = report
        per_mode[mode] = {
            leaf.actor: leaf.index.canonical()
            for leaf in report.net.hist_leaves()
        }
        assert report.verify_ok, mode
    same = per_mode["log"] == per_mode["delta"] == per_mode["adaptive"]
    logs = [leaf.switch_log for leaf
            in _reports["hysteresis.json"].net.hist_leaves()]
    calm = all(
        len(log) <= 2
        and all(a[2] == b[1] for a, b in zip(log, log[1:]))
        for log in logs)
    switched = sum(len(log) for log in logs)
    verdict(8, "replication-mode-equivalence",
            same and calm and switched > 0,
            f"3 modes converged identically on {len(per_mode['log'])} leaves; "
            f"{switched} adaptive switches, no flapping")


def test_09_parser_round_trip():
    from qpusim import render

    rng = random.Random(909)
    schemas = [
        (student_schema(), POOLS),
        (wide_schema(), {"vendor": ["acme", "zenith", "orbit"]}),
    ]
    bad = 0
    for i in range(1000):
        schema, pools = schemas[i % 2]
        text = random_query_text(rng, schema, pools)
        q = parse(text, schema)
        again = parse(render(q), schema)
        if again.expr != q.expr or again.staleness != q.staleness:
            bad += 1
    verdict(9, "parser-round-trip", bad == 0,
            f"1000 generated queries, {bad} failed parse/print/parse")


def test_10_decomposition_coverage():
    from qpusim import greedy_cover

    rng = random.Random(1010)
    schema = wide_schema()
    bad = 0
    for _ in range(1000):
        leaves = random_partition(rng, schema)
        rect = random_rect(rng, schema)
        children = [(f"c{i}", r) for i, r in enumerate(leaves)]
        assignments = greedy_cover([rect], children, schema)
        regions = dict(children)
        escaped = False
        for cid, pieces in assignments:
            for piece in pieces:
                if not piece.wholly_inside(regions[cid]):
                    escaped = True
                if not piece.wholly_inside(rect):
                    escaped = True
        rest = ref_uncovered([rect], [p for _, ps in assignments for p in ps])
        if rest or escaped:
            bad += 1
    verdict(10, "decomposition-coverage", bad == 0,
            f"1000 partition/rectangle pairs, {bad} cover violations")


def test_11_determinism():
    names = ["students.json", "convergence.json", "churn.json",
             "hysteresis.json", "maintenance.json"]
    diffs = []
    for name in names:
        first = output_bytes(bundled(name))
        second = output_bytes(run_scenario(load_scenario(SCENARIOS / name)))
        if first != second:
            diffs.append(name)
    verdict(11, "determinism", not diffs,
            f"{len(names)} bundled scenarios re-run byte-identical"
            if not diffs else f"diverged: {diffs}")


# SHA-256 of output_bytes for each bundled scenario. A change that is meant
# to keep behaviour must leave these alone; one that changes an output byte
# on purpose regenerates them and says why.
OUTPUT_DIGESTS = {
    "students.json":
        "7aa2adcb6ca61f198e666c206fad5d1569dc9b6283e06c7d4bc46db41f130b7d",
    "convergence.json":
        "0ef45fb3b590ade5b7c8c7dae8ac8d2b3e805c956f8f40f9660c9c13469fa736",
    "churn.json":
        "47db77f4ee34f0502dbaceac69f8e4199ca743778bbfe426b72363020c4fb86c",
    "hysteresis.json":
        "4bccd0273dec9a4a199df039bfa9c217b7f34deb45c00a347e8d1be9731d95f7",
    "maintenance.json":
        "8779d53508cb283bc2f09050139abc180e7cc828dc7e28ab9db73f9a17031472",
}


def output_digest(report):
    h = hashlib.sha256()
    for part in output_bytes(report):
        h.update(part.encode())
        h.update(b"\0")
    return h.hexdigest()


@pytest.mark.parametrize("name", sorted(OUTPUT_DIGESTS))
def test_outputs_match_the_pinned_digest(name):
    assert output_digest(bundled(name)) == OUTPUT_DIGESTS[name]
