import gc
import itertools
import json
import math
import random
from pathlib import Path

import pytest

from qpusim import (
    Interval,
    Plan,
    Pred,
    Probe,
    Query,
    Region,
    ResultCache,
    SelectivityConfig,
    SplitRefused,
    StalenessLevel,
    UnsatisfiableStaleness,
    VectorClock,
    parse,
    rebuild_index,
    scan,
    to_rectangles,
)
from qpusim.oracle import HitCheck
from qpusim.qpu import Resp, _Join
from qpusim.simcore import Envelope

from conftest import (
    ask,
    build,
    clear_caches,
    fill,
    logged,
    partition,
    random_student,
    ref_uncovered,
    run_until,
    student_schema,
    wide_schema,
)

SCHEMA = student_schema()
SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"
CUT = {"attr": "gpa", "at": 2.0, "lo": "leaf", "hi": "leaf"}


def quiesced(dcs=("dc1", "dc2", "dc3"), n=0, seed=0, rngseed=0, **kw):
    sim, store, net = build(dcs=dcs, seed=seed, **kw)
    if n:
        fill(store, random.Random(rngseed), n)
        sim.run_until_quiescent()
    return sim, store, net


# -- feed filtering -----------------------------------------------------------------


def test_entry_outside_region_advances_clock_without_postings():
    sim, store, net = quiesced(history=CUT)
    store.put("dc1", "hi", {"gpa": 3.5, "dept": "cs"})
    sim.run_until_quiescent()
    lo = net.nodes["qpu/dc1/h1"]
    hi = net.nodes["qpu/dc1/h2"]
    assert lo.index.visible_count() == 0
    assert hi.index.visible_count() == 1
    # both track the write in their clocks
    assert lo.index.clock == hi.index.clock == VectorClock({"dc1": 1})


def test_adaptive_leaves_track_each_writes_relevance():
    sim, store, net = quiesced(history=CUT, repl_mode="adaptive")
    store.put("dc1", "hi", {"gpa": 3.5, "dept": "cs"})
    sim.run_until_quiescent()
    assert list(net.nodes["qpu/dc1/h1"].window.bits) == [0]
    assert list(net.nodes["qpu/dc1/h2"].window.bits) == [1]


def test_delete_reaches_the_leaf_holding_the_posting():
    sim, store, net = quiesced(history=CUT)
    store.put("dc2", "x", {"gpa": 3.0, "dept": "cs"})
    sim.run_until_quiescent()
    store.delete("dc1", "x")
    sim.run_until_quiescent()
    hi = net.nodes["qpu/dc3/h2"]
    assert hi.index.visible_count() == 0
    assert hi.index.clock == VectorClock({"dc1": 1, "dc2": 1})


def test_leaves_match_region_rebuilds_after_churn():
    sim, store, net = quiesced(history=CUT, binning={"gpa": 8},
                               jitter=7, dup=0.15, seed=11)
    rng = random.Random(11)
    keys = fill(store, rng, 200)
    sim.at(900, lambda: store.delete("dc2", keys[0]))
    sim.at(901, lambda: store.delete("dc3", keys[1]))
    sim.run_until_quiescent()
    net.scrub_all()
    for leaf in net.hist_leaves():
        want = rebuild_index(store.replicas[leaf.dc], net.binner,
                             region=leaf.region)
        assert leaf.index.canonical() == want.canonical(), leaf.actor


def near(sch, bound):
    """`bound` and the values just under and just over it that the domain
    of `sch` holds."""
    if sch.kind == "text":
        under = bound[:-1]
        smaller = [c for c in sch.alphabet if bound and c < bound[-1]]
        if smaller:
            under += max(smaller) + max(sch.alphabet) * 3
        vals = [bound, under, bound + min(sch.alphabet)]
    elif sch.kind == "int":
        vals = [bound, bound - 1, bound + 1]
    else:
        vals = [bound, math.nextafter(bound, -math.inf),
                math.nextafter(bound, math.inf)]
    return [v for v in vals if sch.validate(v)]


def check_cut_axes(store, net, prefix):
    """Every node's cut-axis test agrees with Region.contains_point on the
    points on, just under and just over every bound of every node's region,
    and every live leaf posts exactly the points its region holds."""
    schema = net.schema
    bounds = {a: set() for a in schema}
    for node in net.nodes.values():
        for a, iv in node.region.ivs.items():
            bounds[a].update(b for b in (iv.lo, iv.hi) if b is not None)
    axes = sorted(schema)
    values = [sorted({v for b in bounds[a] for v in near(schema[a], b)})
              for a in axes]
    points = [dict(zip(axes, combo)) for combo in itertools.product(*values)]
    cuts_seen = set()
    for node in net.nodes.values():
        cuts_seen.update(a for a, _ in node.cut_axes)
        for p in points:
            by_cuts = all(iv.contains(p[a]) for a, iv in node.cut_axes)
            assert by_cuts == node.region.contains_point(p), (node.actor, p)
    keys = [f"{prefix}{i}" for i in range(len(points))]
    for i, (key, p) in enumerate(zip(keys, points)):
        store.put(store.dcs[i % len(store.dcs)], key, p)
    net.sim.run_until_quiescent()
    for leaf in net.hist_leaves():
        posted = {e.key for e in leaf.index.tag_info.values()}
        want = {k for k, p in zip(keys, points)
                if leaf.region.contains_point(p)}
        assert posted & set(keys) == want, leaf.actor
    return cuts_seen


def reshape(net):
    """Split every leaf that has a median to cut at, then merge the first
    split's halves back, so the tree holds nodes that force_split and
    merge_siblings built."""
    halves = []
    for leaf in net.hist_leaves():
        try:
            halves.append(net.force_split(leaf.actor))
        except SplitRefused:
            pass
    assert halves
    net.merge_siblings(*halves[0])


def test_the_cut_axis_test_matches_contains_point_on_students_major_cut():
    from qpusim import parse_scenario, run_scenario

    doc = json.loads((SCENARIOS / "students.json").read_text())
    doc["tree"]["history"] = {
        "attr": "Major", "at": "Math",
        "lo": {"attr": "GPA", "at": 2.0, "lo": "leaf", "hi": "leaf"},
        "hi": "leaf"}
    report = run_scenario(parse_scenario(doc), oracle=False)
    reshape(report.net)
    assert check_cut_axes(report.store, report.net, "p") == {"GPA", "Major"}


@pytest.mark.parametrize("repl_mode", ["log", "delta", "adaptive"])
def test_the_cut_axis_test_matches_contains_point_on_int_float_and_text_cuts(
        repl_mode):
    history = {"attr": "stock", "at": 250,
               "lo": {"attr": "vendor", "at": "m", "lo": "leaf", "hi": "leaf"},
               "hi": {"attr": "price", "at": 99.5, "lo": "leaf", "hi": "leaf"}}
    sim, store, net = build(dcs=("dc1", "dc2"), schema=wide_schema(),
                            history=history, repl_mode=repl_mode, seed=5,
                            jitter=3)
    rng = random.Random(5)
    for i in range(80):
        store.put(store.dcs[i % 2], f"w{i}", {
            "price": round(rng.uniform(0, 1000), 2),
            "stock": rng.randint(0, 500),
            "rating": round(rng.uniform(0, 5), 1),
            "vendor": rng.choice(["acme", "zeta", "mono", "bolt"])})
    sim.run_until_quiescent()
    reshape(net)
    assert check_cut_axes(store, net, "p") == {"price", "stock", "vendor",
                                               "rating"}


# -- routed serving ----------------------------------------------------------------


def test_query_spanning_both_leaves_equals_scan():
    sim, store, net = quiesced(history=CUT, n=120, seed=12, rngseed=12,
                               jitter=4)
    res = ask(net, "gpa > 1.0 AND gpa < 3.0 FRESHNESS strong", "dc2")
    q = parse("gpa > 1.0 AND gpa < 3.0", SCHEMA)
    assert res.keys == scan(store.replicas["dc2"], q)
    assert "qpu/dc2/h1" in res.trace and "qpu/dc2/h2" in res.trace


def test_query_confined_to_one_leaf_routes_one_leaf():
    sim, store, net = quiesced(history=CUT, n=60, seed=13, rngseed=13)
    res = ask(net, "gpa < 1.5 FRESHNESS strong", "dc1")
    assert "qpu/dc1/h1" in res.trace
    assert "qpu/dc1/h2" not in res.trace


def test_leaf_behind_a_strong_target_stops_the_run():
    # a leaf's ingest cursor keeps its index at the replica's heads; one
    # forged below them cannot serve a strong target and must not claim it
    sim, store, net = quiesced(n=30, seed=23, rngseed=23)
    leaf = net.nodes["qpu/dc2/h0"]
    heads = leaf.replica.heads
    leaf.index.clock = VectorClock({**heads.entries, "dc1": heads.get("dc1") - 2})
    with pytest.raises(UnsatisfiableStaleness) as info:
        ask(net, "gpa >= 0.0 FRESHNESS strong", "dc2")
    assert info.value.lagging_dcs == ["dc1"]


def assert_children_are_one_cut(net):
    """Every dispatch node under the root has one child over its region, or
    two that tile it without overlap; a leaf split or merged away has one
    child, whose region holds its own."""
    reached = set()
    todo = [net.root]
    while todo:
        node = todo.pop()
        reached.add(node.actor)
        kids = node.children
        todo.extend(kids)
        if node.kind in ("dc", "hist"):
            continue
        if len(kids) == 1:
            assert kids[0].region == node.region, node
            continue
        lo, hi = kids
        assert lo.region.wholly_inside(node.region), node
        assert hi.region.wholly_inside(node.region), node
        assert lo.region.intersect(hi.region) is None, node
        assert ref_uncovered([node.region], [lo.region, hi.region]) == [], node
    assert {n.actor for n in net.hist_leaves()} <= reached
    for actor, node in net.nodes.items():
        if actor not in reached:
            (kid,) = node.children
            assert node.region.wholly_inside(kid.region), node


def test_splits_and_merges_keep_each_nodes_children_one_cut_of_its_region():
    # the cover intersects a probe with the children and subtracts nothing,
    # which is whole only while every reshape keeps this shape
    history = {"attr": "dept", "at": "d", "lo": "leaf",
               "hi": {"attr": "gpa", "at": 2.0, "lo": "leaf", "hi": "leaf"}}
    rng = random.Random(31)
    reshapes = 0
    for seed in range(4):
        sim, store, net = quiesced(dcs=("dc1", "dc2"), n=80, seed=seed,
                                   rngseed=seed, history=history)
        assert_children_are_one_cut(net)
        for _ in range(12):
            leaves = net.hist_leaves()
            pairs = [(a.actor, b.actor) for a in leaves for b in leaves
                     if a.actor < b.actor and a.parent == b.parent]
            try:
                if pairs and rng.random() < 0.4:
                    net.merge_siblings(*rng.choice(pairs))
                else:
                    net.force_split(rng.choice(leaves).actor)
            except SplitRefused:
                continue
            reshapes += 1
            assert_children_are_one_cut(net)
            fill(store, rng, 10, prefix=f"s{seed}-")
            sim.run_until_quiescent()
        text = 'gpa >= 1.0 OR dept < "m" FRESHNESS strong'
        for dc in store.dcs:
            assert ask(net, text, dc).keys == scan(store.replicas[dc],
                                                   parse(text, SCHEMA))
    assert reshapes > 30


def test_stale_gossip_keeps_strong_queries_correct():
    # the root has lost track of the replicas' heads, but the leaves below
    # are at their replica heads, so strong results still match a scan
    sim, store, net = quiesced()
    rng = random.Random(14)
    fill(store, rng, 50)
    sim.run_until_quiescent()
    net.root.child_clocks.clear()
    assert net.root._stable() == VectorClock()
    res = ask(net, "gpa >= 2.0 FRESHNESS strong", "dc2")
    assert res.keys == scan(store.replicas["dc2"], parse("gpa >= 2.0", SCHEMA))


def test_gossip_raises_the_stable_floor():
    sim, store, net = quiesced(gossip_every=5, n=30, seed=15, rngseed=15)
    assert net.root._stable() == store.replicas["dc1"].heads
    assert set(net.root.child_clocks) == {"qpu/dc1", "qpu/dc2", "qpu/dc3"}


def test_root_floors_the_snapshot_clock_once_per_report():
    # the stable clock changes only with a freshness report, so every root
    # probe between two reports resolves against one clock object
    sim, store, net = quiesced(gossip_every=5, n=30, seed=15, rngseed=15)
    root = net.root
    seen = []
    stable = root._stable
    root._stable = lambda: seen.append(stable()) or seen[-1]
    ask(net, "gpa > 1.0 FRESHNESS snapshot", "dc2")
    ask(net, "gpa < 2.0 FRESHNESS any", "dc3")
    assert len(seen) == 2 and seen[0] is seen[1]
    before = store.replicas["dc1"].heads
    assert seen[0] == before
    store.put("dc1", "new", {"gpa": 3.0, "dept": "cs"})
    sim.run_until_quiescent()  # each freshness node reports the write
    ask(net, "gpa > 1.0 FRESHNESS snapshot", "dc2")
    assert seen[2] is not seen[0]
    assert seen[2] == store.replicas["dc1"].heads != before
    assert seen[0] == before


def test_only_freshness_nodes_gossip_and_only_to_the_root():
    sim, store, net = quiesced(history=CUT, jitter=4, dup=0.2, trace=True)
    fill(store, random.Random(16), 60)
    sim.run_until_quiescent()
    net.force_split("qpu/dc2/h1")
    fill(store, random.Random(17), 30)
    sim.run_until_quiescent()
    gossip = {(src, dst) for _, src, dst, kind, _ in sim.trace_rows
              if kind == "clock.gossip"}
    assert gossip == {(f"qpu/{dc}", "qpu/root") for dc in store.dcs}
    # each report is the reporter's replica heads, and they have settled
    for dc in store.dcs:
        assert net.root.child_clocks[f"qpu/{dc}"] == store.replicas[dc].heads


# -- result cache -------------------------------------------------------------------


def rect_for(lo, hi):
    return Region.whole(SCHEMA).narrowed("gpa", Interval(lo, hi, False, False))


def key(rects):
    """The root cache key of a plan of these rectangles."""
    return Plan(None, rects).key


def test_cache_miss_then_hit_then_staleness_miss():
    cache = ResultCache()
    r = rect_for(1.0, 2.0)
    assert cache.probe(key((r,)), VectorClock()) is None
    keys = ("k",)
    cache.insert(key((r,)), keys, VectorClock({"dc1": 4}),
                 VectorClock({"dc1": 6}))
    got = cache.probe(key((r,)), VectorClock({"dc1": 3}))
    assert (got.keys, got.clock, got.ceiling) == (
        keys, VectorClock({"dc1": 4}), VectorClock({"dc1": 6}))
    assert got.keys is keys  # stored as given
    # a target past the entry's coverage cannot be served from it
    assert cache.probe(key((r,)), VectorClock({"dc1": 5})) is None
    assert (cache.hits, cache.misses) == (1, 2)


def test_cache_rejects_pieces_outside_its_rectangles():
    # entries are keyed exactly: neither a piece poking out of an entry's
    # rectangle nor one wholly inside it is served from that entry
    cache = ResultCache()
    narrow = rect_for(0.0, 3.0)
    clock = VectorClock({"dc1": 9})
    cache.insert(key((narrow,)), (), clock, clock)
    for piece in (rect_for(2.0, 4.0), rect_for(1.0, 2.0)):
        assert cache.probe(key((piece,)), VectorClock()) is None
    assert cache.probe(key((narrow,)), VectorClock()) is not None


def one_leaf_with(*rows, **kw):
    sim, store, net = quiesced(dcs=("dc1",), **kw)
    for key, gpa in rows:
        store.put("dc1", key, {"gpa": gpa, "dept": "cs"})
    sim.run_until_quiescent()
    return sim, store, net, net.nodes["qpu/dc1/h0"]


def test_cache_entry_stays_frozen_after_later_writes():
    sim, store, net, leaf = one_leaf_with(("a", 1.0))
    ask(net, "gpa < 2.0 FRESHNESS snapshot", "dc1")
    (entry,) = net.root.cache.entries.values()
    keys, clock = entry.keys, entry.clock
    store.delete("dc1", "a")
    store.put("dc1", "b", {"gpa": 1.5, "dept": "cs"})
    sim.run_until_quiescent()
    assert leaf.index.clock == VectorClock({"dc1": 3})
    assert entry.clock == clock == VectorClock({"dc1": 1})
    assert entry.keys == keys
    assert set(entry.keys) == {"a"}


def test_cache_hit_claims_the_entry_clock():
    sim, store, net, leaf = one_leaf_with(("a", 1.0))
    got = []
    sim.add_actor("probe/sink", "dc1", lambda env: got.append(env.payload))
    rect = rect_for(0.0, 2.0)

    def send(qid):
        # strong against heads of dc1:1 pins the target at dc1:1 both times
        probe = Probe(qid=qid, rects=(rect,),
                      plan=Plan(None, (rect,)),
                      origin_dc="dc1", reply_to="probe/sink",
                      level=StalenessLevel.strong(),
                      origin_heads=VectorClock({"dc1": 1}))
        sim.send("probe/sink", net.root.actor, "query.route", probe)
        sim.run_until_quiescent()

    send("t1")
    store.put("dc1", "b", {"gpa": 1.5, "dept": "cs"})
    sim.run_until_quiescent()
    send("t2")
    miss, hit = got
    assert (miss.cache_hits, hit.cache_hits) == (0, 1)
    assert net.root.cache.hits == 1
    # the leaf has moved on to dc1:2, but the hit serves dc1:1 content
    assert leaf.index.clock == VectorClock({"dc1": 2})
    assert miss.clock == hit.clock == VectorClock({"dc1": 1})
    assert set(hit.keys) == {"a"}


def test_a_served_clock_is_not_moved_by_later_ingest():
    # ingest advances the index clock in place; a response keeps the clock
    # the leaf served at
    sim, store, net, leaf = one_leaf_with(("a", 1.0))
    got = []
    sim.add_actor("probe/sink", "dc1", lambda env: got.append(env.payload))
    rect = rect_for(0.0, 2.0)
    probe = Probe(qid="t1", rects=(rect,),
                  plan=Plan(None, (rect,)),
                  origin_dc="dc1", reply_to="probe/sink", target=VectorClock())
    sim.send("probe/sink", leaf.actor, "query.value", probe)
    sim.run_until_quiescent()
    store.put("dc1", "b", {"gpa": 1.5, "dept": "cs"})
    sim.run_until_quiescent()
    (resp,) = got
    assert leaf.index.clock == VectorClock({"dc1": 2})
    assert resp.clock == resp.ceiling == VectorClock({"dc1": 1})


def test_a_leaf_serves_one_clock_per_index_state():
    # every response, cache entry and claim keeps the clock a leaf served
    # at, so serves at one index state share one copy of it
    sim, store, net, leaf = one_leaf_with(("a", 1.0))
    got = []
    sim.add_actor("probe/sink", "dc1", lambda env: got.append(env.payload))
    rect = rect_for(0.0, 2.0)

    def serve(qid):
        probe = Probe(qid=qid, rects=(rect,),
                      plan=Plan(None, (rect,)),
                      origin_dc="dc1", reply_to="probe/sink",
                      target=VectorClock())
        sim.send("probe/sink", leaf.actor, "query.value", probe)
        sim.run_until_quiescent()
        return got[-1].clock

    first, second = serve("t1"), serve("t2")
    assert first is second
    store.put("dc1", "b", {"gpa": 1.5, "dept": "cs"})
    sim.run_until_quiescent()
    third = serve("t3")
    assert third is not first
    assert first == VectorClock({"dc1": 1})
    assert third == VectorClock({"dc1": 2})


def test_a_finished_query_leaves_no_reference_cycle():
    # each response points back at its join, so a join that kept its
    # children's responses would leave them for the garbage collector
    sim, store, net = quiesced(history=CUT, n=30, rngseed=3)
    gc.collect()
    flags = gc.get_debug()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        for _ in range(2):  # a miss, then a root cache hit
            ask(net, "gpa >= 1.0 FRESHNESS any", "dc2")
        gc.collect()
        left = [o for o in gc.garbage if isinstance(o, (_Join, Resp))]
    finally:
        gc.set_debug(flags)
        gc.garbage.clear()
    assert net.root.cache.hits == 1
    assert left == []


def checked_root_hit(corrupt):
    """dc1 overwrites k out of the query's range while partitioned from
    dc2, after a dc2 query left k in the root cache (at dc3). A repeat from
    dc2 hits that entry; `corrupt` may tamper with the entry first."""
    sim, store, net = quiesced(root_dc="dc3")
    check = HitCheck(store)
    net.check_hit = check
    store.put("dc1", "k", {"gpa": 3.0, "dept": "cs"})
    sim.run_until_quiescent()
    text = "gpa > 2.0 FRESHNESS any"
    assert ask(net, text, "dc2").keys == {"k"}
    partition(sim, "dc1", "dc2", sim.now, sim.now + 500)
    run_until(sim, sim.now)
    store.put("dc1", "k", {"gpa": 1.0, "dept": "cs"})
    run_until(sim, sim.now + 30)  # dc1 and dc3 have ingested the overwrite
    (entry,) = net.root.cache.entries.values()
    corrupt(entry)
    res = ask(net, text, "dc2")
    assert res.stats["cache_hits"] == 1 and check.checked == 1
    return res, check


def test_cache_check_passes_a_clean_root_hit():
    res, check = checked_root_hit(lambda entry: None)
    assert res.keys == {"k"}  # dc2 still holds the old version
    assert check.lines() == ["PASS cache: 1 hits checked"]


def test_cache_check_flags_an_overwrite_pushed_into_a_root_entry():
    # the defect of pushing later index deltas into frozen entries: the
    # overwrite's remove drops k from the entry, whose clock stays put, and
    # dc2 has no entry past that clock from which to recover k
    def push_remove(entry):
        entry.keys = tuple(k for k in entry.keys if k != "k")

    res, check = checked_root_hit(push_remove)
    assert res.keys == set()
    (line,) = check.lines()
    assert line.startswith("FAIL cache: qpu/root: hit at {dc1:1}")
    assert line.endswith("misses ['k']")


def test_cache_check_folds_forward_to_a_key_written_between_two_hits(
        monkeypatch):
    # from their first hit, the check keeps the query's rectangles folded
    # to the hit clock; a later entry that lacks a key written in between
    # is checked by folding forward from there, which must still find the
    # key missing
    sim, store, net = quiesced(n=20, seed=3, rngseed=3, root_dc="dc3")
    check = HitCheck(store)
    net.check_hit = check
    text = "gpa > 2.0 FRESHNESS any"
    for _ in range(3):  # a miss, then two hits
        ask(net, text, "dc2")
    assert check.checked == 2
    (key,) = net.root.cache.entries
    front = check._fronts[key]
    first = front.clock
    store.put("dc1", "new", {"gpa": 3.0, "dept": "cs"})
    sim.run_until_quiescent()
    insert = ResultCache.insert

    def lossy(self, k, keys, clock, ceiling):
        insert(self, k, tuple(x for x in keys if x != "new"), clock, ceiling)

    monkeypatch.setattr(ResultCache, "insert", lossy)
    assert "new" in ask(net, "gpa > 2.0 FRESHNESS strong", "dc2").keys
    res = ask(net, text, "dc2")
    assert res.stats["cache_hits"] == 1 and check.checked == 3
    assert "new" not in res.keys
    assert check._fronts[key] is front
    assert front.clock != first and front.clock.dominates(first)
    (line,) = check.lines()
    assert line.startswith("FAIL cache: qpu/root: hit at ")
    assert line.endswith("misses ['new']")


def test_repeated_query_hits_the_root_cache_across_split_and_merge():
    # the root's key is the query's whole plan, which a structural change
    # below the root leaves unchanged
    sim, store, net = quiesced(dcs=("dc1",), history=CUT, n=80, seed=22,
                               rngseed=22)
    text = "gpa > 0.5 AND gpa < 3.5 FRESHNESS any"
    want = scan(store.replicas["dc1"], parse(text, SCHEMA))

    def cache_hits():
        res = ask(net, text, "dc1")
        assert res.keys == want
        return res.stats["cache_hits"]

    assert cache_hits() == 0
    a, b = net.force_split("qpu/dc1/h1")
    sim.run_until_quiescent()
    assert net.nodes["qpu/dc1/h1"].kind == "value"
    assert cache_hits() == 1
    net.merge_siblings(a, b)
    sim.run_until_quiescent()
    assert cache_hits() == 1
    clear_caches(net)
    assert cache_hits() == 0
    assert net.root.cache.hits == 2
    # the split's value node got no cache: the root's is the only one
    assert [n.actor for n in net.nodes.values() if n.cache is not None] == [
        "qpu/root"]


@pytest.mark.parametrize("kind", ["index.sub", "index.unsub"])
def test_subscription_kinds_are_not_messages(kind):
    # subscriptions are derived state, set directly by
    # QpuNetwork._rewire_peers
    sim, store, net = quiesced(dcs=("dc1", "dc2"))
    sim.send("qpu/dc2/h0", "qpu/dc1/h0", kind, "qpu/dc2/h0")
    with pytest.raises(ValueError, match="unexpected message kind " + kind):
        sim.run_until_quiescent()


def test_root_cache_keeps_a_key_the_querying_dc_still_holds():
    # dc1 deletes k while partitioned from dc2. The root cache (at dc3) must
    # not lose k before dc2 sees the delete: the coordinator at dc2 rescans
    # only past the cached clock and would never add k back.
    sim, store, net = quiesced(root_dc="dc3")
    store.put("dc1", "k", {"gpa": 3.0, "dept": "cs"})
    sim.run_until_quiescent()
    text = "gpa > 2.0 FRESHNESS any"
    assert ask(net, text, "dc2").keys == {"k"}
    partition(sim, "dc1", "dc2", sim.now, sim.now + 500)
    run_until(sim, sim.now)
    store.delete("dc1", "k")
    run_until(sim, sim.now + 30)  # dc1 and dc3 have ingested the delete
    res = ask(net, text, "dc2")
    assert res.stats["cache_hits"] >= 1
    assert res.keys == scan(store.replicas["dc2"], parse("gpa > 2.0", SCHEMA))
    assert res.keys == {"k"}


def test_cache_lru_eviction():
    cache = ResultCache(capacity=2)
    rs = [rect_for(lo, hi) for lo, hi in [(0.0, 1.0), (1.0, 2.0), (2.0, 3.0)]]
    for i, r in enumerate(rs[:2]):
        clock = VectorClock({"dc1": i + 1})
        cache.insert(key((r,)), (), clock, clock)
    assert cache.probe(key((rs[0],)), VectorClock()) is not None
    # the hit renewed rs[0], so the third entry evicts rs[1]
    clock = VectorClock({"dc1": 3})
    cache.insert(key((rs[2],)), (), clock, clock)
    assert len(cache.entries) == 2
    assert cache.probe(key((rs[1],)), VectorClock()) is None
    assert cache.probe(key((rs[0],)), VectorClock()) is not None


def test_repeated_query_hits_caches_with_identical_keys():
    sim, store, net = quiesced(n=80, seed=16, rngseed=16)
    first = ask(net, 'dept = "cs" AND gpa > 1.0 FRESHNESS snapshot', "dc3")
    assert first.stats["cache_hits"] == 0
    second = ask(net, 'dept = "cs" AND gpa > 1.0 FRESHNESS snapshot', "dc3")
    assert second.keys == first.keys
    assert second.stats["cache_hits"] == 1
    assert "cache-hit" in second.trace


@pytest.mark.parametrize("level", ["any", "strong", "snapshot"])
def test_result_clock_is_the_origin_heads_at_completion(level):
    # a repeat hits the root entry from before the later writes, so the
    # claim lags the heads the result reports
    sim, store, net = quiesced(n=40, seed=18, rngseed=18)
    text = f"gpa > 1.0 FRESHNESS {level}"
    ask(net, text, "dc2")
    fill(store, random.Random(19), 12, dcs=["dc2"], prefix="m")
    res = ask(net, text, "dc2")
    heads = store.replicas["dc2"].heads
    assert res.clock == heads and res.clock is heads
    assert res.clock.dominates(res.claimed)
    if level == "any":
        assert res.cache_hits == 1 and res.claimed != res.clock


def test_equal_answers_of_one_expression_share_one_key_set():
    sim, store, net = quiesced(dcs=("dc1",), n=40, seed=20, rngseed=20)
    text = "gpa > 2.0 FRESHNESS strong"
    first, second = ask(net, text, "dc1"), ask(net, text, "dc1")
    assert second.keys is first.keys
    store.put("dc1", "new", {"gpa": 3.0, "dept": "cs"})
    sim.run_until_quiescent()
    third = ask(net, text, "dc1")
    assert third.keys is not first.keys and "new" in third.keys
    assert third.keys == scan(store.replicas["dc1"], parse("gpa > 2.0", SCHEMA))
    assert ask(net, text, "dc1").keys is third.keys
    assert first.keys == second.keys == third.keys - {"new"}


def test_a_cache_entry_renders_its_hit_line_once():
    sim, store, net = quiesced(dcs=("dc1",), n=40, seed=21, rngseed=21)
    text = "gpa < 2.5 FRESHNESS any"
    ask(net, text, "dc1")
    (entry,) = net.root.cache.entries.values()
    assert entry.hit_line is None  # a miss renders no hit line
    first = ask(net, text, "dc1")
    line = entry.hit_line
    second = ask(net, text, "dc1")
    assert first.cache_hits == second.cache_hits == 1
    assert entry.hit_line is line
    assert line == net.root._line("cache-hit", entry.clock)
    assert first.trace == second.trace == line


# -- split and merge ----------------------------------------------------------------


def test_split_balances_children():
    sim, store, net = quiesced(dcs=("dc1",))
    rng = random.Random(17)
    for i in range(300):
        store.put("dc1", f"k{i}", random_student(rng))
    sim.run_until_quiescent()
    a, b = net.force_split("qpu/dc1/h0")
    na = net.nodes[a].index.visible_count()
    nb = net.nodes[b].index.visible_count()
    assert na + nb == 300
    assert abs(na - nb) <= 30  # median split of a uniform draw
    assert net.nodes[a].region.ivs["gpa"].hi == net.nodes[b].region.ivs["gpa"].lo


def test_split_refused_on_degenerate_data():
    sim, store, net = quiesced(dcs=("dc1",))
    for i in range(10):
        store.put("dc1", f"k{i}", {"gpa": 2.0, "dept": "cs"})
    sim.run_until_quiescent()
    with pytest.raises(SplitRefused, match="non-degenerate"):
        net.force_split("qpu/dc1/h0")


def test_split_carries_the_removes_held_ahead_of_their_adds():
    # dc3 is cut off from dc2 while dc1 overwrites dc2's write of k, so
    # dc3's leaf applies the overwrite first and holds its remove; both
    # halves of a split keep it until dc2's write arrives, then drop it
    sim, store, net = quiesced(n=20, seed=5, rngseed=5)
    start = sim.now
    partition(sim, "dc2", "dc3", start, start + 200)
    run_until(sim, start)
    first = store.put("dc2", "k", {"gpa": 1.0, "dept": "cs"})
    run_until(sim, start + 50)
    store.put("dc1", "k", {"gpa": 3.0, "dept": "cs"})
    run_until(sim, start + 100)
    held = {(first.stamp.dc, first.stamp.seq)}
    assert net.nodes["qpu/dc3/h0"].index.removed == held
    halves = [net.nodes[a] for a in net.force_split("qpu/dc3/h0")]
    assert [h.index.removed for h in halves] == [held, held]
    sim.run_until_quiescent()
    for half in halves:
        assert half.index.removed == set()
        assert first.stamp not in half.index.tag_info
    assert sum(e.key == "k" for h in halves
               for e in h.index.tag_info.values()) == 1


def test_split_then_merge_preserves_query_results():
    sim, store, net = quiesced(n=150, seed=18, rngseed=18, jitter=3)
    queries = [
        "gpa > 1.0 AND gpa < 3.5 FRESHNESS strong",
        'dept = "cs" FRESHNESS strong',
        "gpa <= 0.5 OR gpa >= 3.9 FRESHNESS strong",
    ]
    before = [ask(net, t, "dc2") for t in queries]
    splits = {dc: net.force_split(f"qpu/{dc}/h0") for dc in store.dcs}
    sim.run_until_quiescent()
    clear_caches(net)
    mid = [ask(net, t, "dc2") for t in queries]
    for dc, (a, b) in splits.items():
        net.merge_siblings(a, b)
    sim.run_until_quiescent()
    clear_caches(net)
    after = [ask(net, t, "dc2") for t in queries]
    for x, y, z in zip(before, mid, after):
        assert x.keys == y.keys == z.keys
        assert x.error is None


def test_merged_clock_is_the_floor_of_the_parts():
    sim, store, net = quiesced(dcs=("dc1", "dc2"), n=40, seed=19, rngseed=19)
    a, b = net.force_split("qpu/dc1/h0")
    # pretend one side lagged; the merged leaf may only claim the floor
    net.nodes[b].index.clock = VectorClock({"dc1": 3, "dc2": 1})
    floor = net.nodes[a].index.clock.floor(net.nodes[b].index.clock)
    merged = net.merge_siblings(a, b)
    assert net.nodes[merged].index.clock == floor
    # unforged, both parts sit at the replica heads, so the merged leaf
    # starts there, keeps ingesting, and matches a rebuild
    sim, store, net = quiesced(dcs=("dc1", "dc2"), n=40, seed=19, rngseed=19)
    merged = net.merge_siblings(*net.force_split("qpu/dc1/h0"))
    leaf = net.nodes[merged]
    assert leaf.index.clock == leaf.replica.heads
    fill(store, random.Random(24), 20, prefix="n")
    sim.run_until_quiescent()
    assert leaf.index.clock == leaf.replica.heads
    net.scrub_all()
    want = rebuild_index(store.replicas["dc1"], net.binner)
    assert leaf.index.canonical() == want.canonical()


def test_split_and_merged_leaves_equal_their_rebuilds():
    # a split hands each half the entries the leaf posted, and a merge
    # unions the halves' entries: their postings come from the bins each
    # entry carries, while a rebuild bins each winner from its attrs
    sim, store, net = quiesced(n=80, seed=21, rngseed=21, jitter=4, dup=0.2,
                               history=CUT, binning={"gpa": 8})

    def each_leaf_equals_its_rebuild():
        net.scrub_all()
        for leaf in net.hist_leaves():
            want = rebuild_index(leaf.replica, net.binner, leaf.region)
            assert leaf.index.state() == want.state(), leaf.actor

    halves = {dc: net.force_split(f"qpu/{dc}/h1") for dc in store.dcs}
    fill(store, random.Random(22), 40, prefix="s")
    sim.run_until_quiescent()
    assert len(net.hist_leaves()) == 9
    each_leaf_equals_its_rebuild()
    for a, b in halves.values():
        net.merge_siblings(a, b)
    fill(store, random.Random(23), 40, prefix="m")
    sim.run_until_quiescent()
    assert len(net.hist_leaves()) == 6
    each_leaf_equals_its_rebuild()


def test_a_probe_on_its_way_to_a_merged_leaf_is_answered():
    # the old leaf forwards to the merged one rather than dropping the probe,
    # which would leave its parent's join waiting for good
    sim, store, net = quiesced(dcs=("dc1",), n=40, seed=7, rngseed=7)
    a, b = net.force_split("qpu/dc1/h0")
    got = []
    sim.add_actor("probe/sink", "dc1", lambda env: got.append(env.payload))
    rect = net.nodes[a].region
    probe = Probe(qid="t1", rects=(rect,),
                  plan=Plan(None, (rect,)),
                  origin_dc="dc1", reply_to="probe/sink", target=VectorClock())
    sim.send("probe/sink", a, "query.value", probe)
    merged = net.nodes[net.merge_siblings(a, b)]
    sim.run_until_quiescent()
    (resp,) = got
    assert resp.clock == merged.index.clock
    want = {e.key for e in merged.index.tag_info.values()
            if rect.contains_point(e.attrs)}
    assert want and set(resp.keys) == want


def probes_in_flight(sim, src):
    """The probes `src` has sent to a child that are not yet delivered."""
    return [item for _, _, item in sim._heap
            if isinstance(item, Envelope) and item.kind == "query.value"
            and item.src == src]


def test_a_merge_under_a_dispatched_join_completes_the_query():
    # both halves' probes are in flight when the halves merge; each old half
    # forwards its own probe to the merged leaf, which answers both
    sim, store, net = quiesced(dcs=("dc1",), n=40, seed=7, rngseed=7)
    a, b = net.force_split("qpu/dc1/h0")
    q = parse("gpa >= 0.0", SCHEMA).at("dc1")
    done = []
    net.submit(q, done.append)
    while not probes_in_flight(sim, "qpu/dc1/h0"):
        assert sim.step()
    net.merge_siblings(a, b)
    sim.run_until_quiescent()
    (res,) = done
    assert res.keys == scan(store.replicas["dc1"], q)
    assert not net.coordinators["dc1"].pending


def test_a_node_sent_two_probes_of_one_query_joins_each_on_its_own():
    # after the merge both old halves forward their probe to the merged
    # leaf; split before they arrive, it dispatches both probes of the
    # query, and each response must reach the join of its own probe
    sim, store, net = quiesced(dcs=("dc1",), n=40, seed=7, rngseed=7)
    a, b = net.force_split("qpu/dc1/h0")
    q = parse("gpa >= 0.0", SCHEMA).at("dc1")
    done = []
    net.submit(q, done.append)
    while not probes_in_flight(sim, "qpu/dc1/h0"):
        assert sim.step()
    merged = net.merge_siblings(a, b)
    while not (probes_in_flight(sim, a) and probes_in_flight(sim, b)):
        assert sim.step()
    net.force_split(merged)
    sim.run_until_quiescent()
    (res,) = done
    assert res.keys == scan(store.replicas["dc1"], q)
    assert not net.coordinators["dc1"].pending


def test_a_duplicated_probe_is_answered_once():
    sim, store, net = quiesced(dcs=("dc1",), n=10, seed=7, rngseed=7)
    got = []
    sim.add_actor("probe/sink", "dc1", lambda env: got.append(env.payload))
    leaf = net.nodes["qpu/dc1/h0"]
    probe = Probe(qid="t1", rects=(leaf.region,),
                  plan=Plan(None, (leaf.region,)),
                  origin_dc="dc1", reply_to="probe/sink", target=VectorClock())
    for _ in range(2):
        sim.send("probe/sink", leaf.actor, "query.value", probe)
    sim.run_until_quiescent()
    (resp,) = got
    assert resp.clock == leaf.index.clock


def test_merge_builds_the_same_leaf_whichever_sibling_comes_first():
    history = {"attr": "dept", "at": "d", "lo": "leaf", "hi": "leaf"}
    built = []
    for swap in (False, True):
        sim, store, net = quiesced(dcs=("dc1", "dc2"), n=60, seed=20,
                                   rngseed=20, history=history)
        lo, hi = net.force_split("qpu/dc1/h2")
        parent = net.nodes["qpu/dc1/h2"]
        merged = net.nodes[net.merge_siblings(*((hi, lo) if swap else (lo, hi)))]
        assert parent.children == [merged]
        assert merged.region is parent.region
        built.append((merged.actor, merged.region.key(), merged.repl_mode,
                      merged.index.clock, merged.index.canonical()))
    assert built[0] == built[1]


def test_a_leaf_merged_with_itself_is_refused():
    from qpusim import MergeRefused

    sim, store, net = quiesced(dcs=("dc1",), n=60, seed=20, rngseed=20)
    # a lone leaf, then one side of a cut
    with pytest.raises(MergeRefused, match="cannot merge with itself"):
        net.merge_siblings("qpu/dc1/h0", "qpu/dc1/h0")
    a, b = net.force_split("qpu/dc1/h0")
    with pytest.raises(MergeRefused, match="cannot merge with itself"):
        net.merge_siblings(a, a)
    assert net.nodes["qpu/dc1/h0"].children == [net.nodes[a], net.nodes[b]]


def test_merge_rejects_leaves_under_different_parents():
    from qpusim import MergeRefused

    sim, store, net = quiesced(dcs=("dc1",), n=60, seed=20, rngseed=20)
    a, b = net.force_split("qpu/dc1/h0")
    aa, ab = net.force_split(a)  # a morphs into their parent
    with pytest.raises(MergeRefused, match="not siblings"):
        net.merge_siblings(aa, b)


# -- adaptive replication --------------------------------------------------------------


def adaptive_net(**kw):
    return build(dcs=("dc1", "dc2"), repl_mode="adaptive",
                 selectivity=SelectivityConfig(window=8, theta_low=0.2,
                                               theta_high=0.6), **kw)


def feed(leaf, bits):
    for bit in bits:
        leaf._maybe_switch(bit)


def test_adaptive_leaf_switches_down_then_up():
    sim, store, net = adaptive_net()
    leaf = net.nodes["qpu/dc1/h0"]
    assert leaf.repl_mode == "log"
    feed(leaf, [0] * 8)
    assert leaf.repl_mode == "delta"
    assert len(leaf.window.bits) == 0  # hysteresis: a full fresh window is needed
    assert leaf.switch_log[-1][1:3] == ("log", "delta")
    feed(leaf, [1] * 8)
    assert leaf.repl_mode == "log"
    assert [s[1:3] for s in leaf.switch_log] == [("log", "delta"),
                                                 ("delta", "log")]


def test_adaptive_deadband_holds_the_mode():
    sim, store, net = adaptive_net()
    leaf = net.nodes["qpu/dc1/h0"]
    feed(leaf, [1, 0, 0, 1, 0, 0, 1, 0])  # ratio 0.375, inside band
    assert leaf.repl_mode == "log" and leaf.switch_log == []


def test_adaptive_waits_for_a_full_window():
    sim, store, net = adaptive_net()
    leaf = net.nodes["qpu/dc1/h0"]
    feed(leaf, [0] * 7)
    assert leaf.repl_mode == "log"


def test_a_ratio_on_a_threshold_holds_the_mode():
    # 0.05 * 200 and 0.15 * 200 land on whole counts, where the ratio
    # equals the threshold: a leaf flips only once it is strictly past
    sim, store, net = build(dcs=("dc1",), repl_mode="adaptive",
                            selectivity=SelectivityConfig(window=200))
    leaf = net.nodes["qpu/dc1/h0"]
    feed(leaf, [1] * 10 + [0] * 190)  # 10 / 200 == theta_low
    assert leaf.repl_mode == "log"
    feed(leaf, [0])  # a one leaves the window: 9 / 200
    assert leaf.repl_mode == "delta" and leaf.switch_log[-1][3] == 0.045
    feed(leaf, [0] * 170 + [1] * 30)  # 30 / 200 == theta_high
    assert leaf.repl_mode == "delta"
    feed(leaf, [1])  # a zero leaves the window: 31 / 200
    assert leaf.repl_mode == "log" and leaf.switch_log[-1][3] == 0.155


def test_window_count_matches_its_bits_across_switches():
    sim, store, net = adaptive_net()
    leaf = net.nodes["qpu/dc1/h0"]
    rng = random.Random(6)
    for phase in range(8):
        share = 0.9 if phase % 2 else 0.05
        for _ in range(40):
            leaf._maybe_switch(1 if rng.random() < share else 0)
            assert leaf.window.ones == sum(leaf.window.bits)
    assert len(leaf.switch_log) >= 4


def test_fixed_modes_never_switch():
    # every write lies outside the low leaf, which an adaptive leaf with
    # this window would answer by switching to delta mode; a fixed-mode
    # leaf keeps no window at all
    for mode in ("log", "delta"):
        sim, store, net = build(dcs=("dc1", "dc2"), repl_mode=mode,
                                history=CUT,
                                selectivity=SelectivityConfig(window=4))
        for i in range(8):
            store.put("dc1", f"k{i}", {"gpa": 3.5, "dept": "cs"})
        sim.run_until_quiescent()
        leaf = net.nodes["qpu/dc1/h1"]
        assert leaf.index.clock == VectorClock({"dc1": 8})
        assert leaf.repl_mode == mode and leaf.switch_log == []
        assert not leaf.window.bits


def test_a_billion_write_window_builds_at_once():
    size = 10**9
    cfg = SelectivityConfig(window=size)
    sim, store, net = build(dcs=("dc1",), repl_mode="adaptive",
                            selectivity=cfg)
    assert net.nodes["qpu/dc1/h0"].window.bits.maxlen == size


def test_delta_mode_converges_via_peer_feeds():
    sim, store, net = build(repl_mode="delta", jitter=5, seed=21)
    rng = random.Random(21)
    fill(store, rng, 90)
    sim.run_until_quiescent()
    net.scrub_all()
    want = rebuild_index(store.replicas["dc1"], net.binner).canonical()
    for leaf in net.hist_leaves():
        assert leaf.index.canonical() == want, leaf.actor


def feeders(net, actor):
    """The nodes that send `actor` their local-origin deltas."""
    return sorted(n.actor for n in net.nodes.values() if actor in n.subscribers)


def test_delta_leaf_without_a_peer_takes_foreign_origins_from_its_log():
    # merging at dc2 only leaves the merged leaf with no same-region peer at
    # dc1, so dc1 writes must reach it through dc2's log
    sim, store, net = build(dcs=("dc1", "dc2"), repl_mode="delta", seed=1)
    rng = random.Random(1)
    fill(store, rng, 40)
    sim.run_until_quiescent()
    for dc in ("dc1", "dc2"):
        net.force_split(f"qpu/{dc}/h0")
    sim.run_until_quiescent()
    merged = net.merge_siblings("qpu/dc2/h0.a", "qpu/dc2/h0.b")
    sim.run_until_quiescent()
    fill(store, rng, 20, dcs=["dc1"], prefix="n")
    sim.run_until_quiescent()
    leaf = net.nodes[merged]
    assert feeders(net, merged) == [] and leaf.subscribers == set()
    assert leaf.index.clock == store.replicas["dc2"].heads
    for actor in ("qpu/dc1/h0.a", "qpu/dc1/h0.b"):
        assert feeders(net, actor) == []
        assert net.nodes[actor].subscribers == set()
        assert net.nodes[actor].index.clock == store.replicas["dc1"].heads


def test_switch_to_delta_with_writes_in_flight_leaves_no_gap():
    # the peer sends only the deltas it applies after the subscription, so
    # the five writes in flight at the switch must come in through the log
    sim, store, net = build(dcs=("dc1", "dc2"), repl_mode="adaptive")
    rng = random.Random(3)
    leaf = net.nodes["qpu/dc1/h0"]
    fill(store, rng, 10, dcs=["dc2"], prefix="a")
    sim.run_until_quiescent()
    fill(store, rng, 5, dcs=["dc2"], prefix="b")
    leaf._switch("delta", 0.0)
    fill(store, rng, 5, dcs=["dc2"], prefix="c")
    sim.run_until_quiescent()
    assert leaf.repl_mode == "delta" and feeders(net, leaf.actor) == [
        "qpu/dc2/h0"]
    assert leaf.index.clock.get("dc2") == 20
    assert leaf.index.clock == store.replicas["dc1"].heads


def delta_pair(**kw):
    # two DCs in delta mode, each split at gpa 2.0, so qpu/dc1/h2 and
    # qpu/dc2/h2 are the same-region peers over [2.0, 4.0]
    return build(dcs=("dc1", "dc2"), repl_mode="delta", history=CUT, **kw)


def peer_deltas(sim, src):
    return [note for _, s, _, kind, note in sim.trace_rows
            if kind == "index.delta" and s == src]


def test_origin_sends_no_delta_for_writes_its_peers_never_posted():
    # both versions of k lie below the cut: the high leaf neither adds k nor
    # ever posted the version the overwrite removes
    sim, store, net = delta_pair(trace=True)
    store.put("dc1", "k", {"gpa": 1.0, "dept": "cs"})
    sim.run_until_quiescent()
    store.put("dc1", "k", {"gpa": 1.5, "dept": "cs"})
    sim.run_until_quiescent()
    assert peer_deltas(sim, "qpu/dc1/h2") == []
    assert peer_deltas(sim, "qpu/dc1/h1") == ["dc1:1", "dc1:2"]
    peer = net.nodes["qpu/dc2/h2"]
    assert peer.index.clock == VectorClock({"dc1": 2})  # filled by its log


def test_write_leaving_the_region_sends_a_remove_only_delta():
    # without jitter a peer delta overtakes the replicate of the same write,
    # so the origin's log entry, which adds nothing in the peer's region,
    # is what culls k at the peer
    sim, store, net = delta_pair()
    store.put("dc1", "k", {"gpa": 3.0, "dept": "cs"})
    sim.run_until_quiescent()
    first = store.replicas["dc1"].objects["k"].stamp
    peer = net.nodes["qpu/dc2/h2"]
    assert list(peer.index.tag_info) == [first]
    got = []

    def on_peer_delta(entry):
        peer._on_feed(entry)
        got.append((entry, dict(peer.index.tag_info),
                    store.replicas["dc2"].objects["k"].stamp))

    peer.on_peer_delta = on_peer_delta
    store.put("dc1", "k", {"gpa": 1.0, "dept": "cs"})
    sim.run_until_quiescent()
    [(sent, after, at_peer)] = got
    assert sent is logged(store.replicas["dc1"], "dc1", 2)
    assert sent.prev_tag == first and not peer.region.contains_point(sent.attrs)
    assert after == {} and at_peer == first  # culled before the replicate
    assert peer.index.tag_info == {}
    assert peer.index.clock == VectorClock({"dc1": 2})


def test_peer_delta_past_a_skipped_seq_is_dropped_and_the_log_applies_both(
        monkeypatch):
    # dc1 alternates writes below and above the cut; the high leaf sends no
    # delta for the ones below, so a jittered delta can reach the peer before
    # the log has the skipped seq. The peer drops it, and its log then
    # applies the skipped seq and the dropped one, in order
    from qpusim import Qpu, parse_scenario, run_scenario

    dropped = []  # (leaf, origin, skipped seq, dropped seq)
    by_log = set()  # (leaf, origin, seq) applied from the log feed
    on_peer_delta, on_feed = Qpu.on_peer_delta, Qpu._on_feed

    def watching_peer_delta(self, entry):
        origin = entry.origin_dc
        clock = self.index.clock.get(origin) if self.index else None
        on_peer_delta(self, entry)
        if clock is not None and entry.seq > clock + 1:
            assert self.index.clock.get(origin) == clock  # dropped
            dropped.append((self.actor, origin, clock + 1, entry.seq))

    def watching_feed(self, entry):
        clock = self.index.clock.get(entry.origin_dc)
        on_feed(self, entry)
        if self.index.clock.get(entry.origin_dc) > clock:
            by_log.add((self.actor, entry.origin_dc, entry.seq))

    monkeypatch.setattr(Qpu, "on_peer_delta", watching_peer_delta)
    monkeypatch.setattr(Qpu, "_on_feed", watching_feed)
    doc = json.loads((SCENARIOS / "students.json").read_text())
    doc["tree"]["repl_mode"] = "delta"
    doc["workload"] = [
        {"t": t, "op": "put", "dc": "dc1", "key": f"s{t % 7}",
         "attrs": {"GPA": 1.0 if t % 2 else 3.0, "Major": "Art"}}
        for t in range(1, 60)]
    report = run_scenario(parse_scenario(doc), trace=True)
    sent = {(dst, note) for _, _, dst, kind, note in report.sim.trace_rows
            if kind == "index.delta"}
    # only the log can fill a seq that no peer sent
    unsent = [(leaf, origin, skipped, seq)
              for leaf, origin, skipped, seq in dropped
              if (leaf, f"{origin}:{skipped}") not in sent]
    assert unsent
    for leaf, origin, skipped, seq in unsent:
        assert (leaf, origin, skipped) in by_log
        assert (leaf, origin, seq) in by_log
    assert "PASS ingest: every leaf at its replica heads" in report.verify_lines
    assert report.verify_ok


def test_subscriptions_follow_mode_and_shape_both_ways():
    sim, store, net = build(dcs=("dc1", "dc2"), repl_mode="adaptive",
                            trace=True, seed=8)
    rng = random.Random(8)
    leaf = net.nodes["qpu/dc1/h0"]

    def links_from(start):
        return {(s, d) for _, s, d, kind, _ in sim.trace_rows[start:]
                if kind == "index.delta"}

    def write(prefix, dcs=("dc1", "dc2")):
        start = len(sim.trace_rows)
        fill(store, rng, 40, dcs=list(dcs), prefix=prefix)
        sim.run_until_quiescent()
        return links_from(start)

    assert write("a", ["dc2"]) == set()  # log mode: no peer feeds
    leaf._switch("delta", 0.0)
    assert write("b", ["dc2"]) == {("qpu/dc2/h0", "qpu/dc1/h0")}
    leaf._switch("log", 1.0)
    assert write("c", ["dc2"]) == set()

    # both leaves in delta mode, then split alike at both DCs
    for dc in ("dc1", "dc2"):
        net.nodes[f"qpu/{dc}/h0"]._switch("delta", 0.0)
    assert write("d") == {("qpu/dc1/h0", "qpu/dc2/h0"),
                          ("qpu/dc2/h0", "qpu/dc1/h0")}
    for dc in ("dc1", "dc2"):
        net.force_split(f"qpu/{dc}/h0")
    for half in ("a", "b"):
        assert (net.nodes[f"qpu/dc1/h0.{half}"].region.key()
                == net.nodes[f"qpu/dc2/h0.{half}"].region.key())
    assert write("e") == {
        (f"qpu/{src}/h0.{half}", f"qpu/{dst}/h0.{half}")
        for half in ("a", "b") for src, dst in (("dc1", "dc2"), ("dc2", "dc1"))}


def test_mid_run_scrub_keeps_a_posting_its_replica_has_not_applied():
    # without jitter dc2's peer delta reaches qpu/dc1/h0 before dc1's
    # replica has the write; a scrub then must not cull the posting, which
    # the log can never bring back, since the leaf's clock already covers it
    sim, store, net = build(dcs=("dc1", "dc2"), repl_mode="delta")
    store.put("dc2", "k", {"gpa": 3.0, "dept": "cs"})
    leaf = net.nodes["qpu/dc1/h0"]
    while not leaf.index.tag_info:
        assert sim.step()
    assert "k" not in store.replicas["dc1"].objects
    assert net.scrub_all() == 0
    sim.run_until_quiescent()
    want = rebuild_index(store.replicas["dc1"], net.binner)
    assert leaf.index.canonical() == want.canonical()


# -- query plans --------------------------------------------------------------------


def count_plans(monkeypatch):
    """Count to_rectangles calls made by the coordinators."""
    import qpusim.qpu as qpu_mod

    calls = []
    orig = qpu_mod.to_rectangles

    def counted(q, schema):
        calls.append(q.expr)
        return orig(q, schema)

    monkeypatch.setattr(qpu_mod, "to_rectangles", counted)
    return calls


def test_repeated_expression_reuses_its_plan(monkeypatch):
    calls = count_plans(monkeypatch)
    sim, store, net = quiesced(n=30, history=CUT)
    text = 'gpa > 1.5 AND (dept = "cs" OR gpa < 0.5)'
    first = ask(net, text, "dc1")
    again = ask(net, text + " FRESHNESS strong", "dc2")
    other = ask(net, text, "dc3")
    assert len(calls) == 1
    assert len(net._plans) == 1
    for res, dc in ((first, "dc1"), (again, "dc2"), (other, "dc3")):
        assert res.error is None
        assert res.keys == scan(store.replicas[dc], parse(text, SCHEMA))


def test_equal_expressions_share_one_plan(monkeypatch):
    # literals that differ only in repr select the same objects
    calls = count_plans(monkeypatch)
    sim, store, net = quiesced(n=10)
    for a, b in ((1, 1.0), (0.0, -0.0)):
        qa = Query(Pred("gpa", "<=", a), StalenessLevel.any(), "dc1")
        qb = Query(Pred("gpa", "<=", b), StalenessLevel.any(), "dc1")
        assert qa.expr == qb.expr
        plans = [net._plan_of(q) for q in (qa, qb, qa)]
        assert plans[0] is plans[1] is plans[2]
        assert plans[0].rects == tuple(to_rectangles(qb, SCHEMA))
    assert len(calls) == 2  # once per expression
    assert len(net._plans) == 2


def test_a_query_with_a_negative_zero_literal_hits_the_root_cache():
    sim, store, net = quiesced(n=30, seed=9, rngseed=9)
    first = ask(net, "gpa <= 0.0", "dc1")
    again = ask(net, "gpa <= -0.0", "dc1")
    assert len(net._plans) == 1
    assert (first.cache_hits, again.cache_hits) == (0, 1)
    assert again.keys == first.keys == scan(store.replicas["dc1"],
                                            parse("gpa <= 0.0", SCHEMA))


def test_plan_memo_keeps_at_most_cache_capacity_oldest_out(monkeypatch):
    calls = count_plans(monkeypatch)
    sim, store, net = quiesced(cache_capacity=2)
    qs = [parse(f"gpa > {v}", SCHEMA).at("dc1") for v in (1.0, 2.0, 3.0)]
    for q in qs:
        net._plan_of(q)
    assert list(net._plans) == [qs[1].expr, qs[2].expr]
    reused = net._plan_of(qs[2])
    assert len(calls) == 3 and reused.covers == {}
    net._plan_of(qs[0])  # evicted, so planned again
    assert len(calls) == 4 and list(net._plans) == [qs[2].expr, qs[0].expr]
    # a plan evicted in flight is out of reach of the reshapes' clearing,
    # so it stops memoizing covers
    net._plan_of(qs[1])
    assert reused.covers is None and reused.pred is not None


def test_each_run_starts_with_an_empty_plan_memo(monkeypatch):
    from qpusim import load_scenario, run_scenario

    calls = count_plans(monkeypatch)
    sc = load_scenario(SCENARIOS / "students.json")
    distinct = {repr(q.expr) for q in sc.queries.values()}
    assert len(distinct) < len(sc.queries)  # some expression repeats
    for _ in range(2):
        calls.clear()
        report = run_scenario(sc)
        assert len(calls) == len(distinct)
        assert len(report.net._plans) == len(distinct)


def count_covers(monkeypatch):
    """Count greedy_cover calls made by the dispatch nodes."""
    import qpusim.qpu as qpu_mod

    calls = []
    orig = qpu_mod.greedy_cover

    def counted(rects, children, schema):
        calls.append(len(children))
        return orig(rects, children, schema)

    monkeypatch.setattr(qpu_mod, "greedy_cover", counted)
    return calls


def test_a_plan_memoizes_covers_from_its_second_use(monkeypatch):
    calls = count_covers(monkeypatch)
    text = 'gpa < 1.5 OR dept = "cs"'
    reshapes = (lambda net: net.force_split("qpu/dc1/h1"),
                lambda net: net.merge_siblings("qpu/dc1/h1.a", "qpu/dc1/h1.b"))

    def use(net):
        clear_caches(net)  # so that every use goes down the tree
        calls.clear()
        res = ask(net, text, "dc1")
        assert res.error is None
        (plan,) = net._plans.values()
        return res, plan

    def answer(res):
        return res.keys, res.stats["qpus_visited"], res.trace

    sim, store, net = quiesced(n=40, seed=5, rngseed=5, history=CUT)
    res, plan = use(net)
    assert calls and plan.covers is None and plan.pred is None
    first = (answer(res), len(calls))
    res, plan = use(net)
    assert plan.covers and plan.pred is not None
    assert (answer(res), len(calls)) == first
    res, plan = use(net)
    assert calls == [] and answer(res) == first[0]
    for n, reshape in enumerate(reshapes, 1):
        reshape(net)
        assert plan.covers == {}
        res, plan = use(net)
        assert calls and plan.covers
        # a network built in this shape, whose plan has never been used
        _, _, fresh = quiesced(n=40, seed=5, rngseed=5, history=CUT)
        for r in reshapes[:n]:
            r(fresh)
        want = ask(fresh, text, "dc1")
        assert answer(res) == answer(want)
        assert res.keys == scan(store.replicas["dc1"], parse(text, SCHEMA))


def test_a_held_hit_survives_its_entrys_eviction_and_a_log_cut():
    # a dc2 query hits the root's entry (at dc1), and a dc1-dc2 partition
    # holds the response while a dc1 query evicts the entry and the store
    # cuts its logs at the network's frontier. The hit's claim holds the
    # frontier down, so dc2's rescan past the claim still has its entries
    sim, store, net = quiesced(n=60, seed=5, rngseed=5, cache_capacity=1)
    text = "gpa > 2.0 FRESHNESS any"
    ask(net, text, "dc2")  # a miss, which leaves the entry
    (entry,) = net.root.cache.entries.values()
    fill(store, random.Random(6), 60)
    sim.run_until_quiescent()  # every DC has reported heads past the entry
    done = []
    net.submit(parse(text, SCHEMA).at("dc2"), done.append)
    partition(sim, "dc1", "dc2", sim.now + 1, sim.now + 300)
    run_until(sim, sim.now + 6)  # the root sent the hit's response at +5
    assert net.root.cache.hits == 1 and not done
    ask(net, "gpa < 1.0", "dc1")
    assert entry not in net.root.cache.entries.values()
    store.truncate(net._frontier())
    for r in store.replicas.values():
        assert r.base == entry.clock.entries
    sim.run_until_quiescent()
    (res,) = done
    assert res.stats["cache_hits"] == 1 and res.claimed == entry.clock
    assert res.keys == scan(store.replicas["dc2"], parse(text, SCHEMA))
