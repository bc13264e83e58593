import random
from pathlib import Path

import pytest

from qpusim import (
    Binner,
    Interval,
    Pred,
    Probe,
    Query,
    Region,
    ResultCache,
    SelectivityConfig,
    SplitRefused,
    StalenessLevel,
    VectorClock,
    parse,
    rebuild_index,
    scan,
    to_rectangles,
)

from conftest import (
    ask,
    build,
    clear_caches,
    fill,
    random_student,
    student_schema,
)

SCHEMA = student_schema()
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
    # both track the write in their clocks and selectivity windows
    assert lo.index.clock == hi.index.clock == VectorClock({"dc1": 1})
    assert list(lo.window.bits) == [0]
    assert list(hi.window.bits) == [1]


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
    net.sync_leaves()
    net.scrub_all()
    for leaf in net.hist_leaves():
        want = rebuild_index(store.replicas[leaf.dc], net.binner,
                             region=leaf.region)
        assert leaf.index.canonical() == want.canonical(), leaf.actor


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


def test_live_leaf_serves_the_tail_after_a_boundary():
    sim, store, net = quiesced()
    rows = [("a", 1.0), ("b", 3.0), ("c", 3.5), ("d", 0.5)]
    for key, gpa in rows:
        store.put("dc1", key, {"gpa": gpa, "dept": "cs"})
    sim.run_until_quiescent()
    got = []
    sim.add_actor("probe/sink", "dc1", lambda env: got.append(env.payload))
    rect = Region.whole(SCHEMA).narrowed("gpa", Interval(2.0, 4.0, True, False))
    rep = store.replicas["dc1"]
    probe = Probe(qid="t1", rects=(rect,), residual=rect.render(),
                  origin_dc="dc1", reply_to="probe/sink",
                  target=rep.heads, boundary=VectorClock({"dc1": 2}))
    sim.send("probe/sink", "qpu/dc1/live", "query.freshness", probe)
    sim.run_until_quiescent()
    (resp,) = got
    # entries 3..4 are past the boundary; only "c" matches the rectangle
    assert {kv[0] for kv in resp.hits.values()} == {"c"}
    assert resp.clock == rep.heads


def test_stale_gossip_keeps_strong_queries_correct():
    # when the freshness stage has lost track of history coverage it cannot
    # prove the target is indexed, so the live leaf joins the plan and strong
    # results still match a scan
    sim, store, net = quiesced()
    rng = random.Random(14)
    fill(store, rng, 50)
    sim.run_until_quiescent()
    fresh = net.nodes["qpu/dc2"]
    fresh.child_clocks.clear()
    assert fresh._stable() == VectorClock()
    res = ask(net, "gpa >= 2.0 FRESHNESS strong", "dc2")
    assert res.keys == scan(store.replicas["dc2"], parse("gpa >= 2.0", SCHEMA))
    assert "live" in res.trace


def test_gossip_raises_the_stable_floor():
    sim, store, net = quiesced(gossip_every=5, n=30, seed=15, rngseed=15)
    fresh = net.nodes["qpu/dc1"]
    assert fresh._stable() == store.replicas["dc1"].heads


# -- result cache -------------------------------------------------------------------


def rect_for(lo, hi):
    return Region.whole(SCHEMA).narrowed("gpa", Interval(lo, hi, False, False))


def test_cache_miss_then_hit_then_staleness_miss():
    cache = ResultCache()
    binner = Binner(SCHEMA, {})
    r = rect_for(1.0, 2.0)
    assert cache.probe((r,), r.render(), VectorClock(), binner) is None
    content = {("t", 1): ("k", {"gpa": 1.5, "dept": "cs"})}
    cache.insert((r,), r.render(), content, VectorClock({"dc1": 4}))
    got = cache.probe((r,), r.render(), VectorClock({"dc1": 3}), binner)
    assert got == (content, VectorClock({"dc1": 4}))
    # a target past the entry's coverage cannot be served from it
    assert cache.probe((r,), r.render(), VectorClock({"dc1": 5}), binner) is None
    assert (cache.hits, cache.misses) == (1, 2)


def test_cache_requires_matching_residual():
    cache = ResultCache()
    binner = Binner(SCHEMA, {})
    r = rect_for(1.0, 2.0)
    cache.insert((r,), r.render(), {}, VectorClock({"dc1": 1}))
    assert cache.probe((r,), "something else", VectorClock(), binner) is None


def test_cache_serves_narrowed_pieces_filtered_to_bins():
    # after a split the same query reaches a leaf as a smaller piece with an
    # unchanged residual; the entry answers it filtered to the piece's bins
    cache = ResultCache()
    binner = Binner(SCHEMA, {"gpa": 8})  # 0.5-wide bins
    wide = rect_for(0.0, 4.0)
    content = {
        ("a", 1): ("ka", {"gpa": 0.7, "dept": "cs"}),
        ("b", 2): ("kb", {"gpa": 2.2, "dept": "cs"}),
        ("c", 3): ("kc", {"gpa": 3.8, "dept": "cs"}),
    }
    cache.insert((wide,), wide.render(), content, VectorClock({"dc1": 9}))
    sub = rect_for(2.0, 3.0)
    got = cache.probe((sub,), wide.render(), VectorClock({"dc1": 1}), binner)
    assert got is not None
    # only the posting whose bin intersects the piece survives
    assert set(got[0]) == {("b", 2)}


def test_cache_rejects_pieces_outside_its_rectangles():
    cache = ResultCache()
    binner = Binner(SCHEMA, {})
    narrow = rect_for(0.0, 3.0)
    cache.insert((narrow,), "q", {}, VectorClock({"dc1": 9}))
    poking = rect_for(2.0, 4.0)
    assert cache.probe((poking,), "q", VectorClock(), binner) is None


def test_cache_answers_with_the_least_recently_used_match():
    cache = ResultCache(capacity=3)
    binner = Binner(SCHEMA, {})
    other = rect_for(1.0, 4.0)
    cache.insert((rect_for(0.0, 3.0),), "q", {}, VectorClock({"dc1": 1}))
    cache.insert((other,), "other", {}, VectorClock({"dc1": 9}))
    cache.insert((rect_for(0.0, 4.0),), "q", {}, VectorClock({"dc1": 2}))
    piece = rect_for(1.0, 2.0)

    def answered_by():
        return cache.probe((piece,), "q", VectorClock(), binner)[1]

    assert answered_by() == VectorClock({"dc1": 1})
    assert answered_by() == VectorClock({"dc1": 2})  # the hit renewed dc1:1
    # a fourth entry evicts the least recently used one, of either residual
    cache.insert((piece,), "q", {}, VectorClock({"dc1": 3}))
    assert len(cache.entries) == 3
    assert cache.probe((other,), "other", VectorClock(), binner) is None
    assert answered_by() == VectorClock({"dc1": 1})


def one_leaf_with(*rows, **kw):
    sim, store, net = quiesced(dcs=("dc1",), **kw)
    for key, gpa in rows:
        store.put("dc1", key, {"gpa": gpa, "dept": "cs"})
    sim.run_until_quiescent()
    return sim, store, net, net.nodes["qpu/dc1/h0"]


def clear_upper_caches(net):
    # so a repeated query reaches the leaf instead of hitting above it
    for node in net.nodes.values():
        if node.kind != "hist" and node.cache is not None:
            node.cache.clear()


def test_cache_entry_stays_frozen_after_later_writes():
    sim, store, net, leaf = one_leaf_with(("a", 1.0))
    ask(net, "gpa < 2.0 FRESHNESS snapshot", "dc1")
    (entry,) = leaf.cache.entries.values()
    content, clock = dict(entry.content), entry.clock
    store.delete("dc1", "a")
    store.put("dc1", "b", {"gpa": 1.5, "dept": "cs"})
    sim.run_until_quiescent()
    assert leaf.index.clock == VectorClock({"dc1": 3})
    assert entry.clock == clock == VectorClock({"dc1": 1})
    assert entry.content == content
    assert {kv[0] for kv in entry.content.values()} == {"a"}


def test_leaf_cache_hit_claims_the_entry_clock():
    sim, store, net, leaf = one_leaf_with(("a", 1.0))
    got = []
    sim.add_actor("probe/sink", "dc1", lambda env: got.append(env.payload))
    rect = rect_for(0.0, 2.0)

    def send(qid):
        probe = Probe(qid=qid, rects=(rect,), residual=rect.render(),
                      origin_dc="dc1", reply_to="probe/sink",
                      target=VectorClock({"dc1": 1}))
        sim.send("probe/sink", leaf.actor, "query.value", probe)
        sim.run_until_quiescent()

    send("t1")
    store.put("dc1", "b", {"gpa": 1.5, "dept": "cs"})
    sim.run_until_quiescent()
    send("t2")
    miss, hit = got
    assert (miss.cache_hits, hit.cache_hits) == (0, 1)
    # the index has moved on to dc1:2, but the hit serves dc1:1 content
    assert leaf.index.clock == VectorClock({"dc1": 2})
    assert miss.clock == hit.clock == VectorClock({"dc1": 1})
    assert {kv[0] for kv in hit.hits.values()} == {"a"}


def test_cache_check_flags_a_corrupted_leaf_entry():
    sim, store, net, leaf = one_leaf_with(("a", 1.0), ("b", 1.5), verify=True)
    text = "gpa < 2.0 FRESHNESS any"
    ask(net, text, "dc1")
    (entry,) = leaf.cache.entries.values()
    store.put("dc1", "c", {"gpa": 0.5, "dept": "cs"})
    sim.run_until_quiescent()
    clear_upper_caches(net)
    # a hit frozen at dc1:2 is checked against the index at dc1:2, not now
    assert ask(net, text, "dc1").stats["cache_hits"] == 1
    assert net.verify_errors == []
    c_tag = next(t for t, kv in leaf.index.tag_info.items() if kv[0] == "c")
    b_tag = next(t for t, kv in entry.content.items() if kv[0] == "b")
    corruptions = [
        lambda content: content.pop(b_tag),
        # what pushing the later write would have done: right for the
        # current index, wrong for the entry clock the hit claims
        lambda content: content.update({c_tag: leaf.index.tag_info[c_tag]}),
    ]
    for corrupt in corruptions:
        saved = dict(entry.content)
        corrupt(entry.content)
        clear_upper_caches(net)
        ask(net, text, "dc1")
        assert len(net.verify_errors) == 1
        assert net.verify_errors.pop().startswith("qpu/dc1/h0: cache hit diverges")
        entry.content = saved


def test_cache_check_accepts_hits_on_a_merge_of_uneven_leaves():
    # delta-mode siblings take peer deltas at their own pace, so a merged
    # leaf holds postings past its floor clock; its hits must still check
    sim, store, net = build(dcs=("dc1", "dc2"), repl_mode="delta", jitter=15,
                            seed=31, verify=True)
    fill(store, random.Random(31), 60)
    sim.run_until_quiescent()
    a, b = net.force_split("qpu/dc2/h0")
    net.force_split("qpu/dc1/h0")
    for i in range(30):
        sim.at(sim.now + i, lambda i=i: store.put(
            "dc1", f"n{i}", {"gpa": i / 8, "dept": "cs"}))
    sim.run_until(sim.now + 20)
    assert net.nodes[a].index.clock != net.nodes[b].index.clock
    merged = net.nodes[net.merge_siblings(a, b)]
    for _ in range(2):
        clear_upper_caches(net)
        ask(net, "gpa < 3.0 FRESHNESS any", "dc2")
    assert merged.cache.hits == 1
    assert net.verify_errors == []


def test_scrub_empties_leaf_caches_so_later_hits_check_clean():
    # a concurrent conflict leaves the losing version visible until a scrub
    # culls it without advancing any clock, so an entry cached before the
    # scrub no longer matches the leaf's index at its clock
    sim, store, net = quiesced(dcs=("dc1", "dc2"), verify=True)
    store.put("dc1", "k", {"gpa": 1.0, "dept": "cs"})
    store.put("dc2", "k", {"gpa": 1.5, "dept": "cs"})
    sim.run_until_quiescent()
    text = "gpa < 2.0 FRESHNESS any"
    leaf = net.nodes["qpu/dc2/h0"]
    ask(net, text, "dc2")
    assert leaf.index.visible_count() == 2 and len(leaf.cache.entries) == 1
    assert net.scrub_all() == 2  # the loser, culled at each DC's leaf
    assert not leaf.cache.entries
    for _ in range(2):
        clear_upper_caches(net)
        ask(net, text, "dc2")
    assert leaf.cache.hits == 1
    assert net.verify_errors == []


def test_root_cache_keeps_a_key_the_querying_dc_still_holds():
    # dc1 deletes k while partitioned from dc2. The root cache (at dc3) must
    # not lose k before dc2 sees the delete: the coordinator at dc2 rescans
    # only past the cached clock and would never add k back.
    sim, store, net = quiesced(root_dc="dc3")
    store.put("dc1", "k", {"gpa": 3.0, "dept": "cs"})
    sim.run_until_quiescent()
    text = "gpa > 2.0 FRESHNESS any"
    assert ask(net, text, "dc2").keys == {"k"}
    sim.partition("dc1", "dc2", sim.now, sim.now + 500)
    sim.run_until(sim.now)
    store.delete("dc1", "k")
    sim.run_until(sim.now + 30)  # dc1 and dc3 have ingested the delete
    res = ask(net, text, "dc2")
    assert res.stats["cache_hits"] >= 1
    assert res.keys == scan(store.replicas["dc2"], parse("gpa > 2.0", SCHEMA))
    assert res.keys == {"k"}


def test_cache_lru_eviction():
    cache = ResultCache(capacity=2)
    for i, (lo, hi) in enumerate([(0.0, 1.0), (1.0, 2.0), (2.0, 3.0)]):
        r = rect_for(lo, hi)
        cache.insert((r,), r.render(), {}, VectorClock({"dc1": i + 1}))
    assert len(cache.entries) == 2
    r0 = rect_for(0.0, 1.0)
    binner = Binner(SCHEMA, {})
    assert cache.probe((r0,), r0.render(), VectorClock(), binner) is None


def test_repeated_query_hits_caches_with_identical_keys():
    sim, store, net = quiesced(n=80, seed=16, rngseed=16)
    first = ask(net, 'dept = "cs" AND gpa > 1.0 FRESHNESS snapshot', "dc3")
    assert first.stats["cache_hits"] == 0
    second = ask(net, 'dept = "cs" AND gpa > 1.0 FRESHNESS snapshot', "dc3")
    assert second.keys == first.keys
    assert second.stats["cache_hits"] >= 1
    assert "cache-hit" in second.trace


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
    # catch-up closes the under-claimed gap and the leaf matches a rebuild
    net.sync_leaves()
    net.scrub_all()
    want = rebuild_index(store.replicas["dc1"], net.binner)
    assert net.nodes[merged].index.canonical() == want.canonical()


def test_merge_requires_adjacent_siblings():
    from qpusim import MergeRefused, SplitPolicy

    sim, store, net = quiesced(dcs=("dc1",), n=60, seed=20, rngseed=20,
                               split=SplitPolicy(mode="replace"))
    a, b = net.force_split("qpu/dc1/h0")
    aa, ab = net.force_split(a)
    # replace-mode splits leave all three leaves under the freshness node,
    # so the outer pair is same-parent but not seam-adjacent
    with pytest.raises(MergeRefused, match="union"):
        net.merge_siblings(aa, b)
    net.merge_siblings(aa, ab)


def test_merge_rejects_leaves_under_different_parents():
    from qpusim import MergeRefused

    sim, store, net = quiesced(dcs=("dc1",), n=60, seed=20, rngseed=20)
    a, b = net.force_split("qpu/dc1/h0")
    aa, ab = net.force_split(a)  # internal mode: a morphs into their parent
    with pytest.raises(MergeRefused, match="not siblings"):
        net.merge_siblings(aa, b)


# -- adaptive replication --------------------------------------------------------------


def adaptive_net(**kw):
    return build(dcs=("dc1", "dc2"), repl_mode="adaptive",
                 selectivity=SelectivityConfig(window=8, theta_low=0.2,
                                               theta_high=0.6), **kw)


def feed(leaf, bits):
    for bit in bits:
        leaf.window.append(bit)


def test_adaptive_leaf_switches_down_then_up():
    sim, store, net = adaptive_net()
    leaf = net.nodes["qpu/dc1/h0"]
    assert leaf.repl_mode == "log"
    feed(leaf, [0] * 8)
    leaf._maybe_switch()
    assert leaf.repl_mode == "delta"
    assert len(leaf.window.bits) == 0  # hysteresis: a full fresh window is needed
    assert leaf.switch_log[-1][1:3] == ("log", "delta")
    feed(leaf, [1] * 8)
    leaf._maybe_switch()
    assert leaf.repl_mode == "log"
    assert [s[1:3] for s in leaf.switch_log] == [("log", "delta"),
                                                 ("delta", "log")]


def test_adaptive_deadband_holds_the_mode():
    sim, store, net = adaptive_net()
    leaf = net.nodes["qpu/dc1/h0"]
    feed(leaf, [1, 0, 0, 1, 0, 0, 1, 0])  # ratio 0.375, inside band
    leaf._maybe_switch()
    assert leaf.repl_mode == "log" and leaf.switch_log == []


def test_adaptive_waits_for_a_full_window():
    sim, store, net = adaptive_net()
    leaf = net.nodes["qpu/dc1/h0"]
    feed(leaf, [0] * 7)
    leaf._maybe_switch()
    assert leaf.repl_mode == "log"


def test_window_count_matches_its_bits_across_switches():
    sim, store, net = adaptive_net()
    leaf = net.nodes["qpu/dc1/h0"]
    rng = random.Random(6)
    for phase in range(8):
        share = 0.9 if phase % 2 else 0.05
        for _ in range(40):
            leaf.window.append(1 if rng.random() < share else 0)
            leaf._maybe_switch()
            assert leaf.window.ones == sum(leaf.window.bits)
    assert len(leaf.switch_log) >= 4


def test_fixed_modes_never_switch():
    sim, store, net = build(dcs=("dc1", "dc2"), repl_mode="log",
                            selectivity=SelectivityConfig(window=4))
    leaf = net.nodes["qpu/dc1/h0"]
    feed(leaf, [0, 0, 0, 0])
    leaf._maybe_switch()
    assert leaf.repl_mode == "log" and leaf.switch_log == []


def test_delta_mode_converges_via_peer_feeds():
    sim, store, net = build(repl_mode="delta", jitter=5, seed=21)
    rng = random.Random(21)
    fill(store, rng, 90)
    sim.run_until_quiescent()
    net.sync_leaves()
    net.scrub_all()
    want = rebuild_index(store.replicas["dc1"], net.binner).canonical()
    for leaf in net.hist_leaves():
        assert leaf.index.canonical() == want, leaf.actor


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
    assert leaf.peers == {}
    assert leaf.index.clock == store.replicas["dc2"].heads
    for actor in ("qpu/dc1/h0.a", "qpu/dc1/h0.b"):
        assert net.nodes[actor].peers == {}
        assert net.nodes[actor].index.clock == store.replicas["dc1"].heads


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


def test_equal_expressions_with_unlike_literals_get_their_own_plans(
        monkeypatch):
    calls = count_plans(monkeypatch)
    sim, store, net = quiesced(n=10)
    for a, b in ((1, 1.0), (0.0, -0.0)):
        qa = Query(Pred("gpa", "<=", a), StalenessLevel.any(), "dc1")
        qb = Query(Pred("gpa", "<=", b), StalenessLevel.any(), "dc1")
        assert qa.expr == qb.expr
        plans = [net._plan_of(q) for q in (qa, qb, qa)]
        for q, (rects, residual) in zip((qa, qb, qa), plans):
            pairs = to_rectangles(q, SCHEMA)
            assert rects == tuple(r for r, _ in pairs)
            assert residual == " OR ".join(res for _, res in pairs)
        assert plans[0][1] != plans[1][1]
    assert len(calls) == 6  # each switch between the two replans
    assert len(net._plans) == 2


def test_plan_memo_keeps_at_most_cache_capacity_oldest_out(monkeypatch):
    calls = count_plans(monkeypatch)
    sim, store, net = quiesced(cache_capacity=2)
    qs = [parse(f"gpa > {v}", SCHEMA).at("dc1") for v in (1.0, 2.0, 3.0)]
    for q in qs:
        net._plan_of(q)
    assert list(net._plans) == [qs[1].expr, qs[2].expr]
    net._plan_of(qs[2])
    assert len(calls) == 3
    net._plan_of(qs[0])  # evicted, so planned again
    assert len(calls) == 4 and list(net._plans) == [qs[2].expr, qs[0].expr]


def test_each_run_starts_with_an_empty_plan_memo(monkeypatch):
    from qpusim import load_scenario, run_scenario

    calls = count_plans(monkeypatch)
    sc = load_scenario(Path(__file__).resolve().parent.parent
                       / "scenarios" / "students.json")
    distinct = {repr(q.expr) for q in sc.queries.values()}
    assert len(distinct) < len(sc.queries)  # some expression repeats
    for _ in range(2):
        calls.clear()
        report = run_scenario(sc)
        assert len(calls) == len(distinct)
        assert len(report.net._plans) == len(distinct)
