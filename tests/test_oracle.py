import random

import pytest

from qpusim import (
    Binner,
    DcReplica,
    Interval,
    Region,
    StalenessLevel as SL,
    VectorClock,
    parse,
    rebuild_index,
    replay_matches,
    replay_to,
    scan,
)
from qpusim.oracle import target_fault

from conftest import ask, build, fill, random_student, student_schema

SCHEMA = student_schema()


def test_scan_empty_replica():
    sim, store, net = build()
    q = parse("gpa >= 0", SCHEMA)
    assert scan(store.replicas["dc1"], q) == set()


def test_scan_universal_returns_all_live_keys():
    sim, store, net = build()
    rng = random.Random(1)
    keys = fill(store, rng, 30)
    sim.at(200, lambda: store.delete("dc1", keys[0]))
    sim.run_until_quiescent()
    q = parse("gpa >= 0", SCHEMA)
    live = set(keys) - {keys[0]}
    assert scan(store.replicas["dc2"], q) == live


def test_scan_agrees_with_routing_when_quiet():
    sim, store, net = build(jitter=4, seed=3)
    rng = random.Random(2)
    fill(store, rng, 80)
    sim.run_until_quiescent()
    res = ask(net, 'gpa < 2.0 OR dept = "cs" FRESHNESS strong', "dc2")
    q = parse('gpa < 2.0 OR dept = "cs"', SCHEMA)
    assert res.keys == scan(store.replicas["dc2"], q)


def test_replay_to_zero_clock_is_empty():
    sim, store, net = build()
    fill(store, random.Random(3), 20)
    sim.run_until_quiescent()
    assert replay_to(store.replicas["dc1"], VectorClock()) == {}


def test_replay_to_heads_is_current_state():
    sim, store, net = build(jitter=6, dup=0.2, seed=4)
    rng = random.Random(4)
    keys = fill(store, rng, 60)
    sim.at(500, lambda: store.delete("dc2", keys[3]))
    sim.run_until_quiescent()
    rep = store.replicas["dc3"]
    state = replay_to(rep, rep.heads)
    assert state == {k: rep.get(k) for k in rep.objects if rep.get(k) is not None}


def test_replay_single_origin_prefix_fold():
    # one writing DC: replaying to {dc1: k} must equal applying the first
    # k operations in order
    sim, store, net = build()
    rng = random.Random(5)
    ops = []
    for i in range(50):
        key = f"k{rng.randrange(10)}"
        if rng.random() < 0.15:
            ops.append((key, None))
            sim.at(i + 1, lambda key=key: store.delete("dc1", key))
        else:
            attrs = random_student(rng)
            ops.append((key, attrs))
            sim.at(i + 1, lambda key=key, attrs=attrs:
                   store.put("dc1", key, attrs))
    sim.run_until_quiescent()
    for k in (0, 1, 7, 50):
        folded = {}
        for key, attrs in ops[:k]:
            if attrs is None:
                folded.pop(key, None)
            else:
                folded[key] = attrs
        got = replay_to(store.replicas["dc2"], VectorClock({"dc1": k}))
        assert got == folded, k


def test_replay_reproduces_state_seen_mid_run():
    sim, store, net = build(jitter=8, dup=0.3, seed=6)
    rng = random.Random(6)
    for i in range(120):
        dc = store.dcs[i % 3]
        sim.at(i + 1, lambda dc=dc, a=random_student(rng), i=i:
               store.put(dc, f"k{i % 40}", a))
    rep = store.replicas["dc2"]
    snapshot = None
    target = None
    while sim.step():
        if snapshot is None and sim.now >= 90:
            target = rep.heads
            snapshot = {k: rep.get(k) for k in rep.objects
                        if rep.get(k) is not None}
    assert snapshot, "simulation drained before the capture tick"
    assert replay_to(rep, target) == snapshot


def test_replay_beyond_local_history_raises():
    sim, store, net = build()
    store.put("dc1", "a", random_student(random.Random(7)))
    sim.run_until_quiescent()
    rep = store.replicas["dc1"]
    too_far = rep.heads.merge(VectorClock({"dc2": 99}))
    with pytest.raises(ValueError, match="beyond local history"):
        replay_to(rep, too_far)


def test_replay_matches_filters_by_query():
    sim, store, net = build()
    sim.at(1, lambda: store.put("dc1", "hi", {"gpa": 3.9, "dept": "cs"}))
    sim.at(2, lambda: store.put("dc1", "lo", {"gpa": 0.5, "dept": "cs"}))
    sim.run_until_quiescent()
    rep = store.replicas["dc1"]
    q = parse("gpa > 2.0", SCHEMA)
    assert replay_matches(rep, rep.heads, q) == {"hi"}
    assert replay_matches(rep, VectorClock({"dc1": 1}), q) == {"hi"}


def test_rebuild_empty_store_is_empty_index():
    sim, store, net = build()
    binner = Binner(SCHEMA, {"gpa": 4})
    idx = rebuild_index(store.replicas["dc1"], binner)
    assert idx.visible_count() == 0
    assert idx.clock == VectorClock()


def test_rebuild_advances_its_own_clock_not_the_heads():
    # the index clock advances in place; the heads snapshot must not
    rep = DcReplica("dc1", SCHEMA)
    rep.put("a", {"gpa": 1.0, "dept": "cs"}, 1)
    heads = rep.heads
    idx = rebuild_index(rep, Binner(SCHEMA, {"gpa": 4}))
    assert idx.clock == heads and idx.clock is not heads
    assert idx.apply_delta(rep.put("b", {"gpa": 2.0, "dept": "cs"}, 2), True)
    assert idx.clock == rep.heads == VectorClock({"dc1": 2})
    assert heads == VectorClock({"dc1": 1})


def test_rebuild_matches_converged_scrubbed_leaves():
    sim, store, net = build(binning={"gpa": 8}, history="leaf",
                            jitter=5, dup=0.1, seed=8)
    rng = random.Random(8)
    keys = fill(store, rng, 100)
    sim.at(600, lambda: store.delete("dc3", keys[5]))
    sim.run_until_quiescent()
    net.scrub_all()
    want = rebuild_index(store.replicas["dc1"], net.binner).canonical()
    for leaf in net.hist_leaves():
        assert leaf.index.canonical() == want, leaf.actor


def test_rebuild_region_restriction_is_a_subset():
    sim, store, net = build()
    rng = random.Random(9)
    fill(store, rng, 60)
    sim.run_until_quiescent()
    binner = Binner(SCHEMA, {"gpa": 8})
    rep = store.replicas["dc1"]
    full = rebuild_index(rep, binner)
    half = Region.whole(SCHEMA).narrowed("gpa", Interval(0.0, 2.0, False, True))
    part = rebuild_index(rep, binner, region=half)
    assert part.visible_count() <= full.visible_count()
    full_tags = {s for posting in full.postings.values()
                 for tags in posting.values() for s in tags}
    part_tags = {s for posting in part.postings.values()
                 for tags in posting.values() for s in tags}
    assert part_tags <= full_tags
    assert all(rep.get(part.tag_info[t][0]) is not None for t in part_tags)


def test_target_fault_checks_each_level_on_its_own():
    sim, store, net = build(dcs=("dc1", "dc2"))
    for i in range(3):
        store.put("dc1", f"a{i}", random_student(random.Random(i)))
    store.put("dc2", "b", random_student(random.Random(9)))
    heads = store.replicas["dc1"].heads  # dc2's write has not arrived
    assert heads == VectorClock({"dc1": 3})

    def fault(level, target):
        return target_fault(level, VectorClock(target), heads, store)

    assert fault(SL.strong(), {"dc1": 3}) is None
    assert "strong target {dc1:2}" in fault(SL.strong(), {"dc1": 2})
    assert fault(SL.bounded(2), {"dc1": 1}) is None
    assert fault(SL.bounded(5), {}) is None
    assert fault(SL.bounded(2), {"dc1": 3}) is not None
    assert fault(SL.any(), {}) is None
    assert fault(SL.any(), {"dc1": 1}) is not None
    # a snapshot component may not pass any replica's heads
    assert fault(SL.snapshot(), {}) is None
    assert fault(SL.snapshot(), {"dc2": 1}) is not None  # dc1 lacks it
    assert fault(SL.snapshot(), {"dc1": 3, "dc2": 1}) is not None
    sim.run_until_quiescent()
    assert fault(SL.snapshot(), {"dc1": 3, "dc2": 1}) is None
    assert fault(SL.snapshot(), {"dc1": 4}) is not None
