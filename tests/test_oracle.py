import random
from functools import partial

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
    scan,
)
from qpusim import oracle, qpu
from qpusim.oracle import HitCheck, ScanViews, target_fault
from qpusim.qpu import Coordinator
from qpusim.router import rect_match
from qpusim.scenario import parse_scenario, run_scenario

from conftest import (
    LOWER,
    ask,
    build,
    fill,
    fold_logs,
    random_student,
    record_logs,
    replay_matches,
    replay_to,
    student_schema,
)

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
    logs = record_logs(store)
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
        got = replay_to(store.replicas["dc2"], VectorClock({"dc1": k}), logs)
        assert got == folded, k


def test_replay_reproduces_state_seen_mid_run():
    sim, store, net = build(jitter=8, dup=0.3, seed=6)
    logs = record_logs(store)
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
    assert replay_to(rep, target, logs) == snapshot


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
    binner = Binner(SCHEMA, {"gpa": 4})
    rep = DcReplica("dc1", binner)
    rep.put("a", {"gpa": 1.0, "dept": "cs"}, 1)
    heads = rep.heads
    idx = rebuild_index(rep, binner)
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
    assert all(rep.get(part.tag_info[t].key) is not None for t in part_tags)


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


# -- the oracle's views and forward folds -------------------------------------

TEMPLATES = ("gpa >= 2.0", 'gpa < 1.5 OR dept = "cs"',
             'dept = "math" AND gpa > 0.5', "gpa > 3.0 AND gpa <= 3.5")
LEVELS = ("any", "strong", "bounded:3", "snapshot")


def mixed_doc(seed, mode):
    """Four query templates asked again and again from three DCs among
    writes and deletes, with a partition, a split and a merge. dc2's write
    of `late` during the partition reaches dc1 after dc1's own later write
    of it, and loses there."""
    rng = random.Random(seed)
    acts = []
    for t in range(2, 400):
        dc = rng.choice(("dc1", "dc2", "dc3"))
        r = rng.random()
        if r < 0.5:
            text = f"{rng.choice(TEMPLATES)} FRESHNESS {rng.choice(LEVELS)}"
            acts.append({"t": t, "op": "query", "dc": dc, "text": text})
        elif r < 0.58:
            acts.append({"t": t, "op": "delete", "dc": dc,
                         "key": f"k{rng.randrange(30)}"})
        else:
            acts.append({"t": t, "op": "put", "dc": dc,
                         "key": f"k{rng.randrange(30)}",
                         "attrs": random_student(rng)})
    acts += [
        {"t": 100, "op": "partition", "a": "dc1", "b": "dc2", "until": 180},
        {"t": 120, "op": "put", "dc": "dc2", "key": "late",
         "attrs": {"gpa": 3.2, "dept": "cs"}},
        {"t": 125, "op": "put", "dc": "dc1", "key": "late",
         "attrs": {"gpa": 1.0, "dept": "art"}},
        {"t": 150, "op": "force-split", "qpu": "qpu/dc3/h0"},
        {"t": 300, "op": "force-merge", "a": "qpu/dc3/h0.a",
         "b": "qpu/dc3/h0.b"},
    ]
    acts.sort(key=lambda a: a["t"])
    return {
        "name": f"mixed-{seed}-{mode}", "seed": seed,
        "dcs": ["dc1", "dc2", "dc3"],
        "schema": {"gpa": {"kind": "float", "lo": 0.0, "hi": 4.0},
                   "dept": {"kind": "text", "alphabet": LOWER}},
        "binning": {"gpa": 8},
        "net": {"intra_dc_delay": 1, "inter_dc_delay": 5, "jitter": 4,
                "dup_prob": 0.1},
        "tree": {"root_dc": "dc1", "repl_mode": mode, "gossip_every": 5},
        "verify": {"oracle": True},
        "workload": acts,
    }


MIXED = [(seed, mode) for seed in (1, 2, 3)
         for mode in ("log", "delta", "adaptive")]


def run_mixed(seed, mode):
    report = run_scenario(parse_scenario(mixed_doc(seed, mode)))
    assert not report.runtime_errors
    return report


def test_every_view_answer_equals_a_full_scan(monkeypatch):
    # with every view answer sampled, a view that differs from a full scan
    # at any query prints FAIL oracle
    monkeypatch.setattr(ScanViews, "SAMPLE", 1)
    seen = {"served": 0, "in_feed": 0, "late_lost": 0}
    feeding = []
    call, on_feed = ScanViews.__call__, Coordinator._on_feed

    def counted_call(self, replica, q):
        before = self.served
        keys = call(self, replica, q)
        if self.served > before:
            seen["served"] += 1
            seen["in_feed"] += bool(feeding)
        return keys

    def counted_feed(self, entry):
        if entry.key == "late" and self.replica.objects["late"] is not entry:
            seen["late_lost"] += 1
        feeding.append(entry)
        try:
            on_feed(self, entry)
        finally:
            feeding.pop()

    monkeypatch.setattr(ScanViews, "__call__", counted_call)
    monkeypatch.setattr(Coordinator, "_on_feed", counted_feed)
    for seed, mode in MIXED:
        report = run_mixed(seed, mode)
        assert report.verify_ok, (seed, mode, [
            ln for ln in report.verify_lines if ln.startswith("FAIL")])
    # the views answered most queries, some of them inside a replica's
    # apply callback, where a coordinator completes a parked query; dc2's
    # losing write arrived late at dc1 in every run
    assert seen["served"] > 1000
    assert seen["in_feed"] > 0
    assert seen["late_lost"] == len(MIXED)


def test_every_forward_fold_equals_a_fold_from_scratch(monkeypatch):
    forward = 0
    advance = HitCheck._advance
    init = HitCheck.__init__

    def recording_init(self, store):
        init(self, store)
        self.history = record_logs(store)  # the network cuts the logs

    def checked_advance(self, front, rects, clock):
        nonlocal forward
        forward += front is not None and clock.dominates(front.clock)
        front = advance(self, front, rects, clock)
        want = {k for k, e in fold_logs(self.history, clock).items()
                if e.attrs is not None and rect_match(rects, e.attrs)}
        assert front.clock == clock and front.need == want
        return front

    monkeypatch.setattr(HitCheck, "__init__", recording_init)
    monkeypatch.setattr(HitCheck, "_advance", checked_advance)
    hits = 0
    for seed, mode in MIXED:
        report = run_mixed(seed, mode)
        assert report.verify_ok
        hits += report.net.root.cache.hits
    assert forward > 50 and hits > forward


def test_a_dropped_key_on_a_repeated_plan_fails_the_query(monkeypatch):
    # a planted defect: from a plan's second use on, the candidate check
    # (handed a compiled predicate) loses the smallest key it keeps
    check = qpu.candidate_check

    def lossy(keys, pred, store, dc):
        kept, removed = check(keys, pred, store, dc)
        if pred is not None and not isinstance(pred, partial) and kept:
            kept = kept - {min(kept)}
        return kept, removed

    monkeypatch.setattr(qpu, "candidate_check", lossy)
    served = 0
    call = ScanViews.__call__

    def counted_call(self, replica, q):
        nonlocal served
        keys = call(self, replica, q)
        served = self.served
        return keys

    monkeypatch.setattr(ScanViews, "__call__", counted_call)
    report = run_scenario(parse_scenario(mixed_doc(1, "log")))
    failed = [ln for ln in report.verify_lines if ln.startswith("FAIL query")]
    assert served > 100 and len(failed) > 100
    assert all("missing ['" in ln for ln in failed)


def test_a_corrupted_view_fails_the_sampled_full_scan(monkeypatch):
    catch_up = ScanViews._catch_up

    def corrupt(view, replica, expr):
        catch_up(view, replica, expr)
        view.keys.add("planted")

    monkeypatch.setattr(ScanViews, "_catch_up", staticmethod(corrupt))
    report = run_scenario(parse_scenario(mixed_doc(2, "delta")))
    bad = [ln for ln in report.verify_lines if ln.startswith("FAIL oracle")]
    assert bad and all("extra ['planted']" in ln for ln in bad)


def test_views_stay_bounded_and_match_a_full_scan():
    # 1,000 distinct expressions at one replica, each used three times
    # among writes and deletes (a first use, the use that makes its view,
    # and one that catches the view up), then 1,000 more used once
    rep = DcReplica("dc1", Binner(SCHEMA))
    rng = random.Random(11)
    views = ScanViews()
    tick = 0

    def write():
        nonlocal tick
        tick += 1
        key = f"k{rng.randrange(60)}"
        if rng.random() < 0.1:
            rep.delete(key, tick)
        else:
            rep.put(key, random_student(rng), tick)

    def ask_and_write(q):
        assert views(rep, q) == scan(rep, q)
        write()

    repeated = [parse(f"gpa > {i / 250:.3f}", SCHEMA) for i in range(1000)]
    for q in repeated:
        for _ in range(3):
            ask_and_write(q)
    assert views.served == 1000
    assert len(views._views) == oracle.CAP
    for i in range(1000):
        ask_and_write(parse(f"gpa < {i / 250:.3f}", SCHEMA))
    assert len(views._first) == oracle.CAP
    # the oldest views were dropped; their expressions start over
    for q in repeated[:10]:
        ask_and_write(q)
    assert views.served == 1000
    assert not views.lines()


def test_hit_check_frontiers_stay_bounded():
    # 1,000 distinct rectangle keys at one DC, each hit twice among writes
    # and deletes, each hit holding exactly the keys its rectangles need:
    # the check keeps at most CAP frontiers and finds nothing missing
    sim, store, net = build(dcs=("dc1",))
    rep = store.replicas["dc1"]
    rng = random.Random(12)
    check = HitCheck(store)
    whole = Region.whole(SCHEMA)

    def hit(rects, drop=None):
        for _ in range(3):
            key = f"k{rng.randrange(60)}"
            if rng.random() < 0.1:
                store.delete("dc1", key)
            else:
                store.put("dc1", key, random_student(rng))
        need = {k for k, e in rep.objects.items()
                if e.attrs is not None and rect_match(rects, e.attrs)}
        check("t", "dc1", rects, rects[0].key(), need - {drop}, rep.heads)
        return need

    plans = [[whole.narrowed("gpa", Interval(i / 250, 4.0, False, False))]
             for i in range(1000)]
    for rects in plans:
        hit(rects)
        hit(rects)
    assert len(check._fronts) == oracle.CAP
    assert check.lines() == ["PASS cache: 2000 hits checked"]
    # the oldest frontier was dropped; its key starts over from scratch and
    # still finds a planted missing key
    need = hit(plans[0])
    assert need
    hit(plans[0], drop=min(need))
    (line,) = check.lines()
    assert line.endswith(f"misses {[min(need)]}")


# -- after a log cut ----------------------------------------------------------


def test_a_fold_from_the_checkpoint_still_finds_a_planted_missing_key():
    # the logs are cut at the heads, between two hits on one rectangle key
    # and before the first hit on another: both fold from the checkpoint
    sim, store, net = build(dcs=("dc1", "dc2"))
    rep = store.replicas["dc1"]
    rng = random.Random(14)
    check = HitCheck(store)
    whole = Region.whole(SCHEMA)
    old = [whole.narrowed("gpa", Interval(1.0, 4.0, False, False))]
    new = [whole.narrowed("gpa", Interval(0.0, 3.0, False, False))]

    def write(n):
        for i in range(n):
            store.put(("dc1", "dc2")[i % 2], f"k{rng.randrange(30)}",
                      random_student(rng))
        sim.run_until_quiescent()

    def need(rects):
        return {k for k, e in rep.objects.items()
                if e.attrs is not None and rect_match(rects, e.attrs)}

    write(80)
    check("t", "dc1", old, old[0].key(), need(old), rep.heads)
    write(20)
    store.truncate(rep.heads)
    write(6)
    assert rep.base == {"dc1": 50, "dc2": 50}
    # every key whose winner was cut has it in the checkpoint
    assert all(check._checkpoint[k] is e for k, e in rep.objects.items()
               if e.seq <= 50)
    for rects in (old, new):
        # a key whose winner was cut, so only the checkpoint holds it
        cut = {k for k in need(rects) if rep.objects[k].seq <= 50}
        check("t", "dc1", rects, rects[0].key(), need(rects) - {min(cut)},
              rep.heads)
        assert check.failures[-1].endswith(f"misses {[min(cut)]}")
    assert len(check.failures) == 2


def test_a_view_whose_cursor_is_below_the_log_base_scans_again():
    rep = DcReplica("dc1", Binner(SCHEMA))
    rng = random.Random(15)
    scans = []

    def counted_scan(replica, q):
        scans.append(q)
        return scan(replica, q)

    views = ScanViews(counted_scan)
    q = parse("gpa >= 2.0", SCHEMA)
    tick = 0

    def write(n):
        nonlocal tick
        for _ in range(n):
            tick += 1
            rep.put(f"k{rng.randrange(20)}", random_student(rng), tick)

    write(20)
    views(rep, q)
    views(rep, q)  # the view, its cursor at 20
    write(20)
    rep.cut(rep.heads)
    write(5)
    assert views(rep, q) == scan(rep, q) and len(scans) == 3
    write(5)
    assert views(rep, q) == scan(rep, q) and len(scans) == 3  # caught up
    assert views.served == 2 and not views.lines()


def test_an_empty_stable_clock_fails_the_snapshot_queries(monkeypatch):
    # a planted defect: the root resolves every snapshot target to {}
    monkeypatch.setattr(qpu.Qpu, "_stable", lambda self: VectorClock())
    report = run_scenario(parse_scenario(mixed_doc(1, "log")))
    failed = [ln for ln in report.verify_lines if ln.startswith("FAIL")]
    assert len(failed) > 20
    assert all("snapshot target {} is below the reported heads" in ln
               for ln in failed)
