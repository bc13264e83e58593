import random

import pytest

from qpusim import Binner, DcReplica, LogEntry, Stamp, VectorClock, geostore

from conftest import (
    build,
    fill,
    logged,
    random_student,
    record_logs,
    run_until,
    student_schema,
)


def test_first_write_gets_seq_one_and_origin_stamp():
    sim, store, net = build(dcs=("dc1", "dc2"))
    sim.at(4, lambda: store.put("dc1", "k1", {"gpa": 3.5, "dept": "cs"}))
    sim.run_until_quiescent()
    entry = logged(store.replicas["dc1"], "dc1", 1)
    assert (entry.origin_dc, entry.seq) == ("dc1", 1)
    assert entry.stamp == Stamp(4, "dc1", 1)
    assert entry.prev_tag is None


def test_second_local_put_wins_by_higher_timestamp():
    sim, store, net = build(dcs=("dc1", "dc2"))
    sim.at(1, lambda: store.put("dc1", "k", {"gpa": 1.0, "dept": "cs"}))
    sim.at(2, lambda: store.put("dc1", "k", {"gpa": 2.0, "dept": "cs"}))
    sim.run_until_quiescent()
    assert store.replicas["dc1"].get("k")["gpa"] == 2.0
    # the second entry records which version it superseded
    second = logged(store.replicas["dc1"], "dc1", 2)
    assert second.prev_tag == Stamp(1, "dc1", 1)


def test_concurrent_writes_pick_one_winner_everywhere():
    sim, store, net = build(dcs=("dc1", "dc2"), jitter=6, seed=5)
    sim.at(3, lambda: store.put("dc1", "obj", {"gpa": 1.0, "dept": "aaa"}))
    sim.at(3, lambda: store.put("dc2", "obj", {"gpa": 1.0, "dept": "bbb"}))
    sim.run_until_quiescent()
    v1 = store.replicas["dc1"].objects["obj"]
    v2 = store.replicas["dc2"].objects["obj"]
    assert v1 == v2
    # equal timestamps fall back to the larger datacenter name
    assert v1.stamp.dc == "dc2" and v1.attrs["dept"] == "bbb"


def test_tie_break_is_argument_order_independent():
    a = LogEntry("dc1", 2, Stamp(5, "dc1", 2), "k", {"v": 1}, None, (1,))
    b = LogEntry("dc2", 1, Stamp(5, "dc2", 1), "k", {"v": 2}, None, (2,))
    assert max(a, b, key=lambda v: v.stamp) == max(b, a, key=lambda v: v.stamp)
    assert max(a, b, key=lambda v: v.stamp) is b


def test_get_unknown_key_is_absent():
    sim, store, net = build(dcs=("dc1",))
    assert store.replicas["dc1"].get("nope") is None


def test_get_before_propagation_sees_stale_value():
    sim, store, net = build(dcs=("dc1", "dc2"), inter=50)
    sim.at(1, lambda: store.put("dc2", "k", {"gpa": 0.5, "dept": "old"}))
    sim.at(2, lambda: store.put("dc1", "k", {"gpa": 3.0, "dept": "cs"}))
    run_until(sim, 10)
    # dc2 has not yet received dc1's later write
    assert store.replicas["dc2"].get("k")["dept"] == "old"
    sim.run_until_quiescent()
    assert store.replicas["dc2"].get("k")["dept"] == "cs"


def test_delete_leaves_a_tombstone_version():
    sim, store, net = build(dcs=("dc1", "dc2"))
    sim.at(1, lambda: store.put("dc1", "k", {"gpa": 3.0, "dept": "cs"}))
    sim.at(5, lambda: store.delete("dc2", "k"))
    sim.run_until_quiescent()
    for dc in ("dc1", "dc2"):
        replica = store.replicas[dc]
        assert replica.get("k") is None
        assert replica.objects["k"].attrs is None


def test_a_commit_bins_a_write_once_for_every_replica_and_leaf():
    # replication hands each replica the entry its origin committed, so
    # every replica's winner for a key, and every leaf's posting of it, is
    # that one entry with its one bins tuple
    sim, store, net = build(binning={"gpa": 8}, jitter=5, dup=0.2, seed=4)
    keys = fill(store, random.Random(4), 60)
    sim.run_until_quiescent()
    binner = store.binner
    assert net.binner is binner
    posted = [e for leaf in net.hist_leaves()
              for e in leaf.index.tag_info.values()]
    for key in set(keys):
        winners = [r.objects[key] for r in store.replicas.values()]
        first = winners[0]
        assert all(w is first for w in winners)
        assert first.bins == tuple(binner.keys_for(first.attrs))
        copies = [e for e in posted if e.stamp == first.stamp]
        assert len(copies) == 3 and all(e is first for e in copies)


def test_a_delete_carries_no_bins():
    sim, store, net = build(dcs=("dc1", "dc2"), binning={"gpa": 4})
    put = store.put("dc1", "k", {"gpa": 3.0, "dept": "cs"})
    gone = store.delete("dc1", "k")
    assert put.bins == ("cs", 3) and gone.bins is None
    sim.run_until_quiescent()
    assert all(r.objects["k"] is gone for r in store.replicas.values())


def test_a_put_commits_the_callers_attrs_dict_itself():
    sim, store, net = build(dcs=("dc1", "dc2"))
    attrs = {"gpa": 3.0, "dept": "cs"}
    assert store.put("dc1", "k", attrs).attrs is attrs
    sim.run_until_quiescent()
    assert store.replicas["dc2"].objects["k"].attrs is attrs


def test_subscribe_on_empty_log_feeds_only_new_entries():
    sim, store, net = build(dcs=("dc1",))
    seen = []
    store.replicas["dc1"].subscribe(seen.append)
    assert seen == []
    sim.at(1, lambda: store.put("dc1", "k", {"gpa": 1.0, "dept": "cs"}))
    sim.run_until_quiescent()
    assert [e.key for e in seen] == ["k"]


def test_entries_after_zero_replays_in_seq_order():
    sim, store, net = build(dcs=("dc1",))
    for i in range(3):
        sim.at(i + 1, lambda i=i: store.put("dc1", f"k{i}",
                                            {"gpa": 1.0, "dept": "cs"}))
    sim.run_until_quiescent()
    entries = list(store.replicas["dc1"].entries_after(VectorClock()))
    assert [e.seq for e in entries] == [1, 2, 3]
    assert [e.key for e in entries] == ["k0", "k1", "k2"]


def test_subscriber_sees_remote_entries_with_origin_preserved():
    sim, store, net = build(dcs=("dc1", "dc2"), jitter=4, seed=2)
    seen = []
    store.replicas["dc1"].subscribe(seen.append)
    sim.at(1, lambda: store.put("dc2", "k", {"gpa": 2.0, "dept": "cs"}))
    sim.run_until_quiescent()
    remote = [e for e in seen if e.origin_dc == "dc2"]
    assert len(remote) == 1 and remote[0].seq == 1


def test_duplicate_delivery_is_idempotent():
    sim, store, net = build(dcs=("dc1", "dc2"), dup=1.0, seed=3)
    sim.at(1, lambda: store.put("dc1", "k", {"gpa": 2.0, "dept": "cs"}))
    sim.run_until_quiescent()
    replica = store.replicas["dc2"]
    assert len(replica.log["dc1"]) == 1
    assert replica.heads == VectorClock({"dc1": 1})


def test_reordered_entries_apply_in_origin_sequence():
    sim, store, net = build(dcs=("dc1", "dc2"), jitter=30, seed=11)
    order = []
    store.replicas["dc2"].subscribe(
        lambda e: order.append(e.seq) if e.origin_dc == "dc1" else None)
    for i in range(10):
        sim.at(i + 1, lambda i=i: store.put("dc1", f"k{i}",
                                            {"gpa": 1.0, "dept": "cs"}))
    sim.run_until_quiescent()
    assert order == list(range(1, 11))


def test_three_dc_random_churn_converges_to_lww_fold():
    sim, store, net = build(jitter=12, dup=0.25, seed=13)
    logs = record_logs(store)  # the network cuts the replicas' logs
    rng = random.Random(4)
    for i in range(1000):
        dc = store.dcs[rng.randrange(3)]
        key = f"k{rng.randrange(120)}"
        if rng.random() < 0.08:
            sim.at(i + 1, lambda dc=dc, key=key: store.delete(dc, key))
        else:
            attrs = random_student(rng)
            sim.at(i + 1, lambda dc=dc, key=key, attrs=attrs:
                   store.put(dc, key, attrs))
    sim.run_until_quiescent()

    # oracle: fold every log entry in arbitrary order via max-stamp
    folded: dict[str, tuple] = {}
    for entries in logs.values():
        for e in entries:
            cur = folded.get(e.key)
            if cur is None or e.stamp > cur[0]:
                folded[e.key] = (e.stamp, e.attrs)

    for dc in store.dcs:
        replica = store.replicas[dc]
        assert {k: (v.stamp, v.attrs)
                for k, v in replica.objects.items()} == folded
        assert replica.heads == store.replicas["dc1"].heads


def test_heads_is_one_snapshot_per_replica_state():
    origin = DcReplica("dc1", Binner(student_schema()))
    replica = DcReplica("dc2", Binner(student_schema()))
    e1 = origin.put("a", {"gpa": 1.0, "dept": "cs"}, 1)
    e2 = origin.put("b", {"gpa": 2.0, "dept": "cs"}, 2)
    empty = replica.heads
    assert replica.heads is empty
    replica.put("c", {"gpa": 3.0, "dept": "cs"}, 3)  # a local apply
    local = replica.heads
    assert local is not empty and replica.heads is local
    assert replica.apply_remote(e2) == 0  # buffered behind seq 1
    assert replica.heads is local
    assert replica.apply_remote(e1) == 2  # a remote apply, of both
    assert replica.heads is not local
    assert replica.heads == VectorClock({"dc1": 2, "dc2": 1})
    # snapshots taken earlier keep the state they were taken at
    assert empty == VectorClock() and local == VectorClock({"dc2": 1})


def test_heads_match_the_log_lengths():
    """Compared with the old definition at every step of a lossy,
    reordering run, while replicas still disagree."""
    sim, store, net = build(jitter=12, dup=0.25, seed=7)
    rng = random.Random(8)
    for i in range(300):
        dc = store.dcs[rng.randrange(3)]
        sim.at(i + 1, lambda dc=dc, k=f"k{rng.randrange(40)}",
               a=random_student(rng): store.put(dc, k, a))
    checked = 0
    while sim.step():
        for r in store.replicas.values():
            old = VectorClock({d: r.base[d] + len(es)
                               for d, es in r.log.items()})
            assert r.heads.entries == old.entries
            assert repr(r.heads) == repr(old)
        checked += 1
    assert checked > 300


# -- log truncation -----------------------------------------------------------


def test_a_long_write_only_run_keeps_its_logs_within_the_doubling_bound():
    # 3,000 writes, one a tick: on a gossip report the root cuts every
    # replica's log below the stable clock once its own DC's log has grown
    # to twice what the last cut kept, plus CUT_FLOOR
    sim, store, net = build(seed=21, jitter=4)
    rng = random.Random(21)
    for i in range(3000):
        sim.at(i + 1, lambda dc=store.dcs[i % 3], k=f"k{rng.randrange(300)}",
               a=random_student(rng): store.put(dc, k, a))
    held = dict.fromkeys(store.dcs, 0)
    kept = dict.fromkeys(store.dcs, 0)  # what each replica's last cut kept
    cuts = 0
    while sim.step():
        for r in store.replicas.values():
            now = sum(map(len, r.log.values()))
            if now < held[r.name]:
                kept[r.name] = now
                cuts += 1
            held[r.name] = now
            # a write a tick, and a report reaches the root at most 20
            # ticks after the cut is due
            assert now <= 2 * kept[r.name] + geostore.CUT_FLOOR + 20
            assert all(r.base[d] + len(es) == r.heads.get(d)
                       for d, es in r.log.items())
    assert cuts > 20
    for r in store.replicas.values():
        assert r.heads == VectorClock({dc: 1000 for dc in store.dcs})
        assert all(r.base[d] > 0 for d in store.dcs)
        assert sum(map(len, r.log.values())) < 2 * geostore.CUT_FLOOR


def test_entries_after_below_the_base_raises():
    sim, store, net = build(dcs=("dc1",))
    for i in range(5):
        store.put("dc1", f"k{i}", {"gpa": 1.0, "dept": "cs"})
    store.truncate(VectorClock({"dc1": 3}))
    rep = store.replicas["dc1"]
    assert rep.base == {"dc1": 3} and rep.heads == VectorClock({"dc1": 5})
    after = rep.entries_after(VectorClock({"dc1": 3}))
    assert [e.seq for e in after] == [4, 5]
    with pytest.raises(ValueError, match="below the dc1 log's base seq 3"):
        list(rep.entries_after(VectorClock({"dc1": 2})))
    with pytest.raises(ValueError, match="past its applied heads"):
        store.truncate(VectorClock({"dc1": 6}))
