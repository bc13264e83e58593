import itertools
import random

import pytest

from qpusim import Envelope, LivelockError, NetConfig, Simulation

from conftest import build, fill, partition


def collector(sim, name, dc="dc1"):
    got = []
    sim.add_actor(name, dc, got.append)
    return got


def test_zero_delay_delivers_same_tick_exactly_once():
    sim = Simulation(NetConfig(0, 0, 0, 0.0))
    got = collector(sim, "a")
    collector(sim, "b", dc="dc2")
    sim.add_actor("src", "dc1", lambda e: None)
    sim.at(3, lambda: sim.send("src", "a", "ping", 1))
    sim.run_until_quiescent()
    assert sim.now == 3
    assert len(got) == 1 and got[0].deliver_at == 3


def test_forced_duplication_delivers_exactly_twice():
    sim = Simulation(NetConfig(1, 2, 0, 1.0))
    got = collector(sim, "b", dc="dc2")
    sim.add_actor("a", "dc1", lambda e: None)
    sim.at(0, lambda: sim.send("a", "b", "ping", "x"))
    sim.run_until_quiescent()
    assert len(got) == 2
    assert [e.payload for e in got] == ["x", "x"]
    # each copy records the tick it was delivered at
    assert [e.deliver_at for e in got] == [2, 2]


def test_duplication_is_cross_dc_only():
    sim = Simulation(NetConfig(1, 2, 0, 1.0))
    got = collector(sim, "b", dc="dc1")
    sim.add_actor("a", "dc1", lambda e: None)
    sim.at(0, lambda: sim.send("a", "b", "ping", "x"))
    sim.run_until_quiescent()
    assert len(got) == 1


@pytest.mark.parametrize("jitter", [0, 1, 6, 20])
@pytest.mark.parametrize("dup_prob", [0.0, 0.3])
def test_cross_dc_delays_are_the_stream_randint_draws(jitter, dup_prob):
    # each delay's jitter is the draw randint(0, jitter) would make from
    # the same generator, and a duplicate's comes after the random() call
    # that chose it; jitter 0 still draws bits, as randint does
    seed, inter = 17, 5
    sim = Simulation(NetConfig(1, inter, jitter, dup_prob), seed=seed)
    got = collector(sim, "b", dc="dc2")
    sim.add_actor("a", "dc1", lambda e: None)
    for i in range(200):
        sim.send("a", "b", "ping", i)
    sim.run_until_quiescent()
    ref = random.Random(seed)
    want = []
    for i in range(200):
        want.append((inter + ref.randint(0, jitter), i))
        if dup_prob > 0 and ref.random() < dup_prob:
            want.append((inter + ref.randint(0, jitter), i))
    assert sorted((e.deliver_at, e.payload) for e in got) == sorted(want)
    assert sim.rng.getstate() == ref.getstate()
    if dup_prob:
        assert len(got) > 200


def test_unknown_destination_rejected():
    sim = Simulation()
    sim.add_actor("a", "dc1", lambda e: None)
    with pytest.raises(ValueError, match="unknown actor"):
        sim.send("a", "nobody", "ping", None)


def test_intra_dc_fifo_per_sender():
    sim = Simulation(NetConfig(2, 5, 4, 0.0), seed=9)
    got = collector(sim, "b")
    sim.add_actor("a", "dc1", lambda e: None)

    def burst():
        for i in range(20):
            sim.send("a", "b", "seq", i)

    sim.at(1, burst)
    sim.run_until_quiescent()
    assert [e.payload for e in got] == list(range(20))


def test_jittered_order_reproducible_across_runs():
    def run():
        sim = Simulation(NetConfig(1, 3, 10, 0.3), seed=42, trace=True)
        got = collector(sim, "b", dc="dc2")
        sim.add_actor("a", "dc1", lambda e: None)
        for i in range(50):
            sim.at(i, lambda i=i: sim.send("a", "b", "m", i))
        sim.run_until_quiescent()
        return [e.payload for e in got], sim.trace_rows

    order1, trace1 = run()
    order2, trace2 = run()
    assert order1 == order2
    assert trace1 == trace2
    # jitter wide enough to actually reorder something
    assert order1 != sorted(order1)


def test_different_seed_changes_cross_dc_order():
    def run(seed):
        sim = Simulation(NetConfig(1, 3, 10, 0.0), seed=seed)
        got = collector(sim, "b", dc="dc2")
        sim.add_actor("a", "dc1", lambda e: None)
        for i in range(50):
            sim.at(i, lambda i=i: sim.send("a", "b", "m", i))
        sim.run_until_quiescent()
        return [e.payload for e in got]

    assert run(1) != run(2)


def test_quiescent_on_empty_queue_returns_zero():
    assert Simulation().run_until_quiescent() == 0


def test_single_event_returns_its_tick():
    sim = Simulation()
    sim.at(5, lambda: None)
    assert sim.run_until_quiescent() == 5


def test_ties_break_by_insertion_order():
    sim = Simulation()
    seen = []
    sim.at(4, lambda: seen.append("first"))
    sim.at(4, lambda: seen.append("second"))
    sim.run_until_quiescent()
    assert seen == ["first", "second"]


def chain(sim, gap, n=None):
    """`n` events, or an endless run of them when None: the first at tick 0,
    each later one `gap` ticks after the one before."""
    count = itertools.count(1)

    def again():
        if n is None or next(count) < n:
            sim.after(gap, again)

    sim.at(0, again)


def test_livelock_raises_with_pending_count():
    for n in (None, 102):  # endless, and one event past tick 100
        sim = Simulation()
        chain(sim, 1, n)
        with pytest.raises(LivelockError) as exc:
            sim.run_until_quiescent(max_ticks=100)
        assert exc.value.pending >= 1
        assert (exc.value.limit, exc.value.now) == ("max_ticks", 100)
    # a run whose last event falls on the bound drains
    sim = Simulation()
    chain(sim, 1, 101)
    assert sim.run_until_quiescent(max_ticks=100) == 100
    assert sim.pending() == 0


def test_event_budget_also_bounds_the_run():
    for n in (None, 1001):  # endless, and one event past the budget
        sim = Simulation()
        chain(sim, 0, n)
        with pytest.raises(LivelockError) as exc:
            sim.run_until_quiescent(max_events=1000)
        assert (exc.value.limit, exc.value.pending) == ("max_events", 1)
    # a run of exactly max_events events drains
    sim = Simulation()
    chain(sim, 0, 1000)
    assert sim.run_until_quiescent(max_events=1000) == 0
    assert sim.pending() == 0


def test_cannot_schedule_in_the_past():
    sim = Simulation()
    sim.at(10, lambda: None)
    sim.run_until_quiescent()
    with pytest.raises(ValueError):
        sim.at(3, lambda: None)


def test_partition_holds_messages_until_window_closes():
    sim = Simulation(NetConfig(1, 2, 0, 0.0), trace=True)
    got = collector(sim, "b", dc="dc2")
    sim.add_actor("a", "dc1", lambda e: None)
    partition(sim, "dc1", "dc2", 5, 30)
    sim.at(10, lambda: sim.send("a", "b", "m", "held"))
    sim.at(2, lambda: sim.send("a", "b", "m", "early"))
    sim.run_until_quiescent()
    by_payload = {e.payload: e.deliver_at for e in got}
    assert by_payload["early"] < 5
    assert by_payload["held"] >= 30


def test_partition_is_symmetric_and_keyed_by_pair():
    sim = Simulation(NetConfig(1, 2, 0, 0.0))
    got_a = collector(sim, "a", dc="dc1")
    got_c = collector(sim, "c", dc="dc3")
    sim.add_actor("b", "dc2", lambda e: None)
    partition(sim, "dc2", "dc1", 0, 50)
    sim.at(10, lambda: sim.send("b", "a", "m", "blocked"))
    sim.at(10, lambda: sim.send("b", "c", "m", "free"))
    sim.run_until_quiescent()
    assert got_a[0].deliver_at >= 50
    assert got_c[0].deliver_at < 50


def test_touching_partition_windows_each_hold_their_own_sends():
    sim = Simulation(NetConfig(1, 2, 0, 0.0))
    got = collector(sim, "b", dc="dc2")
    sim.add_actor("a", "dc1", lambda e: None)
    partition(sim, "dc1", "dc2", 50, 60)
    partition(sim, "dc1", "dc2", 60, 70)
    sim.at(55, lambda: sim.send("a", "b", "m", "first"))
    sim.at(65, lambda: sim.send("a", "b", "m", "second"))
    sim.run_until_quiescent()
    by_payload = {e.payload: e.deliver_at for e in got}
    # the first window's backlog goes out when it ends, and its close
    # event, firing after the second window opened, ends nothing
    assert 60 <= by_payload["first"] < 70
    assert by_payload["second"] >= 70


def test_seeded_churn_quiesces_at_identical_tick():
    def run():
        sim, store, net = build(jitter=8, dup=0.15, seed=31)
        fill(store, random.Random(7), 120)
        return sim.run_until_quiescent()

    assert run() == run()
