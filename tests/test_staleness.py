import random

from qpusim import (
    Level,
    StalenessLevel,
    VectorClock,
    resolve_target,
)
from qpusim.staleness import floor_all


def vc(**kw):
    return VectorClock(kw)


def random_clock(rng, dcs=("a", "b", "c")):
    return VectorClock({d: rng.randint(0, 9) for d in dcs if rng.random() < 0.8})


# -- vector clocks ------------------------------------------------------------------


def test_zero_components_are_dropped():
    assert vc(a=0, b=3) == vc(b=3)
    assert repr(vc(a=0)) == repr(VectorClock())
    assert vc(a=0).entries == {}


def test_merge_examples():
    x = vc(a=3)
    assert x.merge(x) == x
    assert vc(a=3).merge(vc(b=5)) == vc(a=3, b=5)
    assert vc(a=3, b=1).merge(vc(a=1, b=7)) == vc(a=3, b=7)


def test_merge_properties_hold_on_random_triples():
    rng = random.Random(1)
    for _ in range(500):
        x, y, z = (random_clock(rng) for _ in range(3))
        assert x.merge(y) == y.merge(x)
        assert x.merge(x) == x
        assert x.merge(y).merge(z) == x.merge(y.merge(z))
        assert x.merge(y).dominates(x) and x.merge(y).dominates(y)


def test_floor_examples():
    x = vc(a=5, b=2)
    assert x.floor(x) == x
    assert vc(a=5, b=2).floor(vc(a=3, b=7)) == vc(a=3, b=2)
    # a component missing on one side floors to zero and is dropped
    assert vc(a=5).floor(vc(b=5)) == VectorClock()


def test_stable_snapshot_never_exceeds_any_input():
    rng = random.Random(2)
    for _ in range(300):
        clocks = [random_clock(rng) for _ in range(rng.randint(1, 5))]
        snap = floor_all(clocks)
        for c in clocks:
            for dc, n in snap.entries.items():
                assert n <= c.get(dc)
        if len(clocks) == 1:
            assert snap == clocks[0]


def test_dominates_is_a_partial_order():
    assert vc(a=2, b=2).dominates(vc(a=1, b=2))
    assert not vc(a=2).dominates(vc(b=1))
    assert vc().dominates(vc()) and vc(a=1).dominates(vc())


def test_lag_behind_counts_missing_entries():
    assert vc(a=3).lag_behind(vc(a=9, b=4)) == {"a": 6, "b": 4}


# -- staleness levels ---------------------------------------------------------------


def test_level_render_round_trip_forms():
    assert StalenessLevel.strong().render() == "strong"
    assert StalenessLevel.bounded(7).render() == "bounded:7"
    assert StalenessLevel.snapshot().render() == "snapshot"
    assert StalenessLevel.any().render() == "any"


def test_resolve_any_is_zero_clock():
    assert resolve_target(StalenessLevel.any(), vc(a=1), vc(a=9, b=4)) == VectorClock()


def test_resolve_strong_is_the_heads_themselves():
    # the heads are a shared snapshot that no reader mutates, so a target
    # shares it rather than copying it
    heads = vc(a=9, b=4)
    target = resolve_target(StalenessLevel.strong(), vc(a=1), heads)
    assert target is heads


def test_resolve_bounded_clamps_at_zero():
    heads = vc(a=9, b=2)
    assert resolve_target(StalenessLevel.bounded(3), vc(), heads) == vc(a=6)
    assert resolve_target(StalenessLevel.bounded(0), vc(), heads) == vc(a=9, b=2)
    assert resolve_target(StalenessLevel.bounded(50), vc(), heads) == VectorClock()


def test_resolve_snapshot_uses_stable_clock():
    stable = vc(a=4, b=1)
    target = resolve_target(StalenessLevel.snapshot(), stable, vc(a=9, b=4))
    assert target is stable


def test_level_enum_values_are_the_wire_names():
    assert {l.value for l in Level} == {"strong", "bounded", "snapshot", "any"}


class OldClock:
    """The clock operations as they were before the allocation-light
    rewrite, kept as the reference the current ones must match."""

    def __init__(self, entries=None):
        self.entries = {d: s for d, s in (entries or {}).items() if s > 0}

    def get(self, dc):
        return self.entries.get(dc, 0)

    def merge(self, other):
        out = dict(self.entries)
        for d, s in other.entries.items():
            if s > out.get(d, 0):
                out[d] = s
        return OldClock(out)

    def dominates(self, other):
        return all(self.get(d) >= s for d, s in other.entries.items())

    def floor(self, other):
        dcs = set(self.entries) | set(other.entries)
        return OldClock({d: min(self.get(d), other.get(d)) for d in dcs})

    def copy(self):
        return OldClock(dict(self.entries))

    def __repr__(self):
        inner = ",".join(f"{d}:{s}" for d, s in sorted(self.entries.items()))
        return "{" + inner + "}"


def same_clock(new, old):
    assert new.entries == old.entries
    assert repr(new) == repr(old)
    assert all(s > 0 for s in new.entries.values())


def test_clock_ops_match_the_reference_on_random_clocks():
    rng = random.Random(11)
    for _ in range(2000):
        raw = [{d: rng.randint(0, 3) for d in "abcd" if rng.random() < 0.7}
               for _ in range(2)]
        x, y = (VectorClock(r) for r in raw)
        ox, oy = (OldClock(r) for r in raw)
        same_clock(x.merge(y), ox.merge(oy))
        same_clock(x.floor(y), ox.floor(oy))
        same_clock(y.floor(x), oy.floor(ox))
        same_clock(x.copy(), ox.copy())
        assert x.dominates(y) == ox.dominates(oy)
        assert y.dominates(x) == oy.dominates(ox)
