import itertools
import math
import random
from dataclasses import replace

import pytest

from qpusim import (
    AttributeSchema,
    Binner,
    CrdtIndex,
    Interval,
    LogEntry,
    Region,
    Stamp,
    VectorClock,
    parse,
    rebuild_index,
    scan,
)

from conftest import (
    ask,
    build,
    interval_is_empty,
    random_student,
    ref_lookup,
    student_schema,
)


def mk_index(binning=None, schema=None):
    schema = schema or student_schema()
    return CrdtIndex(schema, Binner(schema, binning or {}))


# the binner of mk_index(): student_schema() with every attribute unbinned
PLAIN = Binner(student_schema())


def entry(origin, seq, ts, key, attrs, prev=None, binner=PLAIN):
    """A log entry as a store over `binner` commits it, bins and all."""
    bins = None if attrs is None else tuple(binner.keys_for(attrs))
    return LogEntry(origin, seq, Stamp(ts, origin, seq), key, attrs, prev, bins)


def ingest(index, e):
    """Apply one log entry, as a leaf over the whole domain does."""
    return index.apply_delta(e, e.attrs is not None)


def visible(index):
    return {(tag, e.key) for tag, e in index.tag_info.items()}


def bin_of(binner, attrs, attr):
    """The bin that keys_for puts attrs[attr] in, as an interval."""
    return binner.interval(attr, binner.keys_for(attrs)[binner.attrs.index(attr)])


def keys_in(index, attr, lo, hi, lo_open=False, hi_open=False):
    """Keys of the tags a lookup over one attribute range returns."""
    rect = Region.whole(index.schema).narrowed(
        attr, Interval(lo, hi, lo_open, hi_open))
    return index.lookup(rect)


# -- single-entry effects ------------------------------------------------------------


def test_put_adds_postings_under_each_attribute_term():
    idx = mk_index()
    ingest(idx, entry("dc1", 1, 1, "o", {"gpa": 3.0, "dept": "cs"}))
    assert keys_in(idx, "gpa", 3.0, 3.0) == {"o"}
    assert keys_in(idx, "gpa", 1.0, 1.0) == set()
    assert keys_in(idx, "dept", "cs", "cs") == {"o"}
    assert idx.clock == VectorClock({"dc1": 1})


def test_overwrite_removes_old_tag_under_the_clock_and_adds_new():
    idx = mk_index()
    e1 = entry("dc1", 1, 1, "o", {"gpa": 1.0, "dept": "aa"})
    e2 = entry("dc1", 2, 2, "o", {"gpa": 1.0, "dept": "cc"}, prev=e1.stamp)
    ingest(idx, e1)
    ingest(idx, e2)
    assert keys_in(idx, "dept", "aa", "aa") == set()
    assert keys_in(idx, "dept", "cc", "cc") == {"o"}
    # the clock covers e1's add and no posting has its tag: that is what
    # removed means, so no tombstone is kept, and a redelivered add is a
    # duplicate the clock turns away
    assert idx.clock.get("dc1") >= e1.stamp.seq
    assert visible(idx) == {(e2.stamp, "o")}
    assert idx.removed == set()
    assert not ingest(idx, e1)
    assert visible(idx) == {(e2.stamp, "o")}


def test_losing_overwrite_keeps_the_observed_winner_visible():
    idx = mk_index()
    # dc2's write carries a larger stamp at the same tick, so a dc1 write
    # that observed it must not retract it
    winner = entry("dc2", 1, 5, "o", {"gpa": 2.0, "dept": "bb"})
    loser = entry("dc1", 1, 5, "o", {"gpa": 2.0, "dept": "aa"}, prev=winner.stamp)
    ingest(idx, winner)
    ingest(idx, loser)
    assert keys_in(idx, "dept", "bb", "bb") == {"o"}
    # both postings stay visible until a scrub resolves them
    assert keys_in(idx, "dept", "aa", "aa") == {"o"}


def test_concurrent_values_both_visible_after_cross_merge():
    a, b = mk_index(), mk_index()
    ea = entry("dc1", 1, 3, "obj", {"gpa": 2.0, "dept": "aa"})
    eb = entry("dc2", 1, 3, "obj", {"gpa": 2.0, "dept": "bb"})
    ingest(a, ea)
    ingest(b, eb)
    ab, ba = CrdtIndex.merged(a, b), CrdtIndex.merged(b, a)
    for idx in (ab, ba):
        assert keys_in(idx, "dept", "aa", "aa") == {"obj"}
        assert keys_in(idx, "dept", "bb", "bb") == {"obj"}
        # neither side has the other's entry, so the floor claims neither
        assert idx.clock == VectorClock()
    assert ab.canonical() == ba.canonical()


def test_delete_entry_retracts_and_adds_nothing():
    idx = mk_index()
    e1 = entry("dc1", 1, 1, "o", {"gpa": 1.0, "dept": "aa"})
    ingest(idx, e1)
    ingest(idx, entry("dc1", 2, 2, "o", None, prev=e1.stamp))
    assert idx.visible_count() == 0
    assert idx.clock == VectorClock({"dc1": 2})


# -- delta discipline -----------------------------------------------------------------


def test_apply_delta_rejects_sequence_gaps():
    idx = mk_index()
    e2 = entry("dc1", 2, 2, "o", {"gpa": 1.0, "dept": "x"})
    with pytest.raises(ValueError, match="gap"):
        idx.apply_delta(e2, True)


def test_apply_delta_is_idempotent_on_redelivery():
    idx = mk_index()
    e1 = entry("dc1", 1, 1, "o", {"gpa": 1.0, "dept": "x"})
    assert idx.apply_delta(e1, True)
    before = idx.canonical()
    assert not idx.apply_delta(e1, True)  # duplicate is a no-op
    assert idx.canonical() == before


def test_entry_outside_the_region_posts_nothing_and_culls_what_it_superseded():
    idx = mk_index()
    e1 = entry("dc1", 1, 1, "o", {"gpa": 1.0, "dept": "x"})
    e2 = entry("dc1", 2, 2, "o", {"gpa": 3.0, "dept": "x"}, prev=e1.stamp)
    assert idx.apply_delta(e1, True)
    assert visible(idx) == {(e1.stamp, "o")}
    assert idx.apply_delta(e2, False)
    assert visible(idx) == set() and idx.removed == set()
    assert idx.clock == VectorClock({"dc1": 2})
    # a later write outside the region, superseding a tag never posted here,
    # advances the clock and changes nothing else
    e3 = entry("dc1", 3, 3, "o", {"gpa": 3.5, "dept": "x"}, prev=e2.stamp)
    assert idx.apply_delta(e3, False)
    assert visible(idx) == set() and idx.removed == set()
    assert idx.clock == VectorClock({"dc1": 3})


def test_entry_outside_the_region_holds_a_remove_until_its_add_applies():
    # dc1's write, outside this region, overwrote dc2's write, inside it,
    # before this index applied dc2's: the remove is held, and it suppresses
    # the add when that entry applies
    idx = mk_index()
    f1 = entry("dc2", 1, 1, "o", {"gpa": 1.0, "dept": "x"})
    e1 = entry("dc1", 1, 2, "o", {"gpa": 3.0, "dept": "y"}, prev=f1.stamp)
    assert idx.apply_delta(e1, inside=False)
    assert visible(idx) == set()
    assert idx.removed == {("dc2", 1)}
    assert idx.apply_delta(f1, inside=True)
    assert visible(idx) == set() and idx.removed == set()
    assert idx.clock == VectorClock({"dc1": 1, "dc2": 1})


def test_merge_into_an_empty_index_keeps_only_the_overwrite_winner():
    # an index that applied a write and then its overwrite, merged into an
    # empty one, carries over the winner alone: the overwritten version must
    # not come back. Out-of-order delivery is
    # test_remove_ahead_of_its_add_is_held_until_the_add_applies
    e1 = entry("dc1", 1, 1, "o", {"gpa": 1.0, "dept": "x"})
    e2 = entry("dc1", 2, 2, "o", {"gpa": 2.0, "dept": "x"}, prev=e1.stamp)

    applied = mk_index()
    ingest(applied, e1)
    ingest(applied, e2)
    direct = CrdtIndex.merged(mk_index(), applied)
    assert e1.stamp not in direct.tag_info
    assert direct.clock == VectorClock()
    assert keys_in(direct, "gpa", 0.0, 4.0) == {"o"}
    assert keys_in(direct, "gpa", 1.5, 2.5) == {"o"}
    assert keys_in(direct, "gpa", 0.5, 1.5) == set()


@pytest.mark.parametrize("inside", [True, False])
def test_remove_ahead_of_its_add_is_held_until_the_add_applies(inside):
    # dc1 overwrote dc2's write before this index applied it; the add, in
    # the region or outside it, is suppressed and the hold is then dropped
    schema = student_schema()
    region = Region.whole(schema).narrowed("gpa", Interval(0.0, 2.0))
    idx = mk_index(schema=schema)
    f1 = entry("dc2", 1, 1, "o", {"gpa": 1.0 if inside else 3.0, "dept": "x"})
    e1 = entry("dc1", 1, 2, "o", {"gpa": 1.5, "dept": "y"}, prev=f1.stamp)
    idx.apply_delta(e1, region.contains_point(e1.attrs))
    assert idx.removed == {("dc2", 1)}
    assert region.contains_point(f1.attrs) == inside
    idx.apply_delta(f1, inside)
    assert idx.removed == set()
    assert visible(idx) == {(e1.stamp, "o")}
    assert idx.clock == VectorClock({"dc1": 1, "dc2": 1})


@pytest.mark.parametrize("add_first", [True, False])
def test_merge_culls_a_posting_the_other_side_holds_a_remove_for(add_first):
    # one sibling applied dc1's overwrite before dc2's write, the other
    # only dc2's write; merged as QpuNetwork.merge_siblings does, at the
    # floor clock, the cursor is offered both entries again
    f1 = entry("dc2", 1, 1, "o", {"gpa": 1.0, "dept": "x"})
    e1 = entry("dc1", 1, 2, "o", {"gpa": 3.0, "dept": "y"}, prev=f1.stamp)
    holder, poster = mk_index(), mk_index()
    ingest(holder, e1)
    ingest(poster, f1)
    assert holder.removed == {("dc2", 1)} and f1.stamp in poster.tag_info
    merged = CrdtIndex.merged(holder, poster)
    assert merged.clock == VectorClock()
    assert visible(merged) == {(e1.stamp, "o")}
    assert merged.removed == {("dc2", 1)}
    for e in ((f1, e1) if add_first else (e1, f1)):
        ingest(merged, e)
        assert visible(merged) == {(e1.stamp, "o")}
    assert merged.removed == set()
    assert merged.clock == VectorClock({"dc1": 1, "dc2": 1})


# -- merge algebra --------------------------------------------------------------------


def test_merge_identity_and_idempotence():
    idx = mk_index()
    ingest(idx, entry("dc1", 1, 1, "o", {"gpa": 1.0, "dept": "x"}))
    snap = idx.canonical()
    # an empty side adds no posting, and its clock floors the result's
    empty = CrdtIndex.merged(idx, mk_index())
    assert visible(empty) == visible(idx) and empty.clock == VectorClock()
    other = mk_index()
    ingest(other, entry("dc1", 1, 1, "o", {"gpa": 1.0, "dept": "x"}))
    assert CrdtIndex.merged(idx, other).canonical() == snap
    assert CrdtIndex.merged(idx, idx).canonical() == snap
    assert idx.canonical() == snap  # the inputs are left as they were


def test_random_interleavings_merge_to_identical_states():
    rng = random.Random(21)
    schema = student_schema()
    for round_no in range(30):
        # one log per origin, fixed; replicas apply them interleaved differently
        logs = {}
        for dc in ("dc1", "dc2", "dc3"):
            prev: dict[str, Stamp] = {}
            entries = []
            for seq in range(1, rng.randint(3, 8)):
                key = f"k{rng.randrange(5)}"
                attrs = None if rng.random() < 0.2 else random_student(rng)
                e = entry(dc, seq, rng.randint(1, 9), key, attrs,
                          prev=prev.get(key))
                prev[key] = e.stamp
                entries.append(e)
            logs[dc] = entries

        def replica_with_interleaving(seed):
            r = random.Random(seed)
            idx = mk_index(schema=schema)
            cursors = {dc: 0 for dc in logs}
            while any(cursors[dc] < len(logs[dc]) for dc in logs):
                dc = r.choice([d for d in sorted(logs)
                               if cursors[d] < len(logs[d])])
                ingest(idx, logs[dc][cursors[dc]])
                cursors[dc] += 1
            return idx

        replicas = [replica_with_interleaving(round_no * 10 + i)
                    for i in range(3)]
        states = {r.canonical() for r in replicas}
        assert len(states) == 1

        # oracle: all added tags minus all retracted tags
        adds, removes = {}, set()
        for entries in logs.values():
            for e in entries:
                if e.attrs is not None:
                    adds[e.stamp] = e.key
                if e.prev_tag is not None and e.stamp > e.prev_tag:
                    removes.add(e.prev_tag)
        want = {(tag, key) for tag, key in adds.items() if tag not in removes}
        assert visible(replicas[0]) == want

        # merging converged states leaves the state as it was
        a, b = replicas[0], replicas[1]
        assert CrdtIndex.merged(a, b).canonical() == a.canonical()
        assert CrdtIndex.merged(b, a).canonical() == a.canonical()


# -- lookup ---------------------------------------------------------------------------


def test_unbinned_text_lookup_is_exact():
    idx = mk_index()
    ingest(idx, entry("dc1", 1, 1, "a", {"gpa": 3.0, "dept": "cs"}))
    ingest(idx, entry("dc1", 2, 2, "b", {"gpa": 3.0, "dept": "bio"}))
    assert keys_in(idx, "dept", "cs", "cs") == {"a"}
    assert keys_in(idx, "dept", "bio", "bio") == {"b"}


def test_full_domain_range_returns_everything_exactly():
    idx = mk_index(binning={"gpa": 8})
    for i in range(10):
        ingest(idx, entry("dc1", i + 1, i + 1, f"k{i}",
                          {"gpa": i * 0.4, "dept": "cs"}, binner=idx.binner))
    everything = {f"k{i}" for i in range(10)}
    assert keys_in(idx, "gpa", 0.0, 4.0) == everything
    # the same range short of the domain top scans every bin instead
    assert keys_in(idx, "gpa", 0.0, 4.0, hi_open=True) == everything


def test_partial_bin_overlap_yields_candidates():
    idx = mk_index(binning={"gpa": 8})  # bins of width 0.5
    ingest(idx, entry("dc1", 1, 1, "lo", {"gpa": 2.1, "dept": "cs"},
                      binner=idx.binner))
    ingest(idx, entry("dc1", 2, 2, "edge", {"gpa": 2.0, "dept": "cs"},
                      binner=idx.binner))
    ingest(idx, entry("dc1", 3, 3, "hi", {"gpa": 2.6, "dept": "cs"},
                      binner=idx.binner))
    # bin [2.0,2.5) pokes out of (2.0,3.0), so "edge" comes back as a
    # candidate the exact check must drop
    assert keys_in(idx, "gpa", 2.0, 3.0, lo_open=True, hi_open=True) == {
        "lo", "edge", "hi"}
    assert keys_in(idx, "gpa", 2.5, 3.0) == {"hi"}


def test_lookup_superset_of_true_matches_on_random_data():
    rng = random.Random(22)
    schema = student_schema()
    idx = mk_index(binning={"gpa": 8}, schema=schema)
    rows = {}
    for i in range(120):
        attrs = random_student(rng)
        ingest(idx, entry("dc1", i + 1, i + 1, f"k{i}", attrs,
                          binner=idx.binner))
        rows[f"k{i}"] = attrs
    for _ in range(200):
        lo, hi = sorted((round(rng.uniform(0, 4), 2), round(rng.uniform(0, 4), 2)))
        lo_open, hi_open = rng.random() < 0.5, rng.random() < 0.5
        probe = Interval(lo, hi, lo_open, hi_open)
        if interval_is_empty(probe):
            continue
        got = keys_in(idx, "gpa", lo, hi, lo_open, hi_open)
        truth = {k for k, a in rows.items() if probe.contains(a["gpa"])}
        binned = {k for k, a in rows.items()
                  if bin_of(idx.binner, a, "gpa").overlaps(probe)}
        assert truth <= got == binned


def test_rect_lookup_intersects_across_attributes():
    schema = student_schema()
    idx = mk_index(binning={"gpa": 4}, schema=schema)
    ingest(idx, entry("dc1", 1, 1, "a", {"gpa": 3.5, "dept": "cs"},
                      binner=idx.binner))
    ingest(idx, entry("dc1", 2, 2, "b", {"gpa": 3.5, "dept": "bio"},
                      binner=idx.binner))
    ingest(idx, entry("dc1", 3, 3, "c", {"gpa": 0.5, "dept": "cs"},
                      binner=idx.binner))
    rect = Region.whole(schema).narrowed("gpa", Interval(3.0, 4.0)) \
                               .narrowed("dept", Interval.point("cs"))
    assert idx.lookup(rect) == {"a"}


def near_edges(edges, lo, hi):
    """Each edge and the floats one ulp either side of it, the domain ends,
    and the integers next to each edge, all clipped to [lo - 1, hi + 1]."""
    out = {lo - 1, lo, hi, hi + 1}
    for e in edges:
        out.update((e, math.nextafter(e, -math.inf), math.nextafter(e, math.inf),
                    math.floor(e), math.ceil(e)))
    return sorted(v for v in out if lo - 1 <= v <= hi + 1)


def test_span_selects_exactly_the_bins_overlaps_selects():
    # every combination of open and closed ends, with bounds on edges, one
    # ulp off them, at and past the domain ends, and closed points
    rng = random.Random(41)
    domains = [("float", 0.0, 4.0), ("float", -90.0, 90.0),
               ("float", -0.3, 0.7), ("float", 1e6, 1e6 + 7.7),
               ("int", 0, 100), ("int", 1, 60), ("int", -5, 5)]
    for kind, lo, hi in domains:
        schema = {"x": AttributeSchema("x", kind, lo, hi)}
        for count in (1, 2, 3, 7, 10, 13):
            binner = Binner(schema, {"x": count})
            bins = [binner.interval("x", i) for i in range(count)]
            values = near_edges(binner.edges["x"], lo, hi)
            values += [rng.uniform(lo, hi) for _ in range(5)]
            probes = [Interval(v, v) for v in values]
            for _ in range(150):
                a, b = sorted((rng.choice(values), rng.choice(values)))
                probes += [Interval(a, b, lo_open, hi_open)
                           for lo_open in (False, True)
                           for hi_open in (False, True)]
            probes.append(Interval(hi, lo))
            for iv in probes:
                span = binner.span("x", iv)
                want = [i for i, b in enumerate(bins) if b.overlaps(iv)]
                if span is None:  # every bin
                    span = range(count)
                assert list(span) == want, (kind, lo, hi, count, iv)


def test_lookup_matches_the_reference_scan():
    # binned float and int attributes, unbinned float, int and text ones,
    # each probed by point and by range, alone and together
    rng = random.Random(42)
    schema = {
        "f": AttributeSchema("f", "float", -1.0, 3.0),
        "n": AttributeSchema("n", "int", 0, 50),
        "u": AttributeSchema("u", "float", 0.0, 10.0),
        "m": AttributeSchema("m", "int", 0, 20),
        "t": AttributeSchema("t", "text", alphabet="abc"),
    }
    texts = ["", "a", "ab", "abc", "b", "ba", "c", "cab"]
    floats = [0, 0.0, -0.0, 2, 2.0, 2.5, 7.25, 10, 10.0]
    for round_no in range(12):
        spec = {"f": rng.choice([1, 3, 8, 16]), "n": rng.choice([1, 5, 7, 50])}
        idx = CrdtIndex(schema, Binner(schema, spec))
        edges = {a: near_edges(idx.binner.edges[a], schema[a].lo, schema[a].hi)
                 for a in spec}
        last: dict[str, Stamp] = {}
        for seq in range(1, 121):
            key = f"k{rng.randrange(40)}"
            attrs = None if rng.random() < 0.1 else {
                "f": rng.choice([rng.uniform(-1.0, 3.0),
                                 min(max(rng.choice(edges["f"]), -1.0), 3.0)]),
                "n": rng.randint(0, 50), "u": rng.choice(floats),
                "m": rng.randint(0, 20), "t": rng.choice(texts)}
            e = entry("dc1", seq, seq, key, attrs, prev=last.get(key),
                      binner=idx.binner)
            last[key] = e.stamp
            ingest(idx, e)
        pools = {"f": edges["f"] + [0.3, 1.7], "n": edges["n"] + [17, 23.5],
                 "u": floats + [1.5, 11], "m": [-1, 0, 3, 7.5, 12, 20, 21],
                 "t": texts + ["abcc", "d"]}
        for _ in range(300):
            ivs = {}
            for attr in rng.sample(sorted(schema), rng.choice([1, 1, 2, 3])):
                a, b = rng.choice(pools[attr]), rng.choice(pools[attr])
                if rng.random() < 0.3:
                    ivs[attr] = Interval(a, a)
                    continue
                a, b = sorted((a, b))
                if attr == "t" and rng.random() < 0.3:
                    b = None
                ivs[attr] = Interval(a, b, rng.random() < 0.5,
                                     b is not None and rng.random() < 0.5)
            rect = Region({**Region.whole(schema).ivs, **ivs})
            assert idx.lookup(rect) == ref_lookup(idx, rect), (round_no, ivs)


def test_canonical_bytes_match_the_interval_keyed_layout():
    # bytes of the layout that keyed postings by interval: a binned float
    # (the domain top in the closed last bin), a binned int, an unbinned
    # float and an unbinned text attribute, before and after a merge that
    # culls a tag one side holds a remove for
    schema = {
        "f": AttributeSchema("f", "float", 0.0, 4.0),
        "n": AttributeSchema("n", "int", 0, 100),
        "u": AttributeSchema("u", "float", 0.0, 10.0),
        "t": AttributeSchema("t", "text", alphabet="abc"),
    }
    a = mk_index({"f": 8, "n": 10}, schema)
    b = CrdtIndex(schema, a.binner)
    binner = a.binner
    a1 = entry("dc1", 1, 1, "k1", {"f": 4.0, "n": 100, "u": 2.5, "t": "ab"},
               binner=binner)
    a2 = entry("dc1", 2, 3, "k2", {"f": 0.5, "n": 0, "u": 3.0, "t": ""},
               binner=binner)
    a3 = entry("dc1", 3, 5, "k1", {"f": 1.75, "n": 37, "u": 7.25, "t": "c"},
               prev=a1.stamp, binner=binner)
    b1 = entry("dc2", 1, 2, "k3", {"f": 2.0, "n": 50, "u": 2.5, "t": "ab"},
               binner=binner)
    b2 = entry("dc2", 2, 4, "k4", {"f": 3.999, "n": 99, "u": 10.0, "t": "cab"},
               binner=binner)
    b3 = entry("dc2", 3, 6, "k2", None, prev=a2.stamp)
    for e in (a1, a2, a3):
        ingest(a, e)
    for e in (b1, b2, b3):
        ingest(b, e)
    assert a.canonical() == (
        b'{"clock":{"dc1":3},"terms":['
        b'["f",[0.5,1.0,false,true],[[3,"dc1",2,"k2"]]],'
        b'["f",[1.5,2.0,false,true],[[5,"dc1",3,"k1"]]],'
        b'["n",[0.0,10.0,false,true],[[3,"dc1",2,"k2"]]],'
        b'["n",[30.0,40.0,false,true],[[5,"dc1",3,"k1"]]],'
        b'["t",["","",false,false],[[3,"dc1",2,"k2"]]],'
        b'["t",["c","c",false,false],[[5,"dc1",3,"k1"]]],'
        b'["u",[3.0,3.0,false,false],[[3,"dc1",2,"k2"]]],'
        b'["u",[7.25,7.25,false,false],[[5,"dc1",3,"k1"]]]]}')
    assert b.canonical() == (
        b'{"clock":{"dc2":3},"terms":['
        b'["f",[2.0,2.5,false,true],[[2,"dc2",1,"k3"]]],'
        b'["f",[3.5,4.0,false,false],[[4,"dc2",2,"k4"]]],'
        b'["n",[50.0,60.0,false,true],[[2,"dc2",1,"k3"]]],'
        b'["n",[90.0,100,false,false],[[4,"dc2",2,"k4"]]],'
        b'["t",["ab","ab",false,false],[[2,"dc2",1,"k3"]]],'
        b'["t",["cab","cab",false,false],[[4,"dc2",2,"k4"]]],'
        b'["u",[2.5,2.5,false,false],[[2,"dc2",1,"k3"]]],'
        b'["u",[10.0,10.0,false,false],[[4,"dc2",2,"k4"]]]]}')
    assert CrdtIndex.merged(a, b).canonical() == (
        b'{"clock":{},"terms":['
        b'["f",[1.5,2.0,false,true],[[5,"dc1",3,"k1"]]],'
        b'["f",[2.0,2.5,false,true],[[2,"dc2",1,"k3"]]],'
        b'["f",[3.5,4.0,false,false],[[4,"dc2",2,"k4"]]],'
        b'["n",[30.0,40.0,false,true],[[5,"dc1",3,"k1"]]],'
        b'["n",[50.0,60.0,false,true],[[2,"dc2",1,"k3"]]],'
        b'["n",[90.0,100,false,false],[[4,"dc2",2,"k4"]]],'
        b'["t",["ab","ab",false,false],[[2,"dc2",1,"k3"]]],'
        b'["t",["c","c",false,false],[[5,"dc1",3,"k1"]]],'
        b'["t",["cab","cab",false,false],[[4,"dc2",2,"k4"]]],'
        b'["u",[2.5,2.5,false,false],[[2,"dc2",1,"k3"]]],'
        b'["u",[7.25,7.25,false,false],[[5,"dc1",3,"k1"]]],'
        b'["u",[10.0,10.0,false,false],[[4,"dc2",2,"k4"]]]]}')


def test_state_equality_agrees_with_canonical_bytes():
    # the end-of-run check compares state() with == in place of canonical()
    # bytes, so over every pair of indexes drawn the two must agree: a binned
    # float and int, an unbinned text, and an unbinned float written as 2 or
    # 2.0 and -0.0 or 0.0, which the store takes alike
    schema = {
        "f": AttributeSchema("f", "float", 0.0, 4.0),
        "n": AttributeSchema("n", "int", 0, 100),
        "u": AttributeSchema("u", "float", 0.0, 10.0),
        "t": AttributeSchema("t", "text", alphabet="ab"),
    }
    binner = Binner(schema, {"f": 4, "n": 5})
    spellings = ((2, 2.0), (-0.0, 0.0), (7.5, 7.5))
    rng = random.Random(27)

    def draw_logs():
        """Per origin, (stamp, key, values or None for a delete, prev)."""
        logs = {}
        for dc in ("dc1", "dc2"):
            prev, rows = {}, []
            for seq in range(1, rng.randint(4, 9)):
                key = f"k{rng.randrange(4)}"
                values = None if rng.random() < 0.2 else (
                    rng.choice((0.5, 1.0, 3.99, 4.0)), rng.randrange(101),
                    rng.choice(spellings), rng.choice(("", "a", "ab", "b")))
                stamp = Stamp(rng.randint(1, 9), dc, seq)
                rows.append((stamp, key, values, prev.get(key)))
                prev[key] = stamp
            logs[dc] = rows
        return logs

    def spelled(logs, pick):
        """The log entries, each u written as `pick` of its two spellings."""
        return {dc: [entry(dc, stamp.seq, stamp.ts, key, None if v is None
                           else {"f": v[0], "n": v[1], "u": pick(v[2]),
                                 "t": v[3]}, prev, binner)
                     for stamp, key, v, prev in rows]
                for dc, rows in logs.items()}

    def applied(logs, counts, seed):
        """An index that applied the first counts[dc] entries of each
        origin, interleaved at random."""
        idx = CrdtIndex(schema, binner)
        order = random.Random(seed)
        cursors = dict.fromkeys(logs, 0)
        while live := [dc for dc in sorted(logs) if cursors[dc] < counts[dc]]:
            dc = order.choice(live)
            ingest(idx, logs[dc][cursors[dc]])
            cursors[dc] += 1
        return idx

    indexes, spelled_apart = [], 0
    for round_no in range(30):
        logs = draw_logs()
        full = {dc: len(rows) for dc, rows in logs.items()}
        a = applied(spelled(logs, lambda s: s[0]), full, round_no)
        b = applied(spelled(logs, lambda s: s[1]), full, round_no + 100)
        assert a.state() == b.state()
        if sorted(map(repr, a.postings["u"])) != sorted(map(repr, b.postings["u"])):
            spelled_apart += 1
        prefix = {dc: rng.randint(0, n) for dc, n in full.items()}
        c = applied(spelled(logs, rng.choice), prefix, round_no + 200)
        culled = CrdtIndex.merged(a, a)
        if culled.tag_info:
            culled._cull(rng.choice(sorted(culled.tag_info)))
        renamed = CrdtIndex.merged(b, b)
        if renamed.tag_info:
            tag = rng.choice(sorted(renamed.tag_info))
            renamed.post(replace(renamed.tag_info[tag],
                                 key=rng.choice(("k0", "k9"))))
        ahead = CrdtIndex.merged(a, a)
        ahead.clock = VectorClock({**a.clock.entries, "dc3": 1})
        indexes += [a, b, c, CrdtIndex.merged(a, c), CrdtIndex.merged(c, b),
                    culled, renamed, ahead]
    assert spelled_apart > 0
    indexes.append(CrdtIndex(schema, binner))
    states = [idx.state() for idx in indexes]
    blobs = [idx.canonical() for idx in indexes]
    equal = 0
    for i, j in itertools.combinations(range(len(indexes)), 2):
        same = states[i] == states[j]
        assert same == (blobs[i] == blobs[j]), (i, j)
        equal += same
    # both outcomes are drawn many times over: each round's a and b at least
    assert 30 <= equal < len(indexes) ** 2 // 4


# -- scrub ----------------------------------------------------------------------------


def test_scrub_on_consistent_index_removes_nothing():
    sim, store, net = build(dcs=("dc1",))
    fill_n = 25
    rng = random.Random(23)
    for i in range(fill_n):
        sim.at(i + 1, lambda i=i, a=random_student(rng):
               store.put("dc1", f"k{i}", a))
    sim.run_until_quiescent()
    leaf = net.hist_leaves()[0]
    assert leaf.index.cull_many(
        leaf.index.stale_postings(store.replicas["dc1"])) == 0


def test_scrub_culls_the_losing_concurrent_posting():
    sim, store, net = build(dcs=("dc1", "dc2"), seed=1)
    sim.at(3, lambda: store.put("dc1", "obj", {"gpa": 2.0, "dept": "aa"}))
    sim.at(3, lambda: store.put("dc2", "obj", {"gpa": 2.0, "dept": "bb"}))
    sim.run_until_quiescent()
    for dc in ("dc1", "dc2"):
        leaf = [l for l in net.hist_leaves() if l.dc == dc][0]
        assert keys_in(leaf.index, "dept", "aa", "aa") == {"obj"}
        removed = leaf.index.cull_many(
            leaf.index.stale_postings(store.replicas[dc]))
        assert removed == 1
        assert keys_in(leaf.index, "dept", "aa", "aa") == set()
        assert keys_in(leaf.index, "dept", "bb", "bb") == {"obj"}


def test_churn_then_scrub_equals_rebuild_oracle():
    sim, store, net = build(jitter=10, dup=0.2, seed=19)
    rng = random.Random(24)
    for i in range(400):
        dc = store.dcs[rng.randrange(3)]
        key = f"k{rng.randrange(60)}"
        if rng.random() < 0.1:
            sim.at(i + 1, lambda dc=dc, key=key: store.delete(dc, key))
        else:
            sim.at(i + 1, lambda dc=dc, key=key, a=random_student(rng):
                   store.put(dc, key, a))
    sim.run_until_quiescent()
    for leaf in net.hist_leaves():
        leaf.index.cull_many(
            leaf.index.stale_postings(store.replicas[leaf.dc]))
        want = rebuild_index(store.replicas[leaf.dc], net.binner, leaf.region)
        assert leaf.index.canonical() == want.canonical()


def test_canonical_ignores_held_removes():
    # a state holding a remove ahead of its add serializes as its clock and
    # postings alone, the same as a state built with those and nothing held
    e1 = entry("dc1", 1, 1, "a", {"gpa": 1.0, "dept": "x"})
    f1 = entry("dc2", 1, 2, "o", {"gpa": 2.0, "dept": "x"})
    e2 = entry("dc1", 2, 3, "o", {"gpa": 3.0, "dept": "y"}, prev=f1.stamp)
    held = mk_index()
    ingest(held, e1)
    ingest(held, e2)
    assert held.removed == {("dc2", 1)}
    built = mk_index()
    for e in held.tag_info.values():
        built.post(e)
    built.clock = held.clock.copy()
    assert built.removed == set()
    assert held.canonical() == built.canonical()


def test_binner_rejects_binned_text_and_bad_counts():
    schema = student_schema()
    with pytest.raises(ValueError):
        Binner(schema, {"dept": 4})
    with pytest.raises(ValueError):
        Binner(schema, {"gpa": 0})


def test_bin_of_puts_domain_max_in_last_bin():
    schema = student_schema()
    binner = Binner(schema, {"gpa": 8})
    top = bin_of(binner, {"gpa": 4.0, "dept": "cs"}, "gpa")
    assert top.contains(4.0) and not top.hi_open
    assert bin_of(binner, {"gpa": 0.0, "dept": "cs"}, "gpa").lo == 0.0


def ref_edges(schema, spec, attr):
    mode = spec[attr]
    sch = schema[attr]
    width = (sch.hi - sch.lo) / mode
    return [sch.lo + i * width for i in range(mode)] + [sch.hi]


def ref_bin_key(schema, spec, attr, value):
    """The bin number of one value, found per value by walking the edges,
    with no division, or the value itself when the attribute is unbinned."""
    mode = spec.get(attr, "none")
    if mode == "none":
        return value
    edges = ref_edges(schema, spec, attr)
    return next((i for i in range(mode - 1) if value < edges[i + 1]), mode - 1)


def ref_bin_of(schema, spec, attr, value):
    """The bin of one value: bin i is [edge i, edge i+1), the last closed
    above, where edge i is lo + i * width below the count and the last edge
    is hi. So the bins tile the domain, and each value lies in its bin."""
    i = ref_bin_key(schema, spec, attr, value)
    if spec.get(attr, "none") == "none":
        return Interval.point(value)
    edges = ref_edges(schema, spec, attr)
    return Interval(edges[i], edges[i + 1], False, i < spec[attr] - 1)


def test_bin_table_matches_per_value_binning():
    rng = random.Random(31)
    schema = {
        "lat": AttributeSchema("lat", "float", -90.0, 90.0),
        "gpa": AttributeSchema("gpa", "float", 0.0, 4.0),
        "odd": AttributeSchema("odd", "float", -0.3, 0.7),
        "floors": AttributeSchema("floors", "int", 1, 60),
        "tag": AttributeSchema("tag", "text", alphabet="abc"),
    }
    specs = [{"lat": 12, "gpa": 8, "odd": 7, "floors": 6},
             {"lat": 7, "gpa": 3, "odd": 1, "floors": 59},
             {"lat": 1, "floors": 13},
             {}]
    base = {attr: sch.domain().lo for attr, sch in schema.items()}
    for spec in specs:
        binner = Binner(schema, spec)
        for attr, sch in schema.items():
            if sch.kind == "text":
                values = ["", "a", "abc", "cab"]
            elif sch.kind == "int":
                values = list(range(sch.lo, sch.hi + 1))
            else:
                values = [sch.lo, sch.hi] + [rng.uniform(sch.lo, sch.hi)
                                             for _ in range(300)]
                mode = spec.get(attr)
                if mode is not None:
                    width = (sch.hi - sch.lo) / mode
                    for i in range(mode + 1):
                        edge = min(max(sch.lo + i * width, sch.lo), sch.hi)
                        values += [edge, max(math.nextafter(edge, -math.inf), sch.lo),
                                   min(math.nextafter(edge, math.inf), sch.hi)]
            for v in values:
                got = bin_of(binner, {**base, attr: v}, attr)
                want = ref_bin_of(schema, spec, attr, v)
                assert type(got) is Interval and got.contains(v), (attr, v)
                assert got == want and got.key() == want.key(), (attr, v)
                assert hash(got) == hash(want)
        for _ in range(200):
            point = {"lat": rng.uniform(-90.0, 90.0), "gpa": rng.uniform(0.0, 4.0),
                     "odd": rng.uniform(-0.3, 0.7), "floors": rng.randint(1, 60),
                     "tag": rng.choice(["", "a", "bca"])}
            want = tuple(ref_bin_of(schema, spec, a, v)
                         for a, v in sorted(point.items()))
            keys = binner.keys_for(point)
            got = tuple(binner.interval(a, k) for a, k in zip(binner.attrs, keys))
            assert got == want and hash(got) == hash(want)
            # a binned attribute is keyed by its bin number, a point-binned
            # one by the value itself
            assert keys == [ref_bin_key(schema, spec, a, v)
                            for a, v in sorted(point.items())]


def test_every_value_lies_in_its_bin_and_neighbouring_bins_share_edges():
    # float rounding can put lo + i * width + width above lo + (i+1) * width
    # (over [0, 4] in 10 bins, 2.0 + 0.4 is 2.4 but 6 * 0.4 is
    # 2.4000000000000004), so bins built per index left gaps; each edge and
    # the values one ulp either side of it must land in a bin that holds them
    bounds = [(0.0, 4.0), (0.0, 1.0), (-90.0, 90.0), (-0.3, 0.7), (1.0, 60.0),
              (0.1, 0.7), (-1e-3, 3e-3), (1e6, 1e6 + 7.7), (-5.5, -0.25),
              (3.3, 1e9)]
    counts = [1, 2, 3, 6, 7, 10, 13, 100, 999, 4096]
    for lo, hi in bounds:
        schema = {"x": AttributeSchema("x", "float", lo, hi)}
        for count in counts:
            binner = Binner(schema, {"x": count})
            bins = [bin_of(binner, {"x": v}, "x") for v in
                    [lo] + [min(lo + i * ((hi - lo) / count), hi)
                            for i in range(1, count)]]
            assert [b.lo for b in bins] == sorted({b.lo for b in bins})
            assert bins[0].lo == lo and bins[-1].hi == hi
            assert not bins[-1].hi_open
            for a, b in zip(bins, bins[1:]):
                assert a.hi == b.lo and a.hi_open and not b.lo_open
            for b in bins:
                for v in (b.lo, math.nextafter(b.lo, -math.inf),
                          math.nextafter(b.lo, math.inf), b.hi,
                          math.nextafter(b.hi, -math.inf),
                          math.nextafter(b.hi, math.inf)):
                    if lo <= v <= hi:
                        got = bin_of(binner, {"x": v}, "x")
                        assert got.contains(v), (lo, hi, count, v, got)


def test_binner_rejects_a_count_whose_edges_do_not_increase():
    # at 1e15 a float steps by 0.125, so a 1/65536 width adds nothing
    schema = {"x": AttributeSchema("x", "float", 1e15, 1e15 + 1)}
    with pytest.raises(ValueError, match="do not strictly increase"):
        Binner(schema, {"x": 65_536})
    assert bin_of(Binner(schema, {"x": 8}), {"x": 1e15 + 1}, "x").hi == 1e15 + 1


def test_a_value_on_a_rounded_bin_edge_is_found_by_queries():
    # 2.4 is edge 6 of gpa over [0, 4] in 10 bins, one ulp below the
    # 2.4000000000000004 that 6 * 0.4 rounds to
    for repl_mode in ("log", "delta"):
        sim, store, net = build(binning={"gpa": 10}, repl_mode=repl_mode)
        store.put("dc1", "s1", {"gpa": 2.4, "dept": "cs"})
        store.put("dc2", "s2", {"gpa": 2.5, "dept": "cs"})
        sim.run_until_quiescent()
        for text, want in (("gpa = 2.4", ["s1"]),
                           ("gpa >= 2.4 FRESHNESS strong", ["s1", "s2"]),
                           ("gpa <= 2.4", ["s1"])):
            q = parse(text, net.schema)
            assert sorted(scan(store.replicas["dc1"], q)) == want
            for dc in store.dcs:
                assert sorted(ask(net, text, dc).keys) == want, (text, dc)
