import random

import pytest

from qpusim import (
    AttributeSchema,
    Interval,
    Region,
    greedy_cover,
    text_embed,
)

from conftest import (
    LOWER,
    interval_is_empty,
    numeric_schema,
    random_partition,
    random_rect,
    ref_interval_subtract,
    ref_region_subtract,
    ref_uncovered,
    wide_schema,
)


def iv(lo, hi, lo_open=False, hi_open=False):
    return Interval(lo, hi, lo_open, hi_open)


# -- intervals ---------------------------------------------------------------------


def test_contains_respects_open_bounds():
    assert iv(1, 3).contains(1) and iv(1, 3).contains(3)
    assert not iv(1, 3, lo_open=True).contains(1)
    assert not iv(1, 3, hi_open=True).contains(3)
    assert iv(1, 3, True, True).contains(2)


def test_none_upper_bound_means_unbounded():
    assert iv("m", None).contains("zzzz")
    assert not iv("m", None).contains("a")


def test_degenerate_intervals_are_empty():
    assert interval_is_empty(iv(2, 2, True, False))
    assert interval_is_empty(iv(2, 2, False, True))
    assert interval_is_empty(iv(3, 2))
    assert not interval_is_empty(iv(2, 2))


def test_intersect_agrees_with_membership():
    rng = random.Random(5)
    pts = [x / 4 for x in range(-4, 45)]
    for _ in range(400):
        def rand_iv():
            a = rng.randint(0, 10)
            b = rng.randint(0, 10)
            if a > b:
                a, b = b, a
            return iv(a, b, rng.random() < 0.4, rng.random() < 0.4)

        x, y = rand_iv(), rand_iv()
        cut = x.intersect(y)
        for p in pts:
            want = x.contains(p) and y.contains(p)
            got = cut is not None and cut.contains(p)
            assert got == want, (x, y, p)


def test_wholly_inside_matches_quantified_membership():
    rng = random.Random(6)
    pts = [x / 8 for x in range(0, 81)]
    for _ in range(400):
        a, b = sorted((rng.randint(0, 10), rng.randint(0, 10)))
        c, d = sorted((rng.randint(0, 10), rng.randint(0, 10)))
        x = iv(a, b, rng.random() < 0.4, rng.random() < 0.4)
        y = iv(c, d, rng.random() < 0.4, rng.random() < 0.4)
        if interval_is_empty(x):
            continue
        want = all(y.contains(p) for p in pts if x.contains(p))
        sample_ok = any(x.contains(p) for p in pts)
        if sample_ok:  # grid is fine-grained enough to witness both ways
            assert x.wholly_inside(y) == want or not want


def test_subtract_covers_exact_complement():
    # the reference subtraction that checks a cover leaves nothing out
    rng = random.Random(7)
    pts = [x / 4 for x in range(-2, 46)]
    for _ in range(400):
        a, b = sorted((rng.randint(0, 10), rng.randint(0, 10)))
        c, d = sorted((rng.randint(0, 10), rng.randint(0, 10)))
        x = iv(a, b, rng.random() < 0.4, rng.random() < 0.4)
        y = iv(c, d, rng.random() < 0.4, rng.random() < 0.4)
        rest = ref_interval_subtract(x, y)
        for p in pts:
            want = x.contains(p) and not y.contains(p)
            got = any(r.contains(p) for r in rest)
            assert got == want, (x, y, p)


# -- regions ----------------------------------------------------------------------


def test_region_membership_is_per_axis_conjunction():
    schema = numeric_schema(2)
    r = Region({"a0": iv(0.0, 50.0, False, True), "a1": iv(10.0, 20.0)})
    assert r.contains_point({"a0": 0.0, "a1": 15.0})
    assert not r.contains_point({"a0": 50.0, "a1": 15.0})
    assert not r.contains_point({"a0": 5.0, "a1": 25.0})


def test_region_subtract_tiles_without_overlap():
    schema = numeric_schema(2)
    rng = random.Random(8)
    for _ in range(200):
        x = random_rect(rng, schema)
        y = random_rect(rng, schema)
        pieces = ref_region_subtract(x, y)
        for _ in range(40):
            p = {a: rng.uniform(0.0, 100.0) for a in schema}
            want = x.contains_point(p) and not y.contains_point(p)
            hits = sum(piece.contains_point(p) for piece in pieces)
            assert hits == (1 if want else 0), (x, y, p)


def test_volume_of_half_cut_is_half():
    schema = numeric_schema(2)
    whole = Region.whole(schema)
    half = whole.narrowed("a0", iv(0.0, 50.0, False, True))
    assert abs(whole.volume(schema) - 1.0) < 1e-9
    assert abs(half.volume(schema) - 0.5) < 1e-9


def test_cut_puts_the_point_on_the_high_side():
    whole = Region.whole(numeric_schema(2))
    lo, hi = whole.cut("a0", 40.0)
    assert lo.ivs["a0"] == iv(0.0, 40.0, False, True)
    assert hi.ivs["a0"] == iv(40.0, 100.0)
    assert lo.ivs["a1"] == hi.ivs["a1"] == whole.ivs["a1"]
    # at the low end the low side is empty; at the high end the high side
    # keeps the one point
    assert whole.cut("a0", 0.0) == (None, whole)
    lo, hi = whole.cut("a0", 100.0)
    assert lo.ivs["a0"] == iv(0.0, 100.0, False, True)
    assert hi.ivs["a0"] == iv(100.0, 100.0)
    assert lo.cut("a0", 100.0) == (lo, None)


def test_random_partitions_tile_the_space():
    schema = numeric_schema(2)
    rng = random.Random(9)
    for _ in range(60):
        leaves = random_partition(rng, schema)
        assert ref_uncovered([Region.whole(schema)], leaves) == []
        for _ in range(30):
            p = {a: rng.uniform(0.0, 100.0) for a in schema}
            assert sum(l.contains_point(p) for l in leaves) == 1


def test_greedy_cover_assigns_inside_children_and_covers():
    schema = numeric_schema(2)
    rng = random.Random(10)
    for _ in range(150):
        leaves = random_partition(rng, schema)
        children = [(f"c{i}", reg) for i, reg in enumerate(leaves)]
        rect = random_rect(rng, schema)
        assignments = greedy_cover([rect], children, schema)
        regions = dict(children)
        seen = []
        for cid, pieces in assignments:
            for piece in pieces:
                assert piece.wholly_inside(regions[cid]), (cid, piece)
                assert piece.wholly_inside(rect)
                seen.append(piece)
        assert ref_uncovered([rect], seen) == []


def test_greedy_cover_prefers_larger_intersection():
    schema = numeric_schema(1)
    whole = Region.whole(schema)
    big = whole.narrowed("a0", iv(0.0, 90.0, False, True))
    small = whole.narrowed("a0", iv(90.0, 100.0))
    rect = whole
    assignments = greedy_cover([rect], [("small", small), ("big", big)], schema)
    assert [cid for cid, _ in assignments] == ["big", "small"]


def test_greedy_cover_with_one_candidate_sums_no_volume(monkeypatch):
    # a freshness node's one child: the only child that cuts anything is
    # chosen without weighing it
    schema = numeric_schema(1)
    whole = Region.whole(schema)
    lo = whole.narrowed("a0", iv(0.0, 50.0, False, True))
    hi = whole.narrowed("a0", iv(50.0, 100.0))
    rect = whole.narrowed("a0", iv(10.0, 20.0))

    def no_volume(self, schema):
        raise AssertionError("volume summed for a lone candidate")

    monkeypatch.setattr(Region, "volume", no_volume)
    for children in ([("only", whole)], [("lo", lo), ("hi", hi)]):
        assignments = greedy_cover([rect], children, schema)
        assert [(cid, [p.key() for p in pieces])
                for cid, pieces in assignments] == [
            (children[0][0], [rect.key()])]


def test_greedy_cover_tie_goes_to_the_earlier_child():
    schema = numeric_schema(1)
    whole = Region.whole(schema)
    left = whole.narrowed("a0", iv(0.0, 50.0, False, True))
    right = whole.narrowed("a0", iv(50.0, 100.0))
    rect = whole.narrowed("a0", iv(40.0, 60.0))
    for first, second in ((("l", left), ("r", right)),
                          (("r", right), ("l", left))):
        assignments = greedy_cover([rect], [first, second], schema)
        assert [cid for cid, _ in assignments] == [first[0], second[0]]


# -- the cover against the set-cover reference ------------------------------------


def ref_greedy_cover(rects, children, schema):
    """greedy_cover as it was while a node's children could overlap or leave
    gaps: set-cover rounds, each subtracting the chosen child from every
    remaining rectangle. Returns (assignments, uncovered remainder)."""
    remaining = list(rects)
    assignments = []
    chosen = set()
    while remaining:
        best = None
        for cid, creg in children:
            if cid in chosen:
                continue
            pieces = [c for c in (r.intersect(creg) for r in remaining)
                      if c is not None]
            if not pieces:
                continue
            vol = sum(p.volume(schema) for p in pieces)
            if best is None or vol > best[0]:
                best = (vol, cid, creg, pieces)
        if best is None:
            break
        _, cid, creg, pieces = best
        assignments.append((cid, pieces))
        chosen.add(cid)
        remaining = [p for r in remaining for p in ref_region_subtract(r, creg)]
    return assignments, remaining


def _cut_point(rng, schema, attr, iv):
    if schema[attr].kind == "text":
        return "".join(rng.choice(LOWER) for _ in range(rng.randint(1, 2)))
    return round(rng.uniform(iv.lo, iv.hi), 1)


def mixed_partition(rng, schema, depth=3):
    """Random cuts on every axis, text included, with the cut point on a
    random side, so leaves carry open and closed bounds alike."""
    def cut(region, d):
        if d == 0 or rng.random() < 0.25:
            return [region]
        attr = rng.choice(sorted(region.ivs))
        iv = region.ivs[attr]
        at = _cut_point(rng, schema, attr, iv)
        closed_below = rng.random() < 0.5
        lo = region.narrowed(attr, Interval(iv.lo, at, iv.lo_open, not closed_below))
        hi = region.narrowed(attr, Interval(at, iv.hi, closed_below, iv.hi_open))
        if lo is None or hi is None:
            return [region]
        return cut(lo, d - 1) + cut(hi, d - 1)

    return cut(Region.whole(schema), depth)


def mixed_rect(rng, schema):
    rect = Region.whole(schema)
    for attr in schema:
        if rng.random() < 0.4:
            continue
        iv = rect.ivs[attr]
        a, b = sorted((_cut_point(rng, schema, attr, iv),
                       _cut_point(rng, schema, attr, iv)))
        hi = None if schema[attr].kind == "text" and rng.random() < 0.3 else b
        narrowed = rect.narrowed(
            attr, Interval(a, hi, rng.random() < 0.3, rng.random() < 0.3))
        rect = narrowed or rect
    return rect


def tree_shape(rng, schema):
    """A node's region and its children as the tree builds them: one child
    over the region, or the two sides of one Region.cut, low side first.
    Returns (region, children, kind of the cut axis or None)."""
    while True:
        node = rng.choice(mixed_partition(rng, schema))
        if rng.random() < 0.2:
            return node, [("c0", node)], None
        attr = rng.choice(sorted(node.ivs))
        lo, hi = node.cut(attr, _cut_point(rng, schema, attr, node.ivs[attr]))
        if lo is not None and hi is not None:
            return node, [("c0", lo), ("c1", hi)], schema[attr].kind


def plan_keys(assignments):
    return [(cid, [(p.key(), list(p.ivs)) for p in pieces])
            for cid, pieces in assignments]


def test_greedy_cover_matches_the_subtract_reference():
    # on the tree's shapes, intersecting is the whole set cover
    schema = wide_schema()
    rng = random.Random(12)
    shapes = {None: 0, "text": 0, "int": 0, "float": 0}
    for _ in range(600):
        node, children, kind = tree_shape(rng, schema)
        rects = [c for c in (mixed_rect(rng, schema).intersect(node)
                             for _ in range(rng.randint(1, 3)))
                 if c is not None]
        if not rects:
            continue
        assignments, uncovered = ref_greedy_cover(rects, children, schema)
        assert uncovered == []
        assert plan_keys(greedy_cover(rects, children, schema)) == plan_keys(
            assignments)
        shapes[kind] += len(assignments) == len(children)
    assert min(shapes.values()) > 50, shapes  # each shape, every child used


def test_overlaps_agrees_with_intersect():
    rng = random.Random(13)
    words = ["", "a", "ab", "b", "m", "mz", "z"]

    def rand_iv():
        if rng.random() < 0.5:
            a, b = sorted((rng.randint(0, 6), rng.randint(0, 6)))
        else:
            a, b = sorted((rng.choice(words), rng.choice(words)))
            b = None if rng.random() < 0.4 else b
        return iv(a, b, rng.random() < 0.4, rng.random() < 0.4)

    seen = {True: 0, False: 0}
    for _ in range(2000):
        x, y = rand_iv(), rand_iv()
        if isinstance(x.lo, str) != isinstance(y.lo, str):
            continue
        cut = x.intersect(y)
        assert x.overlaps(y) == (cut is not None), (x, y)
        seen[cut is not None] += 1
        if cut is not None and cut == x:
            assert cut is x  # a cut that changes nothing is the operand
    assert min(seen.values()) > 100


def ref_contains(x, v):
    """Interval.contains as written on the _below/_beq helpers, where a
    bound of None stands for +infinity."""

    def below(a, b):
        if b is None:
            return a is not None
        if a is None:
            return False
        return a < b

    def beq(a, b):
        if a is None or b is None:
            return a is None and b is None
        return a == b

    lo, hi, lo_open, hi_open = x
    if below(v, lo) or (v == lo and lo_open):
        return False
    if below(hi, v) or (beq(v, hi) and hi_open):
        return False
    return True


def test_contains_matches_the_bound_helper_reference():
    rng = random.Random(17)
    words = ["", "a", "ab", "b", "m", "mz", "z", "zz"]
    seen = {True: 0, False: 0}
    for n in range(2000):
        if n % 2:
            a, b = sorted((rng.choice(words), rng.choice(words)))
            b = None if rng.random() < 0.4 else b
            values = words
        elif rng.random() < 0.5:
            a, b = sorted((rng.randint(0, 6), rng.randint(0, 6)))
            values = [-1, 0, 1, 2, 3, 4, 5, 6, 7, 2.5]
        else:
            a, b = sorted((rng.uniform(-1, 1), rng.uniform(-1, 1)))
            values = [a, b, (a + b) / 2, a - 1e-9, b + 1e-9, -2.0, 2.0]
        for lo_open in (False, True):
            for hi_open in (False, True):
                x = iv(a, b, lo_open, hi_open)
                for v in values:
                    got = x.contains(v)
                    assert got == ref_contains(x, v), (x, v)
                    seen[got] += 1
    assert min(seen.values()) > 1000


def test_intervals_are_immutable_tuples():
    x = iv(1.0, 2.0, True, False)
    with pytest.raises(AttributeError):
        x.lo = 0.0
    assert hash(x) == hash(x.key())
    assert x == iv(1.0, 2.0, True, False) and x != iv(1.0, 2.0)
    assert repr(x) == "Interval(lo=1.0, hi=2.0, lo_open=True, hi_open=False)"
    whole = Region.whole(numeric_schema(2))
    assert whole.intersect(whole) is whole
    assert whole.narrowed("a0", iv(0.0, 100.0)) is whole


# -- text embedding ----------------------------------------------------------------


def test_text_embed_is_order_preserving():
    alpha = "abcdefghijklmnopqrstuvwxyz"
    rng = random.Random(11)
    words = ["".join(rng.choice(alpha) for _ in range(rng.randint(0, 6)))
             for _ in range(300)]
    ranked = sorted(words)
    embedded = sorted(words, key=lambda w: text_embed(w, alpha))
    assert ranked == embedded


def test_text_schema_rejects_bad_alphabet():
    with pytest.raises(ValueError):
        AttributeSchema("t", "text", alphabet="aab")
    with pytest.raises(ValueError):
        AttributeSchema("t", "text", alphabet="")


def test_numeric_schema_requires_ordered_bounds():
    with pytest.raises(ValueError):
        AttributeSchema("x", "float", 5.0, 1.0)
    with pytest.raises(ValueError):
        AttributeSchema("x", "weird", 0.0, 1.0)
