import random

import pytest

from qpusim import (
    And,
    Level,
    Or,
    Pred,
    QueryError,
    candidate_check,
    compile_expr,
    eval_expr,
    parse,
    render,
    route,
    to_rectangles,
)
from qpusim.workload import random_point, random_query_text

from conftest import ask, build, fill, student_schema, wide_schema

SCHEMA = student_schema()


def rects_of(text):
    return to_rectangles(parse(text, SCHEMA), SCHEMA)


# -- parsing --------------------------------------------------------------------------


def test_conjunction_with_parens_and_freshness():
    q = parse('(gpa > 2.0 AND gpa < 3.0) AND dept = "cs" FRESHNESS snapshot',
              SCHEMA)
    assert q.staleness.level is Level.SNAPSHOT
    rects = to_rectangles(q, SCHEMA)
    assert len(rects) == 1
    rect = rects[0]
    iv = rect.ivs["gpa"]
    assert (iv.lo, iv.hi, iv.lo_open, iv.hi_open) == (2.0, 3.0, True, True)
    dept = rect.ivs["dept"]
    assert dept.lo == dept.hi == "cs" and not dept.lo_open


def test_and_binds_tighter_than_or():
    q = parse('dept = "cs" OR dept = "bio" AND gpa > 3.0', SCHEMA)
    assert isinstance(q.expr, Or)
    left, right = q.expr.parts
    assert isinstance(left, Pred)
    assert isinstance(right, And)


def test_default_staleness_is_any():
    assert parse("gpa > 1", SCHEMA).staleness.level is Level.ANY


def test_bounded_staleness_syntax():
    q = parse("gpa > 1 FRESHNESS bounded:12", SCHEMA)
    assert q.staleness.level is Level.BOUNDED and q.staleness.k == 12
    with pytest.raises(QueryError):
        parse("gpa > 1 FRESHNESS bounded:-3", SCHEMA)


def test_parse_errors_carry_byte_offsets():
    with pytest.raises(QueryError) as exc:
        parse('gpa > 2.0 AND nope = 1', SCHEMA)
    assert exc.value.offset == 14
    with pytest.raises(QueryError, match="trailing"):
        parse('gpa > 2.0 gpa', SCHEMA)
    with pytest.raises(QueryError):
        parse('', SCHEMA)
    with pytest.raises(QueryError):
        parse('dept = 3', SCHEMA)  # numeric literal on a text attribute
    with pytest.raises(QueryError):
        parse('gpa > "x"', SCHEMA)


def test_round_trip_on_handwritten_forms():
    for text in [
        'gpa > 2.0',
        'gpa >= 0.5 AND gpa <= 3.5',
        '(dept = "cs" OR dept = "bio") AND gpa < 2.0 FRESHNESS strong',
        'dept >= "m" FRESHNESS bounded:4',
        'gpa = 4.0 OR (gpa < 1.0 AND dept < "k") FRESHNESS snapshot',
    ]:
        q = parse(text, SCHEMA)
        again = parse(render(q), SCHEMA)
        assert again.expr == q.expr
        assert again.staleness == q.staleness


def test_round_trip_on_generated_queries():
    rng = random.Random(33)
    pools = {"dept": ["cs", "bio", "math"]}
    for _ in range(300):
        text = random_query_text(rng, SCHEMA, pools)
        q = parse(text, SCHEMA)
        again = parse(render(q), SCHEMA)
        assert again.expr == q.expr and again.staleness == q.staleness


# -- rectangle planning ----------------------------------------------------------------


def test_universal_predicate_plans_the_root_region():
    rects = rects_of("gpa >= 0")
    assert len(rects) == 1
    rect = rects[0]
    assert rect.ivs["gpa"].lo == 0.0 and rect.ivs["gpa"].hi == 4.0
    assert rect.ivs["dept"].lo == ""  # text axis left at full domain


def test_disjunction_of_points_gives_degenerate_rectangles():
    rects = rects_of("gpa = 1 OR gpa = 2")
    assert len(rects) == 2
    for rect in rects:
        iv = rect.ivs["gpa"]
        assert iv.lo == iv.hi and not iv.lo_open and not iv.hi_open


def test_contradictory_conjunct_is_dropped():
    assert rects_of("gpa > 3 AND gpa < 2") == []
    # a contradiction in one branch leaves the other branch's plan
    rects = rects_of("(gpa > 3 AND gpa < 2) OR gpa = 1")
    assert len(rects) == 1


def test_rectangle_union_equals_boolean_evaluation_on_grid():
    rng = random.Random(34)
    pools = {"dept": ["aa", "bb", "cc"]}
    grid = [{"gpa": g / 4, "dept": d}
            for g in range(0, 17) for d in ["aa", "bb", "cc", "zz"]]
    for _ in range(250):
        text = random_query_text(rng, SCHEMA, pools, staleness="")
        q = parse(text, SCHEMA)
        rects = to_rectangles(q, SCHEMA)
        for point in grid:
            want = eval_expr(q.expr, point)
            got = any(rect.contains_point(point) for rect in rects)
            assert got == want, (text, point)


def test_duplicate_rectangles_are_planned_once():
    rects = rects_of("gpa > 1 OR gpa > 1")
    assert len(rects) == 1


# -- end-to-end routing and checking ----------------------------------------------------



# -- bounded DNF expansion --------------------------------------------------------


def ref_to_rectangles(q, schema):
    """to_rectangles as it was before the bound: expand the full DNF product,
    then narrow each conjunct from the whole space and drop repeats."""
    from qpusim import Region
    from qpusim.router import _pred_interval

    def dnf(node):
        if isinstance(node, Pred):
            return [(node,)]
        if isinstance(node, Or):
            return [c for p in node.parts for c in dnf(p)]
        combos = [()]
        for p in node.parts:
            combos = [c + d for c in combos for d in dnf(p)]
        return combos

    out, seen = [], set()
    for conjunct in dnf(q.expr):
        rect = Region.whole(schema)
        for p in conjunct:
            rect = rect.narrowed(p.attr, _pred_interval(p, schema[p.attr]))
            if rect is None:
                break
        if rect is not None and rect.key() not in seen:
            seen.add(rect.key())
            out.append(rect)
    return out


def plan_of(rects):
    """Each rectangle's key, axis order and text: the text tells a bound of
    1 from one of 1.0, which the key does not."""
    return [(r.key(), list(r.ivs), r.render()) for r in rects]


def or_clauses(n, rng):
    return " AND ".join(
        f"(gpa > {round(rng.uniform(2, 4), 1)} OR gpa < {round(rng.uniform(0, 2), 1)})"
        for _ in range(n))


def test_dnf_past_the_bound_is_rejected_fast():
    import time

    text = or_clauses(14, random.Random(3))
    start = time.perf_counter()
    with pytest.raises(QueryError, match="DNF terms") as exc:
        parse(text, SCHEMA)
    assert time.perf_counter() - start < 0.1
    # 2**11 terms cross the bound at the tenth AND
    tenth_and = [i for i in range(len(text)) if text.startswith(" AND ", i)][9]
    assert exc.value.offset == tenth_and + 1
    assert "at byte" in str(exc.value)


def test_in_bound_expansion_matches_the_full_product():
    rng = random.Random(4)
    q = parse(or_clauses(10, rng), SCHEMA)
    assert plan_of(to_rectangles(q, SCHEMA)) == plan_of(
        ref_to_rectangles(q, SCHEMA))
    mixed = parse(" AND ".join(
        f'(gpa > {i / 4} OR dept < "{chr(98 + i)}" OR dept = "cs")'
        for i in range(6)), SCHEMA)
    assert plan_of(to_rectangles(mixed, SCHEMA)) == plan_of(
        ref_to_rectangles(mixed, SCHEMA))


def test_generated_queries_expand_like_the_full_product():
    rng = random.Random(5)
    pools = {"dept": ["math", "physics", "cs", "bio", "art"]}
    for _ in range(400):
        q = parse(random_query_text(rng, SCHEMA, pools), SCHEMA)
        assert plan_of(to_rectangles(q, SCHEMA)) == plan_of(
            ref_to_rectangles(q, SCHEMA))

def test_route_on_empty_store_returns_nothing_checked():
    sim, store, net = build()
    res = ask(net, 'dept = "cs" FRESHNESS strong', "dc1")
    assert res.keys == frozenset()
    assert res.stats["candidate_checked"] == 0
    assert res.error is None


def test_route_matches_scan_for_random_strong_queries():
    from qpusim import scan

    sim, store, net = build(binning={"gpa": 8}, jitter=5, dup=0.1, seed=6)
    rng = random.Random(35)
    fill(store, rng, 150)
    sim.run_until_quiescent()
    pools = {"dept": ["cs", "bio", "math", "art"]}
    for _ in range(60):
        text = random_query_text(rng, SCHEMA, pools, staleness="strong")
        q = parse(text, net.schema).at("dc2")
        res = route(q, net)
        assert res.keys == scan(store.replicas["dc2"], q), text


def test_candidate_check_keeps_genuine_matches():
    sim, store, net = build(dcs=("dc1",))
    sim.at(1, lambda: store.put("dc1", "a", {"gpa": 3.0, "dept": "cs"}))
    sim.at(2, lambda: store.put("dc1", "b", {"gpa": 1.0, "dept": "cs"}))
    sim.run_until_quiescent()
    q = parse('dept = "cs"', SCHEMA).at("dc1")
    kept, removed = candidate_check({"a", "b"}, compile_expr(q.expr), store,
                                    "dc1")
    assert kept == {"a", "b"} and removed == 0


def test_candidate_check_drops_stale_deleted_and_mismatched():
    sim, store, net = build(dcs=("dc1",))
    sim.at(1, lambda: store.put("dc1", "a", {"gpa": 3.0, "dept": "cs"}))
    sim.at(2, lambda: store.put("dc1", "gone", {"gpa": 3.0, "dept": "cs"}))
    sim.at(3, lambda: store.delete("dc1", "gone"))
    sim.run_until_quiescent()
    q = parse('gpa > 2.0', SCHEMA).at("dc1")
    kept, removed = candidate_check({"a", "gone", "never"},
                                    compile_expr(q.expr), store, "dc1")
    assert kept == {"a"} and removed == 2


def test_binned_boundary_candidates_removed_exactly():
    # same data indexed binned and unbinned; the binned route must remove
    # exactly the boundary-bin keys the unbinned route never returned
    rows = [("in", 2.6), ("edge", 2.0), ("lowbin", 2.3), ("out", 3.6)]

    def run(binning):
        sim, store, net = build(dcs=("dc1",), binning=binning)
        for i, (key, gpa) in enumerate(rows):
            sim.at(i + 1, lambda key=key, gpa=gpa:
                   store.put("dc1", key, {"gpa": gpa, "dept": "cs"}))
        sim.run_until_quiescent()
        return ask(net, "gpa > 2.0 AND gpa < 3.0 FRESHNESS strong", "dc1")

    binned = run({"gpa": 8})
    unbinned = run(None)
    assert binned.keys == unbinned.keys == frozenset({"in", "lowbin"})
    assert unbinned.stats["false_positives_removed"] == 0
    assert binned.stats["false_positives_removed"] == 1  # the 2.0 edge key


def test_query_survives_duplicated_probe_messages():
    sim, store, net = build(dup=1.0, jitter=3, seed=8)
    rng = random.Random(36)
    fill(store, rng, 40)
    sim.run_until_quiescent()
    from qpusim import scan

    q = parse("gpa >= 2.0 FRESHNESS strong", SCHEMA).at("dc3")
    res = route(q, net)
    assert res.keys == scan(store.replicas["dc3"], q)
    assert res.error is None


def old_eval_expr(node, attrs):
    """eval_expr as it was before the type-dispatch rewrite."""
    if isinstance(node, Pred):
        v = attrs[node.attr]
        w = node.value
        if node.op == "=":
            return v == w
        if node.op == "<":
            return v < w
        if node.op == "<=":
            return v <= w
        if node.op == ">":
            return v > w
        return v >= w
    if isinstance(node, And):
        return all(old_eval_expr(p, attrs) for p in node.parts)
    return any(old_eval_expr(p, attrs) for p in node.parts)


def test_eval_expr_matches_the_reference_on_random_expressions():
    schema = wide_schema()
    words = ["ab", "abc", "b", "", "zz"]

    def value(rng, attr):
        sch = schema[attr]
        if sch.kind == "text":
            return rng.choice(words)
        if sch.kind == "int":
            return rng.randint(sch.lo, sch.hi)
        return rng.choice([round(rng.uniform(sch.lo, sch.hi), 1), 0, 1.0])

    def expr(rng, depth):
        if depth == 0 or rng.random() < 0.3:
            attr = rng.choice(sorted(schema))
            return Pred(attr, rng.choice(["=", "<", "<=", ">", ">="]),
                        value(rng, attr))
        kind = rng.choice([And, Or])
        return kind(tuple(expr(rng, depth - 1)
                          for _ in range(rng.randint(1, 3))))

    rng = random.Random(21)
    single = 0
    for _ in range(400):
        e = expr(rng, 3)
        single += type(e) is not Pred and len(e.parts) == 1
        for _ in range(10):
            point = {a: value(rng, a) for a in schema}
            got = eval_expr(e, point)
            assert type(got) is bool
            assert got == old_eval_expr(e, point), (e, point)
    assert single > 0


def literals(node):
    if type(node) is Pred:
        yield node.attr, node.value
    else:
        for p in node.parts:
            yield from literals(p)


def near(value):
    """The value and neighbours on either side of it."""
    if isinstance(value, str):
        return [value, value[:-1], value + "a"]
    return [value, value - 1, value + 1, value - 0.01, value + 0.01]


def test_compiled_predicate_matches_eval_expr():
    # acceptance check 9's 1,000 generated queries, each with literals that
    # compare equal but differ in type or sign; each is evaluated on random
    # points and on points that sit on and beside its literals
    rng = random.Random(909)
    schemas = [
        (student_schema(), {"dept": ["math", "physics", "cs", "bio", "art"]}),
        (wide_schema(), {"vendor": ["acme", "zenith", "orbit"]}),
    ]
    points_rng = random.Random(910)
    for i in range(1000):
        schema, pools = schemas[i % 2]
        q = parse(random_query_text(rng, schema, pools), schema)
        numeric = sorted(a for a in schema if schema[a].kind != "text")
        unlike = Or(tuple(Pred(a, "=", v) for a in numeric
                          for v in (1, 1.0, 0.0, -0.0)))
        base = [random_point(points_rng, schema, pools) for _ in range(6)]
        grid = list(base)
        for attr, value in literals(q.expr):
            grid += [{**p, attr: v} for p in base[:2] for v in near(value)]
        grid += [{**base[0], a: v} for a in numeric for v in (1, 1.0, 0.0, -0.0)]
        for e in (q.expr, unlike, And((unlike, q.expr)), Or((q.expr, unlike))):
            pred = compile_expr(e)
            for point in grid:
                got = pred(point)
                assert type(got) is bool
                assert got == eval_expr(e, point), (render(q), point)
