"""Shared builders for the test suite.

Everything here is plain construction helpers; no fixtures with hidden
state. Tests that need a network build one, run it, and throw it away.
"""

import random

from qpusim import (
    AttributeSchema,
    Binner,
    GeoStore,
    Interval,
    NetConfig,
    QpuNetwork,
    Region,
    SelectivityConfig,
    Simulation,
    TreeConfig,
    eval_expr,
    parse,
    route,
)

LOWER = "abcdefghijklmnopqrstuvwxyz"


def student_schema():
    return {
        "gpa": AttributeSchema("gpa", "float", 0.0, 4.0),
        "dept": AttributeSchema("dept", "text", alphabet=LOWER),
    }


def wide_schema():
    return {
        "price": AttributeSchema("price", "float", 0.0, 1000.0),
        "stock": AttributeSchema("stock", "int", 0, 500),
        "rating": AttributeSchema("rating", "float", 0.0, 5.0),
        "vendor": AttributeSchema("vendor", "text", alphabet=LOWER),
    }


def numeric_schema(n=3):
    return {
        f"a{i}": AttributeSchema(f"a{i}", "float", 0.0, 100.0) for i in range(n)
    }


def build(dcs=("dc1", "dc2", "dc3"), schema=None, binning=None, history="leaf",
          repl_mode="log", seed=0, intra=1, inter=5,
          jitter=0, dup=0.0, gossip_every=10, cache_capacity=256,
          selectivity=None, root_dc=None,
          trace=False):
    schema = schema or student_schema()
    sim = Simulation(NetConfig(intra, inter, jitter, dup), seed=seed, trace=trace)
    store = GeoStore(sim, list(dcs), Binner(schema, binning or {}))
    cfg = TreeConfig(
        root_dc or dcs[0], repl_mode=repl_mode,
        gossip_every=gossip_every, cache_capacity=cache_capacity,
        selectivity=selectivity or SelectivityConfig(),
        history_tree=history)
    net = QpuNetwork(sim, store, cfg)
    return sim, store, net


def random_student(rng):
    return {"gpa": round(rng.uniform(0.0, 4.0), 3),
            "dept": rng.choice(["math", "physics", "cs", "bio", "art"])}


def fill(store, rng, n, dcs=None, prefix="k"):
    """n random puts round-robined over the DCs; returns the written keys."""
    dcs = dcs or store.dcs
    keys = []
    for i in range(n):
        key = f"{prefix}{rng.randrange(max(2, n // 2))}"
        store.put(dcs[i % len(dcs)], key, random_student(rng))
        keys.append(key)
    return keys


def ask(net, text, dc):
    return route(parse(text, net.schema).at(dc), net)


def clear_caches(net):
    net.root.cache.entries.clear()


def random_partition(rng, schema, depth=3):
    """Recursive random axis cuts; returns leaf regions tiling the space."""
    def cut(region, d):
        if d == 0 or rng.random() < 0.3:
            return [region]
        attr = rng.choice(sorted(a for a in region.ivs
                                 if schema[a].kind != "text"))
        iv = region.ivs[attr]
        span = iv.hi - iv.lo
        if span <= 1e-6:
            return [region]
        at = round(rng.uniform(iv.lo + 0.1 * span, iv.hi - 0.1 * span), 3)
        lo, hi = region.cut(attr, at)
        if lo is None or hi is None:
            return [region]
        return cut(lo, d - 1) + cut(hi, d - 1)

    return cut(Region.whole(schema), depth)


def random_rect(rng, schema):
    """Random axis-aligned box; some axes are left at full domain."""
    ivs = {}
    for attr, sch in schema.items():
        iv = sch.domain()
        if sch.kind != "text" and rng.random() < 0.75:
            a = round(rng.uniform(sch.lo, sch.hi), 3)
            b = round(rng.uniform(sch.lo, sch.hi), 3)
            if a > b:
                a, b = b, a
            iv = Interval(a, b, rng.random() < 0.5 and a < b,
                          rng.random() < 0.5 and a < b)
        ivs[attr] = iv
    return Region(ivs)


def ref_lookup(index, rect):
    """CrdtIndex.lookup as a scan: every bin of each constrained attribute
    is tested with Interval.overlaps, where the index picks bins by number
    or by value."""
    cand = None
    for attr, iv in rect.ivs.items():
        if index.schema[attr].domain().wholly_inside(iv):
            continue
        acc = set()
        for k, tags in index.postings[attr].items():
            if index.binner.interval(attr, k).overlaps(iv):
                acc |= tags
        cand = acc if cand is None else cand & acc
        if not cand:
            return set()
    if cand is None:
        return {e.key for e in index.tag_info.values()}
    return {index.tag_info[tag].key for tag in cand}


def run_until(sim, tick):
    """Step every event due by `tick`, then move the clock to it."""
    while sim._heap and sim._heap[0][0] <= tick:
        sim.step()
    sim.now = max(sim.now, tick)


def partition(sim, dc_a, dc_b, start, end):
    """Hold every message sent between the pair during [start, end): an
    event at `start` opens the window, as a scenario's partition action
    does when it comes due."""
    sim.at(start, lambda: sim.open_partition(dc_a, dc_b, end))


# -- reference state at a clock ------------------------------------------------
#
# No run path reads a replica's state as of an earlier clock. The
# bounded-staleness acceptance check and the oracle tests compare against
# these folds of the logs. A network cuts its replicas' logs below a
# frontier as it runs, so a test that folds from seq 1 records the whole
# history with `record_logs` before the first write.


def record_logs(store):
    """Origin -> every entry of its log from now on, in seq order: each
    replica's own entries, as it applies them. Nothing cuts these lists."""
    logs = {}
    for dc, replica in store.replicas.items():
        own = logs[dc] = []
        replica.subscribe(
            lambda e, dc=dc, own=own: e.origin_dc == dc and own.append(e))
    return logs


def logged(replica, origin, seq):
    """The entry `seq` of `origin` in the replica's log, which holds the
    entries past the origin's base seq."""
    return replica.log[origin][seq - 1 - replica.base[origin]]


def fold_logs(logs, clock):
    """Key -> winning log entry, by last-writer-wins on stamps, over each
    origin's log prefix `logs[origin]` up to the clock's seq for it."""
    winners = {}
    for origin, seq in clock.entries.items():
        for entry in logs[origin][:seq]:
            cur = winners.get(entry.key)
            if cur is None or entry.stamp > cur.stamp:
                winners[entry.key] = entry
    return winners


def replay_to(replica, target, logs=None):
    """Key -> attrs as of `target`, folded from `logs`, a `record_logs`
    history, or else from the replica's own log, which must be uncut; keys
    whose winner is a delete are left out."""
    for dc, seq in target.entries.items():
        if seq > replica.heads.get(dc):
            raise ValueError(f"target {target!r} is beyond local history for {dc}")
    if logs is None:
        if any(replica.base.values()):
            raise ValueError(
                f"{replica.name}'s log is cut; record the history")
        logs = replica.log
    return {k: e.attrs for k, e in fold_logs(logs, target).items()
            if e.attrs is not None}


def replay_matches(replica, target, q, logs=None):
    return {k for k, attrs in replay_to(replica, target, logs).items()
            if eval_expr(q.expr, attrs)}


# -- reference rectangle subtraction -------------------------------------------
#
# The package covers a probe by intersection alone, since a node's children
# are one cut of its region. Tests that check a cover leaves nothing out
# subtract with these.


def interval_is_empty(iv):
    """Whether interval iv holds no value; a hi of None bounds nothing."""
    lo, hi, lo_open, hi_open = iv
    if hi is None:
        return lo is None and (lo_open or hi_open)
    if lo is None:
        return True
    return hi < lo or ((lo_open or hi_open) and lo == hi)


def ref_interval_subtract(x, y):
    """Disjoint pieces of interval x outside y."""
    cut = x.intersect(y)
    if cut is None:
        return [x]
    out = []
    left = Interval(x.lo, cut.lo, x.lo_open, not cut.lo_open)
    if not interval_is_empty(left):
        out.append(left)
    if cut.hi is not None:
        right = Interval(cut.hi, x.hi, not cut.hi_open, x.hi_open)
        if not interval_is_empty(right):
            out.append(right)
    return out


def ref_region_subtract(r, o):
    """Disjoint rectangles covering region r minus o, by axis sweep."""
    if r.intersect(o) is None:
        return [r]
    pieces = []
    rem = r
    for a in sorted(r.ivs):
        for part in ref_interval_subtract(rem.ivs[a], o.ivs[a]):
            pieces.append(Region({**rem.ivs, a: part}))
        rem = rem.narrowed(a, o.ivs[a])
        if rem is None:
            return pieces
    return pieces


def ref_uncovered(rects, covers):
    """What of `rects` no region of `covers` holds, as disjoint pieces."""
    rest = list(rects)
    for c in covers:
        rest = [p for r in rest for p in ref_region_subtract(r, c)]
    return rest
