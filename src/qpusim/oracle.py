"""Reference answers computed directly from replica state.

Everything here is independent of the tree, the caches, and the index
structures: full scans with exact bounds, log folds to a clock, and
from-scratch index rebuilds. Tests and the verify tooling compare the fast
paths against these.
"""

from __future__ import annotations

from .crdt_index import Binner, CrdtIndex
from .geostore import DcReplica, GeoStore, Stamp
from .regions import Region
from .router import Query, eval_expr
from .staleness import VectorClock


def scan(replica: DcReplica, q: Query) -> set[str]:
    """Exact-bounds full scan of the replica's current state."""
    expr = q.expr
    out = set()
    for key, ver in replica.objects.items():
        attrs = ver.attrs
        if attrs is not None and eval_expr(expr, attrs):
            out.add(key)
    return out


def replay_to(replica: DcReplica, target: VectorClock) -> dict[str, dict]:
    """Fold the local log up to `target` and return key -> attrs as of that
    clock. The fold is last-writer-wins on stamps, the same rule the store
    applies, so it reproduces the state any replica would hold at `target`."""
    for dc, seq in target.entries.items():
        if seq > replica.heads.get(dc):
            raise ValueError(f"target {target!r} is beyond local history for {dc}")
    winners: dict[str, tuple[Stamp, dict | None]] = {}
    for entry in replica.entries_after(VectorClock(), upto=target):
        cur = winners.get(entry.key)
        if cur is None or entry.stamp > cur[0]:
            winners[entry.key] = (entry.stamp, entry.attrs)
    return {k: attrs for k, (_, attrs) in winners.items() if attrs is not None}


def replay_matches(replica: DcReplica, target: VectorClock, q: Query) -> set[str]:
    state = replay_to(replica, target)
    return {k for k, attrs in state.items() if eval_expr(q.expr, attrs)}


def rebuild_index(replica: DcReplica, binner: Binner,
                  region: Region | None = None,
                  origins=None) -> CrdtIndex:
    """The index a fresh leaf would converge to from current replica state:
    one posting set per (attribute, bin) over the live winners, clock at the
    replica's heads. Scrubbed converged leaves must serialize byte-identically
    to this. `origins` restricts to winners written at those DCs, which is
    what a leaf that never ingests foreign origins ends up holding."""
    idx = CrdtIndex(replica.schema, binner)
    for key in replica.objects:
        ver = replica.objects[key]
        if ver.attrs is None:
            continue
        if region is not None and not region.contains_point(ver.attrs):
            continue
        if origins is not None and ver.stamp.dc not in origins:
            continue
        idx.post(ver.stamp, key, ver.attrs)
    heads = replica.heads
    idx.clock = heads if origins is None else heads.restrict(origins)
    return idx


def index_at(store: GeoStore, binner: Binner, clock: VectorClock,
             region: Region, culls=(), parts=()) -> CrdtIndex:
    """The index a history leaf over `region` holds at `clock`: every entry
    up to the clock applied with adds outside the region dropped, then the
    leaf's scrub `culls` retracted. `parts` lists the (region, clock) of
    leaves merged into this one, whose postings may run past the merged
    clock. Entries come from each origin's own log, because a delta-mode leaf
    can index entries that its colocated replica has not received yet."""
    views = [(region, clock), *parts]
    reach = VectorClock()
    for _, c in views:
        reach = reach.merge(c)
    idx = CrdtIndex(store.schema, binner)
    for origin in sorted(reach.entries):
        for entry in store.replicas[origin].log[origin][:reach.get(origin)]:
            delta = idx.delta_for(entry, region)
            if delta.point is not None and not any(
                    entry.seq <= c.get(origin) and r.contains_point(delta.point)
                    for r, c in views):
                delta = delta._replace(adds=(), point=None)
            idx.apply_delta(delta)
    idx.cull_many(culls)
    return idx
