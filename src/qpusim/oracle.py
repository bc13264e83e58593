"""Reference answers computed directly from replica state.

Everything here is independent of the tree, the cache, and the index
structures: full scans with exact bounds, log folds to a clock,
from-scratch index rebuilds, a check of each routed target against its
staleness level, and a check of result-cache hits against the logs. Tests
and the verify tooling compare the fast paths against these.

`replay_to` and `replay_matches` have no caller on the run path: they are
the reference state at a clock that the bounded-staleness acceptance check
(check 4 in tests/test_acceptance.py) compares answers against.
"""

from __future__ import annotations

from .crdt_index import Binner, CrdtIndex
from .geostore import DcReplica, GeoStore, Stamp
from .regions import Region
from .router import Query, eval_expr, rect_match
from .staleness import Level, StalenessLevel, VectorClock


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
    return _fold_logs(replica.log, target)


def _fold_logs(logs: dict[str, list], clock: VectorClock) -> dict[str, dict]:
    """Last-writer-wins fold of each origin's log prefix `logs[origin]`
    up to the clock's seq for it: key -> attrs of the version with the
    highest stamp, leaving out keys whose winner is a delete."""
    winners: dict[str, tuple[Stamp, dict | None]] = {}
    for origin, seq in sorted(clock.entries.items()):
        for entry in logs[origin][:seq]:
            cur = winners.get(entry.key)
            if cur is None or entry.stamp > cur[0]:
                winners[entry.key] = (entry.stamp, entry.attrs)
    return {k: attrs for k, (_, attrs) in winners.items() if attrs is not None}


def replay_matches(replica: DcReplica, target: VectorClock, q: Query) -> set[str]:
    state = replay_to(replica, target)
    return {k for k, attrs in state.items() if eval_expr(q.expr, attrs)}


def target_fault(level: StalenessLevel, target: VectorClock,
                 heads: VectorClock, store: GeoStore) -> str | None:
    """What is wrong with a routed query's target, or None. `heads` are the
    origin replica's heads at submit. A `strong` target is those heads, a
    `bounded:k` one those heads less k, an `any` one empty. A `snapshot`
    component must be at most every replica's heads as they stand now."""
    if level.level is Level.SNAPSHOT:
        for dc, seq in sorted(target.entries.items()):
            for r in store.replicas.values():
                if r.heads.get(dc) < seq:
                    return (f"snapshot target {target!r} is past {r.name}'s "
                            f"heads {r.heads!r}")
        return None
    if level.level is Level.STRONG:
        want = heads
    elif level.level is Level.BOUNDED:
        want = VectorClock({dc: seq - level.k
                            for dc, seq in heads.entries.items()})
    else:
        want = VectorClock()
    if target != want:
        return (f"{level.render()} target {target!r} is not {want!r} "
                f"from heads {heads!r} at submit")
    return None


def rebuild_index(replica: DcReplica, binner: Binner,
                  region: Region | None = None) -> CrdtIndex:
    """The index a fresh leaf would converge to from current replica state:
    one posting set per (attribute, bin) over the live winners, clock at the
    replica's heads. Scrubbed converged leaves must serialize byte-identically
    to this."""
    idx = CrdtIndex(replica.schema, binner)
    for key in replica.objects:
        ver = replica.objects[key]
        if ver.attrs is None:
            continue
        if region is not None and not region.contains_point(ver.attrs):
            continue
        idx.post(ver.stamp, key, ver.attrs)
    # the index clock advances in place, and the heads are a shared snapshot
    idx.clock = replica.heads.copy()
    return idx


class HitCheck:
    """Checks the root's result-cache hits against the origin logs.

    A hit for a probe from DC `o` with rectangles R serves the candidate
    keys H and claims clock C. The coordinator at `o` rescans its replica's
    log past C and candidate-checks every key, so the answer misses no key
    when every key whose last-writer-wins version at C is a write lying in
    some rectangle of R is in H or has an entry past C in o's log. The
    versions at C are folded from each origin's own log. Call it as
    (actor, o, R, H, C) when the hit is served; `lines` reports the result.
    """

    def __init__(self, store: GeoStore):
        self.store = store
        self.checked = 0
        self.failures: list[str] = []
        self._states: dict[VectorClock, dict[str, dict]] = {}  # by C
        self._needed: dict[tuple, set[str]] = {}  # by (C, rectangle keys)

    def __call__(self, actor: str, origin_dc: str, rects, keys,
                 clock: VectorClock):
        self.checked += 1
        memo = (clock, tuple(r.key() for r in rects))
        need = self._needed.get(memo)
        if need is None:
            need = self._needed[memo] = {
                k for k, attrs in self._state_at(clock).items()
                if rect_match(rects, attrs)}
        missing = need.difference(keys)
        if missing:
            replica = self.store.replicas[origin_dc]
            missing -= {e.key for e in replica.entries_after(clock)}
        if missing:
            self.failures.append(
                f"{actor}: hit at {clock!r} for a probe from {origin_dc} "
                f"misses {sorted(missing)}")

    def _state_at(self, clock: VectorClock) -> dict[str, dict]:
        state = self._states.get(clock)
        if state is None:
            state = self._states[clock] = _fold_logs(
                {o: r.log[o] for o, r in self.store.replicas.items()}, clock)
        return state

    def lines(self) -> list[str]:
        if self.failures:
            return [f"FAIL cache: {msg}" for msg in self.failures]
        return [f"PASS cache: {self.checked} hits checked"]
