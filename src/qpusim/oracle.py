"""Reference answers computed directly from replica state.

Everything here is independent of the tree, the cache, and the index
structures: it reads only each replica's log and its winners
(`DcReplica.log` and `DcReplica.objects`), and the heads the root's
freshness children report. It gives full scans with exact bounds, views
kept up to date from the log, from-scratch index rebuilds, a check of each
routed target against its staleness level, and a check of result-cache
hits against the logs. Tests and the verify tooling compare
the fast paths against these. The end-of-run check compares each leaf with
its rebuild as `CrdtIndex.state()` values, not serialized bytes, and builds
one rebuild per region for the replicas whose heads and winners agree.

Both per-query checks pay for the writes since their last use, not for the
whole live state, as in incremental view maintenance (Gupta and Mumick,
IEEE Data Eng. Bull. 1995):
- `ScanViews` answers an expression's first use at a replica with a full
  `scan`, and from its second use keeps its match set, caught up from the
  log entries past a cursor. A fixed sample of view answers is checked
  against a full scan as well.
- `HitCheck` keeps, for each rectangle key a hit has used, the
  last-writer-wins state folded to the last clock it checked, and folds a
  later clock forward from it.

The store cuts its logs below a frontier no reader needs (see
`GeoStore.truncate`), so both read a log past its base seq. A view whose
cursor is below the base scans in full again. `HitCheck` keeps a
last-writer-wins checkpoint of the entries cut from each origin's own log,
as Cure keeps its state at the stable snapshot (Akkoorath et al., ICDCS
2016), and a fold from scratch starts from it. It holds one winner per key
ever written.

Each table is capped at `CAP` entries, the least recently used dropped
first, so what the oracle holds does not grow with the run's history. A
hit-check frontier maps every live key to its winning entry (the entries
themselves are the log's), so that table holds at most `CAP` folded states
of the live keys. `CAP` is the root result cache's default capacity: at
that capacity the check keeps a frontier for no more rectangle keys than
the cache can hold.
"""

from __future__ import annotations

from dataclasses import replace

from .crdt_index import Binner, CrdtIndex
from .geostore import DcReplica, GeoStore, LogEntry
from .regions import Region
from .router import Query, eval_expr, rect_match, render
from .staleness import Level, StalenessLevel, VectorClock, floor_all

# entries per table: first uses, views and hit-check frontiers, each; the
# root result cache's default capacity
CAP = 256


def scan(replica: DcReplica, q: Query) -> set[str]:
    """Exact-bounds full scan of the replica's current state."""
    expr = q.expr
    out = set()
    for key, ver in replica.objects.items():
        attrs = ver.attrs
        if attrs is not None and eval_expr(expr, attrs):
            out.add(key)
    return out


def _touch(table: dict, key, value):
    """Store `value` as `key`'s most recent use; past CAP, drop the least
    recently used entry."""
    table[key] = value
    if len(table) > CAP:
        del table[next(iter(table))]


class _View:
    __slots__ = ("expr", "keys", "at")

    def __init__(self, expr, keys: set[str], at: VectorClock):
        self.expr = expr  # held, so its id names no other expression
        self.keys = keys  # what the expression selects at `at`
        self.at = at  # the replica's heads, a cursor into each origin log


class ScanViews:
    """Each query's reference answer: the keys whose current winner at the
    origin replica is a write the expression selects. Call it as
    (replica, query). The set it returns may be a view's own: the caller
    reads it before the next call and does not mutate it.

    An expression's first use at a replica is a full scan. Its second use
    scans again and keeps the result as a view, with the replica's heads as
    a cursor into each origin's log. A later use catches the view up from
    the entries past the cursor and re-tests each key they touch against
    its current winner, `replica.objects[key]`, not against the entry: an
    entry that lost last-writer-wins changes nothing. The view catches up
    when read, not from the replica's apply feed, because a coordinator
    completes parked queries inside that feed, before any later subscriber
    has seen the entry.

    Every `SAMPLE`-th view answer is checked against a full scan too; a
    difference is reported by `lines` as a FAIL oracle line, and the view
    takes the scan's answer. `full_scan` is the scan that first uses and
    samples run."""

    SAMPLE = 64

    def __init__(self, full_scan=scan):
        self.full_scan = full_scan
        # keyed by (replica, id of the expression): hashing an expression
        # walks its tree, and a scenario parses each distinct one once
        self._first: dict[tuple, object] = {}  # -> expression, oldest use first
        self._views: dict[tuple, _View] = {}  # ditto
        self.served = 0  # answers given by a view
        self.failures: list[str] = []

    def __call__(self, replica: DcReplica, q: Query) -> set[str]:
        expr = q.expr
        tag = (replica.name, id(expr))
        view = self._views.pop(tag, None)
        if view is None:
            keys = self.full_scan(replica, q)
            if self._first.pop(tag, None) is None:
                _touch(self._first, tag, expr)
            else:
                _touch(self._views, tag, _View(expr, keys, replica.heads))
            return keys
        at = view.at.entries
        if view.at is not replica.heads and any(
                at.get(o, 0) < base for o, base in replica.base.items()):
            # the log no longer holds every entry past the cursor
            view.keys = self.full_scan(replica, q)
            view.at = replica.heads
        else:
            self._catch_up(view, replica, expr)
        _touch(self._views, tag, view)
        self.served += 1
        if self.served % self.SAMPLE == 0:
            keys = self.full_scan(replica, q)
            if keys != view.keys:
                self.failures.append(
                    f"{replica.name} view of {render(q)} differs from a full "
                    f"scan (extra {sorted(view.keys - keys)}, missing "
                    f"{sorted(keys - view.keys)})")
                view.keys = keys
        return view.keys

    @staticmethod
    def _catch_up(view: _View, replica: DcReplica, expr):
        """Bring the view to the replica's heads from the log entries past
        its cursor, which must be at or above each log's base."""
        heads = replica.heads  # one snapshot per replica state
        if view.at is heads:
            return
        at, objects, keys = view.at, replica.objects, view.keys
        base = replica.base
        for origin, entries in replica.log.items():
            for entry in entries[at.get(origin) - base[origin]:]:
                key = entry.key
                # a key whose winner changed past the cursor has its winner
                # among these entries; an entry that lost changes nothing
                if objects[key] is not entry:
                    continue
                attrs = entry.attrs
                if attrs is not None and eval_expr(expr, attrs):
                    keys.add(key)
                else:
                    keys.discard(key)
        view.at = heads

    def lines(self) -> list[str]:
        return [f"FAIL oracle: {msg}" for msg in self.failures]


def reported_floor(root) -> VectorClock:
    """The floor of the replica heads the root's freshness children have
    reported, read from the reports themselves: what the root's snapshot
    clock must be. A child that has not reported floors it to empty."""
    get = root.child_clocks.get
    reports = [get(c.actor) for c in root.children]
    if any(r is None for r in reports):
        return VectorClock()
    return floor_all(reports)


def target_fault(level: StalenessLevel, target: VectorClock,
                 heads: VectorClock, store: GeoStore,
                 reported: VectorClock | None = None) -> str | None:
    """What is wrong with a routed query's target, or None. `heads` are the
    origin replica's heads at submit. A `strong` target is those heads, a
    `bounded:k` one those heads less k, an `any` one empty. A `snapshot`
    target must dominate `reported`, the root's `reported_floor` at submit
    (None for nothing reported): the reports only grow, and the target is
    resolved later. Each of its components must be at most every replica's
    heads as they stand now."""
    if level.level is Level.SNAPSHOT:
        if reported is not None and not target.dominates(reported):
            return (f"snapshot target {target!r} is below the reported "
                    f"heads {reported!r} at submit")
        for r in store.replicas.values():
            if not r.heads.dominates(target):
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
    replica's heads. A scrubbed converged leaf must hold the same
    `CrdtIndex.state()`, and so serialize byte-identically to this. It reads
    only the replica's `objects` and `heads`, so replicas equal in both
    rebuild to equal states. Each winner is binned from its attrs, not
    taken with its entry's bins, so the leaves' binning is checked too."""
    idx = CrdtIndex(replica.schema, binner)
    for ver in replica.objects.values():
        attrs = ver.attrs
        if attrs is None or (region and not region.contains_point(attrs)):
            continue
        idx.post(replace(ver, bins=tuple(binner.keys_for(attrs))))
    # the index clock advances in place, and the heads are a shared snapshot
    idx.clock = replica.heads.copy()
    return idx


class _Frontier:
    __slots__ = ("clock", "state", "need", "memo")

    def __init__(self):
        self.clock = VectorClock()  # what `state` and `need` are folded to
        self.state: dict[str, LogEntry] = {}  # key -> winning entry at clock
        self.need: set[str] = set()  # keys whose winner lies in the rects
        self.memo = None  # (hit clock, hit keys, need at that clock - keys)


def _fold(state: dict[str, LogEntry], replicas: dict[str, DcReplica],
          since: VectorClock, clock: VectorClock) -> set[str]:
    """Fold each origin's own log entries past `since` up to `clock` into
    `state`, key -> winning entry by last-writer-wins on stamps, the rule
    the store applies. `since` must be at or above each log's base, and
    `clock` at or above `since`. Returns the keys whose winner changed."""
    if not clock.dominates(since):
        raise ValueError(f"fold to {clock!r} from {since!r}, which is not "
                         f"below it")
    touched = set()
    for origin, seq in clock.entries.items():
        r = replicas[origin]
        base = r.base[origin]
        if since.get(origin) < base:
            raise ValueError(f"fold from {since!r} below the {origin} log's "
                             f"base seq {base}")
        for entry in r.log[origin][since.get(origin) - base:seq - base]:
            cur = state.get(entry.key)
            if cur is None or entry.stamp > cur.stamp:
                state[entry.key] = entry
                touched.add(entry.key)
    return touched


class HitCheck:
    """Checks the root's result-cache hits against the origin logs.

    A hit for a probe from DC `o` with rectangles R serves the candidate
    keys H and claims clock C. The coordinator at `o` rescans its replica's
    log past C and candidate-checks every key, so the answer misses no key
    when every key whose last-writer-wins version at C is a write lying in
    some rectangle of R is in H or has an entry past C in o's log. The
    versions at C are folded from each origin's own log. Call it as
    (actor, o, R, key of R, H, C) when the hit is served; `lines` reports
    the result.

    Each rectangle key keeps one frontier from its first hit: the versions
    folded to the last clock it checked, and the keys among them that need
    to be in a hit. A clock that dominates the frontier folds forward only
    the entries in between, and re-tests only the keys they touch; any
    other clock, or a frontier below a log's base, folds from scratch. The
    frontier also memoizes the last hit's residue, need less H, which is
    almost always empty, so a repeat hit on the same entry settles at once.

    A fold from scratch starts from the checkpoint: the winners of the
    entries cut from each origin's own log, at the clock of those logs'
    bases. No hit claims a clock below it (see QpuNetwork._frontier).
    """

    def __init__(self, store: GeoStore):
        self.store = store
        self.checked = 0
        self.failures: list[str] = []
        # by rectangle key, oldest use first
        self._fronts: dict[tuple, _Frontier] = {}
        # key -> winning entry among those cut from their origin's own log
        self._checkpoint: dict[str, LogEntry] = {}
        store.on_cut.append(self._on_cut)

    def _on_cut(self, entries: list[LogEntry]):
        cp = self._checkpoint
        for entry in entries:
            cur = cp.get(entry.key)
            if cur is None or entry.stamp > cur.stamp:
                cp[entry.key] = entry

    def __call__(self, actor: str, origin_dc: str, rects, rects_key: tuple,
                 keys, clock: VectorClock):
        self.checked += 1
        front = self._fronts.pop(rects_key, None)
        memo = None if front is None else front.memo
        if memo is None or memo[0] is not clock or memo[1] is not keys:
            front = self._advance(front, rects, clock)
            memo = front.memo = (clock, keys, front.need.difference(keys))
        _touch(self._fronts, rects_key, front)
        missing = memo[2]
        if missing:
            replica = self.store.replicas[origin_dc]
            missing = missing - {e.key for e in replica.entries_after(clock)}
        if missing:
            self.failures.append(
                f"{actor}: hit at {clock!r} for a probe from {origin_dc} "
                f"misses {sorted(missing)}")

    def _advance(self, front: _Frontier | None, rects,
                 clock: VectorClock) -> _Frontier:
        """`front` folded to `clock`: forward when the clock dominates it
        and it is at or above each log's base, else a new frontier folded
        from the checkpoint."""
        replicas = self.store.replicas
        fresh = (front is None or not clock.dominates(front.clock)
                 or any(front.clock.get(o) < r.base[o]
                        for o, r in replicas.items()))
        if fresh:
            front = _Frontier()
            front.state = dict(self._checkpoint)
            front.clock = VectorClock({o: r.base[o]
                                       for o, r in replicas.items()})
        state, need = front.state, front.need
        touched = _fold(state, replicas, front.clock, clock)
        # from the checkpoint, every key's winner is new to `need`
        for key in state if fresh else touched:
            attrs = state[key].attrs
            if attrs is not None and rect_match(rects, attrs):
                need.add(key)
            else:
                need.discard(key)
        front.clock = clock
        return front

    def lines(self) -> list[str]:
        if self.failures:
            return [f"FAIL cache: {msg}" for msg in self.failures]
        return [f"PASS cache: {self.checked} hits checked"]
