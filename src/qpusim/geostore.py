"""Multi-datacenter object store with last-writer-wins registers.

Each datacenter holds a full replica. A write commits locally, appends to the
origin's log under a gapless per-origin sequence, and propagates to the other
replicas asynchronously through the simulated network. Remote entries apply
in per-origin contiguous order (later arrivals buffer), so a replica's vector
clock of applied heads is always a valid prefix of every origin log.

Write stamps are (tick, origin datacenter, origin seq) triples compared
lexicographically. The tick ordering is what last-writer-wins means here;
the datacenter name breaks same-tick ties between origins and the seq makes
same-tick writes at one origin ordered too, so the winner of any conflict is
the same at every replica.

A replica's current version of a key is its winning log entry itself: the
entry already holds the stamp and the attributes (None for a delete), so no
separate version record is built per applied write.

A write is binned once, as it commits, by the store's one `Binner`: the entry
carries its bin keys, and every replica and index leaf reads them from it.

The store checks no input. Its DC names are unique, and a put's attrs must
be a point of the schema: exactly its attributes, each value in its domain.
`parse_scenario` checks every scenario once, as it loads, and the store
trusts it, just as `apply_remote` trusts the entries a peer committed.

What a replica keeps is its winners, plus each origin's log above that
origin's base seq. `GeoStore.truncate` drops the entries at or below a
frontier that no reader can still need (see QpuNetwork._frontier), so the
log follows the live data, not the length of the run, as in Bayou's write
log truncation (Petersen et al., SOSP 1997). Seqs still count from the
start: `heads`, a local commit's seq and `apply_remote` add the base to the
log's length, and `entries_after` raises on a clock below the base rather
than answer from a history it no longer holds.
"""

from dataclasses import dataclass
from typing import Callable, NamedTuple

from .staleness import VectorClock


# entries a replica's log may hold past twice what its last cut kept
# before the next cut is due (see DcReplica.cut_due)
CUT_FLOOR = 256


class Stamp(NamedTuple):
    ts: int
    dc: str
    seq: int


@dataclass(frozen=True, slots=True)
class LogEntry:
    origin_dc: str
    seq: int
    stamp: Stamp
    key: str
    attrs: dict | None  # None for deletes
    prev_tag: Stamp | None  # version the writer observed and replaced
    bins: tuple | None  # Binner.keys_for(attrs) at commit; None for deletes


class DcReplica:
    def __init__(self, name: str, binner):
        self.name = name
        self.binner = binner
        self.schema = binner.schema
        # each key's winning entry: its current version (see the module note)
        self.objects: dict[str, LogEntry] = {}
        # origin -> its applied entries past its base seq, in seq order
        self.log: dict[str, list[LogEntry]] = {name: []}
        # origin -> the seq of its last entry cut from the log; same keys
        self.base: dict[str, int] = {name: 0}
        self._cut_due = CUT_FLOOR  # log length at which a cut is due
        self._pending: dict[str, dict[int, LogEntry]] = {}
        self._subscribers: list[Callable[[LogEntry], None]] = []
        self._heads: VectorClock | None = None  # see heads; cleared by _apply

    @property
    def heads(self) -> VectorClock:
        """The applied heads, as one snapshot per replica state: every call
        until the next apply returns the same clock object. It is shared by
        everyone who asked, so no caller may mutate it; one that needs a
        clock to advance takes a copy."""
        heads = self._heads
        if heads is None:
            base = self.base
            heads = self._heads = VectorClock._of(
                {d: n for d, es in self.log.items()
                 if (n := base[d] + len(es))})
        return heads

    def subscribe(self, cb: Callable[[LogEntry], None]):
        self._subscribers.append(cb)

    def unsubscribe(self, cb: Callable[[LogEntry], None]):
        self._subscribers.remove(cb)

    # -- local writes --------------------------------------------------------

    def put(self, key: str, attrs: dict, tick: int) -> LogEntry:
        """Commit `attrs` as the new version of `key`. `attrs` must be a
        point of the schema (see the module note); the entry holds a copy,
        so it does not change with the caller's dict."""
        return self._commit_local(key, dict(attrs), tick)

    def delete(self, key: str, tick: int) -> LogEntry:
        return self._commit_local(key, None, tick)

    def _commit_local(self, key: str, attrs: dict | None, tick: int) -> LogEntry:
        seq = self.base[self.name] + len(self.log[self.name]) + 1
        cur = self.objects.get(key)
        bins = None if attrs is None else tuple(self.binner.keys_for(attrs))
        entry = LogEntry(
            origin_dc=self.name,
            seq=seq,
            stamp=Stamp(tick, self.name, seq),
            key=key,
            attrs=attrs,
            prev_tag=cur.stamp if cur else None,
            bins=bins,
        )
        self._apply(entry)
        return entry

    # -- replication ---------------------------------------------------------

    def apply_remote(self, entry: LogEntry) -> int:
        """Buffer and apply in per-origin seq order; idempotent on duplicates.
        Returns how many entries became applied."""
        origin = entry.origin_dc
        if origin == self.name:
            raise ValueError("replica received its own entry as remote")
        log = self.log.get(origin)
        if log is None:
            log = self.log[origin] = []
            self.base[origin] = 0
        applied_to = self.base[origin] + len(log)
        if entry.seq <= applied_to:
            return 0
        buf = self._pending.setdefault(origin, {})
        buf[entry.seq] = entry
        n = 0
        while applied_to + 1 in buf:
            self._apply(buf.pop(applied_to + 1))
            applied_to += 1
            n += 1
        return n

    def _apply(self, entry: LogEntry):
        self.log[entry.origin_dc].append(entry)
        self._heads = None
        cur = self.objects.get(entry.key)
        if cur is None or entry.stamp > cur.stamp:
            self.objects[entry.key] = entry
        for cb in self._subscribers:
            cb(entry)

    # -- reads -----------------------------------------------------------------

    def get(self, key: str) -> dict | None:
        cur = self.objects.get(key)
        return None if cur is None else cur.attrs

    def entries_after(self, clock: VectorClock):
        """Applied entries past `clock`, per origin in seq order, origins in
        name order. Raises ValueError where `clock` is below an origin's
        base: the entries past it are no longer all held."""
        for origin in sorted(self.log):
            start = clock.get(origin) - self.base[origin]
            if start < 0:
                raise ValueError(
                    f"{self.name}: {clock!r} is below the {origin} log's base "
                    f"seq {self.base[origin]}")
            yield from self.log[origin][start:]

    # -- truncation ----------------------------------------------------------

    def cut_due(self) -> bool:
        """Whether the log has grown to twice what the last cut kept, plus
        CUT_FLOOR, so a cut's work stays O(1) per entry, amortized."""
        return sum(map(len, self.log.values())) >= self._cut_due

    def cut(self, frontier: VectorClock) -> list[LogEntry]:
        """Drop each origin's entries at or below `frontier`, which the
        replica must have applied; returns those of its own origin, in seq
        order. Winners stay in `objects`."""
        own: list[LogEntry] = []
        for origin, seq in frontier.entries.items():
            log = self.log.get(origin, [])
            n = seq - self.base.get(origin, 0)
            if n > len(log):
                raise ValueError(f"{self.name}: cannot cut {origin} at {seq}, "
                                 f"past its applied heads")
            if n <= 0:
                continue
            if origin == self.name:
                own = log[:n]
            del log[:n]
            self.base[origin] = seq  # base + length, the heads, is unchanged
        self._cut_due = 2 * sum(map(len, self.log.values())) + CUT_FLOOR
        return own


class GeoStore:
    """The replica set wired into a simulation: local commits fan entries out
    to every peer datacenter as network messages, binned by the run's one
    binner, which every index leaf shares."""

    def __init__(self, sim, dcs: list[str], binner):
        self.sim = sim
        self.dcs = list(dcs)
        self.binner = binner
        self.schema = binner.schema
        self.replicas = {dc: DcReplica(dc, binner) for dc in dcs}
        # called with each batch of entries cut from their origin's own log
        self.on_cut: list[Callable[[list[LogEntry]], None]] = []
        for dc in dcs:
            sim.add_actor(self._actor(dc), dc, self._make_handler(dc))

    @staticmethod
    def _actor(dc: str) -> str:
        return f"store/{dc}"

    def _make_handler(self, dc: str):
        replica = self.replicas[dc]

        def handle(env):
            if env.kind != "replicate":
                raise ValueError(f"store got unexpected message {env.kind}")
            replica.apply_remote(env.payload)

        return handle

    def _fan_out(self, origin: str, entry: LogEntry):
        for dc in self.dcs:
            if dc != origin:
                self.sim.send(
                    self._actor(origin), self._actor(dc), "replicate", entry,
                    note=f"{entry.key}#{entry.origin_dc}:{entry.seq}")

    def truncate(self, frontier: VectorClock):
        """Cut every replica's log at `frontier`, which every replica must
        have applied, and hand what each origin cut from its own log to the
        `on_cut` listeners."""
        for r in self.replicas.values():
            own = r.cut(frontier)
            if own:
                for cb in self.on_cut:
                    cb(own)

    def put(self, dc: str, key: str, attrs: dict) -> LogEntry:
        entry = self.replicas[dc].put(key, attrs, self.sim.now)
        self._fan_out(dc, entry)
        return entry

    def delete(self, dc: str, key: str) -> LogEntry:
        entry = self.replicas[dc].delete(key, self.sim.now)
        self._fan_out(dc, entry)
        return entry
