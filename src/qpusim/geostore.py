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
"""

from dataclasses import dataclass
from typing import Callable, NamedTuple

from .regions import AttributeSchema
from .staleness import VectorClock


class SchemaError(Exception):
    pass


class Stamp(NamedTuple):
    ts: int
    dc: str
    seq: int


@dataclass(frozen=True)
class LogEntry:
    origin_dc: str
    seq: int
    stamp: Stamp
    key: str
    attrs: dict | None  # None for deletes
    prev_tag: Stamp | None  # version the writer observed and replaced


class DcReplica:
    def __init__(self, name: str, schema: dict[str, AttributeSchema]):
        self.name = name
        self.schema = schema
        self._names = set(schema)
        # each key's winning entry: its current version (see the module note)
        self.objects: dict[str, LogEntry] = {}
        self.log: dict[str, list[LogEntry]] = {name: []}
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
            heads = self._heads = VectorClock._of(
                {d: len(es) for d, es in self.log.items() if es})
        return heads

    def subscribe(self, cb: Callable[[LogEntry], None]):
        self._subscribers.append(cb)

    def unsubscribe(self, cb: Callable[[LogEntry], None]):
        self._subscribers.remove(cb)

    # -- local writes --------------------------------------------------------

    def _validate(self, attrs: dict):
        if attrs.keys() != self._names:
            raise SchemaError(
                f"attribute set {sorted(attrs)} does not match schema "
                f"{sorted(self.schema)}")
        for a, v in attrs.items():
            if not self.schema[a].validate(v):
                raise SchemaError(f"value {v!r} outside domain of {a}")

    def put(self, key: str, attrs: dict, tick: int) -> LogEntry:
        self._validate(attrs)
        return self._commit_local(key, dict(attrs), tick)

    def delete(self, key: str, tick: int) -> LogEntry:
        return self._commit_local(key, None, tick)

    def _commit_local(self, key: str, attrs: dict | None, tick: int) -> LogEntry:
        seq = len(self.log[self.name]) + 1
        cur = self.objects.get(key)
        entry = LogEntry(
            origin_dc=self.name,
            seq=seq,
            stamp=Stamp(tick, self.name, seq),
            key=key,
            attrs=attrs,
            prev_tag=cur.stamp if cur else None,
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
        applied_to = len(self.log.setdefault(origin, []))
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
        self.log.setdefault(entry.origin_dc, []).append(entry)
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
        name order."""
        for origin in sorted(self.log):
            yield from self.log[origin][clock.get(origin):]


class GeoStore:
    """The replica set wired into a simulation: local commits fan entries out
    to every peer datacenter as network messages."""

    def __init__(self, sim, dcs: list[str], schema: dict[str, AttributeSchema]):
        if len(set(dcs)) != len(dcs) or not dcs:
            raise ValueError("datacenter names must be non-empty and unique")
        self.sim = sim
        self.dcs = list(dcs)
        self.schema = schema
        self.replicas = {dc: DcReplica(dc, schema) for dc in dcs}
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

    def put(self, dc: str, key: str, attrs: dict) -> LogEntry:
        entry = self.replicas[dc].put(key, attrs, self.sim.now)
        self._fan_out(dc, entry)
        return entry

    def delete(self, dc: str, key: str) -> LogEntry:
        entry = self.replicas[dc].delete(key, self.sim.now)
        self._fan_out(dc, entry)
        return entry
