"""Vector clocks and the client-bounded staleness protocol.

Clocks are keyed by origin datacenter and count contiguously applied log
entries per origin. A query's staleness level resolves against the stable
clock (the replica heads the freshness nodes last reported to the root) and
the origin's heads into a target clock that every contributing index view
must cover.
"""

from dataclasses import dataclass
from enum import Enum


class Level(Enum):
    STRONG = "strong"
    BOUNDED = "bounded"
    SNAPSHOT = "snapshot"
    ANY = "any"


@dataclass(frozen=True)
class StalenessLevel:
    level: Level
    k: int = 0

    @classmethod
    def strong(cls):
        return cls(Level.STRONG)

    @classmethod
    def bounded(cls, k: int):
        return cls(Level.BOUNDED, k)

    @classmethod
    def snapshot(cls):
        return cls(Level.SNAPSHOT)

    @classmethod
    def any(cls):
        return cls(Level.ANY)

    def render(self) -> str:
        if self.level is Level.BOUNDED:
            return f"bounded:{self.k}"
        return self.level.value


class VectorClock:
    """Map of origin DC -> highest contiguous applied sequence (absent = 0).

    Invariant: `entries` holds no zero (or negative) component, so equal
    clocks have equal entries. The public constructor filters its input to
    keep it; `_of` skips the filter and is only for callers whose dict
    already has no such component, such as a merge or floor of clocks.
    """

    __slots__ = ("entries",)

    def __init__(self, entries: dict[str, int] | None = None):
        self.entries = {d: s for d, s in (entries or {}).items() if s > 0}

    @classmethod
    def _of(cls, entries: dict[str, int]) -> "VectorClock":
        """Wrap `entries`, which must hold no zero component, as is."""
        clock = object.__new__(cls)
        clock.entries = entries
        return clock

    def get(self, dc: str) -> int:
        return self.entries.get(dc, 0)

    def merge(self, other: "VectorClock") -> "VectorClock":
        out = dict(self.entries)
        for d, s in other.entries.items():
            if s > out.get(d, 0):
                out[d] = s
        return VectorClock._of(out)

    def dominates(self, other: "VectorClock") -> bool:
        get = self.entries.get
        for d, s in other.entries.items():
            if get(d, 0) < s:
                return False
        return True

    def floor(self, other: "VectorClock") -> "VectorClock":
        """Pointwise minimum (absent components count as 0). A component
        missing from either side floors to 0, so only this clock's
        components can survive."""
        oget = other.entries.get
        out = {}
        for d, s in self.entries.items():
            o = oget(d)
            if o is not None:
                out[d] = s if s < o else o
        return VectorClock._of(out)

    def lag_behind(self, heads: "VectorClock") -> dict[str, int]:
        return {d: heads.get(d) - self.get(d) for d in heads.entries}

    def copy(self) -> "VectorClock":
        return VectorClock._of(dict(self.entries))

    def __eq__(self, other):
        return isinstance(other, VectorClock) and self.entries == other.entries

    def __repr__(self):
        inner = ",".join(f"{d}:{s}" for d, s in sorted(self.entries.items()))
        return "{" + inner + "}"


def floor_all(clocks) -> VectorClock | None:
    """Pointwise minimum of the clocks (absent components count as 0): the
    prefix every clock in the set has applied. None when there are no
    clocks, so each caller picks its own answer for that case; a single
    clock comes back as is."""
    out = None
    for c in clocks:
        out = c if out is None else out.floor(c)
    return out


def resolve_target(level: StalenessLevel, stable: VectorClock,
                   heads: VectorClock) -> VectorClock:
    """Turn a staleness level into the clock results must cover, given the
    stable clock and the origin replica's heads. No reader mutates a target,
    so `strong` and `snapshot` ones are those shared snapshots themselves."""
    if level.level is Level.STRONG:
        return heads
    if level.level is Level.BOUNDED:
        return VectorClock(
            {d: max(s - level.k, 0) for d, s in heads.entries.items()}
        )
    if level.level is Level.SNAPSHOT:
        return stable
    return VectorClock()


class UnsatisfiableStaleness(Exception):
    """A target clock ahead of what the local replica has received, and so
    ahead of the history leaves that index it. No target is, so a leaf that
    meets one raises this and stops the run (see Qpu._serve_hist)."""

    def __init__(self, lagging_dcs: list[str]):
        self.lagging_dcs = sorted(lagging_dcs)
        super().__init__(f"target ahead of local replica for {self.lagging_dcs}")
