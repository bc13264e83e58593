"""Deterministic discrete-event kernel.

Time is an integer tick counter. Every message and timer lives in one heap
ordered by (deliver_at, insertion seq), so two runs with the same seed and
the same call sequence replay identically. Cross-datacenter sends get random
jitter and may be duplicated; sends inside one datacenter take a fixed delay
and therefore stay FIFO per sender. A run's scripted actions enter through
`feed`, which keeps one of them on the heap at a time.
"""

import csv
import heapq
import random
from dataclasses import dataclass, field
from typing import Any, Callable

from .regions import is_int, is_number


class LivelockError(Exception):
    """A run reached a bound before quiescence; `limit` names the bound,
    max_ticks or max_events."""

    def __init__(self, pending: int, now: int, limit: str):
        self.pending = pending
        self.now = now
        self.limit = limit
        super().__init__(f"no quiescence by tick {now} ({limit}), "
                         f"{pending} events pending")


@dataclass(slots=True)
class Envelope:
    src: str
    dst: str
    kind: str
    payload: Any
    sent_at: int = 0
    deliver_at: int = 0
    note: str = ""


@dataclass
class NetConfig:
    intra_dc_delay: int = 1
    inter_dc_delay: int = 5
    jitter: int = 4  # max extra cross-DC ticks, drawn uniformly
    dup_prob: float = 0.0

    def __post_init__(self):
        for name in ("intra_dc_delay", "inter_dc_delay", "jitter"):
            value = getattr(self, name)
            if not is_int(value) or value < 0:
                raise ValueError(f"{name} must be a whole number of ticks >= 0, "
                                 f"got {value!r}")
        p = self.dup_prob
        if not is_number(p) or not 0.0 <= p <= 1.0:
            raise ValueError(f"dup_prob must be a number in [0, 1], got {p!r}")


@dataclass
class _Partition:
    end: int
    held: list = field(default_factory=list)


class Simulation:
    def __init__(self, net: NetConfig | None = None, seed: int = 0, trace: bool = False):
        self.net = net or NetConfig()
        self.rng = random.Random(seed)
        self.now = 0
        self._heap: list[tuple[int, int, Any]] = []
        self._seq = 0
        self._actors: dict[str, Callable[[Envelope], None]] = {}
        self.dc_of: dict[str, str] = {}
        self._partitions: dict[tuple[str, str], _Partition] = {}
        self.trace_rows: list[tuple] | None = [] if trace else None
        self.delivered = 0

    # -- wiring ------------------------------------------------------------

    def add_actor(self, name: str, dc: str, handler: Callable[[Envelope], None]):
        if name in self._actors:
            raise ValueError(f"duplicate actor {name}")
        self._actors[name] = handler
        self.dc_of[name] = dc

    # -- scheduling --------------------------------------------------------

    def _push(self, tick: int, item):
        if tick < self.now:
            raise ValueError("cannot schedule in the past")
        heapq.heappush(self._heap, (tick, self._seq, item))
        self._seq += 1

    def at(self, tick: int, fn: Callable[[], None]):
        self._push(tick, fn)

    def after(self, delay: int, fn: Callable[[], None]):
        self._push(self.now + delay, fn)

    def feed(self, n: int, tick_of: Callable[[int], int],
             run: Callable[[int], None]):
        """Call `run(i)` at tick `tick_of(i)` for each i below `n`; the ticks
        must not decrease with i. Events pop exactly as if `run(i)` had been
        scheduled with `at` now, for each i in order: i keeps the insertion
        seq that call would have taken, and the counter moves past all of
        them. The heap holds only the next i's event, so it does not grow
        with `n`."""
        if not n:
            return
        base = self._seq
        heap = self._heap
        i = 0

        def next_item():
            nonlocal i
            cur = i
            i += 1
            if i < n:
                heapq.heappush(heap, (tick_of(i), base + i, next_item))
            run(cur)

        self._push(tick_of(0), next_item)  # at seq base
        self._seq = base + n

    def send(self, src: str, dst: str, kind: str, payload, note: str = ""):
        if dst not in self._actors:
            raise ValueError(f"unknown actor {dst!r}")
        env = Envelope(src, dst, kind, payload, self.now, 0, note)
        a, b = self.dc_of[src], self.dc_of[dst]
        if a == b:  # a fixed delay, never negative, so no check of the tick
            tick = env.deliver_at = self.now + self.net.intra_dc_delay
            heapq.heappush(self._heap, (tick, self._seq, env))
            self._seq += 1
            return
        if self._partitions:
            part = self._partitions.get(self._pair(a, b))
            if part is not None:
                part.held.append(env)
                return
        self._dispatch(env)

    @staticmethod
    def _pair(a: str, b: str):
        # partitions key cross-DC pairs in name order
        return (a, b) if a < b else (b, a)

    def _dispatch(self, env: Envelope):
        """Send a cross-DC message: a jittered delay, maybe a duplicate. A
        delay's jitter is drawn as `randint(0, jitter)` draws it, by
        rejection from k random bits, without its Python frames."""
        net, rng, now = self.net, self.rng, self.now
        bits, n = rng.getrandbits, net.jitter + 1
        k = n.bit_length()
        while (extra := bits(k)) >= n:
            pass
        env.deliver_at = now + net.inter_dc_delay + extra
        if net.dup_prob > 0 and rng.random() < net.dup_prob:
            while (extra := bits(k)) >= n:
                pass
            dup = Envelope(env.src, env.dst, env.kind, env.payload, env.sent_at,
                           now + net.inter_dc_delay + extra, env.note)
            self._push(dup.deliver_at, dup)
        self._push(env.deliver_at, env)

    # -- partitions ----------------------------------------------------------

    def open_partition(self, dc_a: str, dc_b: str, end: int):
        """Hold every message sent between the pair from now until `end`;
        the backlog is released, with fresh network delays, at `end`. The
        DCs differ, `end` is past now, and the pair's windows do not
        overlap, as `parse_scenario` checks of a partition action."""
        pair = self._pair(dc_a, dc_b)
        old = self._partitions.get(pair)
        if old is not None:
            # a window ending where this one starts, whose close event has
            # not fired yet this tick
            self._close_partition(pair, old)
        part = self._partitions[pair] = _Partition(end)
        self.at(end, lambda: self._close_partition(pair, part))

    def _close_partition(self, pair, part: _Partition):
        if self._partitions.get(pair) is not part:
            return  # closed early, when a touching window opened
        del self._partitions[pair]
        for env in part.held:
            self._dispatch(env)

    # -- execution -----------------------------------------------------------

    def step(self) -> bool:
        if not self._heap:
            return False
        tick, _, item = heapq.heappop(self._heap)
        self.now = tick
        if type(item) is Envelope:
            self.delivered += 1
            if self.trace_rows is not None:
                self.trace_rows.append(
                    (tick, item.src, item.dst, item.kind, item.note))
            self._actors[item.dst](item)
        else:
            item()
        return True

    def run_until_quiescent(self, max_ticks: int = 1_000_000,
                            max_events: int = 5_000_000) -> int:
        """Drain the queue; open partition windows keep it non-empty until
        their release event fires, so quiescence implies full delivery."""
        heap, step = self._heap, self.step
        events = 0
        while heap:
            if heap[0][0] > max_ticks:
                raise LivelockError(len(heap), self.now, "max_ticks")
            if events >= max_events:
                raise LivelockError(len(heap), self.now, "max_events")
            step()
            events += 1
        return self.now

    def pending(self) -> int:
        return len(self._heap)

    # -- trace -----------------------------------------------------------------

    def dump_trace(self, path: str):
        if self.trace_rows is None:
            raise ValueError("simulation was built without trace=True")
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["tick", "src", "dst", "kind", "detail"])
            w.writerows(self.trace_rows)
