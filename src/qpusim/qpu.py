"""Query processing tree over the replicated store.

One tree serves all datacenters: a dispatch root at the home DC fans out to a
freshness node per DC, and each freshness node owns a value-partitioned
subtree of history leaves. History leaves keep converging inverted indexes
and answer every query from them.

Ingest note: a history leaf indexes every origin, each through one gapless
cursor, the origin's component of the index clock, with one rule: the entry
at clock+1 applies, and any other is dropped. A replica feeds the tree
through its freshness node alone, which routes each entry, synchronously
as the replica applies it, to the leaves it changes: the one whose region
holds the new point, found by descending the value nodes' cuts, and the
one that posts the tag it supersedes. The leaves at their replica's heads,
in log mode all of them, share the DC's one cursor, a clock with its held
removes, which the router moves once per entry. In delta mode the
same-region peer abroad sends a leaf its own DC's entries early. One that
applies moves the leaf onto a copy of the cursor, and the leaf is offered
every entry until the copy equals the shared cursor again. A split's
halves and a merged leaf start on the shared cursor when at it. A peer
sends only the entries that change the receiver's postings: an add in the
region, or the remove of a tag it posts itself. Both read only the axes
the region cuts, since the store keeps every value in its attribute's
domain, so they agree on whether a point lies inside. An entry past a seq
the peer skipped is dropped: the replica applies every entry in seq order,
so the router brings the leaf past both. A leaf's clock therefore never
falls behind its replica's heads, and no mode switch or rewire leaves a
gap to replay. So a leaf already covers any target its replica can: the
paper's live leaf, which scans the log tail past the indexed prefix, would
find nothing there.

Caching note: the root keeps the one result cache, whose entries are
frozen at insertion: the keys are the join's candidates at the entry's
coverage clock, and neither changes afterwards. A hit serves only targets at
or below that clock and claims that clock as its coverage. Any freshness beyond a
response's claimed coverage is recovered by the coordinator, which rescans
its origin log past the claim and candidate-checks every key, so later
writes never need to reach the cache. No other node caches: a repeat is
answered where its whole plan is known, so the stages below the root forward
every probe, and a history leaf answers from its index as it stands.
Responses carry trace spans, not text (see QueryResult): a leaf keeps one
span per index state, and a root entry one, built on its first hit.

Gossip note: the root's snapshot clock is the one reader of coverage
gossip, and the gossip takes one hop. Since every leaf's clock is at or
above its replica's heads (see the ingest note), a freshness node can speak
for its whole subtree: it reports its replica's heads to the root. The
first new entry its replica applies arms a report timer of `gossip_every`
ticks. Leaves and value nodes send no gossip. A report is also when the
root cuts the store's logs, once they are due, at the frontier no reader
still needs (see QpuNetwork._frontier).
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from functools import partial

from .crdt_index import CrdtIndex, advance_cursor
from .geostore import GeoStore, LogEntry
from .regions import Region, greedy_cover, is_int
from .router import (
    Query,
    QueryResult,
    candidate_check,
    compile_expr,
    eval_expr,
    to_rectangles,
)
from .simcore import Envelope, Simulation
from .staleness import (
    UnsatisfiableStaleness,
    VectorClock,
    floor_all,
    resolve_target,
)

LOG = "log"
DELTA = "delta"

# the columns of metrics.csv, one row per completed query
METRICS_COLUMNS = (
    "tick", "query_id", "staleness", "qpus_visited", "cache_hits",
    "candidate_checked", "false_positives_removed", "result_size", "lag_per_dc",
)


class SplitRefused(Exception):
    pass


class MergeRefused(Exception):
    pass


def _require_positive_int(name: str, value):
    if not is_int(value) or value < 1:
        raise ValueError(f"{name} must be a positive integer, got {value!r}")


@dataclass(frozen=True)
class SelectivityConfig:
    """Sliding relevance window with two thresholds so mode choice has
    hysteresis: a leaf flips only after the ratio of a full window, ones /
    window, crosses the far threshold. A window is at most sys.maxsize
    writes, more than any run makes."""

    window: int = 1000
    theta_low: float = 0.05
    theta_high: float = 0.15

    def __post_init__(self):
        _require_positive_int("window", self.window)
        if self.window > sys.maxsize:
            raise ValueError(f"window must be at most {sys.maxsize}, "
                             f"got {self.window}")
        if not 0.0 < self.theta_low < self.theta_high < 1.0:
            raise ValueError("need 0 < theta_low < theta_high < 1")


class SelectivityWindow:
    """The relevance (1 = the write lay in the leaf's region) of a leaf's
    last `size` ingested writes, named by their positions in a count of
    puts, so a leaf outside a write's region needs no offer of it: bit
    p - base of `bits` marks put p relevant. The window holds the puts past
    `start`, and `due` is the put at which the router next checks a shared
    leaf's mode, at least once a window, so `bits` spans at most two."""

    __slots__ = ("size", "theta_low", "theta_high", "start", "base", "bits",
                 "due")

    def __init__(self, cfg: SelectivityConfig):
        self.size = cfg.window
        self.theta_low = cfg.theta_low
        self.theta_high = cfg.theta_high
        self.clear(0)

    def clear(self, p: int):
        """Empty the window after put p; it must fill before a flip."""
        self.start, self.base, self.bits, self.due = p, p + 1, 0, p + self.size

    def slide(self, p: int) -> int:
        """The relevant writes in the window at put p, dropping older ones."""
        off = p - self.size + 1 - self.base
        if off > 0:
            self.bits >>= off
            self.base += off
        return self.bits.bit_count()

    def next_flip(self, p: int, log: bool) -> int:
        """The first put after p at which the mode can flip: the count of
        ones moves by at most one a put, so a full window's ratio first
        falls below theta_low, or passes theta_high, that many puts on."""
        size = self.size
        if p - self.start < size:
            return self.start + size
        ones = self.slide(p)
        gap = (ones - int(self.theta_low * size) - 1 if log
               else int(self.theta_high * size) - 1 - ones)
        return p + max(gap, 1)


@dataclass
class TreeConfig:
    root_dc: str
    repl_mode: str = LOG  # log | delta | adaptive
    gossip_every: int = 10
    cache_capacity: int = 256
    selectivity: SelectivityConfig = field(default_factory=SelectivityConfig)
    history_tree: object = "leaf"

    def __post_init__(self):
        if self.repl_mode not in (LOG, DELTA, "adaptive"):
            raise ValueError(f"unknown replication mode {self.repl_mode!r}")
        _require_positive_int("gossip_every", self.gossip_every)
        _require_positive_int("cache_capacity", self.cache_capacity)


class Plan:
    """One query expression's plan for the run (see QpuNetwork._plan_of):
    its rectangles, and their keys, which are its root cache key. From the
    plan's second use on, `covers` memoizes each dispatch node's cover of
    its pieces (actor -> (rects, cover), see Qpu._plan_value) and `pred`
    holds the expression compiled into a predicate. A first-use plan keeps
    both None: most expressions of a write-heavy run are used once, and
    would only pay for them. `answer` is the key set of the plan's last
    result, which the next result reuses when its keys are the same (see
    Coordinator._complete)."""

    __slots__ = ("expr", "rects", "key", "covers", "pred", "answer")

    def __init__(self, expr, rects: tuple):
        self.expr = expr
        self.rects = rects
        self.key = tuple(r.key() for r in rects)
        self.covers: dict | None = None
        self.pred = None
        self.answer: frozenset | None = None


@dataclass
class Probe:
    qid: str
    rects: tuple  # Region pieces to answer, all inside the receiver's region
    plan: Plan  # the query's, carried to every hop
    origin_dc: str
    reply_to: str
    level: object = None  # StalenessLevel, set on the root probe only
    origin_heads: VectorClock | None = None  # ditto
    target: VectorClock | None = None  # resolved at the root
    join: _Join | None = None  # the sender's, echoed by the response
    # set on first delivery. Each Probe is sent once, and a duplicated
    # envelope carries the same object, so a set flag marks a network copy
    delivered: bool = False

    def child(self, reply_to: str, rects: tuple, target: VectorClock,
              join: _Join | None = None) -> "Probe":
        """The probe a dispatch stage sends one child, built directly rather
        than with dataclasses.replace, which the read path calls per hop."""
        return Probe(self.qid, rects, self.plan, self.origin_dc, reply_to,
                     target=target, join=join)


@dataclass
class Resp:
    qid: str
    keys: tuple  # distinct candidate keys, checked by the coordinator
    clock: VectorClock  # claimed coverage
    # the join of the clocks the leaves served at; the coordinator waits
    # for its replica to hold it (see Coordinator)
    ceiling: VectorClock
    visited: frozenset
    cache_hits: int
    span: object  # the responder's trace span (see QueryResult)
    target: VectorClock | None = None  # echoed by the root
    join: _Join | None = None  # the probe's, so the receiver needs no table


# -- result cache ----------------------------------------------------------------


@dataclass
class CacheEntry:
    keys: tuple  # the joined response's candidate keys, shared with it
    clock: VectorClock  # coverage at insertion; never advanced
    ceiling: VectorClock  # the response's ceiling at insertion
    # the root's span for a hit, built on the first hit and shared by every
    # later one: it holds only the root, its kind and the frozen clock
    hit_span: tuple | None = None


class ResultCache:
    """LRU of frozen joined results keyed exactly by a plan's key, its
    rectangles' keys.

    A probe hits when an entry has its exact key and the entry clock
    dominates the target. Entries are never updated after insertion (see
    the module note). An exact key is enough because at the root the
    rectangles are the query's whole plan.
    """

    def __init__(self, capacity: int = 256):
        self.capacity = capacity
        self.entries: dict[tuple, CacheEntry] = {}  # oldest use first
        self.hits = 0
        self.misses = 0

    def probe(self, k: tuple, target: VectorClock) -> CacheEntry | None:
        e = self.entries.get(k)
        if e is None or not e.clock.dominates(target):
            self.misses += 1
            return None
        self.entries[k] = self.entries.pop(k)
        self.hits += 1
        return e

    def insert(self, k: tuple, keys: tuple, clock: VectorClock,
               ceiling: VectorClock):
        self.entries.pop(k, None)
        self.entries[k] = CacheEntry(keys, clock, ceiling)
        if len(self.entries) > self.capacity:
            del self.entries[next(iter(self.entries))]


# -- join bookkeeping --------------------------------------------------------------


@dataclass
class _Join:
    """A dispatch's wait: each child actor, in dispatch order, to its
    response (None until it arrives), and the actors still `expected`, which
    also drops a duplicate after `_finalize` releases the responses."""

    probe: Probe
    resps: dict
    expected: set


class Qpu:
    """One tree node: a dispatch stage (dc, freshness, value) or a history
    leaf (hist). Split leaves morph into value nodes in place, so parents
    never have to re-learn addresses; merged leaves morph into value nodes
    over the leaf that replaces them."""

    def __init__(self, net: "QpuNetwork", actor, kind, dc, region, parent=None):
        self.net = net
        self.sim = net.sim
        self.actor = actor
        self.kind = kind
        self.dc = dc
        self.region = region  # fixed for the node's life
        # the (attr, interval) pairs where the region is narrower than the
        # domain: the store keeps every value in its domain, so a point lies
        # in the region when it lies in these
        self.cut_axes = tuple(
            (a, iv) for a, iv in region.ivs.items()
            if iv != net.schema[a].domain())
        self._region_text = region.render()
        self.parent = parent
        self.children: list[Qpu] = []
        # a value node's (attr, at): a point below `at` goes to children[0]
        self.cut: tuple | None = None
        # the root's: freshness actor -> the replica heads it last reported
        self.child_clocks: dict[str, VectorClock] = {}
        self._stable_clock: VectorClock | None = None  # see _stable
        self.cache = ResultCache(net.cfg.cache_capacity) if kind == "dc" else None
        # history-leaf state; unused elsewhere
        self.index = CrdtIndex(net.schema, net.binner) if kind == "hist" else None
        self._served: tuple | None = None  # the leaf's span; see _serve_hist
        self.repl_mode = DELTA if net.cfg.repl_mode == DELTA else LOG
        self.adaptive = net.cfg.repl_mode == "adaptive"
        self.window = SelectivityWindow(net.cfg.selectivity)
        # peers fed my local-origin entries; see QpuNetwork._rewire_peers
        self.subscribers: set[str] = set()
        self.switch_log: list[tuple] = []
        self._gossip_armed = False  # a freshness node's report timer
        # a leaf's feed order, its DC's freshness node, and its own put
        # count while off the shared cursor (see the ingest note)
        self.order = len(net.nodes)
        self.router: Qpu | None = None
        self.own_puts: int | None = None
        if kind == "freshness":  # the router's: see the ingest note
            self.leaves: list[Qpu] = []  # in feed order
            self.private: list[Qpu] = []  # those off the shared cursor
            self.clock, self.removed = VectorClock(), set()  # that cursor
            self.puts = 0
            self._next = sys.maxsize  # the first put a shared leaf's check is due

    def __repr__(self):
        return f"<Qpu {self.actor} {self.kind}>"

    @property
    def replica(self):
        return self.net.store.replicas[self.dc]

    # -- message entry point ----------------------------------------------------

    def handle(self, env: Envelope):
        k = env.kind
        if k in ("query.route", "query.dc", "query.freshness", "query.value"):
            self.on_probe(env.payload)
        elif k == "query.resp":
            self.on_resp(env.src, env.payload)
        elif k == "clock.gossip":
            self.on_gossip(env.src, env.payload)
        elif k == "index.delta":
            self.on_peer_delta(env.payload)
        else:
            raise ValueError(f"{self.actor}: unexpected message kind {k}")

    # -- probe handling ------------------------------------------------------------

    def on_probe(self, probe: Probe):
        if probe.delivered:  # duplicated cross-DC delivery
            return
        probe.delivered = True
        if probe.target is None:  # root entry: pin the freshness contract
            probe = probe.child(probe.reply_to, probe.rects, resolve_target(
                probe.level, self._stable(), probe.origin_heads))
            e = self.cache.probe(probe.plan.key, probe.target)
            if e is not None:
                # the entry may be evicted while the hit's response is in
                # flight, so its claim holds the log frontier down until the
                # query completes (see QpuNetwork._frontier)
                info = self.net.coordinators[probe.origin_dc].pending.get(
                    probe.qid)
                if info is not None:
                    info.hit = e.clock
                if self.net.check_hit is not None:
                    self.net.check_hit(self.actor, probe.origin_dc, probe.rects,
                                       probe.plan.key, e.keys, e.clock)
                if e.hit_span is None:
                    e.hit_span = (self, self.kind, "cache-hit", e.clock, None, ())
                self._respond(probe, e.keys, e.clock, e.ceiling, e.hit_span,
                              cache_hits=1)
                return
        if self.kind == "hist":
            self._serve_hist(probe)
            return
        self._dispatch(probe)

    def _dispatch(self, probe: Probe):
        """Send each planned child its pieces. Each child probe carries this
        dispatch's join, so two probes of one query, which a reshape can send
        one node, never share or overwrite a join."""
        plan = self._plan_dc(probe) if self.kind == "dc" else self._plan_value(probe)
        resps = dict.fromkeys(c.actor for c, _ in plan)
        join = _Join(probe, resps, set(resps))
        stage = {"dc": "query.dc", "freshness": "query.freshness", "value": "query.value"}
        for child, rects in plan:
            self.sim.send(self.actor, child.actor, stage[self.kind],
                          probe.child(self.actor, rects, probe.target, join),
                          note=probe.qid)

    def _plan_dc(self, probe: Probe) -> list:
        """The root forwards the whole plan to the origin DC's freshness
        node: every replica indexes every origin, and the origin's replica
        holds the origin heads the target came from. A coordinator exists
        only for a store DC, and each has a freshness child."""
        child = next(c for c in self.children if c.dc == probe.origin_dc)
        return [(child, probe.rects)]

    def _plan_value(self, probe: Probe) -> list:
        """Cover the probe's pieces with the children's regions: the plan of
        a freshness node over its history subtree and of a value node over
        its halves. A reused query plan memoizes the cover per node; an
        entry serves only the very rects it was computed for, which a
        memoized cover upstream hands down again on each repeat."""
        covers = probe.plan.covers
        memo = covers.get(self.actor) if covers is not None else None
        if memo is not None and memo[0] is probe.rects:
            cover = memo[1]
        else:
            cover = self._cover(probe.rects)
            if covers is not None:
                covers[self.actor] = (probe.rects, cover)
        return cover

    def _cover(self, rects: tuple) -> list:
        """(child, pieces) per assigned child. A dispatch node's children
        are one cut of its region, a single child over all of it or the two
        sides of one axis cut, low side first: _build_history, force_split
        and merge_siblings each keep that shape. So they tile the region
        without overlap, and a probe's pieces, which lie inside the region,
        are wholly covered by their intersections with the children."""
        return [(child, tuple(pieces)) for child, pieces in greedy_cover(
            rects, [(c, c.region) for c in self.children], self.net.schema)]

    # -- responses ------------------------------------------------------------------

    def on_resp(self, src: str, resp: Resp):
        join = resp.join
        if src not in join.expected:  # a duplicated delivery
            return
        join.expected.discard(src)
        join.resps[src] = resp
        if not join.expected:
            self._finalize(join)

    def _finalize(self, join: _Join):
        """Fold the children's responses, in dispatch order, into one, and
        release them: each points back at the join, a cycle otherwise. A
        probe's pieces are never empty, so a join always has a child."""
        resps = list(join.resps.values())
        join.resps.clear()
        keys, ceiling = resps[0].keys, resps[0].ceiling  # one child's, shared
        if len(resps) > 1:
            keys = tuple({k for r in resps for k in r.keys})
        for r in resps[1:]:  # a new clock only where neither side dominates
            c = r.ceiling
            if not ceiling.dominates(c):
                ceiling = c if c.dominates(ceiling) else ceiling.merge(c)
        coverage = self._joined_clock(resps)
        visited = {self.actor}.union(*(r.visited for r in resps))
        probe = join.probe
        span = (self, self.kind, "forward", coverage,
                probe.target if self is self.net.root else None,
                tuple(r.span for r in resps))
        if self.cache is not None:
            self.cache.insert(probe.plan.key, keys, coverage, ceiling)
        self._respond(probe, keys, coverage, ceiling, span, visited=visited)

    def _joined_clock(self, resps: list) -> VectorClock:
        """Coverage of the union result: children answer over the same
        origins independently, so it is their floor."""
        return floor_all([r.clock for r in resps])

    def trace_line(self, kind: str, decision: str, clock, target) -> str:
        """A span's line; `kind` is as it served: a reshape changes it."""
        s = (f"{self.actor} [{kind}] region=({self._region_text})"
             f" decision={decision}")
        if target is not None:
            s += f" target={target!r}"
        return s + f" clock={clock!r}"

    def _respond(self, probe: Probe, keys, clock, ceiling, span, cache_hits=0,
                 visited=None):
        resp = Resp(
            qid=probe.qid,
            keys=keys,
            clock=clock,
            ceiling=ceiling,
            visited=frozenset(visited or {self.actor}),
            cache_hits=cache_hits,
            span=span,
            target=probe.target if self.actor == self.net.root.actor else None,
            join=probe.join,
        )
        self.sim.send(self.actor, probe.reply_to, "query.resp", resp, note=probe.qid)

    # -- leaf serving ------------------------------------------------------------

    def _serve_hist(self, probe: Probe):
        # the index is at its replica's heads (see the ingest note), and no
        # target is past them: strong and bounded targets come from the
        # origin's heads and are served at the origin DC, and snapshot ones
        # from the heads each DC reported
        clock = self.index.clock
        if not clock.dominates(probe.target):
            raise UnsatisfiableStaleness(
                [d for d, s in probe.target.entries.items() if clock.get(d) < s])
        # ingest advances the index clock in place, so responses share one
        # span per index state, with the replica's heads snapshot as its
        # clock when the index is at them, as always in log mode
        span = self._served
        if span is None or span[3] != clock:
            heads = self.replica.heads
            span = self._served = (
                self, self.kind, "leaf-serve",
                heads if heads == clock else clock.copy(), None, ())
        self._respond(probe, self._lookup(probe.rects), span[3], span[3], span)

    def _lookup(self, rects) -> tuple:
        keys = set()
        for rect in rects:
            keys |= self.index.lookup(rect)
        return tuple(keys)

    # -- ingest ---------------------------------------------------------------------

    def on_peer_delta(self, entry: LogEntry):
        if self.kind != "hist":  # a split or merge may have overtaken it
            return
        index, router = self.index, self.router
        if self.own_puts is None and entry.seq == (
                index.clock.entries.get(entry.origin_dc, 0) + 1):
            # it applies, ahead of the replica: onto a copy of the cursor
            index.clock, index.removed = router.clock.copy(), set(router.removed)
            self.own_puts = router.puts
            router.private.append(self)
        self._on_feed(entry)

    def _on_feed(self, entry: LogEntry, inside: bool | None = None):
        """Offer the entry to its origin's cursor (see the ingest note): it
        applies when it is the origin's next entry, at clock+1, and is
        dropped otherwise. The router calls this synchronously as the
        replica applies an entry, telling the leaf where the point lies, and
        on_peer_delta as a peer's entry arrives. A leaf moves only a cursor
        of its own: the router moves the shared one."""
        index = self.index
        origin = entry.origin_dc
        if entry.seq != index.clock.entries.get(origin, 0) + 1:
            return
        attrs = entry.attrs
        if inside is None:  # only the cut axes can put a point outside
            inside = attrs is not None
            if inside:
                for a, iv in self.cut_axes:
                    if not iv.contains(attrs[a]):
                        inside = False
                        break
        # a same-region peer is sent a local write that changes its
        # postings: an add, or the remove of a tag posted here, checked
        # before the apply culls it. A tag missing here lay outside the
        # region, or was removed by an entry that reaches the peer too
        prev = entry.prev_tag
        send = self.subscribers and origin == self.dc and (
            inside or (prev in index.tag_info and entry.stamp > prev))
        own = self.own_puts
        index.apply_delta(entry, inside, own is not None)
        if send:
            sim = self.sim
            # only the message trace reads a note
            note = "" if sim.trace_rows is None else f"{origin}:{entry.seq}"
            for peer in sorted(self.subscribers):
                sim.send(self.actor, peer, "index.delta", entry, note=note)
        # selectivity tracks writes, not deletes, so only a write can flip
        # the mode; off the shared cursor a leaf counts its own
        if attrs is not None and own is not None:
            own = self.own_puts = own + 1
            if self.adaptive:
                if inside:
                    window = self.window
                    window.bits |= 1 << (own - window.base)
                self._maybe_switch(own)

    # -- replication mode ----------------------------------------------------------

    def _maybe_switch(self, p: int):
        """Flip the mode once the window is full at put p and its ratio
        crosses the far threshold: below theta_low in log mode, above
        theta_high in delta mode."""
        window = self.window
        size = window.size
        if p - window.start < size:
            return
        ratio = window.slide(p) / size
        if self.repl_mode == LOG:
            if ratio < window.theta_low:
                self._switch(DELTA, ratio)
        elif ratio > window.theta_high:
            self._switch(LOG, ratio)

    def _switch(self, to: str, ratio: float):
        self.switch_log.append((self.sim.now, self.repl_mode, to, round(ratio, 4)))
        self.repl_mode = to
        # a fresh window must fill before the next flip can happen
        router, own = self.router, self.own_puts
        self.window.clear(router.puts if own is None else own)
        if own is None:  # when the router checks it next
            router._next = min(router._next, self.window.due)
        self.net._rewire_peers()

    # -- routing (a freshness node's; see the ingest note) ---------------------------

    def _on_replica(self, entry: LogEntry):
        """The replica's first subscriber: the first new entry arms a report,
        and the entry goes to the leaves it changes (see the ingest note)."""
        if not self._gossip_armed:
            self._gossip_armed = True
            self.sim.after(self.net.cfg.gossip_every, self._report_heads)
        attrs = entry.attrs
        home = None
        if attrs is not None:
            home = self.children[0]
            while home.kind != "hist":
                cut = home.cut
                home = home.children[attrs[cut[0]] >= cut[1] if cut else 0]
        culler = None  # the leaf that posts the tag the entry supersedes
        prev = entry.prev_tag
        if prev is not None and entry.stamp > prev:
            if home is not None and prev in home.index.tag_info:
                culler = home
            else:
                for leaf in self.leaves:
                    if prev in leaf.index.tag_info:
                        culler = leaf
                        break
        removed = self.removed
        # a remove held for the add leaves the home leaf as it is. The two
        # visit in feed order, since each may send its peers the entry
        held = removed and (entry.origin_dc, entry.seq) in removed
        first = None if held else home
        second = None if culler is first else culler
        if first is None or (second is not None and second.order < first.order):
            first, second = second, first
        if first is not None:
            first._on_feed(entry, first is home)
            if second is not None:
                second._on_feed(entry, second is home)
        advance_cursor(self.clock, removed, entry)
        private = self.private
        for leaf in private:  # each leaf off the cursor is offered every entry
            if leaf is not first and leaf is not second:
                leaf._on_feed(entry, leaf is home)
        if attrs is not None and self.adaptive:
            p = self.puts = self.puts + 1
            if home.own_puts is None:
                window = home.window
                window.bits |= 1 << (p - window.base)
            if p >= self._next:
                self._check_modes(p)
        if private:
            for leaf in private[:]:
                self._rejoin(leaf)

    def _check_modes(self, p: int):
        """Check the mode of each shared leaf whose check is due at put p,
        and find when the next one is."""
        self._next = sys.maxsize
        for leaf in self.leaves:
            if leaf.own_puts is None:
                window = leaf.window
                if window.due <= p:
                    leaf._maybe_switch(p)
                    window.due = window.next_flip(p, leaf.repl_mode == LOG)
                self._next = min(self._next, window.due)

    def _seat(self, leaf: "Qpu", own: int | None = None):
        """Take a new leaf of this DC, its window empty, onto the shared
        cursor if its index is at it, else with `own` as its put count."""
        leaf.router = self
        self.leaves.append(leaf)
        leaf.own_puts = self.puts if own is None else own
        leaf.window.clear(leaf.own_puts)
        self.private.append(leaf)
        self._rejoin(leaf)

    def _unseat(self, leaf: "Qpu"):
        self.leaves.remove(leaf)
        if leaf.own_puts is not None:
            self.private.remove(leaf)

    def _rejoin(self, leaf: "Qpu"):
        """Move a leaf whose cursor equals the shared one back onto it, its
        window's positions moved from its put count to the DC's."""
        index, window = leaf.index, leaf.window
        if (index.clock.entries == self.clock.entries
                and index.removed == self.removed):
            index.clock, index.removed = self.clock, self.removed
            shift = self.puts - leaf.own_puts
            window.start, window.base = window.start + shift, window.base + shift
            window.due = window.next_flip(self.puts, leaf.repl_mode == LOG)
            self._next = min(self._next, window.due)
            leaf.own_puts = None
            self.private.remove(leaf)

    # -- gossip (see the module note) ---------------------------------------------

    def _report_heads(self):
        # the timer was armed by a new entry, so the heads moved
        self._gossip_armed = False
        self.sim.send(self.actor, self.parent, "clock.gossip", self.replica.heads)

    def on_gossip(self, src: str, clock: VectorClock):
        cur = self.child_clocks.get(src, VectorClock())
        self.child_clocks[src] = cur.merge(clock)  # duplicates cannot regress
        self._stable_clock = None
        # every replica applies every entry, so the root's own log stands
        # for all of them
        if self.replica.cut_due():
            self.net.store.truncate(self.net._frontier())

    def _stable(self) -> VectorClock:
        """The root's snapshot clock: what the freshness nodes last reported
        their replicas hold, floored as their answers are. The root has a
        freshness child per DC, and a store has at least one DC. It changes
        only with a report, so it is floored on the first probe after one
        and shared, unmutated, until the next."""
        stable = self._stable_clock
        if stable is None:
            stable = self._stable_clock = floor_all(
                [self.child_clocks.get(c.actor, VectorClock())
                 for c in self.children])
        return stable


# -- coordinators -------------------------------------------------------------------


@dataclass
class _Pending:
    query: Query
    cb: object
    plan: Plan
    submitted: int
    # no claim the query can get is below the floor of these: a miss claims
    # at least its origin heads at submit, and a hit claims its entry's clock
    heads: VectorClock
    hit: VectorClock | None = None


class Coordinator:
    """Per-DC entry point. Snapshots origin heads at submit, routes through
    the tree, then squares the response with the origin replica: a rescan of
    the log past the claimed coverage picks up anything newer, and a candidate
    check against current state drops every false positive.

    The rescan is complete only once the replica holds the response's
    ceiling. Leaves serve one after another, so a key can move between two
    of them mid-query: the later leaf has culled it, the earlier had not yet
    posted it, and only the write that moved it, which lies at or below the
    later leaf's clock, brings it back. A response whose ceiling the replica
    does not cover yet is parked, and re-checked as the replica applies.

    A plan depends only on the expression and the schema, so the network
    keeps one `Plan` record per expression for the run (see
    QpuNetwork._plan_of). It holds the query's rectangles and the root cache
    key, both built once, and the probe carries it to every hop. Equal
    expressions share one plan even where their literals differ in repr, as
    `1` and `1.0` or `0.0` and `-0.0` do: they select the same objects and
    plan equal rectangles. On its second use a plan starts to memoize each
    dispatch node's cover, and compiles its expression into the predicate
    the candidate check applies; a first-use plan has neither, so the check
    interprets the expression with eval_expr, as the oracle always does."""

    def __init__(self, net: "QpuNetwork", dc: str):
        self.net = net
        self.dc = dc
        self.actor = f"coord/{dc}"
        self.pending: dict[str, _Pending] = {}
        self.parked: list[tuple[_Pending, Resp]] = []  # in arrival order
        net.sim.add_actor(self.actor, dc, self.handle)
        self.replica.subscribe(self._on_feed)

    def submit(self, q: Query, cb):
        net = self.net
        qid = net._next_qid()
        plan = net._plan_of(q)
        heads = self.replica.heads
        info = _Pending(q, cb, plan, net.sim.now, heads)
        if not plan.rects:  # contradictory bounds: a valid, empty plan
            def answer():
                # the heads now, which no log cut can have passed
                now = self.replica.heads
                self._complete(info, Resp(
                    qid, (), now, now, frozenset(), 0,
                    f"{self.actor} [coord] empty plan", target=None))
            net.sim.after(0, answer)
            return qid
        self.pending[qid] = info
        probe = Probe(qid, plan.rects, plan, origin_dc=self.dc,
                      reply_to=self.actor, level=q.staleness,
                      origin_heads=heads)
        net.sim.send(self.actor, net.root.actor, "query.route", probe, note=qid)
        return qid

    @property
    def replica(self):
        return self.net.store.replicas[self.dc]

    def handle(self, env: Envelope):
        if env.kind != "query.resp":
            raise ValueError(f"{self.actor}: unexpected message kind {env.kind}")
        resp: Resp = env.payload
        info = self.pending.pop(resp.qid, None)
        if info is None:  # duplicated delivery
            return
        if not self.replica.heads.dominates(resp.ceiling):
            self.parked.append((info, resp))
            return
        self._complete(info, resp)

    def _on_feed(self, entry: LogEntry):
        # synchronous callback from the replica's apply; it must not change
        # the replica's subscriptions, so it stays subscribed for the run
        if not self.parked:
            return
        heads = self.replica.heads
        parked, self.parked = self.parked, []
        for info, resp in parked:
            if heads.dominates(resp.ceiling):
                self._complete(info, resp)
            else:
                self.parked.append((info, resp))

    def _complete(self, info: _Pending, resp: Resp):
        net = self.net
        plan = info.plan
        keys_raw = set(resp.keys)
        for entry in self.replica.entries_after(resp.clock):
            attrs = entry.attrs
            if attrs is not None:
                for r in plan.rects:
                    if r.contains_point(attrs):
                        keys_raw.add(entry.key)
                        break
        pred = plan.pred
        if pred is None:  # a first-use plan
            pred = partial(eval_expr, plan.expr)
        kept, removed = candidate_check(keys_raw, pred, net.store, self.dc)
        keys = plan.answer
        if keys is None or keys != kept:
            keys = plan.answer = frozenset(kept)
        result = QueryResult(
            query_id=resp.qid, keys=keys,
            # the heads dominate the ceiling here, and every producer's
            # ceiling dominates its claim, so they are the achieved coverage
            clock=self.replica.heads, target=resp.target,
            span=resp.span, error=None,
            response_tick=net.sim.now, staleness=info.query.staleness.render(),
            origin_dc=self.dc,
            qpus_visited=len(resp.visited), cache_hits=resp.cache_hits,
            candidate_checked=len(keys_raw), false_positives_removed=removed,
            result_size=len(kept), ticks_elapsed=net.sim.now - info.submitted,
            # the coordinator answers an empty plan itself, at its heads
            claimed=None if resp.target is None else resp.clock)
        net._record_metrics(result)
        info.cb(result)


# -- the tree -----------------------------------------------------------------------


class QpuNetwork:
    """Builds the tree over a store, owns the registries, and performs the
    structural operations (split, merge, mode rewires, scrub). The config,
    history cuts and query origins are as `parse_scenario` checks them."""

    def __init__(self, sim: Simulation, store: GeoStore, cfg: TreeConfig):
        self.sim = sim
        self.store = store
        self.binner = store.binner  # the one the store bins each commit with
        self.cfg = cfg
        self.schema = store.schema
        self.nodes: dict[str, Qpu] = {}
        self.coordinators: dict[str, Coordinator] = {}
        # the metrics.csv rows, each rendered once, as its line, when its
        # query completes
        self.metrics: list[str] = []
        self._lag_replicas = [(d, store.replicas[d]) for d in sorted(store.dcs)]
        # only DC names can bring a delimiter, quote or line break into a
        # row; the lag field is then quoted as the csv module would
        self._quote_lag = any(c in d for d in store.dcs for c in ',"\r\n')
        # called as (actor, origin dc, rects, their key, keys, clock) on
        # every cache hit when set; run_scenario sets it to the oracle's
        # hit check
        self.check_hit = None
        self._qn = 0
        self._ids: dict[str, int] = {}
        # expr -> its Plan, oldest first; see Coordinator
        self._plans: dict[object, Plan] = {}
        store.on_cut.append(self._on_cut)

        whole = Region.whole(self.schema)
        self.root = self._new_node("qpu/root", "dc", cfg.root_dc, whole)
        for dc in store.dcs:
            fresh = self._new_node(f"qpu/{dc}", "freshness", dc, whole,
                                   parent=self.root.actor)
            self.root.children.append(fresh)
            store.replicas[dc].subscribe(fresh._on_replica)
            fresh.children = [self._build_history(cfg.history_tree, whole, dc,
                                                  fresh.actor)]
        for dc in store.dcs:
            self.coordinators[dc] = Coordinator(self, dc)
        self._rewire_peers()

    # -- construction ------------------------------------------------------------

    def _new_node(self, actor, kind, dc, region, parent=None) -> Qpu:
        q = Qpu(self, actor, kind, dc, region, parent)
        self.sim.add_actor(actor, dc, q.handle)
        self.nodes[actor] = q
        return q

    def _next_leaf_actor(self, dc: str) -> str:
        n = self._ids.get(dc, 0)
        self._ids[dc] = n + 1
        return f"qpu/{dc}/h{n}"

    def _build_history(self, spec, region, dc, parent) -> Qpu:
        actor = self._next_leaf_actor(dc)
        if spec == "leaf":
            leaf = self._new_node(actor, "hist", dc, region, parent)
            self.nodes[f"qpu/{dc}"]._seat(leaf)
            return leaf
        attr, at = spec["attr"], spec["at"]
        lo_part, hi_part = region.cut(attr, at)
        node = self._new_node(actor, "value", dc, region, parent)
        node.cut = (attr, at)
        node.children = [
            self._build_history(spec["lo"], lo_part, dc, actor),
            self._build_history(spec["hi"], hi_part, dc, actor),
        ]
        return node

    # -- query API -----------------------------------------------------------------

    def submit(self, q: Query, cb) -> str:
        return self.coordinators[q.origin_dc].submit(q, cb)

    def _plan_of(self, q: Query) -> Plan:
        """The query's Plan, planned once per distinct expression in this
        run; a hit is the plan's second or later use, which gives it its
        cover memo and compiled predicate. At most cfg.cache_capacity plans
        are kept; the oldest goes first."""
        expr = q.expr
        plan = self._plans.get(expr)
        if plan is not None:
            if plan.pred is None:
                plan.covers = {}
                plan.pred = compile_expr(plan.expr)
            return plan
        if len(self._plans) >= self.cfg.cache_capacity:
            # a dropped plan may still ride a probe in flight, out of
            # _forget_covers' reach, so it stops memoizing
            self._plans.pop(next(iter(self._plans))).covers = None
        rects = tuple(to_rectangles(q, self.schema))
        plan = self._plans[expr] = Plan(expr, rects)
        return plan

    def _next_qid(self) -> str:
        self._qn += 1
        return f"q{self._qn}"

    def _record_metrics(self, result: QueryResult):
        # an origin's own heads lead every replica's for it, so the lag
        # behind them is the lag behind every replica. The result's clock
        # is the local heads; an origin's head is its log's base + length
        local = result.clock.entries
        lag = "|".join(f"{d}:{r.base[d] + len(r.log[d]) - local.get(d, 0)}"
                       for d, r in self._lag_replicas)
        if self._quote_lag:
            lag = '"' + lag.replace('"', '""') + '"'
        self.metrics.append(
            f"{result.response_tick},{result.query_id},{result.staleness},"
            f"{result.qpus_visited},{result.cache_hits},"
            f"{result.candidate_checked},{result.false_positives_removed},"
            f"{result.result_size},{lag}\n")

    # -- log truncation ---------------------------------------------------------

    def _frontier(self) -> VectorClock:
        """The clock at or below which no reader can still need a log entry,
        so the store may cut its logs there (see the geostore note). It is
        the floor of:
        - the root's stable clock, which every replica has applied and every
          later query's origin heads dominate
        - each root cache entry's clock, the claim of a later hit on it
        - each pending or parked query's origin heads at submit, since a miss
          is served by origin-DC leaves, at or above their replica's heads
        - the claim of each cache hit whose query is pending or parked: its
          entry may be evicted before the response arrives
        The coordinator rescans its log past a claim, and the oracle's
        checks read the logs past a hit's claim, so none reads below it."""
        root = self.root
        clocks = [root._stable()]
        clocks += [e.clock for e in root.cache.entries.values()]
        for coord in self.coordinators.values():
            infos = [*coord.pending.values(), *(i for i, _ in coord.parked)]
            clocks += [info.heads for info in infos]
            clocks += [info.hit for info in infos if info.hit is not None]
        return floor_all(clocks)

    def _on_cut(self, entries: list[LogEntry]):
        """Cull each cut entry that a leaf still posts and that lost to its
        key's winner at the leaf's replica, as `scrub_all` decides. Every
        replica has applied a cut entry, so the winner lookup cannot miss."""
        for leaf in self.hist_leaves():
            tag_info, objects = leaf.index.tag_info, leaf.replica.objects
            leaf.index.cull_many([
                (e.key, e.stamp) for e in entries
                if e.stamp in tag_info and objects[e.key].stamp > e.stamp])

    # -- registries ---------------------------------------------------------------

    def hist_leaves(self) -> list[Qpu]:
        return [n for a, n in sorted(self.nodes.items()) if n.kind == "hist"]

    # -- peer wiring -------------------------------------------------------------

    def _rewire_peers(self):
        """Rebuild every node's subscribers from the tree as it stands, after
        each change of shape or mode. A history leaf, fed by its DC's router
        (see the ingest note), feeds its local-origin entries to each
        same-region leaf abroad that is in delta mode. Other nodes feed none.
        Subscriptions are control-plane: set directly, while the entries
        themselves travel as network messages."""
        groups: dict[tuple, list[Qpu]] = {}
        for leaf in self.hist_leaves():
            groups.setdefault(leaf.region.key(), []).append(leaf)
        for node in self.nodes.values():
            group = groups[node.region.key()] if node.kind == "hist" else ()
            node.subscribers = {p.actor for p in group
                                if p.dc != node.dc and p.repl_mode == DELTA}

    # -- split / merge ------------------------------------------------------------

    def _forget_covers(self):
        """Empty every plan's cover memo after a change of shape. It is
        emptied in place, so a probe in flight, which carries its plan,
        recomputes its covers too. A stale cover routes a probe through the
        nodes a reshape retired: after a merge, both merged-away leaves
        forward it, and the merged leaf answers it twice."""
        for plan in self._plans.values():
            if plan.covers:
                plan.covers.clear()

    def force_split(self, actor: str) -> tuple[str, str]:
        leaf = self.nodes.get(actor)
        if leaf is None or leaf.kind != "hist":
            raise ValueError(f"{actor} is not a history leaf")
        cut, (region_a, region_b) = self._split_point(leaf)
        kids = []
        for suffix, region in (("a", region_a), ("b", region_b)):
            child = self._new_node(f"{actor}.{suffix}", "hist", leaf.dc, region,
                                   parent=actor)
            child.repl_mode = leaf.repl_mode
            child.index.clock = leaf.index.clock.copy()
            child.index.removed = set(leaf.index.removed)
            leaf.router._seat(child, leaf.own_puts)
            kids.append(child)
        for entry in leaf.index.tag_info.values():
            child = kids[0] if region_a.contains_point(entry.attrs) else kids[1]
            child.index.post(entry)
        leaf.router._unseat(leaf)
        # the leaf morphs in place into the value node over its halves
        leaf.kind = "value"
        leaf.index = None
        leaf.cut = cut
        leaf.children = kids
        self._forget_covers()
        self._rewire_peers()
        return kids[0].actor, kids[1].actor

    def _split_point(self, leaf: Qpu) -> tuple[tuple, tuple[Region, Region]]:
        """A cut, (attr, at), at the median of the widest normalized axis, and
        its two sides; an axis where the median cannot cut off two non-empty
        sides is degenerate and the next widest is tried instead."""
        axes = sorted(
            (a for a in leaf.region.ivs if self.schema[a].kind != "text"),
            key=lambda a: (-self.schema[a].norm_length(leaf.region.ivs[a]), a))
        for attr in axes:
            vals = sorted({e.attrs[attr] for e in leaf.index.tag_info.values()})
            if len(vals) < 2:
                continue
            at = vals[len(vals) // 2]
            lo, hi = leaf.region.cut(attr, at)
            if lo is not None and hi is not None:
                return (attr, at), (lo, hi)
        raise SplitRefused(f"{leaf.actor}: no axis offers a non-degenerate median")

    def merge_siblings(self, a_actor: str, b_actor: str) -> str:
        """Replace two sibling history leaves with one leaf over their
        parent's region. Two history leaves under one parent are the two
        sides of its cut, so the merged leaf is the parent's one child, and
        the order the leaves are named in does not matter."""
        a = self.nodes.get(a_actor)
        b = self.nodes.get(b_actor)
        if a is None or b is None or a.kind != "hist" or b.kind != "hist":
            raise ValueError("merge needs two history leaves")
        if a is b:
            raise MergeRefused(f"{a_actor} cannot merge with itself")
        if a.parent != b.parent or a.parent is None:
            raise MergeRefused("leaves are not siblings")
        parent = self.nodes[a.parent]
        a, b = parent.children  # low side first
        actor = self._next_leaf_actor(a.dc)
        merged = self._new_node(actor, "hist", a.dc, parent.region,
                                parent.actor)
        merged.repl_mode = a.repl_mode if a.repl_mode == b.repl_mode else LOG
        # at the floor of the two clocks, so the log offers again every
        # entry one side lacks, such as the remove of a tag the other posted
        merged.index = CrdtIndex.merged(a.index, b.index)
        a.router._seat(merged)
        for old in (a, b):
            a.router._unseat(old)
            # each old leaf morphs into a value node over the merged one, so
            # a probe already on its way to it is still answered
            old.kind = "value"
            old.index = None
            old.children = [merged]
        parent.cut = None
        parent.children = [merged]
        self._forget_covers()
        self._rewire_peers()
        return actor

    # -- convergence maintenance ------------------------------------------------------

    def scrub_all(self) -> int:
        """One scrub pass: drop every posting whose tag lost to the current
        winner at the leaf's replica. Each log cut culls the losers it takes
        (see _on_cut), save one whose winner the replica has not applied
        yet. A cull changes a leaf's index without advancing its clock.
        Root cache entries keep the culled postings; the coordinator's
        candidate check drops them."""
        total = 0
        for leaf in self.hist_leaves():
            pairs = leaf.index.stale_postings(leaf.replica)
            if pairs:
                total += leaf.index.cull_many(pairs)
        return total
