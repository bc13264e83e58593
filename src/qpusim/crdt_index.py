"""Convergent inverted index over binned attribute values.

Postings form an add-wins observed-remove set. Every write carries a unique
tag (its stamp), adds postings for the new value's bins, and removes only the
tag the writer observed itself replacing. A tag (ts, dc, seq) is the add of
entry seq of origin dc, so the index clock says which adds have been seen:
a tag the clock covers and `tag_info` lacks reads as removed, as in the
optimized OR-set of Bieniusa et al. (arXiv 1210.3368), and no tombstone is
kept for it. Only a remove that arrives before its add is held, in
`removed`, until the add's entry applies and the hold suppresses it. So add
and remove commute: states that applied the same entries in any
interleaving hold identical visible postings, and at quiescence an index
holds no remove at all.

An index applies log entries themselves. An entry's effect is a pure
function of the entry and of whether its point lies in the leaf's region,
which the caller decides once: the add is posted when it does, and the
superseded tag is culled either way. A same-region leaf abroad, sent the
same entry, reaches the same effect, so no separate delta is built, as the
delta-state CRDTs of Almeida et al. (JPDC 2018) derive deltas from
operations. A posting is the entry itself: `tag_info` maps each visible tag
to the entry that added it, which every replica and leaf shares. Culling a
tag that is not posted does nothing.

A posting set is keyed by bin, not by value, so a range query touching part
of a bin returns candidates that may not match. Callers resolve those
against source data; the scrub pass does the same in bulk for postings whose
object has moved on.

Every write is binned once, at commit: the store bins it with the run's one
binner and the entry carries its bin keys, `LogEntry.bins`, which every leaf
posts under and culls from. Postings are keyed by what binning yields with
no object built: the bin number, an int, for a binned attribute, and the
value itself for an unbinned one. A binner computes the edges of its
equi-width bins once and shares them: a bin's upper edge is the next bin's
lower edge, and the last edge is the domain's top, so the bins tile the
domain with no float gap between neighbours. A value is placed by one
division, which rounding can leave a bin off near an edge, and then a check
of the edges, which steps to the neighbour that holds the value. A lookup
maps a range to the bin numbers it overlaps by bisecting the edges, and an
equality on an unbinned attribute is one dict get. A bin's interval is built
from the edges only when the index serializes.
"""

import json
import math
from bisect import bisect_left, bisect_right

from .geostore import DcReplica, LogEntry, Stamp
from .regions import AttributeSchema, Interval, Region, is_int
from .staleness import VectorClock


# every binned attribute's edges are built up front, so the count is bounded
MAX_BINS = 65_536


class Binner:
    """Deterministic value -> bin mapping shared by every index replica.

    Per attribute either "none" (each distinct value is its own closed
    point bin, keyed by the value) or an equi-width bin count over the
    numeric domain (bin i keyed by i); the last bin is closed above so the
    domain maximum belongs to it. Text attributes only support "none".

    The edges of a binned attribute are computed once, here, because every
    write is binned as it commits. Bin i is
    [edge i, edge i+1), with edge i = lo + i * width for i below the count
    and the last edge hi; a count whose edges do not strictly increase is
    rejected, since some bin would hold nothing. Values must lie in their
    attribute's domain, which `parse_scenario` checks for every put.
    """

    def __init__(self, schema: dict[str, AttributeSchema], spec: dict | None = None):
        self.schema = schema
        counts: dict[str, int] = {}
        spec = spec or {}
        for attr, sch in schema.items():
            mode = spec.get(attr, "none")
            if mode == "none":
                continue
            if not is_int(mode) or not 1 <= mode <= MAX_BINS:
                raise ValueError(f"{attr}: bin count must be 'none' or an "
                                 f"integer in [1, {MAX_BINS}], got {mode!r}")
            if sch.kind == "text":
                raise ValueError(f"{attr}: text attributes take 'none' binning")
            counts[attr] = mode
        self.attrs = tuple(sorted(schema))
        # per attribute, None for point bins, else its count + 1 edges
        self.edges: dict[str, tuple | None] = {}
        # per attribute, in name order: (attr, lo, width, last bin, edges)
        self._axes = []
        for attr in self.attrs:
            mode = counts.get(attr)
            if mode is None:
                self.edges[attr] = None
                self._axes.append((attr, None, None, None, None))
                continue
            sch = schema[attr]
            try:
                width = (sch.hi - sch.lo) / mode
            except OverflowError:  # int bounds, with no float width
                width = math.inf  # so no edge increases
            edges = tuple(sch.lo + i * width for i in range(mode)) + (sch.hi,)
            if not all(a < b for a, b in zip(edges, edges[1:])):
                raise ValueError(f"{attr}: {mode} bins over [{sch.lo!r}, "
                                 f"{sch.hi!r}] have edges that do not "
                                 f"strictly increase")
            self.edges[attr] = edges
            self._axes.append((attr, sch.lo, width, mode - 1, edges))

    def keys_for(self, attrs: dict) -> list:
        """The bin key of each schema attribute's value, in name order;
        `attrs` must be a point of the schema, as `parse_scenario` checks."""
        out = []
        for attr, lo, width, last, edges in self._axes:
            v = attrs[attr]
            if edges is None:
                out.append(v)
            else:
                i = int((v - lo) / width)
                if i > last:
                    i = last
                # the division may land a bin off near an edge
                if v < edges[i]:
                    i -= 1
                elif i < last and v >= edges[i + 1]:
                    i += 1
                out.append(i)
        return out

    def span(self, attr: str, iv: Interval) -> range | None:
        """The numbers of the bins of binned `attr` that overlap `iv`,
        exactly as `Interval.overlaps` selects them, or None when that is
        every bin."""
        edges = self.edges[attr]
        lo, hi, lo_open, hi_open = iv
        if hi < lo or (hi == lo and (lo_open or hi_open)):
            return range(0)
        last = len(edges) - 2
        # bins below `first` end at or below lo: each is open above but the
        # last, which ends at the domain's top and is closed
        first = bisect_right(edges, lo, 1, last + 1) - 1
        if first == last and (edges[-1] < lo or (edges[-1] == lo and lo_open)):
            return range(0)
        # bins from `stop` on start, closed, above hi, or at hi when open
        stop = (bisect_left if hi_open else bisect_right)(edges, hi, 0, last + 1)
        return None if first == 0 and stop > last else range(first, stop)

    def interval(self, attr: str, key) -> Interval:
        """The interval of the bin `key` of `attr`. A float attribute's
        point bin is rendered as a float, since the store takes 2 and 2.0
        alike and a posting keeps whichever came first; adding 0.0 also
        renders -0.0 as 0.0."""
        edges = self.edges[attr]
        if edges is None:
            if self.schema[attr].kind == "float":
                key = float(key) + 0.0
            return Interval(key, key, False, False)
        return Interval(edges[key], edges[key + 1], False, key < len(edges) - 2)


class CrdtIndex:
    """One leaf's postings (see the module note)."""

    def __init__(self, schema: dict[str, AttributeSchema], binner: Binner):
        self.schema = schema
        self.binner = binner
        # attribute -> bin key -> tags; bin keys as Binner.keys_for gives them
        self.postings: dict[str, dict] = {a: {} for a in binner.attrs}
        # the same maps in name order, as keys_for lists the keys
        self._by_axis = tuple(self.postings.values())
        self.tag_info: dict[Stamp, LogEntry] = {}  # visible tags only
        # (dc, seq) of each tag removed before its add applied
        self.removed: set[tuple[str, int]] = set()
        self.clock = VectorClock()

    # -- ingestion -------------------------------------------------------------

    def apply_delta(self, entry: LogEntry, inside: bool) -> bool:
        """Apply one log entry: post its add when `inside`, that is when its
        point lies in the caller's region, cull the tag it superseded, and
        advance the clock. True when it advanced the state, False for a
        duplicate already covered by the clock. Gaps are protocol errors.
        The clock advances in place: a reader that keeps it copies it."""
        origin, seq = entry.origin_dc, entry.seq
        clock = self.clock.entries
        expected = clock.get(origin, 0) + 1
        if seq < expected:
            return False
        if seq > expected:
            raise ValueError(
                f"delta gap for {origin}: got seq {seq}, expected {expected}")
        removed = self.removed
        if removed and (origin, seq) in removed:
            # a remove held for this entry's tag suppresses its add, even
            # one outside the region, and is then done
            removed.remove((origin, seq))
        elif inside:
            self.post(entry)
        prev = entry.prev_tag
        # a write only retracts the version it actually superseded; when it
        # lost the tie-break to what it observed, that version stays visible
        if prev is not None and entry.stamp > prev:
            self._cull(prev)
            # an add the clock covers has applied, so nothing is held for it;
            # a tag a merged leaf posted above its clock is held too, since
            # its cursor offers that add again
            _, dc, rseq = prev
            if clock.get(dc, 0) < rseq:
                removed.add((dc, rseq))
        clock[origin] = seq
        return True

    def post(self, entry: LogEntry):
        """Make the entry's tag visible as its key, with one posting per
        attribute in the bin the entry carries. The one place that writes
        the attribute -> bin -> tags layout; `_cull` is its inverse."""
        tag = entry.stamp
        self.tag_info[tag] = entry
        for bins, k in zip(self._by_axis, entry.bins):
            tags = bins.get(k)
            if tags is None:
                bins[k] = {tag}
            else:
                tags.add(tag)

    def _cull(self, tag: Stamp):
        entry = self.tag_info.pop(tag, None)
        if entry is None:
            return
        for bins, k in zip(self._by_axis, entry.bins):
            tags = bins.get(k)
            if tags is not None:
                tags.discard(tag)
                if not tags:
                    del bins[k]

    # -- merge -------------------------------------------------------------------

    @classmethod
    def merged(cls, a: "CrdtIndex", b: "CrdtIndex") -> "CrdtIndex":
        """The index of the leaf that replaces siblings `a` and `b`: their
        postings and held removes unioned, less every tag either side holds
        a remove for, at the floor of their clocks. A remove that one side
        applied to a tag the other still posts leaves no trace to union, so
        the clock must under-claim: the floor covers none of the held
        removes, and the cursor is offered again every entry above it, such
        a remove included."""
        out = cls(a.schema, a.binner)
        for side in (a, b):
            for mine, bins in zip(out._by_axis, side._by_axis):
                for k, tags in bins.items():
                    mine.setdefault(k, set()).update(tags)
            out.tag_info.update(side.tag_info)
        held = out.removed = a.removed | b.removed
        if held:
            for tag in [t for t in out.tag_info if t[1:] in held]:
                out._cull(tag)
        out.clock = a.clock.floor(b.clock)
        return out

    # -- reads ---------------------------------------------------------------------

    def lookup(self, rect: Region) -> set[str]:
        """The keys of the visible tags whose bins all intersect the
        rectangle: candidates, which the caller checks against source data.

        Bin granularity: a tag from a bin only partly inside the rectangle is
        still returned, which is where binning false positives come from.
        """
        binner = self.binner
        cand: set[Stamp] | None = None
        for attr, iv in rect.ivs.items():
            bins = self.postings[attr]
            if binner.edges[attr] is not None:
                span = binner.span(attr, iv)
                if span is None:
                    continue  # every bin: the axis selects every tag
                acc = set()
                if len(span) < len(bins):
                    for i in span:
                        tags = bins.get(i)
                        if tags is not None:
                            acc |= tags
                else:
                    for i, tags in bins.items():
                        if i in span:
                            acc |= tags
            elif self.schema[attr].domain().wholly_inside(iv):
                continue  # unconstrained axis selects every tag
            elif iv.lo == iv.hi and not (iv.lo_open or iv.hi_open):
                acc = bins.get(iv.lo)
                if acc is None:
                    return set()
                # the posted set itself: it is only read, as `&` builds anew
            else:
                acc = set()
                for v, tags in bins.items():
                    if iv.contains(v):
                        acc |= tags
            cand = acc if cand is None else cand & acc
            if not cand:
                return set()
        if cand is None:
            return {e.key for e in self.tag_info.values()}
        return {self.tag_info[tag].key for tag in cand}

    def visible_count(self) -> int:
        return len(self.tag_info)

    # -- maintenance ------------------------------------------------------------------

    def stale_postings(self, replica: DcReplica) -> list[tuple[str, Stamp]]:
        """Visible postings whose tag lost to the current version of its key
        in `replica`, as sorted (key, tag) pairs. A tag newer than that
        version, or of a key the replica lacks, is not stale: a delta-mode
        leaf posts a peer's write before its replica applies it."""
        stale = []
        for tag, entry in self.tag_info.items():
            cur = replica.objects.get(entry.key)
            if cur is not None and cur.stamp > tag:
                stale.append((entry.key, tag))
        stale.sort()
        return stale

    def cull_many(self, pairs) -> int:
        n = 0
        for _, tag in pairs:
            if tag in self.tag_info:
                self._cull(tag)
                n += 1
        return n

    # -- serialization -------------------------------------------------------------------

    def state(self) -> tuple:
        """The visible state that `canonical` serializes, as a value to
        compare with ==: the clock, the postings and each visible tag's
        key. Two states of indexes over one binner are equal exactly when
        their `canonical` bytes are. The clock and postings are the index's
        own, not copies, so compare the state before the index changes."""
        return (self.clock, self.postings,
                {tag: e.key for tag, e in self.tag_info.items()})

    def canonical(self) -> bytes:
        """Stable byte form of the visible state: clock plus sorted postings.
        Two converged replicas serialize identically. The reference for
        `state`, which the end-of-run check compares instead."""
        terms = []
        interval = self.binner.interval
        for attr, bins in self.postings.items():
            for k in sorted(bins):
                tags = bins[k]
                if not tags:
                    continue
                postings = sorted(
                    [t.ts, t.dc, t.seq, self.tag_info[t].key] for t in tags)
                terms.append([attr, list(interval(attr, k)), postings])
        doc = {"clock": dict(sorted(self.clock.entries.items())), "terms": terms}
        return json.dumps(doc, separators=(",", ":"), ensure_ascii=True).encode()
