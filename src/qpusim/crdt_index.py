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
operations. Culling a tag that is not posted does nothing.

The index never stores which exact value a posting had, only its bins, so a
range query touching part of a bin returns candidates that may not match.
Callers resolve those against source data; the scrub pass does the same in
bulk for postings whose object has moved on.

Every write is binned on ingest and binned again when its posting is culled,
so a binner builds the terms of its equi-width bins once, up front, and a bin
is the same object every time it comes up. The bin edges are computed once
and shared: a bin's upper edge is the next bin's lower edge, and the last
edge is the domain's top, so the bins tile the domain with no float gap
between neighbours. A value is placed by one division, which rounding can
leave a bin off near an edge, and then a check of the edges, which steps to
the neighbour that holds the value.
"""

import json
from typing import NamedTuple

from .geostore import DcReplica, LogEntry, Stamp
from .regions import AttributeSchema, Interval, Region
from .staleness import VectorClock


class Term(NamedTuple):
    attr: str
    bin: Interval


# every bin's term is built up front, so the count is bounded
MAX_BINS = 65_536


class Binner:
    """Deterministic value -> bin mapping shared by every index replica.

    Per attribute either "none" (each distinct value is its own closed
    point bin) or an equi-width bin count over the numeric domain; the last
    bin is closed above so the domain maximum belongs to it. Text attributes
    only support "none".

    The terms of a binned attribute are built once, here, because ingest
    bins every write and every cull bins it again. Bin i is
    [edge i, edge i+1), with edge i = lo + i * width for i below the count
    and the last edge hi; a count whose edges do not strictly increase is
    rejected, since some bin would hold nothing. Values must lie in their
    attribute's domain, which the store checks on every write.
    """

    def __init__(self, schema: dict[str, AttributeSchema], spec: dict | None = None):
        self.schema = schema
        self.spec: dict[str, int | str] = {}
        spec = spec or {}
        for attr, sch in schema.items():
            mode = spec.get(attr, "none")
            if mode == "none":
                self.spec[attr] = "none"
                continue
            if (not isinstance(mode, int) or isinstance(mode, bool)
                    or not 1 <= mode <= MAX_BINS):
                raise ValueError(f"{attr}: bin count must be 'none' or an "
                                 f"integer in [1, {MAX_BINS}], got {mode!r}")
            if sch.kind == "text":
                raise ValueError(f"{attr}: text attributes take 'none' binning")
            self.spec[attr] = mode
        # per attribute, in name order: (attr, lo, width, last bin, terms,
        # edges), with terms None for point bins
        self._axes = []
        for attr in sorted(schema):
            mode = self.spec[attr]
            if mode == "none":
                self._axes.append((attr, None, None, None, None, None))
                continue
            sch = schema[attr]
            width = (sch.hi - sch.lo) / mode
            edges = tuple(sch.lo + i * width for i in range(mode)) + (sch.hi,)
            if not all(a < b for a, b in zip(edges, edges[1:])):
                raise ValueError(f"{attr}: {mode} bins over [{sch.lo!r}, "
                                 f"{sch.hi!r}] have edges that do not "
                                 f"strictly increase")
            terms = tuple(
                Term(attr, Interval(edges[i], edges[i + 1], False, i < mode - 1))
                for i in range(mode))
            self._axes.append((attr, sch.lo, width, mode - 1, terms, edges))

    def terms_for(self, attrs: dict) -> tuple[Term, ...]:
        """One term per schema attribute, in name order; `attrs` holds
        exactly the schema's attributes, as the store checks."""
        out = []
        for attr, lo, width, last, terms, edges in self._axes:
            v = attrs[attr]
            if terms is None:
                out.append(Term(attr, Interval(v, v, False, False)))
            else:
                i = int((v - lo) / width)
                if i > last:
                    i = last
                # the division may land a bin off near an edge
                if v < edges[i]:
                    i -= 1
                elif i < last and v >= edges[i + 1]:
                    i += 1
                out.append(terms[i])
        return tuple(out)


class CrdtIndex:
    """One leaf's postings (see the module note)."""

    def __init__(self, schema: dict[str, AttributeSchema], binner: Binner):
        self.schema = schema
        self.binner = binner
        self.terms: dict[str, dict[Interval, set[Stamp]]] = {a: {} for a in schema}
        self.tag_info: dict[Stamp, tuple[str, dict]] = {}  # visible tags only
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
            self.post(entry.stamp, entry.key, entry.attrs)
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

    def post(self, tag: Stamp, key: str, point: dict):
        """Make `tag` visible as `key` at `point`, with one posting per term
        of the point. The one place that writes the attribute -> bin -> tags
        layout; `_cull` is its inverse."""
        self.tag_info[tag] = (key, point)
        all_terms = self.terms
        for attr, bin_iv in self.binner.terms_for(point):
            bins = all_terms[attr]
            tags = bins.get(bin_iv)
            if tags is None:
                bins[bin_iv] = {tag}
            else:
                tags.add(tag)

    def _cull(self, tag: Stamp):
        info = self.tag_info.pop(tag, None)
        if info is None:
            return
        terms = self.terms
        for attr, bin_iv in self.binner.terms_for(info[1]):
            bins = terms[attr]
            tags = bins.get(bin_iv)
            if tags is not None:
                tags.discard(tag)
                if not tags:
                    del bins[bin_iv]

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
            for attr, bins in side.terms.items():
                mine = out.terms[attr]
                for bin_iv, tags in bins.items():
                    mine.setdefault(bin_iv, set()).update(tags)
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
        cand: set[Stamp] | None = None
        for attr, iv in rect.ivs.items():
            if self.schema[attr].domain().wholly_inside(iv):
                continue  # unconstrained axis selects every tag
            acc = set()
            for bin_iv, tags in self.terms[attr].items():
                if bin_iv.overlaps(iv):
                    acc |= tags
            cand = acc if cand is None else cand & acc
            if not cand:
                return set()
        if cand is None:
            return {key for key, _ in self.tag_info.values()}
        return {self.tag_info[tag][0] for tag in cand}

    def visible_count(self) -> int:
        return len(self.tag_info)

    # -- maintenance ------------------------------------------------------------------

    def stale_postings(self, replica: DcReplica) -> list[tuple[str, Stamp]]:
        """Visible postings whose tag lost to the current version of its key
        in `replica`, as sorted (key, tag) pairs. A tag newer than that
        version, or of a key the replica lacks, is not stale: a delta-mode
        leaf posts a peer's write before its replica applies it."""
        stale = []
        for tag, (key, _) in self.tag_info.items():
            cur = replica.objects.get(key)
            if cur is not None and cur.stamp > tag:
                stale.append((key, tag))
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

    def canonical(self) -> bytes:
        """Stable byte form of the visible state: clock plus sorted postings.
        Two converged replicas serialize identically."""
        terms = []
        for attr in sorted(self.terms):
            for bin_iv in sorted(self.terms[attr], key=lambda iv: (iv.lo, iv.lo_open)):
                tags = self.terms[attr][bin_iv]
                if not tags:
                    continue
                postings = sorted(
                    [t.ts, t.dc, t.seq, self.tag_info[t][0]] for t in tags)
                terms.append([attr, list(bin_iv.key()), postings])
        doc = {"clock": dict(sorted(self.clock.entries.items())), "terms": terms}
        return json.dumps(doc, separators=(",", ":"), ensure_ascii=True).encode()
