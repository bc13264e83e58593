"""Value-space geometry: attribute domains, intervals, and rectangles.

Intervals carry explicit open/closed flags on both ends so bin edges, point
lookups, and whole-domain ranges classify exactly. A hi bound of None means
"no upper bound" and only occurs on text attributes, whose domain has no
largest element.

Intervals are immutable tuples. Query planning builds and hashes them by the
thousand per probe, and a tuple is built and hashed in less than half the
time of a frozen dataclass; methods unpack the tuple once, because reading a
named field of a tuple is the slower part. Cuts that change nothing return
the operand itself, so callers can test `cut is r` instead of comparing
bounds.

Query decomposition needs no rectangle subtraction. A tree node's children
are one cut of its region: a single child over the whole region, or the two
sides of one axis cut. So a probe's pieces, which lie inside the node, are
covered exactly by their intersections with the children (greedy_cover).
"""

from dataclasses import dataclass
from typing import Any, NamedTuple


def _below(a, b) -> bool:
    # a < b with None as +infinity
    if b is None:
        return a is not None
    if a is None:
        return False
    return a < b


def _beq(a, b) -> bool:
    if a is None or b is None:
        return a is None and b is None
    return a == b


@dataclass(frozen=True)
class AttributeSchema:
    """Declared domain of one indexable attribute."""

    name: str
    kind: str  # "int", "float" or "text"
    lo: Any = None
    hi: Any = None
    alphabet: str | None = None

    def __post_init__(self):
        if self.kind in ("int", "float"):
            for bound in (self.lo, self.hi):
                if (not isinstance(bound, (int, float))
                        or isinstance(bound, bool)):
                    raise ValueError(f"{self.name}: numeric bounds lo and hi "
                                     f"must be numbers, got {bound!r}")
            if not self.lo < self.hi:
                raise ValueError(f"{self.name}: numeric domain needs lo < hi")
        elif self.kind == "text":
            if (not isinstance(self.alphabet, str) or not self.alphabet
                    or len(set(self.alphabet)) != len(self.alphabet)):
                raise ValueError(f"{self.name}: text domain needs a non-empty, "
                                 f"duplicate-free string alphabet, "
                                 f"got {self.alphabet!r}")
        else:
            raise ValueError(f"{self.name}: unknown kind {self.kind!r}")
        dom = (Interval("", None, False, False) if self.kind == "text"
               else Interval(self.lo, self.hi, False, False))
        object.__setattr__(self, "_domain", dom)

    def domain(self) -> "Interval":
        return self._domain

    def validate(self, value) -> bool:
        if self.kind == "int":
            return (
                isinstance(value, int)
                and not isinstance(value, bool)
                and self.lo <= value <= self.hi
            )
        if self.kind == "float":
            return (
                isinstance(value, (int, float))
                and not isinstance(value, bool)
                and self.lo <= value <= self.hi
            )
        return isinstance(value, str) and all(c in self.alphabet for c in value)

    def embed(self, value) -> float:
        """Map a value to [0, 1] monotonically, for volume arithmetic."""
        if self.kind == "text":
            return text_embed(value, self.alphabet)
        return (value - self.lo) / (self.hi - self.lo)

    def norm_length(self, iv: "Interval") -> float:
        hi = 1.0 if iv.hi is None else self.embed(iv.hi)
        return max(hi - self.embed(iv.lo), 0.0)


def text_embed(s: str, alphabet: str, depth: int = 12) -> float:
    """Fractional base-(|alphabet|+1) expansion of the first chars.

    Order-preserving up to `depth`-char prefixes; rank 0 is reserved for
    end-of-string so "" sorts below every extension.
    """
    idx = {c: i for i, c in enumerate(alphabet)}
    base = len(alphabet) + 1
    x = 0.0
    scale = 1.0
    for c in s[:depth]:
        scale /= base
        x += (idx[c] + 1) * scale
    return x


class Interval(NamedTuple):
    """One axis of a rectangle, as an immutable (lo, hi, lo_open, hi_open)
    tuple. Equality, hashing and repr are the tuple's, so an interval hashes
    like its key() and serves as a dict key for index bins."""

    lo: Any
    hi: Any  # None = unbounded above (text only)
    lo_open: bool = False
    hi_open: bool = False

    @classmethod
    def point(cls, v) -> "Interval":
        return cls(v, v, False, False)

    def contains(self, v) -> bool:
        """True when v lies in the interval. A hi of None (text axes only)
        bounds nothing above, so the interval holds every v >= lo, or > lo
        when lo is open. Bounds are compared directly, without the None-aware
        helpers, because leaf ingest tests every write against its region."""
        lo, hi, lo_open, hi_open = self
        if v < lo or (lo_open and v == lo):
            return False
        return hi is None or v < hi or (not hi_open and v == hi)

    def _cut(self, o: "Interval"):
        """Bounds of self ∩ o as (lo, hi, lo_open, hi_open, changed), or None
        when the intersection is empty; `changed` is False when the bounds
        are exactly self's."""
        lo, hi, lo_open, hi_open = self
        olo, ohi, olo_open, ohi_open = o
        changed = False
        if _below(lo, olo):
            lo, lo_open, changed = olo, olo_open, True
        elif olo_open and not lo_open and not _below(olo, lo):
            lo_open = changed = True
        if _below(ohi, hi):
            hi, hi_open, changed = ohi, ohi_open, True
        elif ohi_open and not hi_open and not _below(hi, ohi):
            hi_open = changed = True
        if _below(hi, lo) or ((lo_open or hi_open) and _beq(lo, hi)):
            return None
        return lo, hi, lo_open, hi_open, changed

    def overlaps(self, o: "Interval") -> bool:
        """True when self ∩ o is non-empty; builds no interval."""
        return self._cut(o) is not None

    def intersect(self, o: "Interval") -> "Interval | None":
        """self ∩ o, None when empty, self itself when o cuts nothing off."""
        cut = self._cut(o)
        if cut is None:
            return None
        lo, hi, lo_open, hi_open, changed = cut
        return Interval(lo, hi, lo_open, hi_open) if changed else self

    def wholly_inside(self, o: "Interval") -> bool:
        lo, hi, lo_open, hi_open = self
        olo, ohi, olo_open, ohi_open = o
        if _below(lo, olo):
            return False
        if olo_open and not lo_open and _beq(lo, olo):
            return False
        if _below(ohi, hi):
            return False
        if ohi_open and not hi_open and _beq(hi, ohi):
            return False
        return True

    def key(self) -> tuple:
        return tuple(self)

    def render(self) -> str:
        lo, hi, lo_open, hi_open = self
        lb = "(" if lo_open else "["
        rb = ")" if hi_open else "]"
        hi = "inf" if hi is None else hi
        return f"{lb}{lo!r},{hi!r}{rb}"


class Region:
    """Axis-aligned rectangle: one Interval per schema attribute."""

    __slots__ = ("ivs",)

    def __init__(self, ivs: dict[str, Interval]):
        self.ivs = ivs

    @classmethod
    def whole(cls, schema: dict[str, AttributeSchema]) -> "Region":
        return cls({a: s.domain() for a, s in schema.items()})

    def narrowed(self, attr: str, iv: Interval) -> "Region | None":
        old = self.ivs[attr]
        cut = old.intersect(iv)
        if cut is None:
            return None
        if cut is old:
            return self
        out = dict(self.ivs)
        out[attr] = cut
        return Region(out)

    def cut(self, attr: str, at) -> "tuple[Region | None, Region | None]":
        """The two sides of a cut of `attr` at `at`, which goes to the high
        side; an empty side is None."""
        iv = self.ivs[attr]
        return (self.narrowed(attr, Interval(iv.lo, at, iv.lo_open, True)),
                self.narrowed(attr, Interval(at, iv.hi, False, iv.hi_open)))

    def intersect(self, o: "Region") -> "Region | None":
        """self ∩ o, None when empty, self itself when o cuts nothing off."""
        out = None
        oivs = o.ivs
        for a, iv in self.ivs.items():
            cut = iv.intersect(oivs[a])
            if cut is None:
                return None
            if cut is not iv:
                if out is None:
                    out = dict(self.ivs)
                out[a] = cut
        return self if out is None else Region(out)

    def contains_point(self, point: dict) -> bool:
        for a, iv in self.ivs.items():
            if not iv.contains(point[a]):
                return False
        return True

    def wholly_inside(self, o: "Region") -> bool:
        oivs = o.ivs
        for a, iv in self.ivs.items():
            if not iv.wholly_inside(oivs[a]):
                return False
        return True

    def volume(self, schema: dict[str, AttributeSchema]) -> float:
        v = 1.0
        for a, iv in self.ivs.items():
            v *= schema[a].norm_length(iv)
        return v

    def key(self) -> tuple:
        ivs = self.ivs
        return tuple((a, *ivs[a]) for a in sorted(ivs))

    def render(self) -> str:
        return " x ".join(f"{a}:{self.ivs[a].render()}" for a in sorted(self.ivs))

    def __eq__(self, other):
        return isinstance(other, Region) and self.ivs == other.ivs

    def __hash__(self):
        return hash(self.key())

    def __repr__(self):
        return f"Region({self.render()})"




def greedy_cover(
    rects: list[Region],
    children: list[tuple[object, Region]],
    schema: dict[str, AttributeSchema],
) -> list[tuple[object, list[Region]]]:
    """Assign pieces of the query rectangles to children whose regions tile,
    without overlap, a region that holds the rectangles. A child's pieces
    are the rectangles' non-empty intersections with its region, and a child
    with none is left out. Children come largest total piece volume first,
    a tie going to the earlier child in the given order; volumes are summed
    only when two or more children have pieces. A lone child takes the
    rectangles as they are.
    """
    if len(children) == 1:
        return [(children[0][0], list(rects))] if rects else []
    assignments = []
    for cid, creg in children:
        pieces = [c for c in (r.intersect(creg) for r in rects) if c is not None]
        if pieces:
            assignments.append((cid, pieces))
    if len(assignments) > 1:
        # sort is stable, so a tie keeps the given order
        assignments.sort(key=lambda a: -sum(p.volume(schema) for p in a[1]))
    return assignments
