"""Deterministic workload synthesis: keyed writes, deletes, and query text.

Everything draws from one seeded generator, so a spec plus a seed always
yields the same action list byte for byte.
"""

from __future__ import annotations

import bisect
import itertools
import random
import re
from dataclasses import dataclass, field

from .regions import AttributeSchema


# a staleness level as a generated query's FRESHNESS clause spells it
_LEVEL_TEXT = re.compile(r"(any|strong|snapshot|bounded:[0-9]+)\Z")


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


class KeySampler:
    """Uniform or zipf(theta) over ranks 0..n-1. Zipf draws invert the
    cumulative weights, so rank r carries mass r^-theta / H(n, theta)."""

    def __init__(self, n: int, dist: str, theta: float, rng: random.Random):
        if n < 1:
            raise ValueError("need at least one key")
        self.check(dist, theta)
        self.n = n
        self.dist = dist
        self.rng = rng
        if dist == "zipf":
            self._cdf = list(
                itertools.accumulate((r + 1) ** -theta for r in range(n)))

    @staticmethod
    def check(dist, theta):
        if dist not in ("uniform", "zipf"):
            raise ValueError(f"unknown key distribution {dist!r}")
        if dist == "zipf" and not (_is_number(theta) and theta > 0):
            raise ValueError(f"zipf needs a number theta > 0, got {theta!r}")

    def draw(self) -> int:
        if self.dist == "uniform":
            return self.rng.randrange(self.n)
        x = self.rng.random() * self._cdf[-1]
        return bisect.bisect_right(self._cdf, x)


def text_pool(rng: random.Random, schema: AttributeSchema, count: int = 8,
              length: tuple[int, int] = (3, 8)) -> list[str]:
    letters = [c for c in schema.alphabet if c != " "] or list(schema.alphabet)
    out = []
    for _ in range(count):
        k = rng.randint(*length)
        out.append("".join(rng.choice(letters) for _ in range(k)))
    return sorted(set(out))


def random_point(rng: random.Random, schema: dict[str, AttributeSchema],
                 pools: dict[str, list[str]],
                 ranges: dict | None = None) -> dict:
    ranges = ranges or {}
    point = {}
    for attr, sch in schema.items():
        lo, hi = ranges.get(attr, (sch.lo, sch.hi))
        if sch.kind == "int":
            point[attr] = rng.randint(lo, hi)
        elif sch.kind == "float":
            point[attr] = round(rng.uniform(lo, hi), 3)
        else:
            point[attr] = rng.choice(pools[attr])
    return point


def random_query_text(rng: random.Random, schema: dict[str, AttributeSchema],
                      pools: dict[str, list[str]],
                      staleness: str | None = None) -> str:
    """Grammatical query text with random structure: nested AND/OR groups,
    optional parentheses and a freshness clause."""

    def predicate() -> str:
        attr = rng.choice(sorted(schema))
        sch = schema[attr]
        if sch.kind == "text":
            op = rng.choice(["=", "=", "=", "<", ">="])
            return f'{attr} {op} "{rng.choice(pools[attr])}"'
        op = rng.choice(["=", "<", "<=", ">", ">="])
        if sch.kind == "int":
            lit = rng.randint(sch.lo, sch.hi)
        else:
            lit = round(rng.uniform(sch.lo, sch.hi), 2)
        return f"{attr} {op} {lit}"

    def expr(depth: int) -> str:
        if depth <= 0 or rng.random() < 0.4:
            return predicate()
        parts = [expr(depth - 1) for _ in range(rng.randint(2, 3))]
        joiner = " AND " if rng.random() < 0.5 else " OR "
        body = joiner.join(parts)
        return f"({body})" if rng.random() < 0.6 else body

    text = expr(2)
    if staleness is None:
        staleness = rng.choice(["any", "strong", "snapshot",
                                f"bounded:{rng.choice([0, 5, 50])}"])
    if staleness != "" and (staleness != "any" or rng.random() < 0.5):
        text += f" FRESHNESS {staleness}"
    return text


@dataclass
class WorkloadSpec:
    objects: int = 200
    actions: int = 1000
    key_dist: str = "zipf"
    theta: float = 0.99
    query_frac: float = 0.2
    delete_frac: float = 0.05
    gap: int = 2  # ticks between consecutive actions
    staleness_mix: tuple = (
        ("any", 0.4), ("strong", 0.2), ("bounded:10", 0.2), ("snapshot", 0.2))
    # numeric attr -> (lo, hi): confine written values to a sub-range
    value_ranges: dict = field(default_factory=dict)

    def __post_init__(self):
        for name in ("objects", "actions", "gap"):
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if self.objects < 1 or self.actions < 0 or self.gap < 1:
            raise ValueError("objects, actions and gap must be positive")
        if not all(_is_number(f) and 0 <= f <= 1
                   for f in (self.query_frac, self.delete_frac)):
            raise ValueError("fractions must be numbers in [0, 1]")
        if self.query_frac + self.delete_frac > 1:
            raise ValueError("query_frac + delete_frac must not exceed 1")
        KeySampler.check(self.key_dist, self.theta)
        mix = self.staleness_mix
        if not (all(isinstance(p, (list, tuple)) and len(p) == 2
                    and isinstance(p[0], str) and _LEVEL_TEXT.match(p[0])
                    and _is_number(p[1]) and p[1] >= 0 for p in mix)
                and 0 < sum(w for _, w in mix) < float("inf")):
            raise ValueError(
                f"staleness_mix must be [level, weight >= 0] pairs with a "
                f"positive, finite total weight, got {list(mix)!r}")
        ranges = self.value_ranges
        if not (isinstance(ranges, dict) and all(
                isinstance(r, (list, tuple)) and len(r) == 2
                and all(_is_number(v) for v in r) for r in ranges.values())):
            raise ValueError(f"value_ranges must map attributes to [lo, hi] "
                             f"number pairs, got {ranges!r}")


def gen_workload(schema: dict[str, AttributeSchema], dcs: list[str],
                 spec: WorkloadSpec, seed: int) -> list[dict]:
    return gen_phases(schema, dcs, [spec], seed)


def gen_phases(schema: dict[str, AttributeSchema], dcs: list[str],
               specs: list[WorkloadSpec], seed: int) -> list[dict]:
    """One workload from consecutive phases sharing an rng and tick line.

    Later phases may shift value_ranges to move the write distribution
    around the value space while keys and text pools stay stable.
    """
    rng = random.Random(seed)
    pools = {a: text_pool(rng, s) for a, s in schema.items() if s.kind == "text"}
    actions = []
    t = 1
    written: set[str] = set()
    for spec in specs:
        sampler = KeySampler(spec.objects, spec.key_dist, spec.theta, rng)
        levels = [s for s, _ in spec.staleness_mix]
        weights = [w for _, w in spec.staleness_mix]
        for _ in range(spec.actions):
            t += spec.gap
            dc = rng.choice(dcs)
            roll = rng.random()
            if roll < spec.query_frac:
                level = rng.choices(levels, weights=weights)[0]
                text = random_query_text(rng, schema, pools, staleness=level)
                actions.append({"t": t, "op": "query", "dc": dc, "text": text})
                continue
            key = f"k{sampler.draw()}"
            if roll < spec.query_frac + spec.delete_frac and key in written:
                actions.append({"t": t, "op": "delete", "dc": dc, "key": key})
                continue
            attrs = random_point(rng, schema, pools, spec.value_ranges)
            actions.append({"t": t, "op": "put", "dc": dc, "key": key,
                            "attrs": attrs})
            written.add(key)
    return actions
