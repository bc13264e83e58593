"""Seeded benchmark workloads for the QPU tree.

Each workload turns a seed into a raw scenario document: schema, network and
tree mirror a bundled scenario, and the action list is drawn from the seed
through the package's public generators. The same seed always yields the same
document, byte for byte. ``parse_scenario`` then validates it into a
``Scenario``; that pair of steps is what the benchmark times as set-up.
"""

from __future__ import annotations

import random

from qpusim.regions import AttributeSchema
from qpusim.workload import (
    KeySampler,
    WorkloadSpec,
    gen_phases,
    random_point,
    random_query_text,
    text_pool,
)

# Schema, network and tree of scenarios/churn.json.
CHURN_BASE = {
    "dcs": ["east", "west", "apac"],
    "schema": {
        "lat": {"kind": "float", "lo": -90.0, "hi": 90.0},
        "lon": {"kind": "float", "lo": -180.0, "hi": 180.0},
        "floors": {"kind": "int", "lo": 1, "hi": 60},
    },
    "binning": {"lat": 12, "lon": 12, "floors": 6},
    "net": {"intra_dc_delay": 1, "inter_dc_delay": 5, "jitter": 6,
            "dup_prob": 0.1},
    "tree": {
        "root_dc": "east",
        "replicated": True,
        "repl_mode": "log",
        "gossip_every": 8,
        "cache_capacity": 128,
        "history": {
            "attr": "lon", "at": 0.0,
            "lo": "leaf",
            "hi": {"attr": "lat", "at": 0.0, "lo": "leaf", "hi": "leaf"},
        },
    },
}

# Schema, network and tree of scenarios/convergence.json, switched to
# adaptive replication with a window short enough to flip within one run.
INGEST_BASE = {
    "dcs": ["dc1", "dc2", "dc3"],
    "schema": {
        "price": {"kind": "float", "lo": 0.0, "hi": 1000.0},
        "stock": {"kind": "int", "lo": 0, "hi": 500},
        "rating": {"kind": "float", "lo": 0.0, "hi": 5.0},
        "vendor": {"kind": "text", "alphabet": "abcdefghijklmnopqrstuvwxyz"},
    },
    "binning": {"price": 16, "stock": 10, "rating": 5},
    "net": {"intra_dc_delay": 1, "inter_dc_delay": 6, "jitter": 20,
            "dup_prob": 0.2},
    "tree": {
        "root_dc": "dc2",
        "replicated": True,
        "repl_mode": "adaptive",
        "gossip_every": 10,
        "selectivity": {"window": 200, "theta_low": 0.05, "theta_high": 0.15},
        "history": {"attr": "price", "at": 500.0, "lo": "leaf", "hi": "leaf"},
    },
}

CHURN_STALENESS = (("any", 0.3), ("strong", 0.25), ("bounded:0", 0.1),
                   ("bounded:5", 0.15), ("bounded:50", 0.1), ("snapshot", 0.1))
READHEAVY_STALENESS = (("any", 0.4), ("snapshot", 0.3), ("bounded:50", 0.3))
READHEAVY_TEMPLATES = 12
# The templates are part of the workload, like its schema: drawn once from
# this seed, so the seed argument varies the traffic, not the query set.
READHEAVY_TEMPLATE_SEED = 0


def _schema(base: dict) -> dict[str, AttributeSchema]:
    return {a: AttributeSchema(a, s["kind"], s.get("lo"), s.get("hi"),
                               s.get("alphabet"))
            for a, s in base["schema"].items()}


def _document(base: dict, name: str, seed: int, actions: list[dict]) -> dict:
    return {**base, "name": name, "seed": seed,
            "verify": {"oracle": False, "caches": False},
            "workload": actions}


def churn(seed: int, actions: int) -> dict:
    """Never-repeating random queries among zipf writes, with one east-apac
    partition window over the middle tenth of the run."""
    spec = WorkloadSpec(objects=300, actions=actions, theta=0.99,
                        query_frac=0.34, delete_frac=0.05, gap=2,
                        staleness_mix=CHURN_STALENESS)
    acts = gen_phases(_schema(CHURN_BASE), CHURN_BASE["dcs"], [spec], seed)
    end = acts[-1]["t"] if acts else 2
    start = max(end * 45 // 100, 1)
    cut = {"t": start, "op": "partition", "a": "east", "b": "apac",
           "until": max(end * 55 // 100, start + 1)}
    pos = next((i for i, a in enumerate(acts) if a["t"] > start), len(acts))
    acts.insert(pos, cut)
    return _document(CHURN_BASE, "bench-churn", seed, acts)


def readheavy(seed: int, actions: int) -> dict:
    """About nine queries in ten, drawn from a dozen fixed templates with
    staleness weighted to any, snapshot and bounded:50; the rest are zipf
    writes."""
    schema = _schema(CHURN_BASE)
    dcs = CHURN_BASE["dcs"]
    fixed = random.Random(READHEAVY_TEMPLATE_SEED)
    pools = {a: text_pool(fixed, s) for a, s in schema.items()
             if s.kind == "text"}
    templates = [random_query_text(fixed, schema, pools, staleness="")
                 for _ in range(READHEAVY_TEMPLATES)]
    rng = random.Random(seed)
    levels = [lv for lv, _ in READHEAVY_STALENESS]
    weights = [w for _, w in READHEAVY_STALENESS]
    keys = KeySampler(300, "zipf", 0.99, rng)
    acts = []
    t = 1
    for _ in range(actions):
        t += 2
        dc = rng.choice(dcs)
        if rng.random() < 0.9:
            text = rng.choice(templates)
            level = rng.choices(levels, weights=weights)[0]
            if level != "any":
                text += f" FRESHNESS {level}"
            acts.append({"t": t, "op": "query", "dc": dc, "text": text})
        else:
            acts.append({"t": t, "op": "put", "dc": dc,
                         "key": f"k{keys.draw()}",
                         "attrs": random_point(rng, schema, pools)})
    return _document(CHURN_BASE, "bench-readheavy", seed, acts)


def ingest(seed: int, actions: int) -> dict:
    """Write-only: two phases move the written prices from the low half of
    the value space to the high half, so adaptive leaves switch modes."""
    half = actions // 2
    phases = [
        WorkloadSpec(objects=900, actions=half, theta=0.9, query_frac=0.0,
                     delete_frac=0.06, gap=1,
                     value_ranges={"price": (0.0, 499.0)}),
        WorkloadSpec(objects=900, actions=actions - half, theta=0.9,
                     query_frac=0.0, delete_frac=0.06, gap=1,
                     value_ranges={"price": (501.0, 1000.0)}),
    ]
    acts = gen_phases(_schema(INGEST_BASE), INGEST_BASE["dcs"], phases, seed)
    return _document(INGEST_BASE, "bench-ingest", seed, acts)


WORKLOADS = {"churn": churn, "readheavy": readheavy, "ingest": ingest}
