"""Benchmark of the QPU tree simulator on seeded workloads.

    python3 bench/run.py --workload churn --seed 1 --seconds 30 --trace 0

One invocation builds one workload from the seed, validates it into a
scenario, and runs it in this process, one run at a time. Each run is a
batch: the whole action list is scheduled on the simulated clock and the
host runs it to quiescence.

``--trace 0`` times set-up, then oracle-off and oracle-on runs alternately
until ``--seconds`` have passed (at least two of each), then measures the
peak traced heap in one more oracle-off run. ``--trace 1`` makes untraced
oracle-off runs for half of ``--seconds`` (at least two), then one
oracle-off and one oracle-on run with the layer wrappers of ``tracing.py``
installed, and reports per-layer self times and counts; span files go to
``bench/out/``.

Every invocation checks that same-seed runs agree byte for byte (metrics
CSV, verify lines, messages delivered, final tick); if they do not, it
exits 1 without a result. Queries that the oracle finds wrong are counted
as ``failed`` and listed by id; any other oracle FAIL line or runtime error
makes ``correct`` false. The last line of standard output is one JSON
object with the metrics.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import heapq
import json
import random
import statistics
import sys
import time
import tracemalloc
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = Path(__file__).resolve().parent / "out"

# actions per workload at scale 1
ACTIONS = {"churn": 300, "readheavy": 1000, "ingest": 1500}
SETUP_REPS = 9

END_TO_END = {
    "setup_s": "s",
    "run_s": "s",
    "verify_s": "s",
    "peak_mib": "MiB",
}

MSG_KINDS = ("query.route", "query.dc", "query.freshness", "query.value",
             "query.resp", "clock.gossip", "index.push", "index.delta",
             "replicate")

PER_LAYER = {
    "simcore.self_s": "s",
    "simcore.events": "count",
    "simcore.events_per_s": "1/s",
    "simcore.queue_peak": "count",
    "simcore.final_tick": "ticks",
    **{f"simcore.msgs.{k}": "count" for k in MSG_KINDS},
    "geostore.self_s": "s",
    "geostore.applied_share": "ratio",
    "qpu.ingest_self_s": "s",
    "crdt_index.apply_s": "s",
    "crdt_index.deltas": "count",
    "crdt_index.dup_share": "ratio",
    "crdt_index.lookup_s": "s",
    "crdt_index.lookups": "count",
    "crdt_index.tombstones": "count",
    "crdt_index.visible": "count",
    "qpu.cache.push_s": "s",
    "qpu.cache.pushes": "count",
    "qpu.cache.probe_s": "s",
    "qpu.cache.probes": "count",
    "qpu.cache.hit_ratio": "ratio",
    "qpu.cache.insert_s": "s",
    "qpu.cache.inserts": "count",
    "qpu.route_self_s": "s",
    "qpu.coord_self_s": "s",
    "qpu.msgs_per_action": "msgs/action",
    "qpu.query_ticks_p50": "ticks",
    "qpu.query_ticks_p99": "ticks",
    "qpu.mode_switches": "count",
    "staleness.catch_up_s": "s",
    "staleness.catch_up_entries": "count",
    "staleness.unsatisfiable": "count",
    "router.to_rectangles_s": "s",
    "router.rects_per_query": "count",
    "regions.greedy_cover_s": "s",
    "router.candidate_check_s": "s",
    "router.candidates": "count",
    "router.fp_share": "ratio",
    "oracle.scan_s": "s",
    "oracle.replay_s": "s",
    "oracle.rebuild_s": "s",
    "oracle.fail_share": "ratio",
    "oracle.failed_queries": "count",
    "trace_overhead_s": "s",
    "host.reference_s": "s",
}

# span name -> per-layer self-time metric
SELF_TIME = {
    "simcore": "simcore.self_s",
    "geostore": "geostore.self_s",
    "qpu.ingest": "qpu.ingest_self_s",
    "crdt_index.apply": "crdt_index.apply_s",
    "crdt_index.lookup": "crdt_index.lookup_s",
    "qpu.cache.push": "qpu.cache.push_s",
    "qpu.cache.probe": "qpu.cache.probe_s",
    "qpu.cache.insert": "qpu.cache.insert_s",
    "qpu.route": "qpu.route_self_s",
    "qpu.coord": "qpu.coord_self_s",
    "staleness.catch_up": "staleness.catch_up_s",
    "router.to_rectangles": "router.to_rectangles_s",
    "regions.greedy_cover": "regions.greedy_cover_s",
    "router.candidate_check": "router.candidate_check_s",
}
ORACLE_SELF_TIME = {
    "oracle.scan": "oracle.scan_s",
    "oracle.replay": "oracle.replay_s",
    "oracle.rebuild": "oracle.rebuild_s",
}


# The host's speed drifts. On a 2-vCPU VM, back-to-back runs of one scenario
# switched between a fast and a slow state about 1.9x apart, in phases from
# one to tens of seconds long, and CPU time tracked wall time. Every timed
# piece of work is therefore bracketed by two timings of a fixed kernel that
# does not touch qpusim. The piece's reference time is its wall time scaled
# to a host on which the kernel takes REFERENCE_S:
#     wall * REFERENCE_S / mean(kernel before, kernel after)
# End-to-end times are medians of reference times; wall medians are printed
# beside them.
REFERENCE_S = 0.1


def reference_work(n: int = 40000) -> int:
    """Heap, dict, set and sort work of the kind the simulator does, on
    data from a fixed seed."""
    rng = random.Random(12345)
    heap: list = []
    table: dict = {}
    seen: set = set()
    acc = 0
    for i in range(n):
        k = rng.randrange(4096)
        heapq.heappush(heap, (k, i))
        key = (k, i & 7)
        table[key] = table.get(key, 0) + 1
        seen.add(k)
        if len(heap) > 64:
            acc += heapq.heappop(heap)[0]
    return acc + len(sorted(table.items())) + len(seen)


class BenchError(Exception):
    pass


def _share(num: float, den: float) -> float:
    return num / den if den else 0.0


def _percentile(values: list[int], p: float) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    return float(ordered[min(len(ordered) - 1, int(p * len(ordered)))])


class Bench:
    def __init__(self, workload: str, seed: int, scale: float = 1.0):
        from qpusim.scenario import metrics_csv, parse_scenario, run_scenario
        import workloads

        self._metrics_csv = metrics_csv
        self._parse = parse_scenario
        self._run = run_scenario
        self.workload = workload
        self.seed = seed
        self.make = workloads.WORKLOADS[workload]
        self.actions = max(int(ACTIONS[workload] * scale), 4)
        self.scenario = None
        self.kernel: list[float] = []  # reference kernel seconds

    # -- pieces --------------------------------------------------------------

    def _kernel(self) -> float:
        gc.collect()
        start = time.perf_counter()
        reference_work()
        self.kernel.append(time.perf_counter() - start)
        return self.kernel[-1]

    def timed(self, fn):
        """Run fn between two kernel timings (the previous piece's closing
        timing opens this one). Returns (result, wall s, reference s)."""
        before = self.kernel[-1] if self.kernel else self._kernel()
        gc.collect()
        start = time.perf_counter()
        out = fn()
        wall = time.perf_counter() - start
        after = self._kernel()
        return out, wall, wall * REFERENCE_S * 2 / (before + after)

    def setup(self):
        """Turn the seed into a validated scenario."""
        self.scenario = self._parse(self.make(self.seed, self.actions))

    def run(self, oracle: bool, trace: bool = False):
        """One run to quiescence, with verify.caches off (the oracle turns
        it on)."""
        self.scenario.tree.verify = False
        return self._run(self.scenario, trace=trace, oracle=oracle)

    def digest(self, report) -> str:
        h = hashlib.sha256(self._metrics_csv(report.net).encode())
        h.update("\n".join(report.verify_lines).encode())
        h.update(f"\n{report.sim.delivered} {report.sim.now}".encode())
        return h.hexdigest()

    @staticmethod
    def check_same(label: str, digests: list[str]):
        if len(digests) < 2:
            raise BenchError(f"{label}: need two same-seed runs to compare")
        if len(set(digests)) != 1:
            raise BenchError(f"{label}: same-seed runs differ: "
                             f"{sorted(set(d[:12] for d in digests))}")

    def outcome(self, report) -> dict:
        """Oracle verdict of one oracle-on run. Wrong query answers count
        as failures; any other FAIL line or runtime error is an error."""
        failed = set()
        for res in report.results:
            if res.error is not None:
                failed.add(res.query_id)
        broken = list(report.runtime_errors)
        for line in report.verify_lines:
            if line.startswith("FAIL query "):
                failed.add(line.split()[2].rstrip(":"))
            elif line.startswith("FAIL"):
                broken.append(line)
        queries = len(report.results)
        return {"failed_ids": sorted(failed, key=lambda q: int(q[1:])),
                "queries": queries,
                "attempted": len(self.scenario.workload),
                "broken": broken,
                "fail_share": _share(len(failed), queries)}

    # -- modes ---------------------------------------------------------------

    def end_to_end(self, seconds: float):
        wall = {"setup_s": [], "run_s": [], "verify_s": []}
        ref = {k: [] for k in wall}

        def record(metric, w, r):
            wall[metric].append(w)
            ref[metric].append(r)

        for _ in range(SETUP_REPS):
            _, w, r = self.timed(self.setup)
            record("setup_s", w, r)
        digests = {False: [], True: []}
        verdict = None
        deadline = time.perf_counter() + seconds
        pair = 0.0  # duration of the last off/on pair; stop before overrunning
        while len(digests[False]) < 2 or time.perf_counter() + pair < deadline:
            start = time.perf_counter()
            for oracle, metric in ((False, "run_s"), (True, "verify_s")):
                rep, w, r = self.timed(lambda: self.run(oracle))
                record(metric, w, r)
                digests[oracle].append(self.digest(rep))
                if oracle:
                    verdict = self.outcome(rep)
                del rep
            pair = time.perf_counter() - start
        self.check_same("oracle-off runs", digests[False])
        self.check_same("oracle-on runs", digests[True])
        gc.collect()
        tracemalloc.start()
        try:
            rep = self.run(oracle=False)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        self.check_same("peak-heap run", [digests[False][0], self.digest(rep)])
        metrics = {k: statistics.median(v) for k, v in ref.items()}
        metrics["peak_mib"] = peak / 2**20
        notes = {
            "repetitions": ", ".join(f"{k} {len(v)}" for k, v in wall.items()),
            "wall medians": ", ".join(f"{k} {statistics.median(v):.6g} s"
                                      for k, v in wall.items()),
            "reference kernel": f"median {statistics.median(self.kernel):.6g}"
                                f" s of {len(self.kernel)}",
        }
        return metrics, verdict, notes

    def per_layer(self, seconds: float):
        from tracing import traced

        self.setup()
        base, base_d = [], []
        deadline = time.perf_counter() + seconds / 2
        base_ref = []
        while len(base) < 2 or time.perf_counter() + base[-1] < deadline:
            rep, w, r = self.timed(lambda: self.run(oracle=False))
            base.append(w)
            base_ref.append(r)
            base_d.append(self.digest(rep))
            del rep
        self.check_same("oracle-off runs", base_d)

        with traced() as tr:
            rep, _, traced_ref = self.timed(
                lambda: self.run(oracle=False, trace=True))
        self.check_same("traced oracle-off run", [base_d[0], self.digest(rep)])
        with traced() as tr_oracle:
            rep_oracle = self.run(oracle=True)
        verdict = self.outcome(rep_oracle)
        del rep_oracle

        m = {name: 0.0 for name in PER_LAYER}
        selfs = tr.self_times()
        for span, metric in SELF_TIME.items():
            m[metric] = selfs.get(span, 0.0)
        oracle_selfs = tr_oracle.self_times()
        for span, metric in ORACLE_SELF_TIME.items():
            m[metric] = oracle_selfs.get(span, 0.0)

        c = tr.counts
        sim, net = rep.sim, rep.net
        events = c["simcore.calls"]
        m["simcore.events"] = events
        m["simcore.events_per_s"] = _share(events, statistics.median(base))
        m["simcore.queue_peak"] = c["simcore.queue_peak"]
        m["simcore.final_tick"] = sim.now
        kinds = Counter(row[3] for row in sim.trace_rows)
        for kind in MSG_KINDS:
            m[f"simcore.msgs.{kind}"] = kinds.get(kind, 0)
        m["geostore.applied_share"] = _share(c["geostore.applied"],
                                             c["geostore.replicates"])
        deltas = c["crdt_index.apply.calls"]
        m["crdt_index.deltas"] = deltas
        m["crdt_index.dup_share"] = _share(c["crdt_index.dups"], deltas)
        m["crdt_index.lookups"] = c["crdt_index.lookup.calls"]
        leaves = net.hist_leaves()
        m["crdt_index.tombstones"] = sum(
            len(getattr(leaf.index, "removed", ())) for leaf in leaves)
        m["crdt_index.visible"] = sum(
            leaf.index.visible_count() for leaf in leaves)
        caches = [n.cache for n in net.nodes.values()
                  if getattr(n, "cache", None) is not None]
        hits = sum(cache.hits for cache in caches)
        m["qpu.cache.pushes"] = c["qpu.cache.push.calls"]
        m["qpu.cache.probes"] = c["qpu.cache.probe.calls"]
        m["qpu.cache.inserts"] = c["qpu.cache.insert.calls"]
        m["qpu.cache.hit_ratio"] = _share(
            hits, hits + sum(cache.misses for cache in caches))
        m["qpu.msgs_per_action"] = _share(sim.delivered,
                                          len(self.scenario.workload))
        ticks = [r.stats["ticks_elapsed"] for r in rep.results]
        m["qpu.query_ticks_p50"] = _percentile(ticks, 0.50)
        m["qpu.query_ticks_p99"] = _percentile(ticks, 0.99)
        m["qpu.mode_switches"] = sum(len(getattr(n, "switch_log", ()))
                                     for n in net.nodes.values())
        m["staleness.catch_up_entries"] = c["staleness.catch_up_entries"]
        m["staleness.unsatisfiable"] = c["staleness.catch_up.raised"]
        m["router.rects_per_query"] = _share(c["router.rects"],
                                             c["router.to_rectangles.calls"])
        m["router.candidates"] = c["router.candidates"]
        m["router.fp_share"] = _share(c["router.removed"],
                                      c["router.candidates"])
        m["oracle.fail_share"] = verdict["fail_share"]
        m["oracle.failed_queries"] = len(verdict["failed_ids"])
        m["trace_overhead_s"] = traced_ref - statistics.median(base_ref)
        m["host.reference_s"] = statistics.median(self.kernel)

        OUT_DIR.mkdir(exist_ok=True)
        stem = f"{self.workload}-seed{self.seed}"
        tr.write(OUT_DIR / f"{stem}.spans.tsv")
        tr_oracle.write(OUT_DIR / f"{stem}-oracle.spans.tsv")
        top = max(SELF_TIME.values(), key=lambda k: m[k])
        notes = {"spans": f"{len(tr)} + {len(tr_oracle)} written to "
                          f"{OUT_DIR.relative_to(ROOT)}/{stem}*.spans.tsv",
                 "largest self time": top}
        return m, verdict, notes


def _report(workload: str, metrics: dict, units: dict, verdict: dict,
            notes: dict) -> dict:
    for name, value in metrics.items():
        print(f"{workload} {name} = {value:.6g} {units[name]}")
    for key, value in notes.items():
        print(f"{workload} {key}: {value}")
    failed = verdict["failed_ids"]
    print(f"{workload} fail_share = {verdict['fail_share']:.6g} "
          f"({len(failed)} of {verdict['queries']} queries)")
    print(f"{workload} failed queries: {' '.join(failed) or '-'}")
    return {
        "correct": not verdict["broken"],
        "attempted": verdict["attempted"],
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(ACTIONS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", type=float, default=1.0,
                    help="multiply every workload's action count")
    args = ap.parse_args(argv)

    src = ROOT / "src"
    if not (src / "qpusim" / "__init__.py").is_file():
        print(f"error: no qpusim sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))

    bench = Bench(args.workload, args.seed, args.scale)
    try:
        if args.trace:
            metrics, verdict, notes = bench.per_layer(args.seconds)
            units = PER_LAYER
        else:
            metrics, verdict, notes = bench.end_to_end(args.seconds)
            units = END_TO_END
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for line in verdict["broken"]:
        print(f"{args.workload} {line}", file=sys.stderr)
    result = _report(args.workload, metrics, units, verdict, notes)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
