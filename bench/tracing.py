"""Spans at layer boundaries, recorded from outside the package.

The traced run replaces a fixed set of public functions and methods with
wrappers that record one span per call: name, start, end, parent span, and
the ``Simulation.step`` span that caused it. Spans stay in memory while the
run goes and are written out after it. A layer's self time is its spans'
durations minus the parts their child spans cover. The wrappers also count
calls, and a few of them count what the call returned, so ratios are taken
at the boundary where the work happens.

Module-level functions are wrapped in the module that looks them up (for
example ``qpusim.qpu.greedy_cover``, not ``qpusim.regions.greedy_cover``),
because ``from ... import`` binds the name there. Methods are wrapped on the
class; actors bind their handlers when the tree is built, so the wrappers
must be installed before ``run_scenario`` is called.
"""

from __future__ import annotations

import contextlib
from array import array
from collections import defaultdict
from time import perf_counter_ns

from qpusim import geostore, qpu, scenario, simcore
from qpusim.crdt_index import CrdtIndex
from qpusim.staleness import UnsatisfiableStaleness

_FIELDS = 5  # name id, start ns, end ns, parent span, step span


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.spans = array("q")
        self._stack: list[int] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._undo: list[tuple] = []

    def __len__(self) -> int:
        return len(self.spans) // _FIELDS

    def wrap(self, owner, attr: str, name: str, *, root: bool = False,
             after=None, raises: type | None = None):
        """Replace ``owner.attr`` with a span-recording wrapper. ``root``
        marks the step span that later spans name as their cause; ``after``
        is called with (counts, args, result); a ``raises`` exception is
        counted as ``<name>.raised``. A missing attribute is skipped, so a
        layer that was deleted records nothing."""
        fn = getattr(owner, attr, None)
        if fn is None:
            return
        nid = self._ids.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)
        spans, stack, counts = self.spans, self._stack, self.counts
        calls = f"{name}.calls"
        raised = f"{name}.raised"

        def traced(*args, **kwargs):
            idx = len(spans) // _FIELDS
            if stack:
                parent = stack[-1]
                step = spans[parent * _FIELDS + 4]
            else:
                parent = -1
                step = idx if root else -1
            spans.extend((nid, 0, 0, parent, step))
            stack.append(idx)
            counts[calls] += 1
            start = perf_counter_ns()
            try:
                out = fn(*args, **kwargs)
            except Exception as exc:
                if raises is not None and isinstance(exc, raises):
                    counts[raised] += 1
                raise
            finally:
                end = perf_counter_ns()
                stack.pop()
                spans[idx * _FIELDS + 1] = start
                spans[idx * _FIELDS + 2] = end
            if after is not None:
                after(counts, args, out)
            return out

        self._undo.append((owner, attr, fn))
        setattr(owner, attr, traced)

    def restore(self):
        for owner, attr, fn in reversed(self._undo):
            setattr(owner, attr, fn)
        self._undo.clear()

    def self_times(self) -> dict[str, float]:
        """Seconds per span name, each span's duration less its children's."""
        n = len(self)
        sp = self.spans
        child = [0] * n
        for i in range(n):
            parent = sp[i * _FIELDS + 3]
            if parent >= 0:
                child[parent] += sp[i * _FIELDS + 2] - sp[i * _FIELDS + 1]
        out = dict.fromkeys(self.names, 0)
        for i in range(n):
            base = i * _FIELDS
            dur = sp[base + 2] - sp[base + 1]
            out[self.names[sp[base]]] += dur - child[i]
        return {k: v / 1e9 for k, v in out.items()}

    def write(self, path):
        """One line per span: name, start and end in ns, parent and step
        span indexes (-1 for none)."""
        sp = self.spans
        with open(path, "w") as fh:
            fh.write("span\tname\tstart_ns\tend_ns\tparent\tstep\n")
            for i in range(len(self)):
                b = i * _FIELDS
                fh.write(f"{i}\t{self.names[sp[b]]}\t{sp[b + 1]}\t{sp[b + 2]}"
                         f"\t{sp[b + 3]}\t{sp[b + 4]}\n")


# -- the layer map ------------------------------------------------------------


def _step(counts, args, out):
    pending = args[0].pending()
    if pending > counts["simcore.queue_peak"]:
        counts["simcore.queue_peak"] = pending


def _apply_remote(counts, args, out):
    counts["geostore.replicates"] += 1
    counts["geostore.applied"] += out


def _apply_delta(counts, args, out):
    if not out:
        counts["crdt_index.dups"] += 1


def _catch_up(counts, args, out):
    counts["staleness.catch_up_entries"] += out


def _to_rectangles(counts, args, out):
    counts["router.rects"] += len(out)


def _candidate_check(counts, args, out):
    counts["router.candidates"] += len(args[0])
    counts["router.removed"] += out[1]


def install_layers(tracer: Tracer):
    """Wrap every layer boundary the benchmark reports on."""
    t = tracer
    t.wrap(simcore.Simulation, "step", "simcore", root=True, after=_step)
    t.wrap(geostore.DcReplica, "apply_remote", "geostore", after=_apply_remote)
    t.wrap(geostore.DcReplica, "put", "geostore")
    t.wrap(geostore.DcReplica, "delete", "geostore")
    t.wrap(qpu.Qpu, "_on_feed", "qpu.ingest")
    t.wrap(CrdtIndex, "apply_delta", "crdt_index.apply", after=_apply_delta)
    t.wrap(CrdtIndex, "lookup", "crdt_index.lookup")
    t.wrap(qpu.ResultCache, "push", "qpu.cache.push")
    t.wrap(qpu.ResultCache, "probe", "qpu.cache.probe")
    t.wrap(qpu.ResultCache, "insert", "qpu.cache.insert")
    t.wrap(qpu.Qpu, "handle", "qpu.route")
    t.wrap(qpu.Coordinator, "submit", "qpu.coord")
    t.wrap(qpu.Coordinator, "handle", "qpu.coord")
    t.wrap(qpu, "catch_up", "staleness.catch_up", after=_catch_up,
           raises=UnsatisfiableStaleness)
    t.wrap(qpu, "to_rectangles", "router.to_rectangles", after=_to_rectangles)
    t.wrap(qpu, "greedy_cover", "regions.greedy_cover")
    t.wrap(qpu, "candidate_check", "router.candidate_check",
           after=_candidate_check)
    t.wrap(scenario, "scan", "oracle.scan")
    t.wrap(scenario, "replay_matches", "oracle.replay")
    t.wrap(scenario, "rebuild_index", "oracle.rebuild")


@contextlib.contextmanager
def traced():
    """Install the layer wrappers for the duration of the block."""
    tracer = Tracer()
    install_layers(tracer)
    try:
        yield tracer
    finally:
        tracer.restore()
