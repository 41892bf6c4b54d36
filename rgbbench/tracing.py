"""In-memory span tracing around the public functions of each layer.

A traced pass patches the listed functions *at class or module level* before
any harness or engine is built, so bound methods captured at construction
time (``TransportDispatch`` pre-binds ``Transport.send_fire_and_forget``)
resolve to the wrapper as well.  Nothing under ``src/`` is edited; the
original attributes are restored when the pass ends.

Spans are kept in four parallel ``array('q')`` columns (start, end, parent,
name id), summarised after the pass and written once, as an ``.npz`` file,
when the run ends.  A span's self time is its duration minus the durations
of its direct children; since every traced call is synchronous on one
thread, children nest inside their parents by construction.
"""

from __future__ import annotations

import importlib
import time
from array import array
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, ContextManager, Dict, Iterator, List, Tuple

#: (module, attribute path, span name).  The span name is the layer metric
#: prefix: ``<layer>.<call>``.  Module-level functions are patched in the
#: module that *calls* them (``repro.serving.frontend`` imports the fan-out
#: helpers by name).
LAYER_CALLS: Tuple[Tuple[str, str, str], ...] = (
    ("repro.core.hierarchy", "HierarchyBuilder.regular", "build.hierarchy"),
    ("repro.core.columnar", "ColumnarKernel.__init__", "build.kernel"),
    ("repro.sim.harness", "ScenarioHarness.__init__", "build.harness"),
    ("repro.sim.harness", "ScenarioHarness.run", "harness.run"),
    ("repro.sim.engine", "SimulationEngine.run", "engine.run"),
    ("repro.sim.transport", "Transport.send", "transport.send"),
    ("repro.sim.transport", "Transport.send_fire_and_forget", "transport.ff"),
    ("repro.sim.harness", "TransportDispatch.deliver_notification", "dispatch.notify"),
    ("repro.sim.harness", "TransportDispatch.token_hop", "dispatch.token_hop"),
    ("repro.core.columnar", "ColumnarKernel.run_round", "kernel.round"),
    ("repro.core.columnar", "ColumnarKernel.propagate", "kernel.propagate"),
    ("repro.core.deltas", "MembershipDelta.from_operations", "delta.compile"),
    ("repro.core.membership", "MembershipView.apply_delta", "delta.apply"),
    ("repro.core.membership", "MembershipView.add", "delta.view_mutation"),
    ("repro.core.membership", "MembershipView.remove", "delta.view_mutation"),
    ("repro.serving.frontend", "ServingFrontend.drain", "serving.drain"),
    ("repro.serving.snapshots", "SnapshotCache.acquire", "serving.acquire"),
    ("repro.serving.frontend", "tier_leader_fanout", "serving.fanout"),
    ("repro.serving.frontend", "topmost_leader", "serving.fanout"),
)


class Tracer:
    """Span recorder: four parallel columns, one row per traced call.

    ``counts`` holds plain counters bumped by wrappers (delta entries).
    """

    def __init__(self) -> None:
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.name = array("q")
        self.counts: Dict[str, int] = {}
        self._stack: List[int] = []  # ids of the open spans
        self.last_closed = -1

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, fn: Callable, name: str) -> Callable:
        """``fn`` recording one span named ``name`` per call."""
        nid = self.name_id(name)
        starts, ends, parents, names = self.start, self.end, self.parent, self.name
        stack = self._stack
        clock = time.perf_counter_ns
        tracer = self

        def traced(*args, **kwargs):
            sid = len(starts)
            parents.append(stack[-1] if stack else -1)
            names.append(nid)
            ends.append(0)
            stack.append(sid)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[sid] = clock()
                stack.pop()
                tracer.last_closed = sid

        traced.__wrapped__ = fn
        return traced

    def relabel(self, sid: int, name: str) -> None:
        self.name[sid] = self.name_id(name)

    # -- read-out (after the pass) -------------------------------------------

    def self_times_ns(self) -> List[int]:
        """Per span: its duration minus its direct children's durations."""
        out = [self.end[i] - self.start[i] for i in range(len(self.start))]
        for i, p in enumerate(self.parent):
            if p >= 0:
                out[p] -= self.end[i] - self.start[i]
        return out

    def summary(self) -> Dict[str, Tuple[int, float, float]]:
        """Per span name: (calls, inclusive seconds, self seconds)."""
        own = self.self_times_ns()
        totals = {name: [0, 0, 0] for name in self.names}
        for i, nid in enumerate(self.name):
            total = totals[self.names[nid]]
            total[0] += 1
            total[1] += self.end[i] - self.start[i]
            total[2] += own[i]
        return {name: (c, inc / 1e9, own_ns / 1e9) for name, (c, inc, own_ns) in totals.items()}

    def root_seconds(self) -> float:
        """Summed duration of top-level spans (= summed self time of all)."""
        return sum(
            self.end[i] - self.start[i] for i, p in enumerate(self.parent) if p < 0
        ) / 1e9

    def dump(self, path: Path) -> None:
        """Write every span once, as numpy columns plus the name table."""
        import numpy as np

        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(
            path,
            start_ns=np.frombuffer(self.start, dtype=np.int64),
            end_ns=np.frombuffer(self.end, dtype=np.int64),
            parent=np.frombuffer(self.parent, dtype=np.int64),
            name=np.frombuffer(self.name, dtype=np.int64),
            names=np.array(self.names),
        )


def _resolve(module_name: str, path: str):
    owner = importlib.import_module(module_name)
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, attr


@contextmanager
def installed(tracer: Tracer) -> Iterator[Callable[[], ContextManager[None]]]:
    """Patch every :data:`LAYER_CALLS` entry with a span wrapper.

    Yields ``suspended``: a context manager that restores the originals for
    its duration (the benchmark's own gates run there, unrecorded).
    """
    patches = []
    for module_name, path, span in LAYER_CALLS:
        owner, attr = _resolve(module_name, path)
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        if isinstance(original, classmethod):
            wrapped = classmethod(tracer.wrap(original.__func__, span))
        elif span == "delta.apply":
            wrapped = _counting_entries(tracer, tracer.wrap(original, span))
        elif span == "serving.acquire":
            wrapped = _labelling_captures(tracer, tracer.wrap(original, span))
        else:
            wrapped = tracer.wrap(original, span)
        patches.append((owner, attr, original, wrapped))

    def apply(use_wrapped: bool) -> None:
        for owner, attr, original, wrapped in patches:
            setattr(owner, attr, wrapped if use_wrapped else original)

    @contextmanager
    def suspended() -> Iterator[None]:
        apply(False)
        try:
            yield
        finally:
            apply(True)

    apply(True)
    try:
        yield suspended
    finally:
        apply(False)


def _counting_entries(tracer: Tracer, traced: Callable) -> Callable:
    counts = tracer.counts
    counts.setdefault("delta.entries", 0)

    def apply_delta(view, delta, *args, **kwargs):
        counts["delta.entries"] += len(delta.entries)
        return traced(view, delta, *args, **kwargs)

    return apply_delta


def _labelling_captures(tracer: Tracer, traced: Callable) -> Callable:
    """Book an acquire that had to (re)capture its frame as ``serving.capture``."""

    def acquire(cache, *args, **kwargs):
        before = cache.captures
        frame = traced(cache, *args, **kwargs)
        if cache.captures != before:
            tracer.relabel(tracer.last_closed, "serving.capture")
        return frame

    return acquire
