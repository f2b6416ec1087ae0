"""Per-layer measurement from outside the program.

Two instruments, both used only by the traced run:

* :class:`SpanRecorder` wraps public entry points of each ``repro.*``
  package (:data:`BOUNDARIES`) in spans.  A span records its name,
  start, end, parent and workload; spans stay in memory and are written
  out when the run ends.  Self time is a span's duration minus what its
  children cover.  Every wrapped call is synchronous, so spans nest
  strictly and self time is computed exactly as they close.
* :func:`rollup` charges a ``cProfile`` of the run to layers.  In a
  discrete-event simulator a layer's work runs in generator processes
  the kernel resumes, not inside the public call that started them,
  so spans alone would bill it to the kernel.  Each function's self
  time goes to its own ``repro`` package; time in C, NumPy or the
  standard library goes to the nearest ``repro`` ancestor frame.
"""

from __future__ import annotations

import importlib
import time
from array import array
from collections import defaultdict
from pathlib import Path
from typing import Dict, Optional

import numpy as np

import repro

#: (module, class, attribute, span name).  Properties are wrapped on
#: their getter.  Several attributes may share one span name.
BOUNDARIES = (
    ("repro.simkernel.core", "Simulator", "run", "simkernel.run"),
    ("repro.network.flows", "FlowScheduler", "start_flow",
     "network.start_flow"),
    ("repro.network.flows", "FlowScheduler", "cancel", "network.cancel"),
    ("repro.mapreduce.engine", "JobTracker", "submit", "mapreduce.submit"),
    ("repro.mapreduce.engine", "JobTracker", "add_tracker",
     "mapreduce.add_tracker"),
    ("repro.cloud.provider", "Cloud", "capacity", "cloud.capacity"),
    ("repro.cloud.provider", "Cloud", "run_instances", "cloud.run_instances"),
    ("repro.cloud.provider", "Cloud", "terminate", "cloud.terminate"),
    ("repro.cloud.contextualization", "ContextBroker", "contextualize",
     "cloud.contextualize"),
    ("repro.sky.federation", "Federation", "create_virtual_cluster",
     "sky.create_virtual_cluster"),
    ("repro.sky.federation", "Federation", "replicate_image",
     "sky.replicate_image"),
    ("repro.vine.overlay", "ViNeOverlay", "register", "vine.register"),
    ("repro.hypervisor.host", "PhysicalHost", "used_cores",
     "hypervisor.used"),
    ("repro.hypervisor.host", "PhysicalHost", "used_ram", "hypervisor.used"),
    ("repro.hypervisor.host", "PhysicalHost", "free_cores",
     "hypervisor.used"),
    ("repro.hypervisor.host", "PhysicalHost", "free_ram", "hypervisor.used"),
    ("repro.hypervisor.host", "PhysicalHost", "fits", "hypervisor.used"),
    ("repro.hypervisor.host", "PhysicalHost", "place", "hypervisor.place"),
    ("repro.hypervisor.host", "PhysicalHost", "evict", "hypervisor.evict"),
    ("repro.hypervisor.migration", "LiveMigrator", "migrate",
     "hypervisor.migrate"),
    ("repro.shrinker.codec", "ShrinkerCodec", "encode", "shrinker.encode"),
    ("repro.shrinker.coordinator", "ClusterMigrationCoordinator",
     "migrate_cluster", "shrinker.migrate_cluster"),
    ("repro.controlplane.plane", "ControlPlane", "submit",
     "controlplane.submit"),
    ("repro.controlplane.lease", "LeaseManager", "active_leases",
     "controlplane.active_leases"),
    ("repro.controlplane.lease", "LeaseManager", "grant",
     "controlplane.grant"),
    ("repro.controlplane.lease", "LeaseManager", "release",
     "controlplane.release"),
    ("repro.controlplane.eventlog", "EventLog", "append",
     "controlplane.eventlog.append"),
    ("repro.obs.trace", "Tracer", "start", "obs.start"),
)

#: Spans kept for the written trace; past this, spans still count
#: toward calls and self time but are not stored one by one.
MAX_KEPT_SPANS = 2_000_000


class SpanRecorder:
    """In-memory spans around the :data:`BOUNDARIES` calls."""

    def __init__(self, workload: str):
        self.workload = workload
        self.names = sorted({b[3] for b in BOUNDARIES})
        self.calls = [0] * len(self.names)
        self.self_s = [0.0] * len(self.names)
        # Kept spans, column-wise: name index, start, end, parent index.
        self.name_col = array("H")
        self.start_col = array("d")
        self.end_col = array("d")
        self.parent_col = array("l")
        self.dropped = 0
        # Open spans: [kept index or -1, time covered by children].
        self._stack = []
        self._t0 = time.perf_counter()

    def install(self) -> "SpanRecorder":
        """Patch every boundary; for the life of the process."""
        ids = {name: i for i, name in enumerate(self.names)}
        for module, cls_name, attr, span_name in BOUNDARIES:
            cls = getattr(importlib.import_module(module), cls_name)
            original = cls.__dict__[attr]
            if isinstance(original, property):
                wrapped = property(self._wrap(original.fget, ids[span_name]))
            else:
                wrapped = self._wrap(original, ids[span_name])
            setattr(cls, attr, wrapped)
        return self

    def _wrap(self, fn, name_id):
        stack = self._stack
        clock = time.perf_counter
        t0 = self._t0
        names, starts = self.name_col, self.start_col
        ends, parents = self.end_col, self.parent_col
        calls, self_s = self.calls, self.self_s

        def span(*args, **kwargs):
            start = clock()
            idx = len(starts)
            if idx < MAX_KEPT_SPANS:
                names.append(name_id)
                starts.append(start - t0)
                ends.append(0.0)
                parents.append(stack[-1][0] if stack else -1)
            else:
                idx = -1
                self.dropped += 1
            frame = [idx, 0.0]
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                if idx >= 0:
                    ends[idx] = end - t0
                if stack:
                    stack[-1][1] += duration
                calls[name_id] += 1
                self_s[name_id] += duration - frame[1]

        return span

    def totals(self) -> Dict[str, Dict[str, float]]:
        """``{span name: {"calls": n, "s": self seconds}}``."""
        return {name: {"calls": self.calls[i], "s": self.self_s[i]}
                for i, name in enumerate(self.names)}

    def dump(self, path: Path) -> int:
        """Write the kept spans (``.npz``, times relative to the
        recorder's creation); returns how many were written."""
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(path, workload=np.array(self.workload),
                 names=np.array(self.names),
                 name=np.frombuffer(self.name_col, dtype=np.uint16),
                 start=np.frombuffer(self.start_col, dtype=np.float64),
                 end=np.frombuffer(self.end_col, dtype=np.float64),
                 parent=np.frombuffer(self.parent_col, dtype=np.int64),
                 dropped=np.array(self.dropped))
        return len(self.start_col)


# -- cProfile rollup -------------------------------------------------------

_REPRO_DIR = str(Path(repro.__file__).resolve().parent) + "/"
_BENCH_DIR = str(Path(__file__).resolve().parent) + "/"
#: ``repro`` modules that are not layers of their own.
_FOLD = {"metrics": "obs", "testbeds": "setup", "workloads": "setup"}


def layer_of(filename: str) -> Optional[str]:
    """The layer a source file belongs to, or None for code outside
    ``repro`` and this benchmark (C functions, stdlib, NumPy)."""
    if filename.startswith(_BENCH_DIR):
        # Input generation is set-up; the rest is the benchmark itself.
        return "setup" if filename.endswith("inputs.py") else "bench"
    if not filename.startswith(_REPRO_DIR):
        return None
    top = filename[len(_REPRO_DIR):].split("/", 1)[0]
    top = top[:-3] if top.endswith(".py") else top
    return _FOLD.get(top, top)


def rollup(stats: dict) -> Dict[str, float]:
    """Self seconds per layer from ``pstats.Stats(...).stats``.

    A function outside every layer is charged to its callers in
    proportion to the self time each call edge carries, and a caller
    outside every layer passes its share up in proportion to its own
    callers' cumulative time, until a layer frame is reached.  Time
    with no layer ancestor lands under ``None``.
    """
    layers = {func: layer_of(func[0]) for func in stats}
    memo: Dict[tuple, Dict[Optional[str], float]] = {}

    def weights(edges, column):
        total = sum(e[column] for e in edges.values())
        if total <= 0:
            column, total = 1, sum(e[1] for e in edges.values())
        return {c: e[column] / total for c, e in edges.items()} if total \
            else {}

    def ancestry(func) -> Dict[Optional[str], float]:
        """Where ``func``'s time goes: layer -> fraction."""
        if func in memo:
            return memo[func]
        memo[func] = {None: 1.0}  # a recursion cycle stays unattributed
        dist: Dict[Optional[str], float] = defaultdict(float)
        edges = stats[func][4] if func in stats else {}
        split = weights(edges, 3)
        if not split:
            dist[None] = 1.0
        for caller, w in split.items():
            layer = layers.get(caller) or layer_of(caller[0])
            if layer:
                dist[layer] += w
            else:
                for k, v in ancestry(caller).items():
                    dist[k] += w * v
        memo[func] = dict(dist)
        return memo[func]

    out: Dict[Optional[str], float] = defaultdict(float)
    for func, (_cc, _nc, tt, _ct, callers) in stats.items():
        if tt <= 0:
            continue
        if layers[func]:
            out[layers[func]] += tt
            continue
        split = weights(callers, 2)
        if not split:
            out[None] += tt
        for caller, w in split.items():
            layer = layers.get(caller) or layer_of(caller[0])
            if layer:
                out[layer] += tt * w
            else:
                for k, v in ancestry(caller).items():
                    out[k] += tt * w * v
    return dict(out)
