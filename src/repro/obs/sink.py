"""Streaming span sinks and deterministic tail-based trace sampling.

A tracer without a sink keeps every span in memory, which is the right
tool up to a few hundred thousand spans; a million-job run drowns it.
This module is the scale tier:

:class:`SpanSink` implementations
    Receive finished spans one at a time as the tracer's resident ring
    overflows.  :class:`JsonlSpanSink` appends each span as one
    sorted-key JSON line (the same schema as
    :func:`repro.obs.export.spans_to_jsonl`, so archives diff cleanly
    against full in-memory dumps) and can stream the archive back as
    lightweight :class:`SpanRecord` objects for exporters and the
    critical-path analyzer.  :class:`MemorySpanSink` keeps records in
    memory (tests, small runs); :class:`NullSpanSink` counts and
    discards (pure-overhead benchmarking).

:class:`TraceSampler`
    **Deterministic tail-based sampling.**  The drop decision is made
    once per trace, at root-span finish, with the whole trace in hand —
    so a sampled archive never contains half a trace and intra-trace
    links never dangle.  A trace is kept when any of:

    * any span in it ended with a non-``"ok"`` status
      (``keep_errors``);
    * its root duration reaches the running ``slow_percentile``
      estimate for that root name (a P² sketch per name: O(1) memory,
      and — because it is fed in simulation order — the same estimate
      on every same-seed run);
    * its trace id was :meth:`~TraceSampler.pin`-ned (SLO alerting and
      exemplar machinery pin traces they will want to explain later);
    * a seeded hash of the trace id falls under ``keep_fraction`` —
      the baseline uniform sample.

    Every input is a pure function of the simulation, so same-seed
    runs emit **byte-identical** sampled span logs.
"""

from __future__ import annotations

import json
from typing import Dict, Iterable, Iterator, List, Optional

_M64 = (1 << 64) - 1


def _mix64(x: int) -> int:
    """splitmix64 finalizer: a well-distributed 64-bit hash of ``x``."""
    x = (x + 0x9E3779B97F4A7C15) & _M64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _M64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _M64
    return (x ^ (x >> 31)) & _M64


class SpanRecord:
    """A finished span read back from an archive.

    Quacks exactly like :class:`repro.obs.trace.Span` for every
    read-side consumer (exporters, critical path, the query layer) but
    carries no simulator reference and no mutators — the frozen,
    cheap-to-hold form.
    """

    __slots__ = ("trace_id", "span_id", "parent_id", "name", "track",
                 "start", "end_time", "status", "attributes", "events",
                 "links")

    def __init__(self, trace_id, span_id, parent_id, name, track, start,
                 end_time, status, attributes, events, links):
        self.trace_id = trace_id
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        self.track = track
        self.start = start
        self.end_time = end_time
        self.status = status
        self.attributes = attributes
        self.events = events
        self.links = links

    @classmethod
    def from_dict(cls, doc: dict) -> "SpanRecord":
        """Rebuild from the :func:`~repro.obs.export.span_to_dict`
        schema (what :class:`JsonlSpanSink` lines hold)."""
        return cls(
            trace_id=doc["trace_id"], span_id=doc["span_id"],
            parent_id=doc.get("parent_id"), name=doc["name"],
            track=doc.get("track"), start=doc["start"],
            end_time=doc.get("end"), status=doc.get("status", "ok"),
            attributes=doc.get("attributes", {}),
            events=[(e["t"], e["name"], e.get("attributes", {}))
                    for e in doc.get("events", ())],
            links=list(doc.get("links", ())),
        )

    @property
    def finished(self) -> bool:
        return self.end_time is not None

    @property
    def duration(self) -> float:
        if self.end_time is None:
            raise ValueError(f"span {self.name!r} has not ended")
        return self.end_time - self.start

    def __repr__(self):
        return (f"<SpanRecord {self.name!r} #{self.span_id} "
                f"[{self.start:.6g}, {self.end_time}] {self.status}>")


class SpanSink:
    """Interface: where archived spans go.  ``write`` receives spans in
    archive order (trace-root finish order; finish order within a
    trace); ``read_back`` must yield them in the same order."""

    #: Spans written so far.
    count = 0

    def write(self, span) -> None:
        raise NotImplementedError

    def read_back(self) -> Iterator:
        raise NotImplementedError

    def flush(self) -> None:
        pass

    def close(self) -> None:
        pass

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        self.close()
        return False


class JsonlSpanSink(SpanSink):
    """Write-through JSONL archive: one sorted-key JSON object per
    span, byte-identical across same-seed runs.  ``read_back`` streams
    :class:`SpanRecord` objects without materializing the file."""

    def __init__(self, path):
        self.path = path
        self.count = 0
        self._fh = open(path, "w", encoding="utf-8")

    def write(self, span) -> None:
        from .export import span_to_dict
        self._fh.write(json.dumps(span_to_dict(span), sort_keys=True)
                       + "\n")
        self.count += 1

    def flush(self) -> None:
        if self._fh is not None:
            self._fh.flush()

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    def read_back(self) -> Iterator[SpanRecord]:
        self.flush()
        with open(self.path, encoding="utf-8") as fh:
            for line in fh:
                line = line.strip()
                if line:
                    yield SpanRecord.from_dict(json.loads(line))

    def __repr__(self):
        return f"<JsonlSpanSink {self.path!r} count={self.count}>"


class MemorySpanSink(SpanSink):
    """Keep archived spans as in-memory :class:`SpanRecord` objects —
    the testing/small-run sink (records, not live spans, so archived
    data is frozen exactly as JSONL would freeze it)."""

    def __init__(self):
        self.records: List[SpanRecord] = []
        self.count = 0

    def write(self, span) -> None:
        from .export import span_to_dict
        self.records.append(SpanRecord.from_dict(
            json.loads(json.dumps(span_to_dict(span), sort_keys=True))))
        self.count += 1

    def read_back(self) -> Iterator[SpanRecord]:
        return iter(self.records)

    def to_jsonl(self) -> str:
        from .export import spans_to_jsonl
        return spans_to_jsonl(self.records)

    def __repr__(self):
        return f"<MemorySpanSink count={self.count}>"


class NullSpanSink(SpanSink):
    """Count and discard — prices the tracer's streaming machinery with
    no serialization or IO in the measurement."""

    def __init__(self):
        self.count = 0

    def write(self, span) -> None:
        self.count += 1

    def read_back(self) -> Iterator:
        return iter(())

    def __repr__(self):
        return f"<NullSpanSink count={self.count}>"


class TraceSampler:
    """Deterministic tail-based keep/drop decisions, one per trace.

    Parameters
    ----------
    keep_fraction:
        Baseline uniform sample of boring traces, by seeded hash of the
        trace id (``0.0`` keeps only errors/slow/pinned traces;
        ``1.0`` keeps everything).
    seed:
        Mixed into the hash so distinct experiments sample distinct
        subsets; the same seed always selects the same trace ids.
    keep_errors:
        Keep any trace containing a span whose status is not ``"ok"``.
    slow_percentile:
        Keep traces whose root duration reaches the running P² estimate
        of this percentile *for that root name* (``None`` disables).
        The sketch warms over the first ``warmup`` roots of each name —
        before that, slowness never triggers a keep.
    warmup:
        Minimum same-name root count before the latency sketch is
        trusted.
    """

    def __init__(self, keep_fraction: float = 0.01, seed: int = 1,
                 keep_errors: bool = True,
                 slow_percentile: Optional[float] = 99.0,
                 warmup: int = 64):
        if not 0.0 <= keep_fraction <= 1.0:
            raise ValueError(
                f"keep_fraction {keep_fraction} outside [0, 1]")
        if slow_percentile is not None \
                and not 0.0 < slow_percentile < 100.0:
            raise ValueError(
                f"slow_percentile {slow_percentile} outside (0, 100)")
        if warmup < 1:
            raise ValueError("warmup must be >= 1")
        self.keep_fraction = keep_fraction
        self.seed = seed
        self.keep_errors = keep_errors
        self.slow_percentile = slow_percentile
        self.warmup = warmup
        self._hash_ceiling = int(keep_fraction * (2 ** 64))
        self._pinned: set = set()
        self._latency: Dict[str, object] = {}
        #: Decision tally by reason, in decision order precedence.
        self.kept: Dict[str, int] = {"pinned": 0, "error": 0, "slow": 0,
                                     "hash": 0}
        self.dropped = 0

    # -- cross-signal hooks -------------------------------------------

    def pin(self, trace_id) -> None:
        """Guarantee retention of a trace whose root has not finished
        yet (exemplar/alert machinery calls this the moment it decides
        a trace will be worth explaining)."""
        if trace_id is not None:
            self._pinned.add(trace_id)

    def pinned(self, trace_id) -> bool:
        return trace_id in self._pinned

    # -- the decision -------------------------------------------------

    def _slow(self, root) -> bool:
        if self.slow_percentile is None:
            return False
        from .windows import P2Quantile
        sketch = self._latency.get(root.name)
        if sketch is None:
            sketch = self._latency[root.name] = P2Quantile(
                self.slow_percentile)
        duration = root.end_time - root.start
        # Compare against the estimate *before* this root joins it, so
        # the first outlier of a regime shift is kept, not absorbed.
        # Strictly above: a constant-duration workload (everything ==
        # the estimate) is the definition of not-slow.
        slow = sketch.count >= self.warmup and duration > sketch.value
        sketch.observe(duration)
        return slow

    def decide(self, root, spans: Iterable) -> bool:
        """Keep or drop the finished trace rooted at ``root`` (called
        by the tracer exactly once per trace, at root finish).
        ``spans`` is every finished span of the trace, root included."""
        if root.trace_id in self._pinned:
            self._pinned.discard(root.trace_id)
            self.kept["pinned"] += 1
            return True
        slow = self._slow(root)  # always feed the sketch
        if self.keep_errors and any(s.status != "ok" for s in spans):
            self.kept["error"] += 1
            return True
        if slow:
            self.kept["slow"] += 1
            return True
        if _mix64(root.trace_id ^ (self.seed * 0x9E3779B97F4A7C15)) \
                < self._hash_ceiling:
            self.kept["hash"] += 1
            return True
        self.dropped += 1
        return False

    # -- introspection ------------------------------------------------

    def stats(self) -> dict:
        kept = sum(self.kept.values())
        return {"kept": kept, "dropped": self.dropped,
                "kept_by_reason": dict(self.kept),
                "keep_fraction": self.keep_fraction, "seed": self.seed}

    def __repr__(self):
        return (f"<TraceSampler keep={self.keep_fraction} "
                f"kept={sum(self.kept.values())} dropped={self.dropped}>")


__all__ = [
    "JsonlSpanSink",
    "MemorySpanSink",
    "NullSpanSink",
    "SpanRecord",
    "SpanSink",
    "TraceSampler",
]
