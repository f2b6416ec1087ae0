"""Causal tracing over the simulation clock.

A :class:`Tracer` produces nested, causally linked :class:`Span` records
— the simulation-time analogue of OpenTelemetry spans.  Every span
carries a ``trace_id`` (the root span's id), its own ``span_id``, its
``parent_id``, free-form attributes, point-in-time events, and *links*
to spans in other causal chains (e.g. the transfer that unblocked this
one).  Exporters (:mod:`repro.obs.export`) turn the span list into a
Perfetto-loadable Chrome trace or a structured JSONL log;
:mod:`repro.obs.critical_path` walks the causality to attribute
end-to-end time.

Design constraints, both load-bearing:

* **Zero cost when disabled.**  Instrumented modules never construct a
  tracer; they look one up with :func:`tracer_of`, which returns the
  module-level :data:`NULL_TRACER` unless :meth:`Tracer.install` has
  attached a real one to the simulator.  The null tracer hands out the
  :data:`NULL_SPAN` singleton whose every method is a no-op, so the
  instrumented hot paths add one attribute lookup and nothing else.
* **Determinism.**  Span ids come from one seeded monotonic counter and
  every timestamp is ``sim.now`` — never wall clock — so same-seed runs
  produce byte-identical span logs.
"""

from __future__ import annotations

import itertools
from collections import deque
from typing import Any, Dict, List, NamedTuple, Optional, Tuple


class SpanContext(NamedTuple):
    """The propagatable identity of a span (what crosses process
    boundaries when the span object itself should not)."""

    trace_id: Optional[int]
    span_id: Optional[int]
    track: Optional[str] = None


class Span:
    """One timed operation in a trace.

    Usable as a context manager (ends with status ``"error"`` if the
    body raises) or via an explicit, idempotent :meth:`end`.
    """

    __slots__ = ("_sim", "_tracer", "trace_id", "span_id", "parent_id",
                 "name", "track", "start", "end_time", "status",
                 "attributes", "events", "links")

    def __init__(self, sim, trace_id: int, span_id: int,
                 parent_id: Optional[int], name: str, track: str,
                 attributes: Dict[str, Any]):
        self._sim = sim
        #: Set by a *streaming* tracer so end() can hand the finished
        #: span to the sink pipeline; None on the classic path.
        self._tracer = None
        self.trace_id = trace_id
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        self.track = track
        # Direct clock-attribute reads (here, in event() and in end())
        # skip the property descriptor on the span hot path.
        self.start: float = sim._now
        self.end_time: Optional[float] = None
        self.status: str = "ok"
        self.attributes = attributes
        #: ``(time, name, attributes)`` point-in-time annotations.
        self.events: List[Tuple[float, str, Dict[str, Any]]] = []
        #: Span ids of causally related spans in *other* chains.
        self.links: List[int] = []

    # -- identity ------------------------------------------------------

    @property
    def context(self) -> SpanContext:
        return SpanContext(self.trace_id, self.span_id, self.track)

    @property
    def finished(self) -> bool:
        return self.end_time is not None

    @property
    def duration(self) -> float:
        if self.end_time is None:
            raise ValueError(f"span {self.name!r} has not ended")
        return self.end_time - self.start

    # -- mutation ------------------------------------------------------

    def set(self, **attributes) -> "Span":
        """Attach (or overwrite) attributes; returns self."""
        self.attributes.update(attributes)
        return self

    def event(self, name: str, **attributes) -> "Span":
        """Record a point-in-time event at ``sim.now``."""
        self.events.append((self._sim._now, name, attributes))
        return self

    def link(self, other) -> "Span":
        """Link a causally related span (or its context) from another
        chain — rendered as a flow arrow in Perfetto."""
        span_id = getattr(other, "span_id", None)
        if span_id is not None:
            self.links.append(span_id)
        return self

    def end(self, status: Optional[str] = None) -> "Span":
        """Close the span at ``sim.now``.  Idempotent: only the first
        call sets the end time and status."""
        if self.end_time is None:
            self.end_time = self._sim._now
            if status is not None:
                self.status = status
            if self._tracer is not None:
                self._tracer._on_span_end(self)
        return self

    def end_on(self, event, status: str = "ok",
               fail_status: str = "cancelled") -> "Span":
        """End this span when a simkernel event is processed (e.g. a
        flow's ``done``), with ``fail_status`` if the event failed."""
        def _close(ev):
            self.end(status if ev.ok is not False else fail_status)

        if event.callbacks is None:  # already processed
            _close(event)
        else:
            event.callbacks.append(_close)
        return self

    # -- context manager ----------------------------------------------

    def __enter__(self) -> "Span":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.end("error" if exc_type is not None else None)
        return False

    def __repr__(self):
        end = f"{self.end_time:.6g}" if self.end_time is not None else "…"
        return (f"<Span {self.name!r} #{self.span_id} "
                f"[{self.start:.6g}, {end}] {self.status}>")


class _NullSpan:
    """The do-nothing span: every mutator returns self, truthiness is
    False so ``span or fallback`` reads naturally."""

    __slots__ = ()

    trace_id = None
    span_id = None
    parent_id = None
    name = ""
    track = None
    start = 0.0
    end_time = None
    status = "ok"
    attributes: Dict[str, Any] = {}
    events: Tuple = ()
    links: Tuple = ()
    finished = False
    context = SpanContext(None, None, None)

    def set(self, **attributes):
        return self

    def event(self, name, **attributes):
        return self

    def link(self, other):
        return self

    def end(self, status=None):
        return self

    def end_on(self, event, status="ok", fail_status="cancelled"):
        return self

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        return False

    def __bool__(self):
        return False

    def __repr__(self):
        return "<NullSpan>"


#: The shared no-op span handed out by the null tracer.
NULL_SPAN = _NullSpan()


class _TraceBuffer:
    """Per-trace working set of a streaming tracer: spans still open,
    spans finished but awaiting the root's keep/drop decision, and the
    decision itself once made."""

    __slots__ = ("open_spans", "finished", "decision")

    def __init__(self):
        #: span_id -> span, in start order (O(1) removal on end).
        self.open_spans: Dict[int, Span] = {}
        self.finished: List[Span] = []
        self.decision: Optional[bool] = None


class Tracer:
    """Factory and registry of spans for one simulation.

    Two modes:

    * **Classic** (default): every span lives in :attr:`spans` for the
      whole run — simple, random-access, O(run) memory.
    * **Streaming** (any of ``sink`` / ``sampler`` given): spans are
      buffered per trace until their root finishes, the ``sampler``
      (if any) then keeps or drops the *whole trace* — deterministic,
      so links inside a trace never dangle — and kept spans enter a
      resident ring of at most ``max_resident`` finished spans whose
      overflow is archived to the ``sink``.  Peak memory is
      O(max_resident + open spans), not O(run).  Consumers iterate
      :meth:`iter_spans` (archive + resident + pending + open);
      :attr:`spans` still works but materializes the archive.
    """

    #: Real tracers record; instrumentation may branch on this to skip
    #: building expensive attributes.
    enabled = True

    #: Resident-ring size used when a sink is given without an explicit
    #: ``max_resident``.
    DEFAULT_MAX_RESIDENT = 4096

    def __init__(self, sim, seed: int = 1, sink=None, sampler=None,
                 max_resident: Optional[int] = None):
        self.sim = sim
        self._ids = itertools.count(seed)
        #: Every retained span (classic mode: every span ever started,
        #: in creation order; streaming mode: unused — see _resident).
        self._spans: List[Span] = []
        self.sink = sink
        self.sampler = sampler
        if max_resident is not None:
            if max_resident < 1:
                raise ValueError("max_resident must be >= 1")
            if sink is None:
                raise ValueError(
                    "max_resident needs a sink to overflow into")
        elif sink is not None:
            max_resident = self.DEFAULT_MAX_RESIDENT
        self.max_resident = max_resident
        self._streaming = sink is not None or sampler is not None
        #: Finished, retained spans not yet archived (newest last).
        self._resident: deque = deque()
        self._by_trace: Dict[int, _TraceBuffer] = {}
        self.started = 0
        self.dropped_spans = 0
        self.dropped_traces = 0
        self.resident_peak = 0

    def install(self) -> "Tracer":
        """Make this the simulator's tracer (what :func:`tracer_of`
        finds); returns self for chaining."""
        self.sim._tracer = self
        return self

    def start(self, name: str, parent=None, track: Optional[str] = None,
              links=(), **attributes) -> Span:
        """Open a span.

        ``parent`` is a :class:`Span`, :class:`SpanContext`, or None
        (``NULL_SPAN`` counts as None, so instrumentation can pass
        whatever it was handed).  ``track`` names the horizontal lane
        the span renders on; children inherit their parent's lane by
        default.
        """
        parent_id = getattr(parent, "span_id", None)
        span_id = next(self._ids)
        if parent_id is None:
            trace_id = span_id
        else:
            trace_id = parent.trace_id
            if track is None:
                track = getattr(parent, "track", None)
        span = Span(self.sim, trace_id, span_id, parent_id, name,
                    track if track is not None else "main",
                    dict(attributes))
        for other in links:
            span.link(other)
        self.started += 1
        if not self._streaming:
            self._spans.append(span)
            return span
        span._tracer = self
        buf = self._by_trace.get(trace_id)
        if buf is None:
            buf = self._by_trace[trace_id] = _TraceBuffer()
        buf.open_spans[span_id] = span
        return span

    #: Alias so ``with tracer.span("phase"):`` reads well.
    span = start

    # -- streaming pipeline --------------------------------------------

    def _on_span_end(self, span: Span) -> None:
        """A streaming span just finished: move it along the
        buffer → decision → resident ring → sink pipeline."""
        buf = self._by_trace.get(span.trace_id)
        if buf is None:  # trace already fully closed; re-buffer
            buf = self._by_trace[span.trace_id] = _TraceBuffer()
        else:
            buf.open_spans.pop(span.span_id, None)
        if buf.decision is None:
            buf.finished.append(span)
            if span.span_id == span.trace_id:  # the root: decide now
                keep = (self.sampler is None
                        or self.sampler.decide(span, buf.finished))
                buf.decision = keep
                if keep:
                    for finished in buf.finished:
                        self._retain(finished)
                else:
                    self.dropped_spans += len(buf.finished)
                    self.dropped_traces += 1
                buf.finished.clear()
        elif buf.decision:
            self._retain(span)
        else:
            self.dropped_spans += 1
        if buf.decision is not None and not buf.open_spans:
            del self._by_trace[span.trace_id]

    def _retain(self, span: Span) -> None:
        span._tracer = None  # frozen: no further notifications
        self._resident.append(span)
        if self.max_resident is not None:
            while len(self._resident) > self.max_resident:
                self.sink.write(self._resident.popleft())
        if len(self._resident) > self.resident_peak:
            self.resident_peak = len(self._resident)

    def flush(self) -> None:
        """Archive every resident finished span to the sink (e.g. at
        scenario end, before reading the archive as one file).  No-op
        without a sink; pending/open spans stay put."""
        if self.sink is None:
            return
        while self._resident:
            self.sink.write(self._resident.popleft())
        self.sink.flush()

    # -- views ---------------------------------------------------------

    @property
    def spans(self) -> List[Span]:
        """Classic mode: the live span list.  Streaming mode: a
        *materialized* snapshot of :meth:`iter_spans` — fine for tests
        and small runs, defeats the memory bound on big ones."""
        if not self._streaming:
            return self._spans
        return list(self.iter_spans())

    def iter_spans(self):
        """Every retained span, cheapest-first: the sink archive
        (streamed, oldest traces first), the resident ring, spans of
        still-undecided traces, then spans still open.  This is the
        O(buffer) read path exporters and the critical-path analyzer
        use."""
        if not self._streaming:
            yield from self._spans
            return
        if self.sink is not None:
            yield from self.sink.read_back()
        yield from self._resident
        for buf in self._by_trace.values():
            yield from buf.finished
        for buf in self._by_trace.values():
            yield from buf.open_spans.values()

    def resident_count(self) -> int:
        """Finished + pending + open spans currently held in memory
        (streaming mode; classic mode counts the whole list)."""
        if not self._streaming:
            return len(self._spans)
        return len(self._resident) + sum(
            len(b.finished) + len(b.open_spans)
            for b in self._by_trace.values())

    def finished_spans(self) -> List[Span]:
        return [s for s in self.iter_spans() if s.end_time is not None]

    def stats(self) -> dict:
        """Retention accounting (streaming fields are zero in classic
        mode)."""
        return {
            "started": self.started,
            "resident": self.resident_count(),
            "resident_peak": (self.resident_peak if self._streaming
                              else len(self._spans)),
            "archived": self.sink.count if self.sink is not None else 0,
            "dropped_spans": self.dropped_spans,
            "dropped_traces": self.dropped_traces,
            "sampler": (self.sampler.stats()
                        if self.sampler is not None else None),
        }

    # -- export / analysis (delegation keeps call sites short) ---------

    def to_chrome_trace(self) -> dict:
        from .export import to_chrome_trace
        return to_chrome_trace(list(self.iter_spans()))

    def to_jsonl(self) -> str:
        from .export import spans_to_jsonl
        return spans_to_jsonl(self.iter_spans())

    def dump_chrome_trace(self, path) -> None:
        from .export import dump_chrome_trace
        dump_chrome_trace(list(self.iter_spans()), path)

    def dump_jsonl(self, path) -> None:
        from .export import dump_jsonl
        dump_jsonl(self.iter_spans(), path)

    def critical_path(self, root=None):
        from .critical_path import critical_path
        return critical_path(self.iter_spans(), root=root)

    def __repr__(self):
        if self._streaming:
            return (f"<Tracer streaming started={self.started} "
                    f"resident={self.resident_count()}>")
        return f"<Tracer spans={len(self._spans)}>"


class NullTracer:
    """The disabled tracer: hands out :data:`NULL_SPAN`, records
    nothing.  This is what every simulation without an installed tracer
    sees, keeping instrumentation zero-cost."""

    enabled = False
    spans: Tuple = ()

    def start(self, name, parent=None, track=None, links=(), **attributes):
        return NULL_SPAN

    span = start

    def finished_spans(self):
        return []

    def __repr__(self):
        return "<NullTracer>"


#: The shared disabled tracer.
NULL_TRACER = NullTracer()


def tracer_of(sim) -> Tracer:
    """The simulator's installed tracer, or :data:`NULL_TRACER`.

    This is the lookup every instrumented module performs per
    operation — a single ``getattr`` when tracing is off.
    """
    return getattr(sim, "_tracer", NULL_TRACER)
