"""Causal tracing over the simulation clock.

A :class:`Tracer` produces nested, causally linked :class:`Span` records
— the simulation-time analogue of OpenTelemetry spans.  Every span
carries a ``trace_id`` (the root span's id), its own ``span_id``, its
``parent_id``, free-form attributes, point-in-time events, and *links*
to spans in other causal chains (e.g. the transfer that unblocked this
one).  Exporters (:mod:`repro.obs.export`) turn the spans into a
Perfetto-loadable Chrome trace or a structured JSONL log;
:mod:`repro.obs.critical_path` walks the causality to attribute
end-to-end time.

Every span takes one path through the tracer: it is held in memory from
start, its trace's keep/drop decision is made when the root finishes,
and kept spans enter a resident ring that overflows, oldest first, into
an optional sink.  With no sink and no sampler the ring is unbounded and
nothing is dropped, so every span stays in memory in start order.

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
import sys
from collections import deque
from typing import Any, Dict, List, Optional, Tuple


class Span:
    """One timed operation in a trace.

    Usable as a context manager (ends with status ``"error"`` if the
    body raises) or via an explicit, idempotent :meth:`end`.
    """

    __slots__ = ("_sim", "_tracer", "trace_id", "span_id", "parent_id",
                 "name", "track", "start", "end_time", "status",
                 "attributes", "events", "links")

    def __init__(self, tracer: "Tracer", trace_id: int, span_id: int,
                 parent_id: Optional[int], name: str, track: str,
                 attributes: Dict[str, Any]):
        sim = self._sim = tracer.sim
        #: The tracer whose pipeline end() hands the finished span to.
        self._tracer = tracer
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
        """Link a causally related span from another chain — rendered
        as a flow arrow in Perfetto."""
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
    """Per-trace state while a trace has children: how many of them
    are still open, spans finished before the root's keep/drop
    decision, and the decision itself once made.  A trace whose root
    never gets a child needs none."""

    __slots__ = ("open", "finished", "decision")

    def __init__(self):
        self.open = 0
        self.finished: List[Span] = []
        self.decision: Optional[bool] = None


class Tracer:
    """Factory and registry of spans for one simulation.

    Every span is held in memory from :meth:`start`.  Spans are
    buffered per trace until their root finishes; the ``sampler`` (if
    any) then keeps or drops the *whole trace* — deterministic, so
    links inside a trace never dangle — and kept spans enter a resident
    ring of at most ``max_resident`` finished spans whose overflow is
    archived, oldest first, to the ``sink``.  With a sink, peak memory
    is O(max_resident + open spans), not O(run).

    With no sink and no sampler nothing is dropped or archived: every
    span ever started stays in memory, and :attr:`spans` lists them in
    start order.  Consumers iterate :meth:`iter_spans` (archive, then
    in-memory spans in start order); :attr:`spans` is a snapshot list
    of the same and materializes the archive.
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
        #: Without a sink the ring never overflows.
        self._ring_cap = sys.maxsize if sink is None else max_resident
        #: span_id -> every span held in memory (open, awaiting its
        #: trace's decision, or kept and not yet archived), in start
        #: order.
        self._live: Dict[int, Span] = {}
        #: Finished, kept spans not yet archived (newest last).
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

        ``parent`` is a :class:`Span` or None (``NULL_SPAN`` counts as
        None, so instrumentation can pass whatever it was handed).
        ``track`` names the horizontal lane the span renders on;
        children inherit their parent's lane by default.
        """
        parent_id = getattr(parent, "span_id", None)
        span_id = next(self._ids)
        if parent_id is None:
            trace_id = span_id
        else:
            trace_id = parent.trace_id
            if track is None:
                track = getattr(parent, "track", None)
            buf = self._by_trace.get(trace_id)
            if buf is None:
                buf = self._by_trace[trace_id] = _TraceBuffer()
            buf.open += 1
        span = Span(self, trace_id, span_id, parent_id, name,
                    track if track is not None else "main",
                    dict(attributes))
        for other in links:
            span.link(other)
        self.started += 1
        self._live[span_id] = span
        return span

    #: Alias so ``with tracer.span("phase"):`` reads well.
    span = start

    # -- pipeline ------------------------------------------------------

    def _on_span_end(self, span: Span) -> None:
        """A span just finished: move it along the buffer → decision →
        resident ring → sink pipeline."""
        buf = self._by_trace.get(span.trace_id)
        if buf is None:  # a root that never had a child: decide now
            if self.sampler is None or self.sampler.decide(span, (span,)):
                self._retain(span)
            else:
                self._drop(span)
                self.dropped_traces += 1
            return
        if span.span_id != span.trace_id:
            buf.open -= 1
        if buf.decision is None:
            buf.finished.append(span)
            if span.span_id == span.trace_id:  # the root: decide now
                keep = buf.decision = (
                    self.sampler is None
                    or self.sampler.decide(span, buf.finished))
                settle = self._retain if keep else self._drop
                for finished in buf.finished:
                    settle(finished)
                if not keep:
                    self.dropped_traces += 1
                buf.finished.clear()
        elif buf.decision:
            self._retain(span)
        else:
            self._drop(span)
        if buf.decision is not None and not buf.open:
            del self._by_trace[span.trace_id]

    def _retain(self, span: Span) -> None:
        ring = self._resident
        ring.append(span)
        n = len(ring)
        if n > self._ring_cap:
            self._archive_oldest()
        elif n > self.resident_peak:
            self.resident_peak = n

    def _drop(self, span: Span) -> None:
        del self._live[span.span_id]
        self.dropped_spans += 1

    def _archive_oldest(self) -> None:
        span = self._resident.popleft()
        del self._live[span.span_id]
        self.sink.write(span)

    def flush(self) -> None:
        """Archive every resident finished span to the sink (e.g. at
        scenario end, before reading the archive as one file).  No-op
        without a sink; pending/open spans stay put."""
        if self.sink is None:
            return
        while self._resident:
            self._archive_oldest()
        self.sink.flush()

    # -- views ---------------------------------------------------------

    @property
    def spans(self) -> List[Span]:
        """A snapshot list of :meth:`iter_spans` — fine for tests and
        small runs, defeats the memory bound of a sink on big ones."""
        return list(self.iter_spans())

    def iter_spans(self):
        """Every retained span: the sink archive (streamed, in archive
        order), then the spans held in memory in start order.  This is
        the O(buffer) read path exporters and the critical-path
        analyzer use."""
        if self.sink is not None:
            yield from self.sink.read_back()
        yield from self._live.values()

    def resident_count(self) -> int:
        """Spans currently held in memory: kept but not archived,
        awaiting their trace's decision, or still open."""
        return len(self._live)

    def finished_spans(self) -> List[Span]:
        return [s for s in self.iter_spans() if s.end_time is not None]

    def stats(self) -> dict:
        """Retention accounting.  ``resident_peak`` is the most
        finished, kept spans the resident ring held at once."""
        return {
            "started": self.started,
            "resident": self.resident_count(),
            "resident_peak": self.resident_peak,
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
        return (f"<Tracer started={self.started} "
                f"resident={self.resident_count()}>")


class NullTracer:
    """The disabled tracer: hands out :data:`NULL_SPAN`, records
    nothing.  This is what every simulation without an installed tracer
    sees, keeping instrumentation zero-cost."""

    enabled = False
    spans: Tuple = ()

    def start(self, name, parent=None, track=None, links=(), **attributes):
        return NULL_SPAN

    span = start

    def iter_spans(self):
        return iter(())

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
