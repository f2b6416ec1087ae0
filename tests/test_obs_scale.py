"""Telemetry at scale: streaming sink, tail sampling, bounded memory.

The contracts under test are the ones a million-job run leans on:

* the tracer's resident working set never exceeds ``max_resident``
  plus the spans still open/pending, regardless of run length;
* the sampled span archive is **byte-identical** across same-seed runs,
  synthetic or driven by the kernel;
* exports built from a streaming/sampled tracer stay structurally
  valid (Chrome-trace flow links never dangle, speedscope validates);
* critical-path analysis over the archive (frozen ``SpanRecord``
  read-back) equals analysis over live spans;
* the tracer's in-memory span index agrees, after every operation,
  with a shadow model recomputed from the operations alone.
"""

import json
from collections import deque

import pytest
from hypothesis import given, settings, strategies as st

from repro.network.topology import Site, Topology
from repro.network.flows import FlowScheduler
from repro.obs import (
    JsonlSpanSink,
    MemorySpanSink,
    NullSpanSink,
    TraceSampler,
    Tracer,
    critical_path,
    to_chrome_trace,
    to_speedscope,
    validate_speedscope,
)
from repro.obs.sink import _mix64
from repro.simkernel import Simulator


def _drive_spans(tracer, sim, n_traces, error_every=997, spike_every=499):
    """Deterministic two-span traces with a spread of durations, a few
    latency spikes, and a few errors — no kernel events, so a million
    spans stay cheap to generate."""
    for i in range(n_traces):
        sim._now = float(i)
        root = tracer.start("job", tenant=f"t{i % 5}")
        child = tracer.start("work", parent=root)
        duration = 0.1 + (i * 2654435761 % 1000) / 2000.0
        if i % spike_every == 0:
            duration += 5.0
        sim._now = float(i) + duration
        child.end()
        root.end("error" if i % error_every == 0 else None)


# ---------------------------------------------------------------------------
# Memory bound
# ---------------------------------------------------------------------------

def test_million_span_run_respects_resident_ceiling():
    sim = Simulator()
    sink = NullSpanSink()
    tracer = Tracer(sim, sink=sink,
                    sampler=TraceSampler(keep_fraction=0.01, seed=9),
                    max_resident=1024).install()
    n_traces = 500_000  # 1M spans
    checkpoints = 0
    for lo in range(0, n_traces, 50_000):
        for i in range(lo, lo + 50_000):
            sim._now = float(i)
            root = tracer.start("job")
            child = tracer.start("work", parent=root)
            duration = 0.1 + (i * 2654435761 % 1000) / 2000.0
            sim._now = float(i) + duration
            child.end()
            root.end()
        assert tracer.resident_count() <= 1024
        checkpoints += 1
    assert checkpoints == 10
    stats = tracer.stats()
    assert stats["started"] == 1_000_000
    assert stats["resident_peak"] <= 1024
    # Conservation: every span was archived, resident, or dropped.
    assert (stats["archived"] + stats["resident"]
            + stats["dropped_spans"]) == 1_000_000
    # Sampling actually sampled: the archive is a small fraction.
    assert stats["archived"] < 100_000
    assert stats["dropped_traces"] > 400_000


def test_resident_ring_overflows_oldest_to_sink_in_order():
    sim = Simulator()
    sink = MemorySpanSink()
    tracer = Tracer(sim, sink=sink, max_resident=4)
    _drive_spans(tracer, sim, 10)
    assert len(tracer._resident) == 4
    assert sink.count == 16
    # Archive order: trace finish order, finish order within a trace.
    names = [r.name for r in sink.read_back()]
    assert names[:2] == ["work", "job"]
    starts = [r.start for r in sink.read_back() if r.name == "job"]
    assert starts == sorted(starts)


def test_max_resident_requires_sink():
    sim = Simulator()
    with pytest.raises(ValueError):
        Tracer(sim, max_resident=16)
    with pytest.raises(ValueError):
        Tracer(sim, sink=NullSpanSink(), max_resident=0)


# ---------------------------------------------------------------------------
# Determinism
# ---------------------------------------------------------------------------

def _sampled_run(path, n_traces=5000):
    sim = Simulator()
    sink = JsonlSpanSink(path)
    tracer = Tracer(sim, sink=sink,
                    sampler=TraceSampler(keep_fraction=0.05, seed=11),
                    max_resident=64).install()
    _drive_spans(tracer, sim, n_traces)
    tracer.flush()
    sink.close()
    return tracer


def test_same_seed_sampled_logs_byte_identical(tmp_path):
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    tr1 = _sampled_run(a)
    tr2 = _sampled_run(b)
    assert a.read_bytes() == b.read_bytes()
    assert len(a.read_bytes()) > 0
    assert tr1.stats() == tr2.stats()
    # The sampler kept each class at least once.
    reasons = tr1.sampler.kept
    assert reasons["error"] > 0
    assert reasons["slow"] > 0
    assert reasons["hash"] > 0


def _traced_flow_run(tmp_path, name):
    """A real kernel scenario (flows over a shared topology) with a
    sampling, streaming tracer."""
    sim = Simulator()
    sink = JsonlSpanSink(tmp_path / name)
    tracer = Tracer(sim, seed=1, sink=sink,
                    sampler=TraceSampler(keep_fraction=1.0, seed=5),
                    max_resident=8).install()
    topo = Topology()
    for site in ("a", "b", "c"):
        topo.add_site(Site(site))
    topo.connect("a", "b", bandwidth=1e6, latency=0.01)
    topo.connect("b", "c", bandwidth=5e5, latency=0.02)
    sched = FlowScheduler(sim, topo)
    from repro.network.transport import Transport
    transport = Transport.of(sched)

    def driver():
        for round_no in range(20):
            root = tracer.start("round", no=round_no)
            f1 = transport.data("a", "b", 2e5 + round_no * 1e3, span=root)
            f2 = transport.data("a", "c", 3e5, span=root)
            yield f1.done & f2.done
            root.end()
            yield sim.timeout(0.05)

    sim.process(driver())
    sim.run()
    tracer.flush()
    sink.close()
    return (tmp_path / name).read_bytes()


def test_same_seed_sampled_flow_logs_byte_identical(tmp_path):
    first = _traced_flow_run(tmp_path, "first.jsonl")
    second = _traced_flow_run(tmp_path, "second.jsonl")
    assert first == second
    assert len(first.splitlines()) >= 20


def test_critical_path_identical_streaming_vs_classic():
    def run(streaming):
        sim = Simulator()
        if streaming:
            tracer = Tracer(sim, sink=MemorySpanSink(), max_resident=4)
        else:
            tracer = Tracer(sim)
        _drive_spans(tracer, sim, 200)
        return tracer

    classic = critical_path(run(False))
    streamed = critical_path(run(True))
    # Same root, same totals, same attribution — even though the
    # streaming analysis mostly walked frozen SpanRecords.
    assert streamed.total == classic.total
    assert streamed.by_name() == classic.by_name()
    assert streamed.root.span_id == classic.root.span_id


def test_hash_sampling_fraction_is_roughly_kept():
    fraction = 0.01
    ceiling = int(fraction * 2 ** 64)
    kept = sum(1 for i in range(200_000)
               if _mix64(i ^ (7 * 0x9E3779B97F4A7C15)) < ceiling)
    assert 0.005 < kept / 200_000 < 0.02


# ---------------------------------------------------------------------------
# Export invariants over sampled runs
# ---------------------------------------------------------------------------

def _linked_sampled_tracer():
    """A sampled run whose traces link across one another, so dropped
    traces would dangle if the exporter let them."""
    sim = Simulator()
    tracer = Tracer(sim, sink=MemorySpanSink(),
                    sampler=TraceSampler(keep_fraction=0.1, seed=3,
                                         slow_percentile=None),
                    max_resident=16)
    previous = None
    for i in range(500):
        sim._now = float(i)
        root = tracer.start("job", links=[previous] if previous else ())
        sim._now = float(i) + 0.25 + (i % 13) / 20.0
        root.end("error" if i % 101 == 0 else None)
        previous = root
    tracer.flush()
    return tracer


def test_chrome_trace_of_sampled_run_links_only_retained_spans():
    tracer = _linked_sampled_tracer()
    retained = {s.span_id for s in tracer.iter_spans()}
    assert 0 < len(retained) < 500  # genuinely sampled
    doc = to_chrome_trace(tracer.iter_spans())
    events = doc["traceEvents"]
    assert events and all(
        {"ph", "pid", "tid", "ts"} <= set(e) for e in events)
    flows = [e for e in events if e["ph"] in ("s", "f")]
    # Flow events pair up 1:1 ...
    by_id = {}
    for e in flows:
        by_id.setdefault(e["id"], []).append(e["ph"])
    assert all(sorted(phs) == ["f", "s"] for phs in by_id.values())
    # ... and every link *to* a dropped span was suppressed: flow
    # count == count of retained links with a retained source.
    expected = sum(1 for s in tracer.iter_spans()
                   for src in s.links if src in retained)
    assert len(flows) == 2 * expected
    # json round-trip (what Perfetto actually loads)
    assert json.loads(json.dumps(doc))["traceEvents"]


def test_speedscope_from_streaming_sink_validates():
    sim = Simulator()
    tracer = Tracer(sim, sink=MemorySpanSink(), max_resident=2)
    sim._now = 0.0
    root = tracer.start("run")
    for i in range(6):
        sim._now = float(i)
        child = tracer.start(f"phase-{i % 2}", parent=root)
        sim._now = float(i) + 0.8
        child.end()
    sim._now = 6.0
    root.end()
    tracer.flush()
    assert tracer.resident_count() <= 2
    doc = to_speedscope(tracer=tracer, name="scale")
    validate_speedscope(doc)
    evented = [p for p in doc["profiles"] if p["type"] == "evented"]
    assert evented and evented[0]["endValue"] == 6.0


# ---------------------------------------------------------------------------
# Sampler semantics
# ---------------------------------------------------------------------------

def test_sampler_always_keeps_errors_and_pins():
    sim = Simulator()
    sampler = TraceSampler(keep_fraction=0.0, seed=1,
                           slow_percentile=None)
    tracer = Tracer(sim, sink=MemorySpanSink(), sampler=sampler,
                    max_resident=4)
    sim._now = 0.0
    ok = tracer.start("ok-job")
    err = tracer.start("bad-job")
    pinned = tracer.start("pinned-job")
    sampler.pin(pinned.trace_id)
    sim._now = 1.0
    ok.end()
    err.end("error")
    pinned.end()
    tracer.flush()
    names = {r.name for r in tracer.iter_spans()}
    assert names == {"bad-job", "pinned-job"}
    assert sampler.kept["error"] == 1
    assert sampler.kept["pinned"] == 1
    assert sampler.dropped == 1


def test_late_children_follow_their_trace_decision():
    sim = Simulator()
    sampler = TraceSampler(keep_fraction=0.0, seed=1,
                           slow_percentile=None)
    tracer = Tracer(sim, sink=MemorySpanSink(), sampler=sampler,
                    max_resident=8)
    sim._now = 0.0
    kept_root = tracer.start("kept")
    sampler.pin(kept_root.trace_id)
    dropped_root = tracer.start("dropped")
    straggler_kept = tracer.start("tail", parent=kept_root)
    straggler_dropped = tracer.start("tail", parent=dropped_root)
    sim._now = 1.0
    kept_root.end()
    dropped_root.end()
    sim._now = 2.0  # children outlive their roots
    straggler_kept.end()
    straggler_dropped.end()
    tracer.flush()
    spans = list(tracer.iter_spans())
    assert {s.name for s in spans} == {"kept", "tail"}
    assert all(s.trace_id == kept_root.trace_id for s in spans)
    assert tracer.dropped_spans == 2
    # Decided traces with no open spans are evicted from the buffer.
    assert tracer._by_trace == {}


# ---------------------------------------------------------------------------
# In-memory index vs a shadow model
# ---------------------------------------------------------------------------

class _RecordingSampler(TraceSampler):
    """A TraceSampler that remembers each trace's keep/drop decision,
    so the shadow model can follow it."""

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self.decisions = {}

    def decide(self, root, spans):
        assert root.trace_id not in self.decisions  # once per trace
        keep = super().decide(root, spans)
        self.decisions[root.trace_id] = keep
        return keep


class _ShadowTracer:
    """Reference semantics of the tracer's retention, kept in plain
    structures.  A trace's spans share one keep/drop decision, made
    when its root ends; a trace group closes once decided with no span
    open, and a child started after that joins a new group that is
    never decided.  Kept spans enter a FIFO ring that overflows into
    the archive beyond ``cap``."""

    def __init__(self, cap, sampler):
        self.cap = cap
        self.sampler = sampler
        self.started = []
        self.status = {}
        self.groups = {}
        self.ring = deque()
        self.archive = []
        self.dropped_traces = 0
        self.peak = 0

    def start(self, span):
        self.started.append(span.span_id)
        self.status[span.span_id] = "open"
        group = self.groups.get(span.trace_id)
        if group is None:
            group = self.groups[span.trace_id] = {
                "decision": None, "open": set(), "pending": []}
        group["open"].add(span.span_id)

    def end(self, span):
        group = self.groups[span.trace_id]
        group["open"].discard(span.span_id)
        if group["decision"] is None:
            group["pending"].append(span.span_id)
            self.status[span.span_id] = "pending"
            if span.span_id == span.trace_id:
                keep = (self.sampler is None
                        or self.sampler.decisions[span.trace_id])
                group["decision"] = keep
                self.dropped_traces += not keep
                for span_id in group["pending"]:
                    self._settle(span_id, keep)
        else:
            self._settle(span.span_id, group["decision"])
        if group["decision"] is not None and not group["open"]:
            del self.groups[span.trace_id]

    def _settle(self, span_id, keep):
        if not keep:
            self.status[span_id] = "dropped"
            return
        self.status[span_id] = "resident"
        self.ring.append(span_id)
        if self.cap is not None and len(self.ring) > self.cap:
            self._archive_oldest()
        self.peak = max(self.peak, len(self.ring))

    def _archive_oldest(self):
        span_id = self.ring.popleft()
        self.status[span_id] = "archived"
        self.archive.append(span_id)

    def flush(self):
        while self.cap is not None and self.ring:
            self._archive_oldest()

    def in_memory(self):
        return [i for i in self.started
                if self.status[i] in ("open", "pending", "resident")]

    def count(self, status):
        return sum(1 for v in self.status.values() if v == status)


#: Operations on spans pick their target counting back from the newest
#: span, so nesting and ends shortly after starts are common.
_OPS = st.lists(st.one_of(
    st.just(("root",)),
    st.tuples(st.just("child"), st.integers(0, 7)),
    st.tuples(st.just("end"), st.integers(0, 7), st.booleans()),
    st.just(("flush",)),
), max_size=80)


def _check_index(tracer, model):
    stats = tracer.stats()
    ids = [s.span_id for s in tracer.spans]  # archive, then in memory
    assert ids[:stats["archived"]] == model.archive
    assert ids[stats["archived"]:] == model.in_memory()
    if tracer.sink is None and tracer.sampler is None:
        assert ids == model.started
    assert tracer.resident_count() == len(model.in_memory())
    assert stats["started"] == len(model.started)
    assert stats["archived"] == len(model.archive)
    assert stats["dropped_spans"] == model.count("dropped")
    assert stats["dropped_traces"] == model.dropped_traces
    assert stats["resident_peak"] == model.peak
    assert stats["started"] == (stats["archived"] + stats["resident"]
                                + stats["dropped_spans"])


def _replay(tracer, model, ops):
    sim = tracer.sim
    spans = []
    for op in ops:
        sim._now += 1.0
        if op[0] == "flush":
            tracer.flush()
            model.flush()
        elif op[0] == "end" and spans:
            span = spans[-1 - op[1] % len(spans)]
            if not span.finished:
                span.end("error" if op[2] else None)
                model.end(span)
        else:
            parent = (spans[-1 - op[1] % len(spans)]
                      if op[0] == "child" and spans else None)
            span = tracer.start("op", parent=parent)
            spans.append(span)
            model.start(span)
        _check_index(tracer, model)
    return spans


@given(ops=_OPS)
@settings(max_examples=300, deadline=None)
def test_unbounded_index_matches_shadow_model(ops):
    tracer = Tracer(Simulator())
    model = _ShadowTracer(cap=None, sampler=None)
    _replay(tracer, model, ops)
    assert tracer.dropped_spans == 0


@given(ops=_OPS)
@settings(max_examples=300, deadline=None)
def test_sampled_sink_index_matches_shadow_model(ops):
    sampler = _RecordingSampler(keep_fraction=0.5, seed=3,
                                slow_percentile=None)
    tracer = Tracer(Simulator(), sink=MemorySpanSink(), sampler=sampler,
                    max_resident=3)
    model = _ShadowTracer(cap=3, sampler=sampler)
    _replay(tracer, model, ops)
