"""The kernel's event queue and batch dispatch.

The core contract under test: :class:`HeapQueue` delivers events in the
``(time, priority, seq)`` total order, so a simulation is byte-for-byte
reproducible.  Hypothesis drives randomized schedules (same-time FIFO
ties, URGENT/NORMAL mixes, float delays, descheduled subsets, enough
cancellations to compact) through the simulator and requires the
dispatch order of a ``sorted()`` oracle over the live entries -- the
reference backend the heap must agree with.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.simkernel import EmptySchedule, NORMAL, Simulator, URGENT
from repro.simkernel.queues import COMPACT_MIN


# ---------------------------------------------------------------------------
# Delay validation (NaN / non-finite)
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("delay", [float("nan"), float("inf"),
                                   -float("inf"), -0.5])
def test_schedule_rejects_bad_delays(delay):
    sim = Simulator()
    with pytest.raises(ValueError, match="finite and non-negative"):
        sim.schedule(sim.event(), delay=delay)
    with pytest.raises(ValueError):
        sim.call_in(delay, lambda _ev: None)


def test_timeout_rejects_nan_delay():
    sim = Simulator()
    with pytest.raises(ValueError):
        sim.timeout(float("nan"))
    with pytest.raises(ValueError):
        sim.timeout(float("inf"))


# ---------------------------------------------------------------------------
# Total order against a sorted() oracle (hypothesis)
# ---------------------------------------------------------------------------

def _dispatch_order(schedule):
    """Run one randomized schedule; return the observed dispatch log
    and the simulator.

    ``schedule`` is a list of ``(delay, priority, cancel)`` tuples; all
    events are armed up front (so seq order is fixed), then the marked
    subset is descheduled before running.
    """
    sim = Simulator()
    log = []
    armed = []
    for i, (delay, priority, cancel) in enumerate(schedule):
        def cb(_ev, i=i):
            log.append((sim.now, i))
        armed.append((sim.call_in(delay, cb, priority=priority), cancel))
    for event, cancel in armed:
        if cancel:
            event.deschedule()
    sim.run()
    return log, sim


# Coarse delays force plenty of exact same-time ties...
TIED_DELAYS = st.integers(min_value=0, max_value=8).map(lambda n: n * 0.5)
# ...arbitrary floats exercise every other comparison.
FLOAT_DELAYS = st.floats(min_value=0, max_value=1e3,
                         allow_nan=False, allow_infinity=False)


def _schedules(delays):
    return st.lists(
        st.tuples(delays, st.sampled_from([URGENT, NORMAL]), st.booleans()),
        min_size=1, max_size=60,
    )


SCHEDULE = _schedules(TIED_DELAYS)
FLOAT_SCHEDULE = _schedules(FLOAT_DELAYS)


def _assert_matches_oracle(schedule):
    log, sim = _dispatch_order(schedule)
    # The specified total order: the live (time, priority, seq) entries,
    # sorted; descheduled events are absent.
    expected = sorted(
        (delay, priority, i)
        for i, (delay, priority, cancel) in enumerate(schedule)
        if not cancel
    )
    assert log == [(delay, i) for delay, _, i in expected]
    assert sim.now == (expected[-1][0] if expected else 0.0)
    return sim.queue_backend


@given(schedule=SCHEDULE)
@settings(max_examples=120, deadline=None)
def test_backends_dispatch_identically(schedule):
    """The heap and the sorted() reference agree on same-time ties,
    URGENT/NORMAL mixes and descheduled subsets."""
    _assert_matches_oracle(schedule)


@given(schedule=FLOAT_SCHEDULE)
@settings(max_examples=60, deadline=None)
def test_backends_agree_on_float_delays(schedule):
    """Arbitrary float times: the heap and the sorted() reference still
    agree."""
    _assert_matches_oracle(schedule)


@given(schedule=st.one_of(SCHEDULE, FLOAT_SCHEDULE))
@settings(max_examples=20, deadline=None)
def test_heap_dispatch_matches_sorted_oracle_through_compaction(schedule):
    """The schedule tiled past the compaction floor with 70% of it
    cancelled: the heap compacts mid-cancellation and must still
    deliver the oracle's order."""
    tiles = COMPACT_MIN * 2 // len(schedule) + 1
    big = [(delay, priority, i % 10 < 7)
           for i, (delay, priority, _) in enumerate(schedule * tiles)]
    assert _assert_matches_oracle(big).compactions >= 1


def test_mid_batch_urgent_preemption():
    """A NORMAL batch member scheduling an URGENT event at the same
    instant must yield to it before the batch remainder."""
    sim = Simulator()
    log = []

    def first(_ev):
        log.append("first")
        sim.call_in(0.0, lambda _e: log.append("urgent"),
                    priority=URGENT)

    sim.call_in(1.0, first)
    sim.call_in(1.0, lambda _e: log.append("second"))
    sim.call_in(1.0, lambda _e: log.append("third"))
    sim.run()
    assert log == ["first", "urgent", "second", "third"]


def test_tiny_delay_urgent_preempts_at_large_clock():
    """A positive delay absorbed by float addition (now + d == now)
    lands at the current instant and must preempt the running batch
    exactly like delay == 0.0 does."""
    base = float(2 ** 33)  # +1.0 is exact here, +1e-9 is absorbed
    assert base + 1e-9 == base
    sim = Simulator(initial_time=base - 1.0)
    log = []

    def first(_ev):
        log.append("first")
        sim.call_in(1e-9, lambda _e: log.append("urgent"),
                    priority=URGENT)

    sim.call_in(1.0, first)
    sim.call_in(1.0, lambda _e: log.append("second"))
    sim.run()
    assert log == ["first", "urgent", "second"]


def test_batch_member_descheduled_by_earlier_member():
    """An event cancelled by an earlier same-batch callback never runs."""
    sim = Simulator()
    log = []
    second = sim.call_in(1.0, lambda _e: log.append("second"))
    sim.call_in(0.0, lambda _e: second.deschedule(), priority=URGENT)
    sim.call_in(1.0, lambda _e: log.append("third"))
    sim.run()
    assert log == ["third"]


def test_stop_simulation_mid_batch_preserves_remainder():
    """StopSimulation raised mid-batch must not lose the rest of the
    batch: a continuation run dispatches it."""
    sim = Simulator()
    log = []
    sim.call_in(1.0, lambda _e: log.append("a"))
    sim.call_in(1.0, lambda _e: sim.stop("halt"))
    sim.call_in(1.0, lambda _e: log.append("b"))
    sim.call_in(1.0, lambda _e: log.append("c"))
    assert sim.run() == "halt"
    # run() dispatched a, then the stopper aborted the batch; the
    # undispatched remainder survives for the continuation run.
    assert log == ["a"]
    sim.run()
    assert log == ["a", "b", "c"]


def test_run_until_batch_respects_stop_boundary():
    sim = Simulator()
    log = []
    for _ in range(5):
        sim.call_in(2.0, lambda _e: log.append(sim.now))
    sim.run(until=2.0)  # events at exactly t=2 are not processed
    assert log == [] and sim.now == 2.0
    sim.run()
    assert len(log) == 5


# ---------------------------------------------------------------------------
# Lazy cancellation + compaction
# ---------------------------------------------------------------------------

def test_compaction_drops_dead_entries():
    sim = Simulator()
    n = COMPACT_MIN * 2
    events = [sim.call_in(float(i % 97) + 1.0, lambda _e: None)
              for i in range(n)]
    q = sim.queue_backend
    assert len(q) == n
    # Deschedule >50%: the queue must compact below the dead mass.
    for ev in events[: (n * 3) // 4]:
        ev.deschedule()
    assert len(q) <= n - (n * 3) // 4 + COMPACT_MIN
    sim.run()
    assert len(q) == 0


def test_deschedule_is_invisible_to_peek():
    sim = Simulator()
    early = sim.call_in(1.0, lambda _e: None)
    sim.call_in(5.0, lambda _e: None)
    assert sim.peek() == 1.0
    early.deschedule()
    assert sim.peek() == 5.0


def test_empty_queue_raises_empty_schedule():
    sim = Simulator()
    with pytest.raises(EmptySchedule):
        sim.step()


# ---------------------------------------------------------------------------
# Health introspection: stats(), compactions
# ---------------------------------------------------------------------------

def test_stats_snapshot_tracks_depth_and_dead():
    sim = Simulator()
    events = [sim.call_in(float(t), lambda _ev: None)
              for t in range(1, 21)]
    stats = sim.queue_backend.stats()
    assert stats["backend"] == "heap"
    assert stats["depth"] == 20
    assert stats["dead"] == 0 and stats["dead_ratio"] == 0.0
    for ev in events[:5]:
        ev.deschedule()
    stats = sim.queue_backend.stats()
    assert stats["dead"] == 5
    assert stats["dead_ratio"] == pytest.approx(0.25)
    sim.run()
    assert sim.queue_backend.stats()["depth"] == 0


def test_compaction_counter_increments_past_threshold():
    sim = Simulator()
    events = [sim.call_in(1.0 + t * 0.01, lambda _ev: None)
              for t in range(COMPACT_MIN * 2)]
    queue = sim.queue_backend
    assert queue.compactions == 0
    for ev in events[: int(len(events) * 0.7)]:
        ev.deschedule()
    sim.run()
    assert queue.compactions >= 1
    stats = queue.stats()
    assert stats["compactions"] == queue.compactions
    assert stats["depth"] == 0 and stats["dead"] == 0
