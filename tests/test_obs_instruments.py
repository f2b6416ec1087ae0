"""Unit tests for the typed instruments and their recorder integration."""

import pytest

from repro.metrics import MetricsRecorder
from repro.obs import Counter, Gauge, Histogram
from repro.simkernel import Simulator


def test_counter_accumulates_and_rejects_negative():
    c = Counter("reqs")
    c.inc()
    c.inc(2.5)
    assert c.value == 3.5
    with pytest.raises(ValueError):
        c.inc(-1)
    assert c.value == 3.5


def test_gauge_set_inc_dec():
    g = Gauge("depth")
    g.set(10)
    g.inc(5)
    g.dec(3)
    assert g.value == 12


def test_histogram_summary_statistics():
    h = Histogram("lat")
    for v in (1.0, 2.0, 3.0, 4.0):
        h.observe(v)
    assert h.count == 4
    assert h.sum == 10.0
    assert h.mean() == pytest.approx(2.5)
    assert h.minimum() == 1.0
    assert h.maximum() == 4.0
    assert h.percentile(0) == 1.0
    assert h.percentile(100) == 4.0
    assert h.percentile(50) == pytest.approx(2.5)
    assert h.percentile(25) == pytest.approx(1.75)


def test_histogram_percentile_errors():
    h = Histogram("lat")
    with pytest.raises(ValueError):
        h.percentile(50)  # empty
    h.observe(1.0)
    with pytest.raises(ValueError):
        h.percentile(-1)
    with pytest.raises(ValueError):
        h.percentile(101)


def test_recorder_counter_streams_into_series():
    sim = Simulator()
    rec = MetricsRecorder(sim)
    c = rec.counter("flows.started")

    def work():
        c.inc()
        yield sim.timeout(1.0)
        c.inc(2)

    sim.process(work())
    sim.run()
    series = rec.series("flows.started")
    assert series.samples == [(0.0, 1.0), (1.0, 3.0)]


def test_recorder_gauge_and_histogram_stream():
    sim = Simulator()
    rec = MetricsRecorder(sim)
    g = rec.gauge("depth")
    h = rec.histogram("lat")
    g.set(4)
    g.dec()
    h.observe(0.25)
    assert rec.series("depth").samples == [(0.0, 4.0), (0.0, 3.0)]
    assert rec.series("lat").samples == [(0.0, 0.25)]
    assert h.percentile(50) == 0.25


def test_recorder_instrument_factories_are_cached():
    sim = Simulator()
    rec = MetricsRecorder(sim)
    assert rec.counter("x") is rec.counter("x")


def test_recorder_rejects_kind_mismatch():
    sim = Simulator()
    rec = MetricsRecorder(sim)
    rec.counter("x")
    with pytest.raises(TypeError, match="already a Counter"):
        rec.gauge("x")


# -- PR 5 satellites: labels, bounded histograms, timer failures ---------


def test_labeled_name_roundtrip():
    from repro.obs import labeled_name, split_labeled_name

    name = labeled_name("queue.wait", {"tenant": "acme", "cloud": "eu"})
    assert name == "queue.wait{cloud=eu,tenant=acme}"
    assert split_labeled_name(name) == ("queue.wait",
                                        {"cloud": "eu", "tenant": "acme"})
    assert split_labeled_name("plain") == ("plain", {})
    assert labeled_name("plain", None) == "plain"
    with pytest.raises(ValueError):
        labeled_name(name, {"more": 1})  # double-labeling


def test_histogram_max_samples_bounds_memory():
    h = Histogram("lat", max_samples=3)
    for v in (9.0, 1.0, 5.0, 2.0, 3.0):
        h.observe(v)
    assert h.count == 3          # oldest evicted
    assert h.max_samples == 3
    assert h.minimum() == 2.0    # 9.0 and 1.0 are gone
    assert h.maximum() == 5.0
    assert h.percentile(50) == 3.0


def test_histogram_percentile_uses_sorted_shadow():
    # The shadow stays correct under interleaved observe/percentile —
    # the exact pattern that re-sorting hid and a stale cache breaks.
    import random

    from repro.obs.windows import _interpolated_percentile

    rng = random.Random(3)
    h = Histogram("lat")
    data = []
    for _ in range(200):
        v = rng.random()
        h.observe(v)
        data.append(v)
        assert h.percentile(90) == \
            _interpolated_percentile(sorted(data), 90)


def test_timer_records_failure_to_separate_series():
    sim = Simulator()
    rec = MetricsRecorder(sim)
    timer = rec.timer("op")

    def work():
        with timer.time(sim):
            yield sim.timeout(2.0)
        try:
            with timer.time(sim):
                yield sim.timeout(3.0)
                raise RuntimeError("boom")
        except RuntimeError:
            pass

    sim.process(work())
    sim.run()
    # Success histogram holds only the clean duration...
    assert timer.count == 1
    assert rec.series("op").values() == [2.0]
    # ...the failed duration went to the companion series.
    assert rec.series("op.failed").values() == [3.0]


def test_timer_record_failures_opt_out():
    sim = Simulator()
    rec = MetricsRecorder(sim)
    timer = rec.timer("quiet", record_failures=False)

    def work():
        try:
            with timer.time(sim):
                yield sim.timeout(1.0)
                raise RuntimeError("boom")
        except RuntimeError:
            pass

    sim.process(work())
    sim.run()
    assert timer.count == 0
    assert rec.get("quiet.failed") is None
    assert rec.get("quiet") is None  # nothing streamed at all


def test_timer_explicit_stop_inside_block_not_double_counted():
    sim = Simulator()
    rec = MetricsRecorder(sim)
    timer = rec.timer("op")

    def work():
        with timer.time(sim) as running:
            yield sim.timeout(1.0)
            running.stop()
            yield sim.timeout(5.0)  # after stop(): not timed

    sim.process(work())
    sim.run()
    assert timer.count == 1
    assert rec.series("op").values() == [1.0]


def test_timer_exception_propagates():
    sim = Simulator()
    timer = Histogram("h")  # sanity: context managers never swallow
    t = MetricsRecorder(sim).timer("op")
    with pytest.raises(RuntimeError):
        with t.time(sim):
            raise RuntimeError("boom")
    assert timer.count == 0


# -- PR 10 satellite: label values round-trip through the grammar --------


def test_label_values_with_structural_chars_roundtrip():
    from repro.obs import labeled_name, split_labeled_name

    hostile = {
        "query": "a=b,c=d",
        "path": "x{y}z",
        "slash": "a\\b",
        "plain": "ok",
    }
    name = labeled_name("op", hostile)
    base, labels = split_labeled_name(name)
    assert base == "op"
    assert labels == {k: str(v) for k, v in hostile.items()}


def test_label_value_with_equals_no_longer_corrupts_neighbors():
    from repro.obs import labeled_name, split_labeled_name

    # The pre-escaping encoding parsed "v=1,extra" as two labels.
    name = labeled_name("m", {"a": "v=1,extra", "b": "2"})
    assert split_labeled_name(name) == ("m", {"a": "v=1,extra", "b": "2"})


def test_label_keys_reject_structural_chars():
    from repro.obs import labeled_name

    for bad in ("a=b", "a,b", "a}b", "a{b", "a\\b", ""):
        with pytest.raises(ValueError):
            labeled_name("m", {bad: "v"})


def test_legacy_unescaped_names_still_parse():
    from repro.obs import split_labeled_name

    # Names minted before escaping existed: first '=' wins, the rest
    # of the part is the value.
    assert split_labeled_name("m{k=a=b}") == ("m", {"k": "a=b"})
    assert split_labeled_name("m{not-a-label}") == ("m{not-a-label}", {})
    assert split_labeled_name("m{=v}") == ("m{=v}", {})


def test_failed_name_preserves_escaped_labels():
    from repro.obs.instruments import failed_name

    assert (failed_name("op{k=a\\,b}")
            == "op.failed{k=a\\,b}")
