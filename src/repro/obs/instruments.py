"""Typed metric instruments: counters, gauges, histograms.

Complementing :class:`~repro.metrics.TimeSeries` (raw samples over
time), these are the classic aggregation shapes:

* :class:`Counter` — monotonically increasing total (bytes sent,
  transfers completed);
* :class:`Gauge` — a value that goes up and down (queue depth, flows in
  flight);
* :class:`Histogram` — a distribution with ``percentile()`` (migration
  downtimes, round-trip times).

Each instrument can stream its updates into a sink callable; the
:class:`~repro.metrics.MetricsRecorder` factory methods
(``counter``/``gauge``/``histogram``) wire that sink to a time series,
so instruments and probes coexist in one registry.

Labels
------
Instruments can carry **labels** — tag dimensions like
``counter("spot.reclaims", labels={"tenant": "acme", "cloud": "east"})``.
A labeled instrument is an ordinary instrument whose series name embeds
the canonicalized label set: ``spot.reclaims{cloud=east,tenant=acme}``
(keys sorted, values stringified).  :func:`labeled_name` builds that
form and :func:`split_labeled_name` parses it back, which is what
:mod:`repro.obs.rollup` uses to pivot series by tenant/cloud/cluster
without a separate index.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Mapping, Optional, Tuple

from .windows import SlidingWindow

__all__ = [
    "Counter", "Gauge", "Histogram", "Instrument", "Timer",
    "labeled_name", "split_labeled_name", "failed_name",
]

Sink = Optional[Callable[[float], None]]


#: Characters with structural meaning inside a ``name{k=v,...}`` body;
#: they are backslash-escaped in values and forbidden in keys.
_LABEL_SPECIALS = "\\,=}{"


def _escape_label_value(value: str) -> str:
    if not any(ch in _LABEL_SPECIALS for ch in value):
        return value  # the overwhelmingly common case: no copy
    return "".join(f"\\{ch}" if ch in _LABEL_SPECIALS else ch
                   for ch in value)


def labeled_name(base: str, labels: Optional[Mapping[str, object]]) -> str:
    """Canonical series name for ``base`` + ``labels``.

    Keys are sorted so every call site producing the same label set hits
    the same series; values are stringified, with the grammar's
    structural characters (``\\ , = { }``) backslash-escaped so any
    value round-trips through :func:`split_labeled_name`.  Keys must be
    free of structural characters — a tag *dimension* containing ``=``
    is a bug at the call site, not data.  ``labels=None`` / ``{}``
    returns ``base`` unchanged.
    """
    if not labels:
        return base
    if "{" in base:
        raise ValueError(f"base name {base!r} already carries labels")
    for key in labels:
        if not key or any(ch in _LABEL_SPECIALS for ch in key):
            raise ValueError(
                f"label key {key!r} is empty or contains one of "
                f"{_LABEL_SPECIALS!r}")
    body = ",".join(f"{k}={_escape_label_value(str(labels[k]))}"
                    for k in sorted(labels))
    return f"{base}{{{body}}}"


def split_labeled_name(name: str) -> Tuple[str, Dict[str, str]]:
    """Inverse of :func:`labeled_name`: ``(base, labels)``.

    Backslash escapes in values are undone; an unescaped ``=`` inside a
    value (legacy names written before escaping existed) is kept as
    data, matching the old first-``=``-wins parse.  Unlabeled or
    malformed names come back with an empty dict.
    """
    if not name.endswith("}") or "{" not in name:
        return name, {}
    base, _, body = name[:-1].partition("{")
    labels: Dict[str, str] = {}
    key: List[str] = []
    value: List[str] = []
    target, in_value = key, False
    i, n = 0, len(body)
    while i < n:
        ch = body[i]
        if ch == "\\" and i + 1 < n:
            target.append(body[i + 1])
            i += 2
            continue
        if ch == "=" and not in_value:
            target, in_value = value, True
        elif ch == ",":
            if not in_value or not key:
                return name, {}  # brace-bearing but not our grammar
            labels["".join(key)] = "".join(value)
            key, value = [], []
            target, in_value = key, False
        else:
            target.append(ch)
        i += 1
    if not in_value or not key:
        return name, {}
    labels["".join(key)] = "".join(value)
    return base, labels


def failed_name(name: str) -> str:
    """The companion failure series for ``name``: ``.failed`` is
    appended to the base so labels stay at the end
    (``op{tenant=a}`` → ``op.failed{tenant=a}``)."""
    base, labels = split_labeled_name(name)
    return labeled_name(f"{base}.failed", labels)


class Instrument:
    """Shared naming/sink plumbing."""

    __slots__ = ("name", "_sink")

    def __init__(self, name: str, sink: Sink = None):
        self.name = name
        self._sink = sink

    def _emit(self, value: float) -> None:
        if self._sink is not None:
            self._sink(value)


class Counter(Instrument):
    """A monotonically increasing total."""

    __slots__ = ("_value",)

    def __init__(self, name: str, sink: Sink = None):
        super().__init__(name, sink)
        self._value = 0.0

    @property
    def value(self) -> float:
        return self._value

    def inc(self, amount: float = 1.0) -> float:
        """Add ``amount`` (must be >= 0); returns the new total."""
        if amount < 0:
            raise ValueError(
                f"counter {self.name!r} cannot decrease (inc {amount})"
            )
        self._value += amount
        self._emit(self._value)
        return self._value


class Gauge(Instrument):
    """A value that moves both ways."""

    __slots__ = ("_value",)

    def __init__(self, name: str, sink: Sink = None):
        super().__init__(name, sink)
        self._value = 0.0

    @property
    def value(self) -> float:
        return self._value

    def set(self, value: float) -> float:
        self._value = float(value)
        self._emit(self._value)
        return self._value

    def inc(self, amount: float = 1.0) -> float:
        return self.set(self._value + amount)

    def dec(self, amount: float = 1.0) -> float:
        return self.set(self._value - amount)


class Histogram(Instrument):
    """A distribution of observations with summary statistics.

    Observations live in a :class:`~repro.obs.windows.SlidingWindow`
    whose sorted shadow makes ``percentile()`` an O(1) rank lookup —
    the full history is *not* re-sorted per query.  ``max_samples``
    bounds retention: once exceeded, the oldest observation is evicted
    per new one (summary stats then describe the retained window; the
    streamed series keeps the full record).
    """

    __slots__ = ("_window",)

    def __init__(self, name: str, sink: Sink = None,
                 max_samples: Optional[int] = None):
        super().__init__(name, sink)
        self._window = SlidingWindow(maxlen=max_samples)

    @property
    def max_samples(self) -> Optional[int]:
        return self._window.maxlen

    def observe(self, value: float) -> None:
        value = float(value)
        self._window.observe(value)
        self._emit(value)

    @property
    def count(self) -> int:
        return self._window.count

    @property
    def sum(self) -> float:
        return self._window.sum

    def mean(self) -> float:
        if not self._window.count:
            raise ValueError(f"histogram {self.name!r} has no observations")
        return self._window.mean()

    def minimum(self) -> float:
        if not self._window.count:
            raise ValueError(f"histogram {self.name!r} has no observations")
        return self._window.minimum()

    def maximum(self) -> float:
        if not self._window.count:
            raise ValueError(f"histogram {self.name!r} has no observations")
        return self._window.maximum()

    def percentile(self, q: float) -> float:
        """The q-th percentile (linear interpolation between ranks),
        e.g. ``percentile(50)`` is the median."""
        if not self._window.count:
            raise ValueError(f"histogram {self.name!r} has no observations")
        return self._window.percentile(q)


class Timer(Histogram):
    """A histogram of simulation-time durations.

    ``timer.time(sim)`` opens a context manager that observes the
    elapsed simulated time on exit — the shape bid/reclaim/rescue
    instrumentation wants::

        with rescue_timer.time(sim):
            yield service.migrate_vm(vm, dst)

    Failure handling: when the timed block raises, the duration is a
    *failed-operation* latency and would skew the success histogram, so
    it is routed to ``fail_sink`` (the recorder wires this to a
    ``<name>.failed`` series) instead of being observed here.  Set
    ``record_failures=False`` to drop failed durations entirely.  The
    exception always propagates.
    """

    __slots__ = ("_fail_sink", "record_failures")

    def __init__(self, name: str, sink: Sink = None,
                 max_samples: Optional[int] = None,
                 fail_sink: Sink = None, record_failures: bool = True):
        super().__init__(name, sink, max_samples=max_samples)
        self._fail_sink = fail_sink
        self.record_failures = record_failures

    def observe_failure(self, value: float) -> None:
        """Record a failed-operation duration (separate stream; does not
        enter this histogram's distribution)."""
        if self.record_failures and self._fail_sink is not None:
            self._fail_sink(float(value))

    class _Running:
        __slots__ = ("_timer", "_sim", "_started", "_done")

        def __init__(self, timer: "Timer", sim):
            self._timer = timer
            self._sim = sim
            self._started = sim.now
            self._done = False

        @property
        def elapsed(self) -> float:
            return self._sim.now - self._started

        def stop(self) -> float:
            """Observe and return the elapsed duration."""
            elapsed = self.elapsed
            self._done = True
            self._timer.observe(elapsed)
            return elapsed

        def __enter__(self) -> "Timer._Running":
            return self

        def __exit__(self, exc_type, exc, tb) -> bool:
            if self._done:
                return False
            if exc_type is None:
                self.stop()
            else:
                self._done = True
                self._timer.observe_failure(self.elapsed)
            return False

    def time(self, sim) -> "Timer._Running":
        """Start timing at ``sim.now``; stop() or context-exit records
        the duration."""
        return Timer._Running(self, sim)
