"""PROFILER OVERHEAD — what self-observation costs the hot path.

PR 8 put two hooks into the kernel's batch-dispatch loop: one
``_enabled`` attribute read per *batch* (the :data:`NULL_PROFILER`
path) and a run-length-folded wall-clock attribution path when a
:class:`~repro.obs.CallbackProfiler` is enabled.  This bench prices
both against the drain scenario of ``bench_kernel`` (the PR 7
headline shape: a tick storm at the head of a huge armed-decoy mass)
on the kernel's heap queue:

``reference``
    The pre-hook dispatch loop, reconstructed verbatim in a
    :class:`Simulator` subclass — the PR 7 kernel, measured in the
    same process so the A/B excludes machine drift.
``null``
    The shipping loop with the default :data:`NULL_PROFILER`.
    Acceptance: < 2% slower than ``reference`` (< 15% at ci scale,
    where the runs are milliseconds and the threshold is a smoke
    check, not a measurement — cross-commit regressions are caught by
    ``compare.py`` against committed baselines instead).
``enabled``
    A live :class:`CallbackProfiler`.  Acceptance: < 25% slower than
    ``reference`` (< 50% at ci scale).  The run-length fold is what
    makes this possible: ``perf_counter`` costs ~120ns on commodity
    hardware while the drain dispatches an event every ~0.8us, so
    per-event clocking would alone eat most of the budget.

Measurement methodology — shared machines are *hostile* to a 2%
claim, so three defenses stack:

* the three modes run in ``ROUNDS`` interleaved rounds with the mode
  order **rotated** every round.  Calibration on a burstable host
  showed a systematic position effect (the same code measures ~15%
  slower in one slot of an A/B pair, from allocator state); rotation
  spreads that bias equally over all modes;
* each round's run is kept short (tens of ms) and ``gc.collect()``
  precedes every timed section, so a throttling episode can miss at
  least some rounds entirely;
* per mode the **minimum** wall over all rounds is compared: noise
  only ever adds time, so the minima converge on the true cost while
  means and medians inherit the full throttling spread.  Min-of-40 on
  the calibration host resolved identical-code A/B to within ~2.5%;
  single-shot comparison on the same host was off by up to 50%.

All modes must dispatch identical event counts at identical final
clocks — the profiler may never touch simulated time.

Results land in ``BENCH_profile.json`` at the repo root: overhead
percentages, the enabled run's hottest sites, and the profiler's own
batch accounting.  Set ``KERNEL_BENCH_SCALE=ci`` for the capped smoke
variant.
"""

import gc
import os
import time

from repro.obs import CallbackProfiler
from repro.simkernel import Simulator

from _meta import write_payload
from _tables import fmt, print_table

CI_SCALE = os.environ.get("KERNEL_BENCH_SCALE") == "ci"

if CI_SCALE:
    N_DECOYS = 20_000
    N_TICKERS = 300
    N_TICKS = 40
    MAX_NULL_OVERHEAD = 0.15
    MAX_ENABLED_OVERHEAD = 0.50
    ROUNDS = 12
else:
    N_DECOYS = 100_000
    N_TICKERS = 500
    N_TICKS = 100
    MAX_NULL_OVERHEAD = 0.02
    MAX_ENABLED_OVERHEAD = 0.25
    ROUNDS = 40
ROUNDS = int(os.environ.get("BENCH_PROFILE_ROUNDS", ROUNDS))
DECOY_BASE = 1e9  # far enough that decoys never dispatch


class _Pr7Simulator(Simulator):
    """The dispatch loop exactly as PR 7 shipped it: no profiler check,
    no kernel counters.  Only :meth:`run` differs from the parent."""

    def run(self, until=None):
        from repro.simkernel.core import _stop_simulation
        from repro.simkernel.errors import (EmptySchedule, StopSimulation)
        from repro.simkernel.events import Event, URGENT

        stop_event = None
        if until is not None:
            if isinstance(until, Event):
                stop_event = until
                if stop_event.callbacks is None:
                    return stop_event.value
                stop_event.callbacks.append(_stop_simulation)
            else:
                at = float(until)
                if at < self._now:
                    raise ValueError(
                        f"until ({at}) must not be before now ({self._now})")
                stop_event = Event(self)
                stop_event._ok = True
                stop_event._value = None
                self.schedule(stop_event, priority=URGENT,
                              delay=at - self._now)
                stop_event.callbacks.append(_stop_simulation)

        queue = self._queue
        batch = []
        try:
            while True:
                batch.clear()
                if not queue.pop_batch(batch):
                    raise EmptySchedule("event queue is empty")
                self._now = batch[0][0]
                self._batch_priority = batch[0][1]
                i, n = 0, len(batch)
                try:
                    while i < n:
                        event = batch[i][3]
                        i += 1
                        if event._descheduled:
                            continue
                        self._preempted = False
                        self._dispatch(event)
                        if self._preempted and i < n:
                            for j in range(i, n):
                                queue.push(batch[j])
                            i = n
                except BaseException:
                    for j in range(i, n):
                        queue.push(batch[j])
                    raise
        except StopSimulation as stop:
            return stop.value
        except EmptySchedule:
            if isinstance(until, Event) and not until.triggered:
                raise
            if until is not None and not isinstance(until, Event):
                self._now = max(self._now, float(until))
            return None


def _noop(_ev):
    pass


def run_drain(sim_cls=Simulator, profiler=None):
    """The bench_kernel drain shape: pre-armed tick storm over a decoy
    mass, measured from the first pop."""
    sim = sim_cls()
    if profiler is not None:
        profiler.reset()
        profiler.install(sim)
    call_in = sim.call_in
    for i in range(N_DECOYS):
        call_in(DECOY_BASE + i * 1e-3, _noop)
    fired = [0]

    def tick(_ev):
        fired[0] += 1

    for t in range(1, N_TICKS + 1):
        ft = float(t)
        for _ in range(N_TICKERS):
            call_in(ft, tick)
    gc.collect()
    wall = time.perf_counter()
    sim.run(until=N_TICKS + 0.5)
    wall = time.perf_counter() - wall
    return {"wall_s": wall, "events": fired[0], "final_now": sim.now}


def measure():
    """Rotated-order, best-of-``ROUNDS`` walls for the three modes
    (see the module docstring for why rotation + minima)."""
    profiler = CallbackProfiler()
    modes = [
        ("reference", lambda: run_drain(sim_cls=_Pr7Simulator)),
        ("null", lambda: run_drain()),
        ("enabled", lambda: run_drain(profiler=profiler)),
    ]
    walls = {name: [] for name, _ in modes}
    shape = {}
    for r in range(ROUNDS):
        rotation = modes[r % len(modes):] + modes[:r % len(modes)]
        for name, runner in rotation:
            result = runner()
            walls[name].append(result["wall_s"])
            expected = shape.setdefault(
                name, (result["events"], result["final_now"]))
            assert expected == (result["events"], result["final_now"])
    # The profiler may never touch the timeline.
    assert len(set(shape.values())) == 1, shape
    best = {name: min(ws) for name, ws in walls.items()}
    events = shape["reference"][0]
    return {
        "events": events,
        "rounds": ROUNDS,
        "wall_s": best,
        "events_per_sec": {name: events / w for name, w in best.items()},
        "overhead_null_pct": best["null"] / best["reference"] - 1.0,
        "overhead_enabled_pct": best["enabled"] / best["reference"] - 1.0,
    }, profiler


def test_profiler_overhead(benchmark):
    r, profiler = benchmark.pedantic(measure, rounds=1, iterations=1)
    snap = profiler.snapshot()

    print_table(
        f"PROFILER OVERHEAD on drain ({N_DECOYS} decoys, "
        f"{N_TICKERS} tickers x {N_TICKS} ticks, best of {ROUNDS})",
        ["ref wall (s)", "null wall (s)", "prof wall (s)",
         "null ovh", "prof ovh"],
        [(fmt(r["wall_s"]["reference"], 3),
          fmt(r["wall_s"]["null"], 3),
          fmt(r["wall_s"]["enabled"], 3),
          f"{r['overhead_null_pct']:+.1%}",
          f"{r['overhead_enabled_pct']:+.1%}")])

    out = {
        "config": {
            "scale": "ci" if CI_SCALE else "full",
            "n_decoys": N_DECOYS,
            "n_tickers": N_TICKERS,
            "n_ticks": N_TICKS,
            "rounds": ROUNDS,
            "max_null_overhead": MAX_NULL_OVERHEAD,
            "max_enabled_overhead": MAX_ENABLED_OVERHEAD,
        },
        "backends": {"heap": r},
        "headline": {
            "overhead_null_pct": r["overhead_null_pct"],
            "overhead_enabled_pct": r["overhead_enabled_pct"],
            "enabled_events_per_sec": r["events_per_sec"]["enabled"],
        },
        "profile": {
            "top_sites": [s.to_dict() for s in snap.sites[:10]],
            "events": snap.events,
            "batches": snap.batches,
            "kernel_wall_s": snap.kernel_wall,
            "batch_hist": {str(k): v for k, v in snap.batch_hist.items()},
        },
    }
    write_payload("profile", out)

    # Acceptance: the null hook is invisible, the enabled profiler stays
    # inside its budget, and the profiler saw every dispatched tick.
    assert r["overhead_null_pct"] < MAX_NULL_OVERHEAD, r
    assert r["overhead_enabled_pct"] < MAX_ENABLED_OVERHEAD, r
    assert snap.events >= r["events"]


if __name__ == "__main__":
    class _Shim:
        @staticmethod
        def pedantic(fn, args=(), **_):
            return fn(*args)

    test_profiler_overhead(_Shim())
