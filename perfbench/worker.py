"""One workload run in its own process.

    python3 perfbench/worker.py --workload sky_blast --seed 0 [--trace]

Prints one JSON object: set-up and run host seconds, the host-speed
probe's time around them, the peak RSS of this process, the simulated
outputs and end-to-end metrics, the scenario check's problems and the
layer statistics.  With ``--trace`` the run is wrapped in boundary
spans and a ``cProfile``, the spans are written under
``perfbench/out/`` and the per-layer rollup is added.
``run.py`` starts one worker per run so that no run's memory
high-water mark can hide another's.
"""

from __future__ import annotations

import argparse
import cProfile
import heapq
import json
import pstats
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import layers  # noqa: E402
import scenarios  # noqa: E402


def host_speed_probe() -> float:
    """Seconds a fixed pure-Python loop takes right now.

    The loop mixes what the simulator spends its time on (heap pushes
    and pops, dict updates, tuple allocation, float arithmetic) and uses
    nothing from ``repro``, so a change to the program cannot move it.
    On a shared host it slows down and speeds up with the run it
    brackets, which is what ``run.py`` corrects host times for.
    """
    start = time.perf_counter()
    heap, counts, live, acc = [], {}, [], 0.0
    for i in range(150_000):
        heapq.heappush(heap, ((i * 7919) % 1009 + 0.5, i))
        counts[i % 4093] = counts.get(i % 4093, 0) + 1
        live.append((i, acc))
        if len(live) > 512:
            live.clear()
        acc += (i % 13) * 0.5
        if len(heap) > 256:
            acc -= heapq.heappop(heap)[0] * 1e-6
    return time.perf_counter() - start


def measure(workload: str, seed: int) -> dict:
    t0 = time.perf_counter()
    scenario = scenarios.WORKLOADS[workload](seed)
    t1 = time.perf_counter()
    scenario.run()
    t2 = time.perf_counter()
    return {"scenario": scenario, "setup_s": t1 - t0, "wall_s": t2 - t1}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(scenarios.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", action="store_true")
    args = ap.parse_args(argv)

    probe_before = host_speed_probe()
    if args.trace:
        recorder = layers.SpanRecorder(args.workload).install()
        profiler = cProfile.Profile()
        profiler.enable()
        run = measure(args.workload, args.seed)
        profiler.disable()
    else:
        run = measure(args.workload, args.seed)
    probe_after = host_speed_probe()
    scenario = run.pop("scenario")
    doc = {
        **run,
        "probe_s": (probe_before + probe_after) / 2,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024,
        "outputs": scenario.outputs(),
        "end_to_end": scenario.end_to_end(),
        "problems": scenario.problems(),
        "layers": scenario.layer_stats(),
    }
    if args.trace:
        doc["spans"] = recorder.totals()
        doc["self_s"] = {str(k): v for k, v in layers.rollup(
            pstats.Stats(profiler).stats).items()}
        doc["spans_written"] = recorder.dump(
            HERE / "out" / f"{args.workload}-seed{args.seed}.spans.npz")
    print(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main())
