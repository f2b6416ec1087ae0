"""End-to-end benchmark of the paper scenarios.

    python3 perfbench/run.py --workload sky_blast --seed 1 --seconds 30 --trace 0

Runs one workload (or ``all``) from the repository root.  Each run of
the workload is one operation, in its own worker process
(``worker.py``), so a run's peak RSS cannot hide behind an earlier
one's.  Runs repeat until ``--seconds`` would be exceeded (at least
``MIN_RUNS``), each under a different ``PYTHONHASHSEED``.  Every run's
simulated outputs must equal the reference ``reference.json`` stores
for the seed, or the first run's when it stores none.

Host times (``wall_s``, ``setup_s``) are scaled to a reference host
speed: each worker times a fixed pure-Python probe loop just before and
just after its run, and a run's times are multiplied by
``REFERENCE_PROBE_S / probe``.  On a shared host the loop slows down
and speeds up with the run it brackets, so the scaling removes most of
the host's drift while any change to the program shows in full; the raw
times go to standard error.

``--trace 0`` reports the end-to-end metrics (medians over the runs).
``--trace 1`` makes one traced run (boundary spans plus a cProfile
rollup by layer; retried if it fails) followed by untraced runs, and
reports the per-layer metrics.  The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
REFERENCE = HERE / "reference.json"

WORKLOADS = ("sky_blast", "cp_stream", "cp_churn", "wan_migrate")
#: Runs per invocation even when one run outlasts ``--seconds``.
MIN_RUNS = 3
#: Host seconds after which no further run starts; a run still going
#: at the hard limit is killed and counted as failed.
SOFT_LIMIT_S = 150
HARD_LIMIT_S = 170

#: Probe time that defines reference host speed (a quiet 2-vCPU Xeon
#: host at 2.0 GHz takes about this long).
REFERENCE_PROBE_S = 0.25

END_TO_END = (
    ("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"),
    ("sim_makespan_s", "sim_s"), ("wan_gb", "GB"), ("cost_usd", "USD"),
)
#: Layers whose profiled self time is reported as ``<layer>.self_s``.
PROFILED_LAYERS = ("simkernel", "network", "mapreduce", "cloud", "sky",
                   "vine", "hypervisor", "shrinker", "controlplane", "obs",
                   "setup")
#: Span-derived metrics: metric name -> (span name, "calls" or "s").
SPAN_METRICS = {
    "network.start_flow.calls": ("network.start_flow", "calls"),
    "cloud.capacity.calls": ("cloud.capacity", "calls"),
    "cloud.capacity.s": ("cloud.capacity", "s"),
    "cloud.run_instances.calls": ("cloud.run_instances", "calls"),
    "cloud.terminate.calls": ("cloud.terminate", "calls"),
    "hypervisor.used.calls": ("hypervisor.used", "calls"),
    "hypervisor.used.s": ("hypervisor.used", "s"),
    "hypervisor.place.calls": ("hypervisor.place", "calls"),
    "hypervisor.evict.calls": ("hypervisor.evict", "calls"),
    "controlplane.active_leases.calls": ("controlplane.active_leases",
                                         "calls"),
    "controlplane.active_leases.s": ("controlplane.active_leases", "s"),
    "controlplane.grant.calls": ("controlplane.grant", "calls"),
    "controlplane.release.calls": ("controlplane.release", "calls"),
    "controlplane.eventlog.append.s": ("controlplane.eventlog.append", "s"),
}
#: Every per-layer metric and its unit, in report order.
PER_LAYER = (
    ("simkernel.events", "count"), ("simkernel.batches", "count"),
    ("simkernel.compactions", "count"), ("simkernel.self_s", "s"),
    ("simkernel.us_per_event", "us"),
    ("network.start_flow.calls", "count"), ("network.flows_rerated", "count"),
    ("network.timers_armed", "count"), ("network.timers_skipped", "count"),
    ("network.rerated_per_flow", "ratio"), ("network.timer_skip_ratio",
                                            "ratio"),
    ("network.self_s", "s"),
    ("mapreduce.tasks", "count"), ("mapreduce.locality", "ratio"),
    ("mapreduce.self_s", "s"),
    ("cloud.capacity.calls", "count"), ("cloud.capacity.s", "s"),
    ("cloud.run_instances.calls", "count"), ("cloud.terminate.calls",
                                             "count"),
    ("cloud.self_s", "s"),
    ("sky.provision_sim_s", "sim_s"), ("sky.self_s", "s"),
    ("vine.self_s", "s"),
    ("hypervisor.used.calls", "count"), ("hypervisor.used.s", "s"),
    ("hypervisor.place.calls", "count"), ("hypervisor.evict.calls", "count"),
    ("hypervisor.self_s", "s"), ("hypervisor.precopy_rounds", "count"),
    ("hypervisor.downtime_s", "sim_s"),
    ("shrinker.digest_ratio", "ratio"), ("shrinker.wire_gb", "GB"),
    ("shrinker.self_s", "s"),
    ("controlplane.active_leases.calls", "count"),
    ("controlplane.active_leases.s", "s"),
    ("controlplane.grant.calls", "count"),
    ("controlplane.release.calls", "count"),
    ("controlplane.requeued", "count"), ("controlplane.failed", "count"),
    ("controlplane.heal_events", "count"),
    ("controlplane.wait_sim_s", "sim_s"),
    ("controlplane.eventlog.events", "count"),
    ("controlplane.eventlog.append.s", "s"), ("controlplane.self_s", "s"),
    ("obs.spans", "count"), ("obs.resident_peak", "count"),
    ("obs.self_s", "s"),
    ("setup.self_s", "s"),
    ("bench.trace_overhead", "ratio"), ("bench.unattributed_s", "s"),
)


def log(msg: str) -> None:
    print(msg, file=sys.stderr, flush=True)


def hash_seed(seed: int, run: int) -> int:
    """A different ``PYTHONHASHSEED`` for every run of every seed."""
    return (seed * 7919 + run * 104729 + 1) % 4294967295


def run_worker(workload: str, seed: int, trace: bool, run: int,
               timeout: float):
    """One workload run in a fresh process; returns (doc, error)."""
    cmd = [sys.executable, str(WORKER), "--workload", workload,
           "--seed", str(seed)] + (["--trace"] if trace else [])
    env = {**os.environ, "PYTHONHASHSEED": str(hash_seed(seed, run))}
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=max(1.0, timeout))
    except subprocess.TimeoutExpired:
        return None, f"timed out after {timeout:.0f} s"
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
        return None, f"exit {proc.returncode}: {tail[0]}"
    return json.loads(proc.stdout.strip().splitlines()[-1]), None


def load_reference() -> dict:
    return json.loads(REFERENCE.read_text())["outputs"]


def audit(doc: dict, expected: dict) -> list:
    """Why a run's outcome is wrong (empty when it is right)."""
    problems = list(doc["problems"])
    if doc["outputs"] != expected:
        problems.append(f"outputs {doc['outputs']} differ from the "
                        f"expected {expected}")
    return problems


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run ``workload`` repeatedly; returns the runs and the failures.

    Every run's outputs must equal the stored reference for this seed,
    or the first run's when the seed has none.
    """
    started = time.perf_counter()
    expected = load_reference().get(workload, {}).get(str(seed))
    docs, traced, failed, attempted = [], None, 0, 0
    last = 0.0
    while True:
        elapsed = time.perf_counter() - started
        # Failed runs end the loop early only once MIN_RUNS have failed.
        as_traced = trace and traced is None
        enough = (not as_traced and len(docs) >= (1 if trace else MIN_RUNS)
                  or failed >= MIN_RUNS)
        if (enough and elapsed + last > min(seconds, SOFT_LIMIT_S)
                or elapsed > SOFT_LIMIT_S):
            break
        t0 = time.perf_counter()
        doc, error = run_worker(workload, seed, as_traced, attempted,
                                HARD_LIMIT_S - elapsed)
        last = time.perf_counter() - t0
        attempted += 1
        if doc is not None:
            expected = expected or doc["outputs"]
            problems = audit(doc, expected)
            error = "; ".join(problems) if problems else None
        if error:
            failed += 1
            log(f"{workload} seed {seed} run {attempted}: FAILED: {error}")
            continue
        log(f"{workload} seed {seed} run {attempted}: setup "
            f"{doc['setup_s']:.4f} s, wall {doc['wall_s']:.4f} s, probe "
            f"{doc['probe_s']:.4f} s" + (" (traced)" if as_traced else ""))
        if as_traced:
            traced = doc
        else:
            docs.append(doc)
    return {"docs": docs, "traced": traced, "attempted": attempted,
            "failed": failed}


def at_reference_speed(doc: dict, name: str) -> float:
    """A run's host time scaled to reference host speed."""
    return doc[name] * REFERENCE_PROBE_S / doc["probe_s"]


def end_to_end_metrics(docs: list) -> dict:
    out = {}
    for name, unit in END_TO_END:
        if name in ("wall_s", "setup_s"):
            value = statistics.median(at_reference_speed(d, name)
                                      for d in docs)
        elif name == "peak_rss_mb":
            value = statistics.median(d[name] for d in docs)
        else:
            value = docs[0]["end_to_end"][name]
        out[name] = {"value": value, "unit": unit}
    return out


def per_layer_metrics(traced: dict, docs: list) -> dict:
    stats = traced["layers"]
    values = {name: stats.get(name, 0) for name, _ in PER_LAYER}
    for name, (span, field) in SPAN_METRICS.items():
        values[name] = traced["spans"][span][field]
    for layer in PROFILED_LAYERS:
        values[f"{layer}.self_s"] = traced["self_s"].get(layer, 0.0)
    untraced_wall = statistics.median(at_reference_speed(d, "wall_s")
                                      for d in docs)
    events = stats["simkernel.events"]
    values["simkernel.us_per_event"] = untraced_wall * 1e6 / events
    flows = values["network.start_flow.calls"]
    values["network.rerated_per_flow"] = (
        stats["network.flows_rerated"] / flows if flows else 0.0)
    timers = stats["network.timers_armed"] + stats["network.timers_skipped"]
    values["network.timer_skip_ratio"] = (
        stats["network.timers_skipped"] / timers if timers else 0.0)
    values["bench.trace_overhead"] = (
        at_reference_speed(traced, "wall_s") / untraced_wall)
    values["bench.unattributed_s"] = traced["self_s"].get("None", 0.0)
    return {name: {"value": values[name], "unit": unit}
            for name, unit in PER_LAYER}


def report(workload: str, metrics: dict) -> None:
    for name, m in metrics.items():
        print(f"{workload:12s} {name:34s} {m['value']:16.6g} {m['unit']}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        log(f"no program to benchmark: {ROOT / 'src' / 'repro'} is missing")
        return 2

    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    attempted = failed = 0
    metrics = {}
    for workload in workloads:
        res = measure(workload, args.seed, args.seconds, bool(args.trace))
        attempted += res["attempted"]
        failed += res["failed"]
        if not res["docs"] or (args.trace and res["traced"] is None):
            log(f"{workload}: no successful run to report")
            return 1
        ms = (per_layer_metrics(res["traced"], res["docs"]) if args.trace
              else end_to_end_metrics(res["docs"]))
        report(workload, ms)
        if len(workloads) > 1:
            ms = {f"{workload}.{k}": v for k, v in ms.items()}
        metrics.update(ms)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
