"""CONTROL PLANE — multi-tenant scheduling at the paper's scale.

Paper §II targets "dynamic computing infrastructures over distributed
clouds" serving real user communities: many tenants submitting many
jobs against a federation of modest IaaS sites.  This bench drives the
control plane (queue → fair-share scheduler → leases → self-healing)
through two scenarios:

1. *Throughput*: 1000 jobs from three weighted tenants over a 3-cloud
   federation, run to completion twice — the two runs must produce
   identical schedules (determinism is what makes the simulator a
   measurement instrument).
2. *Self-healing*: the same federation with a Poisson VM killer; every
   job must still finish and every torn-down lease must have returned
   its capacity (zero leaks).

Metric trajectories (queue depth, lease utilization, completions) are
exported with ``MetricsRecorder.to_dict`` / ``dump_csv`` to
``BENCH_controlplane.{json,csv}`` beside this file.
"""

import time
from pathlib import Path

import numpy as np

from repro.controlplane import ControlPlane, FailureInjector, SchedulerConfig
from repro.testbeds import SiteSpec, sky_testbed

from _meta import write_payload
from _tables import fmt, print_table

N_JOBS = 1000
TENANTS = (("alice", 1.0), ("bob", 2.0), ("carol", 1.0))
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent  # BENCH_* artifacts live at the repo root


def build_plane(n_hosts=4, cores=16, heal_policy="replace",
                max_attempts=5):
    testbed = sky_testbed(
        sites=[SiteSpec(f"c{i}", n_hosts=n_hosts, cores_per_host=cores,
                        on_demand_hourly=0.10 + 0.02 * i,
                        region="eu" if i < 2 else "us")
               for i in range(3)],
        memory_pages=256, image_blocks=512,
    )
    plane = ControlPlane(
        testbed.sim, testbed.federation, testbed.image_name,
        config=SchedulerConfig(interval=10.0, lease_term=600.0,
                               max_attempts=max_attempts),
        heal_policy=heal_policy,
    ).start()
    for name, weight in TENANTS:
        plane.register_tenant(name, weight=weight)
    return testbed, plane


def submit_workload(plane, n_jobs, seed=123):
    """A seeded mixed workload: mostly small jobs, a few wide ones."""
    rng = np.random.default_rng(seed)
    names = [name for name, _ in TENANTS]
    jobs = []
    for i in range(n_jobs):
        tenant = names[int(rng.integers(len(names)))]
        n_nodes = int(rng.choice([1, 1, 2, 2, 4, 8]))
        runtime = float(rng.integers(30, 121))
        jobs.append(plane.submit(tenant, n_nodes=n_nodes, runtime=runtime,
                                 priority=int(rng.integers(3)),
                                 name=f"w{i}"))
    return jobs


def run_throughput(n_jobs=N_JOBS):
    wall = time.time()
    testbed, plane = build_plane()
    jobs = submit_workload(plane, n_jobs)
    sim = testbed.sim
    sim.run(until=plane.all_done(jobs))
    summary = plane.summary()
    assert summary["completed"] == n_jobs, summary
    assert plane.leases.leaked() == []
    order = [(j.name, j.started_at, j.finished_at) for j in jobs]
    waits = {name: [j.wait_time for j in jobs if j.tenant == name]
             for name, _ in TENANTS}
    return {
        "summary": summary,
        "order": order,
        "makespan": sim.now,
        "throughput": n_jobs / sim.now,
        "mean_wait": {n: sum(w) / len(w) for n, w in waits.items()},
        "metrics": plane.metrics,
        "stats": dict(plane.scheduler.stats, **plane.leases.stats),
        "wall_s": time.time() - wall,
    }


def run_healing(n_jobs=300, failure_rate=1 / 400.0):
    wall = time.time()
    testbed, plane = build_plane(heal_policy="replace", max_attempts=10)
    sim = testbed.sim
    injector = FailureInjector(sim, plane.leases,
                               rng=np.random.default_rng(7),
                               rate=failure_rate)
    jobs = submit_workload(plane, n_jobs, seed=456)
    sim.run(until=plane.all_done(jobs))
    injector.stop()
    summary = plane.summary()
    clouds = testbed.federation.clouds.values()
    return {
        "summary": summary,
        "killed": len(injector.killed),
        "leaked": plane.leases.leaked(),
        "stranded": sum(len(c.instances) for c in clouds),
        "makespan": sim.now,
        "wall_s": time.time() - wall,
    }


def test_throughput_1000_jobs_deterministic(benchmark):
    first = benchmark.pedantic(run_throughput, rounds=1, iterations=1)
    second = run_throughput()

    # Same seed, same workload -> bit-identical schedule and accounting.
    assert first["order"] == second["order"]
    assert first["summary"] == second["summary"]

    s = first["summary"]
    rows = [
        ("jobs completed", s["completed"]),
        ("makespan (sim s)", fmt(first["makespan"], 0)),
        ("throughput (jobs/sim s)", fmt(first["throughput"], 2)),
        ("mean wait (s)", fmt(s["mean_wait"], 1)),
        ("requeued", s["requeued"]),
        ("leases granted", s["leases"]),
        ("wall (s)", fmt(first["wall_s"], 1)),
    ]
    print_table("CONTROL PLANE: 1000 jobs, 3 tenants, 3 clouds",
                ["metric", "value"], rows)
    # Everybody's jobs finish, so total usage is workload-determined;
    # the weight shows up as service order: bob (weight 2) waits less
    # than the weight-1 tenants.  Exact share proportions are covered
    # by the property test.
    wait = first["mean_wait"]
    assert wait["bob"] < wait["alice"]
    assert wait["bob"] < wait["carol"]

    # Export the trajectories for plotting / regression diffing.
    exported = first["metrics"].to_dict()
    write_payload("controlplane", {"series": exported}, indent=1)
    rows_written = first["metrics"].dump_csv(
        ROOT / "BENCH_controlplane.csv",
        names=["queue.depth", "lease.utilization", "jobs.completed"],
    )
    assert rows_written > 0
    assert set(exported) >= {"queue.depth", "lease.utilization",
                             "jobs.completed", "job.turnaround"}


def test_self_healing_run_loses_nothing(benchmark):
    stats = benchmark.pedantic(run_healing, rounds=1, iterations=1)
    s = stats["summary"]

    rows = [
        ("jobs completed", s["completed"]),
        ("jobs failed", s["failed"]),
        ("VMs killed", stats["killed"]),
        ("heal events", s["heal_events"]),
        ("jobs requeued", s["requeued"]),
        ("leases expired", s["leases_expired"]),
        ("makespan (sim s)", fmt(stats["makespan"], 0)),
        ("wall (s)", fmt(stats["wall_s"], 1)),
    ]
    print_table("CONTROL PLANE: self-healing under Poisson VM failures",
                ["metric", "value"], rows)

    assert stats["killed"] > 0, "injector never fired; rate too low"
    assert s["completed"] == 300 and s["failed"] == 0
    # The acceptance bar: zero leaked leases, zero stranded instances —
    # every expired or healed lease returned its capacity to its cloud.
    assert stats["leaked"] == []
    assert stats["stranded"] == 0
