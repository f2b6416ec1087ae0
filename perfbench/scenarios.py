"""The four paper workloads the end-to-end benchmark drives.

Each workload is a class.  Its constructor is the set-up (testbed,
plane and generated inputs), :meth:`Scenario.run` is the measured part
(from the first ``sim.run`` to scenario completion), and
:meth:`Scenario.problems` lists what went wrong in the simulated
outcome.  :meth:`Scenario.outputs` is the digest compared against the
stored reference, :meth:`Scenario.end_to_end` the simulated end-to-end
metrics, and :meth:`Scenario.layer_stats` the public statistics the
traced run turns into per-layer metrics.
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np

import inputs
from repro.controlplane import (
    ControlPlane,
    FailureInjector,
    JobState,
    SchedulerConfig,
)
from repro.hypervisor import (
    Dirtier,
    DiskImage,
    LiveMigrator,
    MigrationConfig,
    VirtualMachine,
)
from repro.mapreduce import JobTracker
from repro.network.units import GB_DECIMAL, Mbit
from repro.obs import Tracer, kernel_stats
from repro.shrinker import (
    ClusterMigrationCoordinator,
    RegistryDirectory,
    shrinker_codec_factory,
)
from repro.testbeds import SiteSpec, sky_testbed


class Scenario:
    """Shared reporting over a built testbed ``self.tb``."""

    #: The program's own tracer, when the workload installs one.
    tracer = None

    def run(self) -> None:
        raise NotImplementedError

    def problems(self) -> List[str]:
        raise NotImplementedError

    def counts(self) -> Dict[str, int]:
        """``completed`` and ``failed`` operations of the scenario."""
        raise NotImplementedError

    def outputs(self) -> dict:
        """The simulated outputs a speed-only change must not move."""
        return {
            "makespan": float(self.tb.sim.now),
            **self.counts(),
            "events": kernel_stats(self.tb.sim).events_dispatched,
            "wan_bytes": float(self.tb.billing.total_cross_site_bytes),
            "spans": self.tracer.stats()["started"] if self.tracer else 0,
        }

    def end_to_end(self) -> Dict[str, float]:
        compute = sum(c.compute_cost() for c in self.tb.clouds.values())
        return {
            "sim_makespan_s": float(self.tb.sim.now),
            "wan_gb": self.tb.billing.total_cross_site_bytes / GB_DECIMAL,
            "cost_usd": compute + self.tb.billing.total_cost(),
        }

    def layer_stats(self) -> Dict[str, float]:
        """Per-layer numbers read from the program's public stats."""
        ks = kernel_stats(self.tb.sim)
        flows = self.tb.scheduler.stats
        stats = {
            "simkernel.events": ks.events_dispatched,
            "simkernel.batches": ks.batches_dispatched,
            "simkernel.compactions": ks.compactions,
            "network.flows_rerated": flows["flows_rerated"],
            "network.timers_armed": flows["timers_armed"],
            "network.timers_skipped": flows["timers_skipped"],
        }
        if self.tracer is not None:
            t = self.tracer.stats()
            stats["obs.spans"] = t["started"]
            stats["obs.resident_peak"] = t["resident_peak"]
        return stats


class SkyBlast(Scenario):
    """SCALE BLAST: a 4-cloud sky cluster (chain+CoW propagation, ViNe
    join, contextualization barrier) running weak-scaling BLAST."""

    N_NODES = 1024

    def __init__(self, seed: int):
        n = self.N_NODES
        per_cloud_hosts = max(2, n // 4 // 8 + 2)
        self.tb = sky_testbed(
            sites=[SiteSpec(f"c{i}", n_hosts=per_cloud_hosts,
                            cores_per_host=16,
                            region="eu" if i < 2 else "us")
                   for i in range(4)],
            memory_pages=256, image_blocks=1024,
        )
        self.job = inputs.blast_batches(seed, n)

    def run(self) -> None:
        sim = self.tb.sim
        self.cluster = sim.run(until=self.tb.federation.create_virtual_cluster(
            self.tb.image_name, self.N_NODES))
        self.provision_sim_s = sim.now
        tracker = JobTracker(sim, self.tb.scheduler,
                             rng=np.random.default_rng(0))
        for vm in self.cluster:
            tracker.add_tracker(vm)
        self.result = sim.run(until=tracker.submit(self.job))

    def _n_tasks(self) -> int:
        return (len(self.job.map_cpu)
                + len(self.job.reduce_cpu))

    def counts(self):
        done = sum(self.result.tasks_per_node.values())
        return {"completed": done, "failed": self._n_tasks() - done}

    def problems(self):
        out = []
        clouds = len(self.cluster.site_distribution())
        if clouds != 4:
            out.append(f"cluster spans {clouds} clouds, expected 4")
        counts = self.counts()
        if counts["failed"]:
            out.append(f"{counts['failed']} of {self._n_tasks()} BLAST "
                       f"tasks not done")
        return out

    def layer_stats(self):
        r = self.result
        return {
            **super().layer_stats(),
            "mapreduce.tasks": r.map_attempts + r.reduce_attempts,
            "mapreduce.locality": r.locality_rate,
            "sky.provision_sim_s": self.provision_sim_s,
        }


class _ControlPlaneDrain(Scenario):
    """The 3-tenant, 3-cloud control-plane federation.

    The tenants' image is built at ``c0`` only; the run starts by
    replicating it to the other clouds over the WAN, then starts the
    plane and feeds it the generated job stream.
    """

    APP_IMAGE = "tenant-env"
    N_JOBS = 1000
    MAX_ATTEMPTS = 5

    def __init__(self, seed: int):
        self.tb = sky_testbed(
            sites=[SiteSpec(f"c{i}", n_hosts=4, cores_per_host=16,
                            on_demand_hourly=0.10 + 0.02 * i,
                            region="eu" if i < 2 else "us")
                   for i in range(3)],
            memory_pages=256, image_blocks=512,
        )
        self.tb.clouds["c0"].repository.register(
            inputs.app_image(seed, self.APP_IMAGE, n_blocks=512,
                             memory_pages=256))
        self.tracer = self._make_tracer(self.tb.sim)
        self.plane = ControlPlane(
            self.tb.sim, self.tb.federation, self.APP_IMAGE,
            config=SchedulerConfig(interval=10.0, lease_term=600.0,
                                   max_attempts=self.MAX_ATTEMPTS),
            heal_policy="replace", tracer=self.tracer,
        )
        for name, weight in inputs.TENANTS:
            self.plane.register_tenant(name, weight=weight)
        self.specs = self._job_stream(seed)
        self.jobs = []

    def _make_tracer(self, sim):
        return None

    def _job_stream(self, seed: int):
        return inputs.job_stream(seed, self.N_JOBS)

    def _feed(self):
        """Submit each job at its arrival time, then wait for all."""
        sim = self.tb.sim
        start = sim.now
        for spec in self.specs:
            delay = start + spec.arrival - sim.now
            if delay > 0:
                yield sim.timeout(delay)
            self.jobs.append(self.plane.submit(
                spec.tenant, n_nodes=spec.n_nodes, runtime=spec.runtime,
                priority=spec.priority))
        yield self.plane.all_done(self.jobs)

    def run(self) -> None:
        sim = self.tb.sim
        fed = self.tb.federation
        sim.run(until=sim.all_of([
            fed.replicate_image(self.APP_IMAGE, "c0", name)
            for name in self.tb.clouds if name != "c0"]))
        self.plane.start()
        sim.run(until=sim.process(self._feed()))
        self.summary = self.plane.summary()

    def counts(self):
        return {"completed": self.summary["completed"],
                "failed": self.summary["failed"]}

    def problems(self):
        out = []
        terminal = (JobState.COMPLETED, JobState.FAILED)
        open_jobs = [j for j in self.jobs if j.state not in terminal]
        if len(self.jobs) != len(self.specs) or open_jobs:
            out.append(f"{len(open_jobs)} jobs not terminal, "
                       f"{len(self.specs) - len(self.jobs)} never submitted")
        leaked = self.plane.leases.leaked()
        if leaked:
            out.append(f"{len(leaked)} leaked leases")
        stranded = sum(len(c.instances) for c in self.tb.clouds.values())
        if stranded:
            out.append(f"{stranded} stranded instances")
        return out

    def layer_stats(self):
        s = self.summary
        return {
            **super().layer_stats(),
            "controlplane.requeued": s["requeued"],
            "controlplane.failed": s["failed"],
            "controlplane.heal_events": s["heal_events"],
            "controlplane.wait_sim_s": s["mean_wait"],
            "controlplane.eventlog.events": s["last_seq"],
        }


class ControlPlaneStream(_ControlPlaneDrain):
    """Every job submitted at once: a deep queue, untraced."""


class ControlPlaneChurn(_ControlPlaneDrain):
    """Open-loop Poisson arrivals at ~70% of federation capacity, a
    Poisson VM killer with replace-healing, and the program's own
    tracer installed."""

    N_JOBS = 650
    #: Share of the nominal cores the arrivals ask for.  With a deep
    #: queue the plane keeps ~150 of its 192 cores busy (provisioning
    #: and fragmentation take the rest), so 0.55 is ~70% of what it can
    #: drain and the queue stays shallow; at 0.7 of nominal, Poisson
    #: bursts build backlogs whose scan cost varies 5x across seeds.
    LOAD = 0.55
    KILL_RATE = 1 / 400.0
    MAX_ATTEMPTS = 10

    def __init__(self, seed: int):
        super().__init__(seed)
        self.killer = FailureInjector(
            self.tb.sim, self.plane.leases, rng=inputs.killer_rng(seed),
            rate=self.KILL_RATE)

    def _make_tracer(self, sim):
        return Tracer(sim)

    def _job_stream(self, seed: int):
        capacity = self.tb.federation.total_capacity()
        return inputs.job_stream(
            seed, self.N_JOBS, rate=inputs.open_loop_rate(capacity,
                                                          self.LOAD))

    def run(self) -> None:
        super().run()
        self.killer.stop()


class WanMigrate(Scenario):
    """Shrinker live migration of a web-server cluster, memory plus
    disk, over a 1 Gbit/s WAN."""

    N_VMS = 16
    PAGES = 8192          # 32 MiB guests
    DISK_BLOCKS = 16384   # 64 MiB disks

    def __init__(self, seed: int):
        n = self.N_VMS
        self.tb = sky_testbed(
            sites=[SiteSpec("src", n_hosts=n, region="eu"),
                   SiteSpec("dst", n_hosts=n, region="eu")],
            wan_bandwidth=1000 * Mbit,
        )
        sim = self.tb.sim
        profile, guests, dirty_rng = inputs.web_cluster(
            seed, n, self.PAGES, self.DISK_BLOCKS)
        src = self.tb.clouds["src"].hosts
        self.dst_hosts = self.tb.clouds["dst"].hosts[:n]
        self.vms = []
        for i, (memory, fingerprints) in enumerate(guests):
            disk = DiskImage(f"d{i}", self.DISK_BLOCKS,
                             fingerprints=fingerprints)
            vm = VirtualMachine(sim, f"vm{i}", memory, disk=disk)
            src[i].place(vm)
            vm.boot()
            Dirtier(sim, vm, profile, dirty_rng)
            self.vms.append(vm)
        migrator = LiveMigrator(sim, self.tb.scheduler,
                                shrinker_codec_factory(RegistryDirectory()))
        self.coordinator = ClusterMigrationCoordinator(sim, migrator)

    def run(self) -> None:
        self.stats = self.tb.sim.run(until=self.coordinator.migrate_cluster(
            self.vms, self.dst_hosts, MigrationConfig(migrate_storage=True),
            wave_size=1))
        for vm in self.vms:
            vm.stop()

    def counts(self):
        arrived = sum(vm.host is dst
                      for vm, dst in zip(self.vms, self.dst_hosts))
        return {"completed": arrived, "failed": len(self.vms) - arrived}

    def problems(self):
        failed = self.counts()["failed"]
        return [f"{failed} VMs not at their destination"] if failed else []

    def layer_stats(self):
        per_vm = self.stats.per_vm
        sent = sum(s.pages_sent for s in per_vm)
        return {
            **super().layer_stats(),
            "hypervisor.precopy_rounds": sum(s.rounds for s in per_vm),
            "hypervisor.downtime_s": self.stats.total_downtime,
            "shrinker.digest_ratio": (sum(s.digest_pages for s in per_vm)
                                      / sent if sent else 0.0),
            "shrinker.wire_gb": self.stats.total_wire_bytes / GB_DECIMAL,
        }


WORKLOADS = {
    "sky_blast": SkyBlast,
    "cp_stream": ControlPlaneStream,
    "cp_churn": ControlPlaneChurn,
    "wan_migrate": WanMigrate,
}
