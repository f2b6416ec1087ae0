"""Per-job work of the control plane, and the fast paths against their
recomputing references.

The scheduler probes queued jobs against one placement view per pass
and the lease manager keeps an index of active leases.  The tests
below pin the work both do per job as the queue deepens (via their
``stats`` counters), check the event log and summary against a
test-local reference scheduler that recomputes placement for every
probe and scans every lease ever granted, and check the lease index
against the scan after every committed event, across crash recovery.
"""

import json

import numpy as np
from hypothesis import example, given, settings, strategies as st

from repro.cloud import CloudError
from repro.controlplane import (
    ControlPlane,
    JobState,
    LeaseManager,
    SchedulerConfig,
    eventlog_of,
    recover,
)
from repro.controlplane.scheduler import FairShareScheduler
from repro.sky.federation import FederationError
from repro.sky.scheduler import PlacementError
from repro.testbeds import SiteSpec, sky_testbed

TENANTS = (("alice", 1.0), ("bob", 2.0), ("carol", 1.0))


def _scan(mgr):
    return [l for l in mgr.leases if l.active]


# -- work per job ------------------------------------------------------


def _drain(n_jobs, seed=123):
    """The throughput bench's federation and workload: ``n_jobs``
    queued at once over 3 clouds x 4 hosts x 16 cores."""
    tb = sky_testbed(
        sites=[SiteSpec(f"c{i}", n_hosts=4, cores_per_host=16,
                        on_demand_hourly=0.10 + 0.02 * i,
                        region="eu" if i < 2 else "us")
               for i in range(3)],
        memory_pages=256, image_blocks=512,
    )
    plane = ControlPlane(
        tb.sim, tb.federation, tb.image_name,
        config=SchedulerConfig(interval=10.0, lease_term=600.0),
    ).start()
    for name, weight in TENANTS:
        plane.register_tenant(name, weight=weight)
    rng = np.random.default_rng(seed)
    jobs = []
    for i in range(n_jobs):
        tenant = TENANTS[int(rng.integers(len(TENANTS)))][0]
        jobs.append(plane.submit(
            tenant, n_nodes=int(rng.choice([1, 1, 2, 2, 4, 8])),
            runtime=float(rng.integers(30, 121)),
            priority=int(rng.integers(3)), name=f"w{i}"))
    mgr = plane.leases
    seen = []  # (active leases returned, leases ever granted) per call
    query = mgr.active_leases

    def counted():
        out = query()
        seen.append((len(out), len(mgr.leases)))
        return out

    mgr.active_leases = counted
    tb.sim.run(until=plane.all_done(jobs))
    assert plane.summary()["completed"] == n_jobs
    assert mgr.leaked() == []
    return plane, seen


def test_scheduling_work_per_job_stays_flat_as_the_queue_deepens():
    small, seen_small = _drain(250)
    large, seen_large = _drain(500)

    def per_job(plane, counter, n):
        stats = dict(plane.scheduler.stats, **plane.leases.stats)
        return stats[counter] / n

    for counter in ("capacity_queries", "leases_scanned"):
        growth = (per_job(large, counter, 500)
                  / per_job(small, counter, 250))
        assert growth <= 1.25, (counter, growth)

    for plane, seen in ((small, seen_small), (large, seen_large)):
        scanned = plane.leases.stats["leases_scanned"]
        # Every lease query visits the active leases only ...
        assert scanned == sum(active for active, _ in seen)
        peak = max(active for active, _ in seen)
        assert scanned <= len(seen) * peak
        # ... which is a small part of every lease ever granted.
        assert scanned * 2 < sum(total for _, total in seen)


# -- the recomputing reference -----------------------------------------


class _ScanLeaseManager(LeaseManager):
    """Reference lease queries: scan every lease ever granted."""

    def active_leases(self):
        return _scan(self)


class _ReferenceScheduler(FairShareScheduler):
    """Reference placement: every probe recomputes the cloud ranking
    and free capacity, and backfill probes every queued job."""

    def _allocate(self, job, view):
        return super()._allocate(job, self._placement_view())

    def _backfill(self, head):
        free = sum(self._available(c)
                   for c in self.federation.clouds.values())
        target = head.min_nodes
        shadow = self.sim.now
        pool = free
        for est, n in self._release_schedule():
            if pool >= target:
                break
            pool += n
            shadow = est
        if pool < target:
            shadow = float("inf")
        spare = pool - target
        for tenant in self._ranked_tenants():
            for job in self.queue.queued_jobs(tenant.name):
                if job is head:
                    continue
                allocation = self._allocate(job, None)
                if allocation is None:
                    continue
                k = sum(allocation.values())
                if not self._within_tenant_quota(job, k):
                    continue
                est_end = (self.sim.now + job.work_remaining / k
                           + self.config.backfill_slack)
                if est_end > shadow and k > spare:
                    continue
                self._dispatch(job, allocation)
                self.backfills += 1
                job.span.event("backfilled", ahead_of=head.name)
                if self.metrics is not None:
                    self.metrics.record("jobs.backfilled", self.backfills)
                return True
        return False


def _normalized(log):
    """Event payloads with job and lease ids renumbered by first
    appearance (both are process-wide counters, so two runs in one
    process number their entities differently)."""
    ids = {}

    def canon(kind, value):
        return ids.setdefault((kind, value), len(ids))

    out = []
    for ev in log:
        doc = json.loads(ev.to_json())
        if doc["kind"] in ("job", "lease"):
            doc["entity"] = canon(doc["kind"], doc["entity"])
        for key in ("job", "lease"):
            if doc["detail"].get(key) is not None:
                doc["detail"][key] = canon(key, doc["detail"][key])
        out.append(doc)
    return out


_job = st.tuples(
    st.integers(min_value=0, max_value=2),        # tenant
    st.sampled_from([1, 1, 2, 3, 5, 6]),          # n_nodes
    st.sampled_from([0, 0, 0, 1, 4]),             # n_nodes - min_nodes
    st.integers(min_value=0, max_value=3),        # max_nodes - n_nodes
    st.integers(min_value=10, max_value=120),     # runtime
    st.integers(min_value=0, max_value=2),        # priority
    st.sampled_from([0.0, 0.0, 0.0, 5.0, 40.0]),  # delay after previous
)


def _run_stream(reference, weights, quotas, jobs, backfill, elastic):
    tb = sky_testbed(
        [SiteSpec(f"c{i}", n_hosts=2, cores_per_host=4,
                  on_demand_hourly=0.10 + 0.03 * i) for i in range(2)],
        memory_pages=256, image_blocks=512,
    )
    sim = tb.sim
    plane = ControlPlane(sim, tb.federation, tb.image_name,
                         config=SchedulerConfig(interval=10.0,
                                                lease_term=120.0,
                                                backfill=backfill,
                                                elastic=elastic))
    if reference:
        plane.scheduler.__class__ = _ReferenceScheduler
        plane.leases.__class__ = _ScanLeaseManager
    plane.start()
    for i, (weight, quota) in enumerate(zip(weights, quotas)):
        plane.register_tenant(f"t{i}", weight=weight, max_nodes=quota)
    submitted = []

    def submitter():
        for i, (t, n, shrink, grow, runtime, prio, delay) in \
                enumerate(jobs):
            if delay:
                yield sim.timeout(delay)
            tenant = t % len(weights)
            submitted.append(plane.submit(
                f"t{tenant}", n_nodes=n, runtime=float(runtime),
                priority=prio, min_nodes=max(1, n - shrink),
                max_nodes=n + grow, name=f"j{i}"))
        yield sim.timeout(0)

    feeder = sim.process(submitter())
    sim.run(until=feeder)
    # A quota below a job's preferred size can stall it for good; the
    # horizon bounds the run either way.
    sim.run(until=sim.any_of([plane.all_done(submitted),
                              sim.timeout(20_000.0)]))
    return _normalized(plane.eventlog), plane.summary()


@settings(max_examples=40, deadline=None)
@given(weights=st.lists(st.integers(min_value=1, max_value=4),
                        min_size=1, max_size=3),
       quotas=st.lists(st.one_of(st.none(),
                                 st.integers(min_value=6, max_value=10)),
                       min_size=3, max_size=3),
       jobs=st.lists(_job, min_size=1, max_size=30),
       backfill=st.booleans(), elastic=st.booleans())
# Three 5-node jobs leave 1 of 16 slots free; the rigid 6-node head
# blocks and the 1-node job behind it backfills into that last slot.
@example(weights=[1], quotas=[None, None, None],
         jobs=[(0, 5, 0, 0, 100, 0, 0.0)] * 3
         + [(0, 6, 0, 0, 100, 0, 0.0), (0, 1, 0, 0, 10, 0, 0.0)],
         backfill=True, elastic=False)
def test_fast_scheduler_matches_recomputing_reference(
        weights, quotas, jobs, backfill, elastic):
    quotas = quotas[:len(weights)]
    fast = _run_stream(False, weights, quotas, jobs, backfill, elastic)
    ref = _run_stream(True, weights, quotas, jobs, backfill, elastic)
    assert fast[0] == ref[0]
    assert fast[1] == ref[1]


# -- the active-lease index --------------------------------------------


_lease_op = st.one_of(
    st.tuples(st.just("grant"), st.integers(min_value=1, max_value=3),
              st.sampled_from([20.0, 60.0, 300.0])),
    st.tuples(st.just("release"), st.integers(min_value=0, max_value=9)),
    st.tuples(st.just("renew"), st.integers(min_value=0, max_value=9)),
    st.tuples(st.just("advance"), st.sampled_from([5.0, 30.0, 90.0])),
    st.tuples(st.just("crash")),
)


@settings(max_examples=40, deadline=None)
@given(ops=st.lists(_lease_op, min_size=1, max_size=20))
def test_active_lease_index_matches_scan_through_recovery(ops):
    tb = sky_testbed(
        [SiteSpec(f"c{i}", n_hosts=1, cores_per_host=4,
                  on_demand_hourly=0.10) for i in range(2)],
        memory_pages=256, image_blocks=512,
    )
    sim, fed = tb.sim, tb.federation
    plane = ControlPlane(sim, fed, tb.image_name,
                         sweep_interval=10.0).start()
    plane.register_tenant("alice")
    current = {"plane": plane}

    def check(_event=None):
        mgr = current["plane"].leases
        assert mgr.active_leases() == _scan(mgr)

    eventlog_of(sim).subscribe(check)
    for op in ops:
        mgr = current["plane"].leases
        live = _scan(mgr)
        if op[0] == "grant":
            _, n, term = op
            if fed.total_capacity() < n:
                continue
            try:
                cluster = sim.run(until=fed.create_virtual_cluster(
                    tb.image_name, n))
            except (CloudError, FederationError, PlacementError):
                continue
            mgr.grant("alice", cluster, term)
        elif op[0] == "release" and live:
            mgr.release(live[op[1] % len(live)])
        elif op[0] == "renew" and live:
            mgr.renew(live[op[1] % len(live)])
        elif op[0] == "advance":
            sim.run(until=sim.now + op[1])
        elif op[0] == "crash":
            log = current["plane"].crash()
            current["plane"] = recover(sim, fed, tb.image_name,
                                       log, sweep_interval=10.0).start()
        check()


def test_recovered_plane_indexes_reattached_leases():
    tb = sky_testbed(
        [SiteSpec(f"c{i}", n_hosts=2, cores_per_host=8,
                  on_demand_hourly=0.10 + 0.02 * i) for i in range(2)],
        memory_pages=256, image_blocks=512,
    )
    plane = ControlPlane(tb.sim, tb.federation, tb.image_name).start()
    plane.register_tenant("alice")
    for _ in range(4):
        plane.submit("alice", n_nodes=2, runtime=300.0)
    tb.sim.run(until=60.0)
    running = [l for l in plane.leases.active_leases()
               if l.job.state is JobState.RUNNING]
    assert running
    log = plane.crash()

    plane2 = recover(tb.sim, tb.federation, tb.image_name, log)
    mgr = plane2.leases
    assert [l.id for l in mgr.active_leases()] == \
        [l.id for l in running]
    assert mgr.active_leases() == _scan(mgr)
    # The re-attached leases end through the index like granted ones.
    mgr.release(mgr.active_leases()[0])
    assert mgr.active_leases() == _scan(mgr)
    assert len(mgr.active_leases()) == len(running) - 1
