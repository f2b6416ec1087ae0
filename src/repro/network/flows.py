"""Flow-level data transfers with max-min fair bandwidth sharing.

This is the fluid traffic model standing in for the paper's real WAN and
LAN links.  Every bulk transfer (a migration round, a MapReduce shuffle,
an image propagation hop) is a :class:`Flow` routed over the
:class:`~repro.network.topology.Topology`.  Rates follow the **max-min
fair** allocation computed by progressive filling — the textbook model
of how competing TCP streams share bottlenecks — and each flow's
completion is scheduled from its current rate.

The allocator is incremental.  On every arrival / departure /
cancellation / capacity change, only the **bottleneck-connected
component** of affected flows (flows sharing a link with the changed
flow, transitively) is settled and re-rated.  This is exact, not an
approximation: flows outside the component share no link with it, so
their water-filling levels are untouched by the change.  Same-timestamp
changes are coalesced into one batched recompute scheduled at URGENT
priority (it runs before any same-time NORMAL event, so no observer sees
a stale allocation), and completion timers are left alone when a flow's
rate is unchanged within :data:`EPSILON` — the armed deadline is already
exact.  The whole-network reference allocator it is checked against
lives in the test suite (``tests/flow_oracle.py``).

Per-flow rate caps (e.g. a VM NIC, or a deliberately throttled
migration) are modeled as virtual single-flow links, which integrates
them exactly into the water-filling computation.  Aggregate per-class
ceilings (:class:`SharedCap`) are virtual *shared* links crossing every
flow of a class.  Flows may carry a ``weight`` (default 1.0); rates are
assigned proportionally to weight at each fill level (weighted max-min).
"""

from __future__ import annotations

import itertools
import math
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Set

from ..simkernel import Event, Simulator, URGENT
from .billing import BillingMeter
from .topology import DirectedLink, NetworkError, Topology

#: Numerical slack for rate / byte comparisons.
EPSILON = 1e-9


class FlowCancelled(NetworkError):
    """Raised into waiters when a flow is cancelled mid-transfer."""


class SharedCap:
    """A virtual shared link capping the *aggregate* rate of every flow
    attached to it (e.g. all transfers of one Transport class).

    Participates in progressive filling exactly like a physical link, so
    class-level ceilings compose correctly with real bottlenecks.  Note
    that flows sharing a :class:`SharedCap` form one bottleneck-connected
    component even when their paths are disjoint.
    """

    __slots__ = ("name", "bandwidth")

    def __init__(self, name: str, bandwidth: float):
        if bandwidth <= 0:
            raise ValueError(f"bandwidth must be positive, got {bandwidth}")
        self.name = name
        self.bandwidth = float(bandwidth)

    def __repr__(self):
        return f"<SharedCap {self.name} {self.bandwidth:.3g} B/s>"


class Flow:
    """A single in-flight bulk transfer.

    Attributes
    ----------
    done:
        Event that succeeds with the flow itself once the last byte has
        arrived (drain time plus one-way path latency), or fails with
        :class:`FlowCancelled`.
    rate:
        Current max-min fair rate (bytes/second), updated by the
        scheduler as competing flows come and go.
    weight:
        Relative share at contended links (weighted max-min); 1.0 for
        plain fair sharing.
    """

    _ids = itertools.count()

    __slots__ = (
        "id", "src", "dst", "size", "remaining", "rate", "path", "done",
        "started_at", "finished_at", "rate_cap", "tag", "meta", "weight",
        "shared_caps", "_last_settled", "_timer", "_armed_rate",
    )

    def __init__(self, sim: Simulator, src: str, dst: str, size: float,
                 path: List[DirectedLink], rate_cap: Optional[float],
                 tag: str, meta: dict, weight: float = 1.0,
                 shared_caps: Sequence[SharedCap] = ()):
        self.id = next(Flow._ids)
        self.src = src
        self.dst = dst
        self.size = float(size)
        self.remaining = float(size)
        self.rate = 0.0
        self.path = path
        self.done: Event = sim.event()
        self.started_at = sim.now
        self.finished_at: Optional[float] = None
        self.rate_cap = rate_cap
        self.tag = tag
        self.meta = meta
        self.weight = weight
        self.shared_caps = tuple(shared_caps)
        self._last_settled = sim.now
        self._timer = None
        self._armed_rate = -1.0  # rate the live timer was armed with

    @property
    def transferred(self) -> float:
        """Bytes moved so far (settled view)."""
        return self.size - self.remaining

    def __repr__(self):
        return (f"<Flow #{self.id} {self.src}->{self.dst} "
                f"{self.size:.3g}B remaining={self.remaining:.3g}B>")


class FlowRecord:
    """Immutable summary of a completed flow, delivered to taps."""

    __slots__ = ("src", "dst", "size", "started_at", "finished_at",
                 "tag", "meta")

    def __init__(self, flow: Flow):
        self.src = flow.src
        self.dst = flow.dst
        self.size = flow.size
        self.started_at = flow.started_at
        self.finished_at = flow.finished_at
        self.tag = flow.tag
        self.meta = dict(flow.meta)

    @property
    def duration(self) -> float:
        return self.finished_at - self.started_at

    def __repr__(self):
        return f"<FlowRecord {self.src}->{self.dst} {self.size:.3g}B {self.tag}>"


def _flow_id(flow: Flow) -> int:
    return flow.id


class FlowScheduler:
    """Runs all flows over a topology with max-min fair sharing.

    Parameters
    ----------
    sim, topology:
        The simulation kernel and network graph.  The scheduler attaches
        itself to the topology, so :meth:`Topology.set_bandwidth` re-rates
        in-flight flows.
    billing:
        Optional :class:`BillingMeter`; inter-site bytes are accounted
        progressively, so cancelled flows are billed for what they
        actually moved.

    There is one allocator: each change re-rates only the
    bottleneck-connected component it touches (see the module
    docstring).  ``tests/flow_oracle.py`` holds the whole-network
    reference it is checked against.
    """

    def __init__(self, sim: Simulator, topology: Topology,
                 billing: Optional[BillingMeter] = None):
        self.sim = sim
        self.topology = topology
        self.billing = billing
        self._active: Set[Flow] = set()
        #: Callbacks invoked with a :class:`FlowRecord` on flow completion.
        self.taps: List[Callable[[FlowRecord], None]] = []
        # Persistent link -> active flows index, plus the dirty sets
        # feeding the next batched recompute.
        self._link_flows: Dict[object, Set[Flow]] = {}
        self._dirty_flows: Set[Flow] = set()
        self._dirty_links: Set[object] = set()
        self._batch_pending = False
        #: Allocator counters (batches run, flows re-rated, timers
        #: armed/skipped) — read by benchmarks, never reset.
        self.stats = {"batches": 0, "flows_rerated": 0,
                      "timers_armed": 0, "timers_skipped": 0}
        topology.attach(self)

    # -- public API ----------------------------------------------------------

    @property
    def active_flows(self) -> Set[Flow]:
        """The flows currently in flight (do not mutate)."""
        return self._active

    def start_flow(self, src: str, dst: str, size: float,
                   rate_cap: Optional[float] = None, tag: str = "data",
                   weight: float = 1.0,
                   shared_caps: Sequence[SharedCap] = (),
                   **meta) -> Flow:
        """Begin transferring ``size`` bytes from site ``src`` to ``dst``.

        Returns the :class:`Flow`; wait on ``flow.done`` for completion.
        Zero-sized flows complete after the path latency alone.
        """
        if size < 0:
            raise ValueError(f"negative flow size {size}")
        if weight <= 0:
            raise ValueError(f"flow weight must be positive, got {weight}")
        path = self.topology.path(src, dst)
        flow = Flow(self.sim, src, dst, size, path, rate_cap, tag, meta,
                    weight, shared_caps)
        latency = sum(l.latency for l in path)
        if size == 0:
            self._finish_after_latency(flow, latency)
            return flow
        self._active.add(flow)
        self._index(flow)
        self._mark_dirty(flows=(flow,))
        return flow

    def transfer(self, src: str, dst: str, size: float, **kwargs) -> Event:
        """Convenience: start a flow and return its completion event."""
        return self.start_flow(src, dst, size, **kwargs).done

    def links_changed(self, links: Iterable[object]) -> None:
        """Topology notification: the capacity of ``links`` changed."""
        affected = [l for l in links if l in self._link_flows]
        if affected:
            self._mark_dirty(links=affected)

    def cancel(self, flow: Flow) -> None:
        """Abort an in-flight flow; its waiters see :class:`FlowCancelled`."""
        if flow not in self._active:
            return
        # Bill the cancelled flow up to this instant; its neighbours
        # keep their (still valid) rates until the batched recompute.
        self._settle((flow,))
        self._active.discard(flow)
        if flow._timer is not None:
            flow._timer.deschedule()
            flow._timer = None
        flow.done.fail(FlowCancelled(f"{flow!r} cancelled"))
        flow.done.defused = True  # cancellation is never a crash
        self._unindex(flow)
        self._mark_dirty(links=self._alloc_links(flow))

    # -- component machinery ------------------------------------------------

    def _alloc_links(self, flow: Flow):
        """Shared allocation constraints of ``flow``: its path links plus
        any aggregate class caps (per-flow rate caps never connect flows
        and are handled inside the water-filling pass)."""
        if flow.shared_caps:
            return list(flow.path) + list(flow.shared_caps)
        return flow.path

    def _index(self, flow: Flow) -> None:
        for link in self._alloc_links(flow):
            self._link_flows.setdefault(link, set()).add(flow)

    def _unindex(self, flow: Flow) -> None:
        for link in self._alloc_links(flow):
            flows = self._link_flows.get(link)
            if flows is not None:
                flows.discard(flow)
                if not flows:
                    del self._link_flows[link]

    def _mark_dirty(self, flows: Iterable[Flow] = (),
                    links: Iterable[object] = ()) -> None:
        """Queue flows/links for the next batched recompute, scheduling
        one URGENT-priority pass at the current timestamp if none is
        pending yet (coalescing all same-time changes)."""
        self._dirty_flows.update(flows)
        self._dirty_links.update(links)
        if self._batch_pending:
            return
        self._batch_pending = True
        self.sim.call_in(0.0, self._run_batch, priority=URGENT)

    def _run_batch(self, _ev) -> None:
        self._batch_pending = False
        flows, links = self._dirty_flows, self._dirty_links
        self._dirty_flows, self._dirty_links = set(), set()
        component = self._component(flows, links)
        if not component:
            return
        self.stats["batches"] += 1
        self.stats["flows_rerated"] += len(component)
        self._settle(component)
        self._maxmin_rates(component)
        for flow in sorted(component, key=_flow_id):
            self._schedule_completion(flow)

    def _component(self, flows: Iterable[Flow] = (),
                   links: Iterable[object] = ()) -> Set[Flow]:
        """Active flows transitively sharing a link with the seeds.

        Restricting water-filling to this set is exact: by construction
        every link touched by the component carries no flow outside it.
        """
        stack = [f for f in flows if f in self._active]
        seen_links: Set[object] = set()
        for link in links:
            if link not in seen_links:
                seen_links.add(link)
                stack.extend(self._link_flows.get(link, ()))
        component: Set[Flow] = set()
        while stack:
            flow = stack.pop()
            if flow in component:
                continue
            component.add(flow)
            for link in self._alloc_links(flow):
                if link not in seen_links:
                    seen_links.add(link)
                    stack.extend(self._link_flows[link])
        return component

    # -- internals --------------------------------------------------------

    def _settle(self, flows: Iterable[Flow]) -> None:
        """Advance the given flows' byte counters to the current instant."""
        now = self.sim.now
        for flow in flows:
            dt = now - flow._last_settled
            if dt > 0 and flow.rate > 0:
                moved = min(flow.remaining, flow.rate * dt)
                flow.remaining -= moved
                if self.billing is not None:
                    self.billing.record(flow.src, flow.dst, moved)
            flow._last_settled = now

    def _maxmin_rates(self, flows: Iterable[Flow]) -> None:
        """Weighted progressive-filling max-min fair allocation over
        ``flows`` (one bottleneck-connected component).

        All unfrozen flows' rates rise proportionally to their weights;
        when a link saturates, the flows crossing it freeze at the
        current fill level.  A per-flow rate cap is a virtual link
        carrying only that flow; a :class:`SharedCap` is a virtual link
        carrying every flow attached to it.
        """
        order = sorted(flows, key=_flow_id)
        if not order:
            return
        # Map each (shared or virtual) link to the flows crossing it.
        link_flows: Dict[object, Set[Flow]] = {}
        residual: Dict[object, float] = {}
        wsum: Dict[object, float] = {}
        for flow in order:
            for link in self._alloc_links(flow):
                crossing = link_flows.get(link)
                if crossing is None:
                    crossing = link_flows[link] = set()
                    residual[link] = link.bandwidth
                    wsum[link] = 0.0
                crossing.add(flow)
                wsum[link] += flow.weight
            if flow.rate_cap is not None:
                cap_key = ("cap", flow.id)
                link_flows[cap_key] = {flow}
                residual[cap_key] = flow.rate_cap
                wsum[cap_key] = flow.weight

        unassigned = set(order)
        fill = 0.0
        while unassigned:
            # Next saturation point: smallest residual/weight-sum over
            # links still carrying unfrozen flows.
            delta = math.inf
            for link, crossing in link_flows.items():
                if crossing:
                    delta = min(delta, residual[link] / wsum[link])
            if not math.isfinite(delta):  # pragma: no cover - defensive
                break
            fill += delta
            saturated = []
            for link, crossing in link_flows.items():
                if crossing:
                    residual[link] -= delta * wsum[link]
                    if residual[link] <= EPSILON * max(1.0, _link_scale(link)):
                        saturated.append(link)
            frozen: Set[Flow] = set()
            for link in saturated:
                frozen |= link_flows[link]
            if not frozen:  # pragma: no cover - numerical safety
                frozen = set(unassigned)
            for flow in frozen:
                flow.rate = fill * flow.weight
                unassigned.discard(flow)
                for link in self._alloc_links(flow):
                    link_flows[link].discard(flow)
                    wsum[link] -= flow.weight
                if flow.rate_cap is not None:
                    cap_key = ("cap", flow.id)
                    link_flows[cap_key].discard(flow)
                    wsum[cap_key] -= flow.weight

    def _schedule_completion(self, flow: Flow) -> None:
        """(Re)arm the completion timer for ``flow`` at its current rate.

        Re-arming is skipped when the rate is unchanged within EPSILON:
        the deadline the live timer already carries is
        ``armed_time + remaining_at_arm/rate == now + remaining_now/rate``
        for an unchanged rate, so descheduling and re-arming would be
        pure heap churn (any sub-EPSILON drift is absorbed by the
        re-check in :meth:`_maybe_complete`).
        """
        if (flow._timer is not None and flow.rate > 0
                and abs(flow.rate - flow._armed_rate)
                <= EPSILON * max(1.0, flow.rate)):
            self.stats["timers_skipped"] += 1
            return
        if flow._timer is not None:
            flow._timer.deschedule()
            flow._timer = None
        if flow.rate <= 0:  # starved; will be rescheduled on next recompute
            return
        eta = flow.remaining / flow.rate
        flow._timer = self.sim.call_in(
            eta, lambda _ev: self._maybe_complete(flow))
        flow._armed_rate = flow.rate
        self.stats["timers_armed"] += 1

    def _maybe_complete(self, flow: Flow) -> None:
        # Re-arm and cancel deschedule the timer they supersede, and the
        # kernel never dispatches a descheduled event: a timer that
        # fires is always the flow's live one.
        flow._timer = None  # this timer has fired; never skip-reuse it
        self._settle((flow,))
        if flow.remaining > EPSILON * max(1.0, flow.size):
            now = self.sim.now
            if flow.rate <= 0 or now + flow.remaining / flow.rate > now:
                # Numerical drift: rearm.
                self._schedule_completion(flow)
                return
            # The clock cannot resolve the leftover's delay: a re-arm
            # would fire at this same instant forever.  Bill it and
            # finish now.
            if self.billing is not None:
                self.billing.record(flow.src, flow.dst, flow.remaining)
        flow.remaining = 0.0
        self._active.discard(flow)
        latency = sum(l.latency for l in flow.path)
        self._finish_after_latency(flow, latency)
        self._unindex(flow)
        self._mark_dirty(links=self._alloc_links(flow))

    def _finish_after_latency(self, flow: Flow, latency: float) -> None:
        def fire(_ev):
            flow.finished_at = self.sim.now
            flow.done.succeed(flow)
            if self.taps:
                record = FlowRecord(flow)
                for tap in self.taps:
                    tap(record)

        # One schedule() either way (zero latency fires at now, NORMAL),
        # so the kernel sequence stream — and determinism — is unchanged.
        self.sim.call_in(latency, fire)


def _link_scale(link) -> float:
    """Bandwidth of a real or virtual link (for epsilon scaling)."""
    return getattr(link, "bandwidth", 1.0)
