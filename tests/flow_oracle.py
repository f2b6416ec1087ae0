"""Whole-network reference allocator for differential flow tests.

:class:`FullRecomputeScheduler` is the textbook max-min flow model with
no incremental machinery: on every arrival, departure, cancellation or
capacity change it settles *every* active flow, re-runs weighted
progressive filling over the whole network and re-arms *every*
completion timer.  It is O(flows x links) per event and exists only to
check :class:`repro.network.FlowScheduler`, which re-rates just the
bottleneck-connected component of each change and must agree with it.

It shares only the data types (:class:`Flow`, :class:`FlowRecord`,
:class:`FlowCancelled`, :class:`SharedCap`) and :data:`EPSILON` with the
scheduler under test and calls none of its methods, so the allocator's
component search, timer logic and water-filling can be rewritten freely
and still be checked against this file.  Its public surface is the part
of ``FlowScheduler`` the tests drive: ``start_flow``, ``cancel``,
``links_changed`` (via ``Topology.attach``), ``taps``, ``active_flows``,
``billing`` and the ``stats`` counters.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Set

from repro.network.flows import (
    EPSILON,
    Flow,
    FlowCancelled,
    FlowRecord,
    SharedCap,
)


def _flow_id(flow: Flow) -> int:
    return flow.id


def _alloc_links(flow: Flow):
    """Path links plus aggregate class caps of ``flow``."""
    if flow.shared_caps:
        return list(flow.path) + list(flow.shared_caps)
    return flow.path


def _link_scale(link) -> float:
    return getattr(link, "bandwidth", 1.0)


class FullRecomputeScheduler:
    """Max-min fair flows, recomputed over the whole network per event."""

    def __init__(self, sim, topology, billing=None):
        self.sim = sim
        self.topology = topology
        self.billing = billing
        self._active: Set[Flow] = set()
        self.taps: List[Callable[[FlowRecord], None]] = []
        # Same keys as FlowScheduler.stats; only timers are ever armed.
        self.stats = {"batches": 0, "flows_rerated": 0,
                      "timers_armed": 0, "timers_skipped": 0}
        topology.attach(self)

    @property
    def active_flows(self) -> Set[Flow]:
        return self._active

    def start_flow(self, src: str, dst: str, size: float,
                   rate_cap: Optional[float] = None, tag: str = "data",
                   weight: float = 1.0,
                   shared_caps: Sequence[SharedCap] = (),
                   **meta) -> Flow:
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
        self._recompute()
        return flow

    def links_changed(self, links: Iterable[object]) -> None:
        self._recompute()

    def cancel(self, flow: Flow) -> None:
        if flow not in self._active:
            return
        self._settle(self._active)
        self._active.discard(flow)
        if flow._timer is not None:
            flow._timer.deschedule()
            flow._timer = None
        flow.done.fail(FlowCancelled(f"{flow!r} cancelled"))
        flow.done.defused = True
        self._recompute()

    # -- allocation ----------------------------------------------------------

    def _settle(self, flows: Iterable[Flow]) -> None:
        now = self.sim.now
        for flow in flows:
            dt = now - flow._last_settled
            if dt > 0 and flow.rate > 0:
                moved = min(flow.remaining, flow.rate * dt)
                flow.remaining -= moved
                if self.billing is not None:
                    self.billing.record(flow.src, flow.dst, moved)
            flow._last_settled = now

    def _recompute(self) -> None:
        self._settle(self._active)
        self._maxmin_rates(self._active)
        for flow in sorted(self._active, key=_flow_id):
            self._schedule_completion(flow)

    def _maxmin_rates(self, flows: Iterable[Flow]) -> None:
        """Weighted progressive filling: unfrozen rates rise with their
        weights until a link saturates, freezing the flows crossing it.
        A per-flow rate cap is a virtual link carrying only that flow."""
        order = sorted(flows, key=_flow_id)
        if not order:
            return
        link_flows: Dict[object, Set[Flow]] = {}
        residual: Dict[object, float] = {}
        wsum: Dict[object, float] = {}
        for flow in order:
            for link in _alloc_links(flow):
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
            delta = math.inf
            for link, crossing in link_flows.items():
                if crossing:
                    delta = min(delta, residual[link] / wsum[link])
            if not math.isfinite(delta):
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
            if not frozen:
                frozen = set(unassigned)
            for flow in frozen:
                flow.rate = fill * flow.weight
                unassigned.discard(flow)
                for link in _alloc_links(flow):
                    link_flows[link].discard(flow)
                    wsum[link] -= flow.weight
                if flow.rate_cap is not None:
                    cap_key = ("cap", flow.id)
                    link_flows[cap_key].discard(flow)
                    wsum[cap_key] -= flow.weight

    # -- completion ----------------------------------------------------------

    def _schedule_completion(self, flow: Flow) -> None:
        """Unconditionally re-arm ``flow``'s timer at its current rate."""
        if flow._timer is not None:
            flow._timer.deschedule()
            flow._timer = None
        if flow.rate <= 0:
            return
        eta = flow.remaining / flow.rate
        flow._timer = self.sim.call_in(
            eta, lambda _ev: self._maybe_complete(flow))
        self.stats["timers_armed"] += 1

    def _maybe_complete(self, flow: Flow) -> None:
        flow._timer = None
        self._settle(self._active)
        if flow.remaining > EPSILON * max(1.0, flow.size):
            now = self.sim.now
            if flow.rate <= 0 or now + flow.remaining / flow.rate > now:
                self._schedule_completion(flow)
                return
            if self.billing is not None:
                self.billing.record(flow.src, flow.dst, flow.remaining)
        flow.remaining = 0.0
        self._active.discard(flow)
        latency = sum(l.latency for l in flow.path)
        self._finish_after_latency(flow, latency)
        self._recompute()

    def _finish_after_latency(self, flow: Flow, latency: float) -> None:
        def fire(_ev):
            flow.finished_at = self.sim.now
            flow.done.succeed(flow)
            if self.taps:
                record = FlowRecord(flow)
                for tap in self.taps:
                    tap(record)

        self.sim.call_in(latency, fire)
