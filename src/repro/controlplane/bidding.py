"""Bidding strategies for spot-backed capacity.

A :class:`BiddingStrategy` answers one question per (cloud, job) pair:
*at what price should the control plane bid for spot capacity here —
or should it stay on demand?*  Returning ``None`` declines spot for
this placement; returning a price enrolls the lease's nodes at that
bid.  All strategies are pure functions of observable market state, so
scheduling stays deterministic.

Three standard shapes:

* :class:`OnDemandClip` — bid a fixed fraction of the on-demand price
  (the textbook "never pay more than on-demand" strategy; a clip below
  1.0 leaves headroom so a spot hour is always cheaper);
* :class:`PercentileOfTrace` — bid at a percentile of the recently
  observed price history, trading reclamation risk for price;
* :class:`UtilityScaled` — scale the bid with the job's urgency
  (priority and queue wait): urgent work bids close to on-demand and is
  rarely reclaimed, background work bids low and rides the cheap tail.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Optional

from ..obs.windows import _interpolated_percentile


class BiddingStrategy(ABC):
    """Chooses a bid price for backing one job's nodes at one cloud."""

    @abstractmethod
    def bid(self, market, cloud, job) -> Optional[float]:
        """The bid (hourly price) to enroll at, or None to decline.

        ``market`` is the cloud's :class:`~repro.cloud.spot.SpotMarket`,
        ``cloud`` its :class:`~repro.cloud.provider.Cloud`, and ``job``
        the :class:`~repro.controlplane.jobs.Job` being placed (its
        priority/wait inform urgency-aware strategies).
        """

    @staticmethod
    def _admissible(bid: float, market) -> Optional[float]:
        """A bid below the current price would be rejected outright —
        decline instead of raising."""
        return bid if bid >= market.current_price else None


@dataclass
class OnDemandClip(BiddingStrategy):
    """Bid ``fraction`` of the cloud's on-demand price."""

    fraction: float = 0.95

    def __post_init__(self):
        if not 0.0 < self.fraction <= 1.0:
            raise ValueError("fraction must be in (0, 1]")

    def bid(self, market, cloud, job) -> Optional[float]:
        return self._admissible(
            self.fraction * cloud.pricing.on_demand_hourly, market)


@dataclass
class PercentileOfTrace(BiddingStrategy):
    """Bid at the ``q``-th percentile of the last ``window`` observed
    prices (never above on-demand).  A high percentile survives most of
    the price distribution; a low one gambles on the cheap tail."""

    q: float = 95.0
    window: int = 64

    def __post_init__(self):
        if not 0.0 <= self.q <= 100.0:
            raise ValueError("q must be in [0, 100]")
        if self.window < 1:
            raise ValueError("window must be >= 1")

    def bid(self, market, cloud, job) -> Optional[float]:
        history = [pt.price for pt in market.prices.history[-self.window:]]
        bid = _interpolated_percentile(sorted(history), self.q)
        bid = min(bid, cloud.pricing.on_demand_hourly)
        return self._admissible(bid, market)


@dataclass
class UtilityScaled(BiddingStrategy):
    """Scale the bid between ``floor`` and ``ceiling`` (fractions of
    on-demand) with job urgency.

    Urgency blends the job's priority (against ``priority_span``) and
    its queue wait (against ``patience`` seconds), each saturating at
    1 — a long-waiting or high-priority job bids near the ceiling, a
    fresh background job near the floor.
    """

    floor: float = 0.5
    ceiling: float = 1.0
    priority_span: float = 5.0
    patience: float = 600.0

    def __post_init__(self):
        if not 0.0 < self.floor <= self.ceiling <= 1.0:
            raise ValueError("need 0 < floor <= ceiling <= 1")
        if self.priority_span <= 0 or self.patience <= 0:
            raise ValueError("priority_span and patience must be positive")

    def urgency(self, job, now: float) -> float:
        by_priority = min(1.0, max(0.0, job.priority) / self.priority_span)
        waited = (now - job.submitted_at
                  if job.submitted_at is not None else 0.0)
        by_wait = min(1.0, waited / self.patience)
        return max(by_priority, by_wait)

    def bid(self, market, cloud, job) -> Optional[float]:
        u = self.urgency(job, market.sim.now)
        fraction = self.floor + u * (self.ceiling - self.floor)
        return self._admissible(
            fraction * cloud.pricing.on_demand_hourly, market)
