"""The :class:`Simulator`'s event queue.

The simulator orders events by the total key ``(time, priority, seq)``;
:class:`HeapQueue` delivers entries in exactly that order (a binary heap
via ``heapq``: O(log n) push/pop, robust for every workload shape), so
same-seed runs are byte-identical.  A same-``(time, priority)`` run pops
as one batch (:meth:`HeapQueue.pop_batch`).

Cancellation is lazy: :meth:`Event.deschedule` only flags the event, and
stale entries are dropped when they surface at the head.  The queue
counts deschedule notifications and **compacts** — rebuilds itself
without the dead entries — once the descheduled fraction exceeds ~50%,
so a cancellation-heavy run (the 1.4M-timers-for-1300-flows regime of
``BENCH_flows``) cannot hold unbounded garbage.  The counter may
overshoot (events can be descheduled after popping); compaction recounts
from the ground truth, so an early compaction is the only consequence.
"""

from __future__ import annotations

import heapq
from typing import List, Optional, Tuple

#: A queue entry: ``(time, priority, seq, event)``.  ``seq`` is unique,
#: so tuple comparison never reaches the event object.
Entry = Tuple[float, int, int, object]

#: Compact when descheduled entries exceed half the queue...
COMPACT_FRACTION = 0.5
#: ...but never bother below this size (compaction is O(n)).
COMPACT_MIN = 512


class HeapQueue:
    """The binary-heap event queue (``heapq`` on one list)."""

    name = "heap"

    __slots__ = ("_heap", "_dead", "compactions")

    def __init__(self):
        self._heap: List[Entry] = []
        self._dead = 0
        #: Lifetime count of :meth:`compact` runs (kernel-health feed).
        self.compactions = 0

    def __len__(self) -> int:
        return len(self._heap)

    @property
    def dead(self) -> int:
        """Descheduled entries believed still queued (may overshoot —
        see the module docstring; compaction recounts exactly)."""
        return self._dead

    def stats(self) -> dict:
        """Health snapshot: depth, dead-entry estimate, compactions."""
        depth = len(self._heap)
        return {
            "backend": self.name,
            "depth": depth,
            "dead": self._dead,
            "dead_ratio": (self._dead / depth) if depth else 0.0,
            "compactions": self.compactions,
        }

    def push(self, entry: Entry) -> None:
        heapq.heappush(self._heap, entry)

    def peek(self) -> Optional[Entry]:
        """The earliest live entry (stale heads dropped), or ``None``."""
        heap = self._heap
        while heap:
            entry = heap[0]
            if entry[3]._descheduled:
                heapq.heappop(heap)
                if self._dead:
                    self._dead -= 1
            else:
                return entry
        return None

    def pop(self) -> Optional[Entry]:
        """Remove and return the earliest live entry, or ``None``."""
        heap = self._heap
        while heap:
            entry = heapq.heappop(heap)
            if entry[3]._descheduled:
                if self._dead:
                    self._dead -= 1
                continue
            return entry
        return None

    def pop_batch(self, out: List[Entry]) -> bool:
        """Pop the whole run of live entries sharing the head's
        ``(time, priority)`` into ``out`` (seq order).  False if empty."""
        entry = self.pop()
        if entry is None:
            return False
        out.append(entry)
        heap = self._heap
        time, priority = entry[0], entry[1]
        while heap:
            head = heap[0]
            if head[0] != time or head[1] != priority:
                break
            heapq.heappop(heap)
            if head[3]._descheduled:
                if self._dead:
                    self._dead -= 1
                continue
            out.append(head)
        return True

    def note_descheduled(self) -> None:
        """One queued event was lazily cancelled; compact past ~50%."""
        self._dead += 1
        if (self._dead > len(self._heap) * COMPACT_FRACTION
                and len(self._heap) >= COMPACT_MIN):
            self.compact()

    def compact(self) -> None:
        """Drop every descheduled entry and re-heapify."""
        self._heap = [e for e in self._heap if not e[3]._descheduled]
        heapq.heapify(self._heap)
        self._dead = 0
        self.compactions += 1
