"""The unified global event wheel for the fast cycle loop.

The engine's cycle leap needs one question answered cheaply: *given
that nothing is runnable right now, at which future cycle can anything
happen at all?*  Before this module, answering it meant rescanning
every component — each scheduler's ``_next_wake`` hint, each SM's
``_sleep_until``, the memory event heap, and every DRAM channel's
``busy_until``.  The wheel replaces those scans with one indexed
min-heap that every component posts its future activity cycles into:

* the memory subsystem posts every scheduled event cycle
  (``_schedule``);
* DRAM channels post each service completion (``busy_until``) when
  service starts;
* SMs post their ``_sleep_until`` when they go to sleep, and
  schedulers post lowered wakes (``wake_at``) on load returns;
* MILG / QBMI window boundaries post a next-cycle re-evaluation point
  (see ``StreamingMultiprocessor._note_scheme_window``).

Entries are deduplicated per cycle, so a burst of posts for the same
cycle costs one dict hit each.  Reads are lazy: :meth:`next_after`
discards stale entries (``<= now``) as it goes, which makes the
amortised cost of a leap O(1) heap pops regardless of how many
components exist.  The fast loop also calls it at fixed cycle
boundaries (``engine.WHEEL_PRUNE_CYCLES``), so a run that rarely
leaps holds at most that many past entries.

Correctness contract (the bit-identity proof obligation, see
``docs/PERF.md``): entries may be *conservative* — a posted cycle at
which nothing happens after all merely wakes the engine for one inert
tick, which is exactly what the reference loop would have executed —
but an activity cycle may never be *missing*: the engine only leaps
when every SM is asleep and the memory queues are drained, and in that
state every future state change is reachable only through an event one
of the posters above has already registered.
"""

from __future__ import annotations

import heapq
from typing import Dict, List

#: sentinel for "no posted event" (matches the scheduler's NEVER).
NEVER = 1 << 62

# ----------------------------------------------------------------------
# Leap-visible state registry (consumed by the REPRO-W0xx lint family).
#
# These two tables are the machine-readable version of the correctness
# contract above: they enumerate every attribute and queue-method whose
# mutation can move a component's next-activity cycle.  The
# whole-program linter (``repro lint --project``) proves that every
# function which mutates one of these — directly or through a callee —
# also reaches a ``wheel.post(...)`` on the same call path (or lowers
# the horizon to ``0``/the current cycle, which can only wake the
# engine *earlier* and is therefore always leap-safe).  Adding a new
# leap-visible field?  Declare it here first; the linter then holds
# every mutation site to the contract.

#: attribute names whose assignment moves a wake/service horizon.
LEAP_STATE_ATTRS: Dict[str, str] = {
    "busy_until": "DRAM channel service-completion horizon",
    "_sleep_until": "SM sleep horizon consulted by the engine leap",
    "_next_wake": "scheduler wake hint lowered by load returns",
    "_mem_wake": "scheduler pending-memory wake hint",
}

#: method names whose call enqueues future work on a leap-checked
#: queue (DRAM / interconnect / memory event heap).
LEAP_QUEUE_METHODS: Dict[str, str] = {
    "enqueue": "DRAM channel queue push (service may start while idle)",
    "enqueue_read": "DRAM read enqueue via the model",
    "enqueue_write": "DRAM write enqueue via the model",
    "_schedule": "memory subsystem event-heap push",
    "ring_push": "pooled DRAM ring-queue push (service may start while idle)",
    "_schedule_ev": "pooled memory subsystem event-heap push",
}


class EventWheel:
    """Min-indexed set of future activity cycles."""

    __slots__ = ("_heap", "_pending")

    def __init__(self) -> None:
        self._heap: List[int] = []
        # Dedup index: cycle -> True while the cycle is in the heap.
        # (A dict, not a set: the repro lint bans set types near the
        # simulator core, and we never iterate it anyway.)
        self._pending: Dict[int, bool] = {}

    def post(self, cycle: int) -> None:
        """Register ``cycle`` as a potential activity point.

        Posting the same cycle twice is free; posting a cycle that is
        already in the past is harmless (it is lazily discarded).
        """
        pending = self._pending
        if cycle in pending:
            return
        pending[cycle] = True
        heapq.heappush(self._heap, cycle)

    def next_after(self, now: int) -> int:
        """Earliest posted cycle strictly greater than ``now``, or
        :data:`NEVER`.  Entries at or before ``now`` are stale (their
        cycle has already been ticked) and are dropped on the way."""
        heap = self._heap
        pending = self._pending
        while heap:
            top = heap[0]
            if top > now:
                return top
            heapq.heappop(heap)
            del pending[top]
        return NEVER

    def __len__(self) -> int:
        return len(self._heap)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        nxt = self._heap[0] if self._heap else None
        return f"<EventWheel n={len(self._heap)} next={nxt}>"
