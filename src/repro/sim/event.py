"""Event and event-queue primitives.

Events are ordered by ``(time, seq)`` where ``seq`` is a monotonically
increasing tie-breaker, so same-timestamp events fire in scheduling order
(deterministic replay). Cancellation is lazy: a cancelled event stays in the
heap and is discarded on pop, which keeps cancel O(1).

Fast-path design (the simulator is the hot loop of every experiment):

* One push implementation, :meth:`EventQueue.schedule`, serves both the
  bare queue and :class:`~repro.sim.simulator.Simulator`, whose
  ``schedule`` *is* this function: a push costs the caller a single
  Python frame.
* Heap entries are plain ``(time, seq, event)`` tuples, so heap sift
  compares run entirely in C — no Python-level ``__lt__`` calls.
  ``seq`` is unique, so comparison never reaches the event object.
* :meth:`EventQueue.pop_due` drains cancelled entries and returns the
  next due event in a single scan, replacing the ``peek_time()`` +
  ``pop()`` double scan the run loop used to do.
* Fired and dropped events are recycled through a freelist
  (:meth:`EventQueue.recycle`) when provably unreferenced, killing the
  per-packet allocation churn of event-heavy workloads. Safety is
  enforced with a refcount guard: an event is only reused when the queue
  holds the sole reference, so a caller-retained handle (e.g. a pending
  timer) can never alias a recycled event.
"""

from __future__ import annotations

import heapq
from heapq import heappop as _heappop, heappush as _heappush
from sys import getrefcount
from typing import Any, Callable, List, Optional, Tuple

from repro.sim.perf import PerfSnapshot

#: Upper bound on freelist length; beyond this, events are left to the GC.
_FREELIST_MAX = 4096


class Event:
    """A scheduled callback.

    Attributes:
        time: absolute simulation time (ns) the event fires at.
        seq: tie-breaker; preserves FIFO order among same-time events.
        fn: the callback; called with ``*args`` when the event fires.
        cancelled: set by :meth:`cancel`; cancelled events never fire.
        gen: incarnation counter — the sanitizer's sanitized
            ``schedule`` bumps it each time it reuses the object from the
            freelist, so a retained stale handle is detectable
            (``repro.analysis.sanitize`` validates it against the
            generation captured at schedule time). The unsanitized kernel
            never touches it.
    """

    __slots__ = ("time", "seq", "fn", "args", "cancelled", "gen", "_queue")

    def __init__(self, time: int, seq: int, fn: Callable[..., Any], args: tuple):
        self.time = time
        self.seq = seq
        self.fn = fn
        self.args = args
        self.cancelled = False
        self.gen = 0
        #: The owning queue while the event is pending; None once popped.
        self._queue: Optional["EventQueue"] = None

    def cancel(self) -> None:
        """Prevent the event from firing. Safe to call more than once.

        This is the single cancellation implementation:
        :meth:`EventQueue.cancel` delegates here, so live-event accounting
        (``len(queue)``) stays correct no matter which handle callers use.
        An event that already fired (popped) is no longer owned by the
        queue and cancelling it does not disturb the live count.
        """
        if not self.cancelled:
            self.cancelled = True
            queue = self._queue
            if queue is not None:
                queue._live -= 1
                queue.cancelled_total += 1

    def __lt__(self, other: "Event") -> bool:
        return (self.time, self.seq) < (other.time, other.seq)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "cancelled" if self.cancelled else "pending"
        name = getattr(self.fn, "__qualname__", repr(self.fn))
        return f"<Event t={self.time} seq={self.seq} {name} {state}>"


class EventQueue:
    """Min-heap of :class:`Event` ordered by (time, seq).

    Pushes count from ``now``. A bare queue's clock never moves, so on
    a bare queue a relative push is an absolute one.
    """

    #: The clock relative pushes count from (the simulator has its own).
    now = 0

    def __init__(self) -> None:
        self._heap: List[Tuple[int, int, Event]] = []
        self._seq = 0
        self._live = 0
        self._free: List[Event] = []
        # Lifetime perf counters (see repro.sim.perf). scheduled_total is
        # the seq counter itself (every push consumes exactly one seq);
        # recycled_total is the pushes that did not allocate.
        self.cancelled_total = 0
        #: Events ever allocated (pushes that found the freelist empty).
        #: Every freelisted event was allocated, and an event being
        #: recycled is not on the freelist, so at a recycle
        #: ``len(_free) < _allocated``: while ``_allocated`` is at most
        #: ``_FREELIST_MAX`` the cap cannot bind, and the run loop skips
        #: measuring it.
        self._allocated = 0
        self.heap_peak = 0
        #: The queue :meth:`schedule` pushes onto. The simulator borrows
        #: that method, so on a simulator this names its event queue.
        self._queue = self

    @property
    def scheduled_total(self) -> int:
        """Lifetime number of events pushed."""
        return self._seq

    @property
    def recycled_total(self) -> int:
        """Lifetime number of pushes served from the freelist."""
        return self._seq - self._allocated

    def __len__(self) -> int:
        """Number of *live* (non-cancelled) events."""
        return self._live

    def schedule(self, delay: int, fn: Callable[..., Any], *args: Any) -> Event:
        """Schedule ``fn(*args)`` to fire ``delay`` ns after ``self.now``.

        The one push implementation. ``Simulator.schedule`` is this
        function: there ``self`` is the simulator, ``self.now`` its clock
        and ``self._queue`` its queue, so the hot path runs in one frame.
        """
        if delay < 0:
            raise ValueError(f"cannot schedule in the past (delay={delay})")
        queue = self._queue
        time = self.now + int(delay)
        seq = queue._seq
        queue._seq = seq + 1
        free = queue._free
        if free:
            ev = free.pop()
            ev.time = time
            ev.seq = seq
            ev.fn = fn
            ev.args = args
            ev.cancelled = False
        else:
            ev = Event(time, seq, fn, args)
            queue._allocated += 1
        ev._queue = queue
        queue._live += 1
        heap = queue._heap
        _heappush(heap, (time, seq, ev))
        n = len(heap)
        if n > queue.heap_peak:
            queue.heap_peak = n
        return ev

    def cancel(self, ev: Event) -> None:
        """Cancel an event previously returned by :meth:`schedule`."""
        ev.cancel()

    def peek_time(self) -> Optional[int]:
        """Time of the next live event, or None if the queue is empty."""
        self._drop_cancelled()
        heap = self._heap
        return heap[0][0] if heap else None

    def pop(self) -> Optional[Event]:
        """Remove and return the next live event, or None if empty."""
        self._drop_cancelled()
        if not self._heap:
            return None
        self._live -= 1
        ev = heapq.heappop(self._heap)[2]
        ev._queue = None
        return ev

    def pop_due(self, t_end: int) -> Optional[Event]:
        """Next live event with ``time <= t_end``, else None (single scan).

        Drops cancelled heads along the way, recycling the ones nobody
        else references. This is the run loop's fast path: one heap scan
        per fired event instead of the peek+pop double scan.
        """
        heap = self._heap
        heappop = _heappop
        free = self._free
        while heap:
            ev = heap[0][2]
            if ev.cancelled:
                heappop(heap)
                ev._queue = None
                # Refcount 2 = this frame + getrefcount's argument: the
                # heap entry was the only other holder, so reuse is safe.
                if getrefcount(ev) == 2 and len(free) < _FREELIST_MAX:
                    ev.fn = None
                    ev.args = ()
                    free.append(ev)
                continue
            if ev.time > t_end:
                return None
            heappop(heap)
            self._live -= 1
            ev._queue = None
            return ev
        return None

    def recycle(self, ev: Event) -> None:
        """Return a fired event to the freelist if provably unreferenced.

        Callers (the simulator run loop) hand back events after firing
        them. Refcount 3 = caller's local + our parameter + getrefcount's
        argument; anything higher means some object still holds the
        handle (a pending-timer field, a test) and the event must not be
        reused, or a later ``cancel()`` through the stale handle would
        hit an unrelated event.
        """
        if getrefcount(ev) == 3 and len(self._free) < _FREELIST_MAX:
            ev.fn = None
            ev.args = ()
            self._free.append(ev)

    def perf_snapshot(self, events_fired: int = 0,
                      wall_s: float = 0.0) -> PerfSnapshot:
        """Current counter values as a :class:`PerfSnapshot`."""
        return PerfSnapshot(
            events_scheduled=self.scheduled_total,
            events_fired=events_fired,
            events_cancelled=self.cancelled_total,
            events_recycled=self.recycled_total,
            heap_peak=self.heap_peak,
            wall_s=wall_s)

    def _drop_cancelled(self) -> None:
        heap = self._heap
        while heap and heap[0][2].cancelled:
            ev = heapq.heappop(heap)[2]
            ev._queue = None
