"""A small deterministic discrete-event engine.

Time is a float in nanoseconds (see :mod:`repro.units`).  The engine
keeps two queues:

- a binary heap of ``(time, sequence, event)`` for internal pipeline
  events, where the monotonically increasing sequence number breaks
  ties in scheduling order;
- an *arrival cursor*: a time-sorted list of external arrivals, each a
  ``(time, item)`` pair handed to the engine's arrival handler when it
  fires.

:meth:`Engine.run` merges the two, and an arrival wins a tie with an
internal event.  So at one instant, arrivals fire first (in offer
order), then internal events (in scheduling order) -- the same order
whether arrivals were offered up front (eager runs) or block by block
(streaming runs).  Determinism matters here because the OQ-mimicry
experiment (E5) compares two switches fed the *same* arrival sequence.

The engine is the innermost loop of every simulation -- a loaded switch
run fires one event per packet, batch, frame and phase -- so the hot
path is written for CPython speed: heap entries are plain tuples
(compared at C speed, never reaching the payload), :class:`Event` uses
``__slots__``, an arrival costs one list pop and one handler call (no
heap push, no :class:`Event`, no closure), and :meth:`Engine.run` binds
its loop state to locals instead of going through attribute lookups on
every event.  Cancellation stays lazy (cancelled events are skipped when
popped), with a cheap counter that compacts the heap when cancelled
entries dominate it.
"""

from __future__ import annotations

import heapq
from operator import itemgetter
from typing import Any, Callable, List, Optional, Sequence, Tuple

from ..errors import SimulationError

#: Compact the heap once it holds this many cancelled entries *and* they
#: outnumber the live ones -- keeps pathological cancel-heavy workloads
#: from scanning dead entries forever while costing nothing in the
#: common cancel-free case.
_COMPACT_THRESHOLD = 64

_arrival_time = itemgetter(0)


def _call(action: Callable[[], None]) -> None:
    """Default arrival handler: arrival items are plain callbacks."""
    action()


class Event:
    """One scheduled internal callback.

    The heap orders entries by ``(time, seq)``, so events pop in
    deterministic order.  ``cancelled`` events are skipped when popped
    (lazy deletion -- cheaper than heap surgery).
    """

    __slots__ = ("time", "seq", "action", "cancelled")

    def __init__(self, time: float, seq: int, action: Callable[[], None]) -> None:
        self.time = time
        self.seq = seq
        self.action = action
        self.cancelled = False

    def cancel(self) -> None:
        """Mark the event so the engine skips it."""
        self.cancelled = True

    def __lt__(self, other: "Event") -> bool:
        return (self.time, self.seq) < (other.time, other.seq)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = " cancelled" if self.cancelled else ""
        return f"Event(t={self.time:.3f}, seq={self.seq}{state})"


class Engine:
    """Event queue, arrival cursor and clock.

    Usage::

        eng = Engine()
        eng.schedule(10.0, lambda: print("at t=10ns"))
        eng.schedule_arrival(5.0, lambda: print("arrival at t=5ns"))
        eng.run(until=100.0)

    ``arrival_handler(item)`` is called for each arrival as it fires;
    by default the items are callbacks and are called with no
    arguments.  A switch binds its per-packet entry point here and
    offers bare packets, so an arrival allocates no closure.
    """

    def __init__(self, arrival_handler: Callable[[Any], None] = _call) -> None:
        self._queue: List[Tuple[float, int, Event]] = []
        #: Pending arrivals, latest first: the next one to fire is the
        #: last element, so firing it is a constant-time ``pop()``.
        self._arrivals: List[Tuple[float, Any]] = []
        self._arrival_handler = arrival_handler
        self._seq = 0
        self._now = 0.0
        self._cancelled = 0
        self._fired = 0

    @property
    def now(self) -> float:
        """Current simulation time in nanoseconds."""
        return self._now

    @property
    def events_fired(self) -> int:
        """Total events fired over the engine's lifetime, arrivals
        included (perf metric)."""
        return self._fired

    def schedule(self, time: float, action: Callable[[], None]) -> Event:
        """Schedule ``action`` to fire at absolute ``time``.

        Scheduling in the past is an error: it would silently reorder
        causality, which is exactly the class of bug a DES must surface.
        """
        if time < self._now:
            raise SimulationError(
                f"cannot schedule at t={time:.3f} ns, now is {self._now:.3f} ns"
            )
        seq = self._seq
        self._seq = seq + 1
        event = Event(time, seq, action)
        heapq.heappush(self._queue, (time, seq, event))
        return event

    def schedule_arrival(self, time: float, item: Any) -> None:
        """Queue one *external arrival* at absolute ``time``.

        At equal timestamps arrivals fire before internal events,
        whenever they were offered -- the property that makes
        block-streamed ingest (arrivals offered block by block)
        byte-identical to an eager run that offers every arrival up
        front.  Prefer :meth:`offer_arrivals` for many arrivals.
        """
        self.offer_arrivals([(time, item)])

    def offer_arrivals(self, arrivals: Sequence[Tuple[float, Any]]) -> None:
        """Queue ``(time, item)`` arrivals, in offer order.

        Arrivals may come in any time order: they are stable-sorted by
        time, so arrivals at one instant fire in the order they were
        offered (across calls too).  An arrival before the current time
        raises :class:`~repro.errors.SimulationError` and queues
        nothing.
        """
        if not arrivals:
            return
        # Firing order: pending arrivals first, then the new ones; the
        # sort is stable, so equal times keep that order.
        merged = self._arrivals[::-1]
        merged.extend(arrivals)
        merged.sort(key=_arrival_time)
        if merged[0][0] < self._now:
            raise SimulationError(
                f"cannot schedule at t={merged[0][0]:.3f} ns, "
                f"now is {self._now:.3f} ns"
            )
        merged.reverse()
        # In place: a running loop holds a reference to this list.
        self._arrivals[:] = merged

    def schedule_after(self, delay: float, action: Callable[[], None]) -> Event:
        """Schedule ``action`` to fire ``delay`` ns from now."""
        if delay < 0:
            raise SimulationError(f"negative delay {delay:.3f} ns")
        return self.schedule(self._now + delay, action)

    def cancel(self, event: Event) -> None:
        """Cancel through the engine so dead entries are tallied for
        compaction; ``event.cancel()`` alone is also fine."""
        if not event.cancelled:
            event.cancelled = True
            self._cancelled += 1
            self._maybe_compact()

    def _maybe_compact(self) -> None:
        if (
            self._cancelled >= _COMPACT_THRESHOLD
            and self._cancelled * 2 > len(self._queue)
        ):
            # In place: a running loop holds a reference to this list.
            self._queue[:] = [
                entry for entry in self._queue if not entry[2].cancelled
            ]
            heapq.heapify(self._queue)
            self._cancelled = 0

    def peek_time(self) -> Optional[float]:
        """Time of the next pending event or arrival, or ``None`` if
        nothing is pending."""
        queue, arrivals = self._queue, self._arrivals
        while queue and queue[0][2].cancelled:
            heapq.heappop(queue)
        if arrivals and (not queue or arrivals[-1][0] <= queue[0][0]):
            return arrivals[-1][0]
        return queue[0][0] if queue else None

    def step(self) -> bool:
        """Fire the next event or arrival.  Returns ``False`` when
        nothing is pending."""
        return self.run(max_events=1) == 1

    def run(
        self,
        until: Optional[float] = None,
        max_events: Optional[int] = None,
        inclusive: bool = True,
    ) -> int:
        """Run events until both queues drain, ``until`` is reached, or
        ``max_events`` have fired.  Returns the number of events fired
        (arrivals included).

        When ``until`` is given, the clock is advanced to exactly
        ``until`` at the end even if the last event fired earlier, so
        throughput denominators are well defined.

        ``inclusive=False`` stops *before* events and arrivals at
        exactly ``until`` fire (they stay queued).  Block-streamed runs
        advance the engine this way to each block boundary: events at
        the boundary must wait until the next block's arrivals are
        offered, so that same-timestamp ordering (arrivals first)
        matches the eager run.
        """
        queue = self._queue
        arrivals = self._arrivals
        handler = self._arrival_handler
        pop = heapq.heappop
        take = arrivals.pop
        horizon = float("inf") if until is None else until
        limit = float("inf") if max_events is None else max_events
        fired = 0
        while fired < limit:
            if arrivals:
                time = arrivals[-1][0]
                if not queue or time <= queue[0][0]:
                    if time > horizon or (time == horizon and not inclusive):
                        break
                    time, item = take()
                    self._now = time
                    handler(item)
                    fired += 1
                    continue
            elif not queue:
                break
            time, _seq, event = queue[0]
            if event.cancelled:
                pop(queue)
                continue
            if time > horizon or (time == horizon and not inclusive):
                break
            pop(queue)
            self._now = time
            event.action()
            fired += 1
        self._fired += fired
        if until is not None and until > self._now:
            self._now = until
        return fired
