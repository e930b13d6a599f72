"""The discrete-event simulation core.

The simulator dispatches events in (time, seq) order.  ``seq`` is the
scheduling order within a cycle, which makes runs fully deterministic:
events scheduled for the same cycle fire in the order they were
scheduled.

Components never advance time themselves; they schedule callbacks with
:meth:`Simulator.schedule` (relative delay) or :meth:`Simulator.at`
(absolute time).  This is the hot loop of the whole package.

Storage is a *calendar queue*: simulated delays are small bounded ints
(NIC serialisation, hop latency, memory occupancy), so pending events
live in a ring of per-cycle FIFO buckets indexed by ``when & (R - 1)``.
Scheduling is two list appends -- no per-event tuple is allocated --
and ``run()`` drains a whole bucket as a batch.  The rare event landing
``R`` or more cycles out goes to a small overflow heap and is flushed
into its bucket when the horizon advances past it.

Ordering invariants (these make bucket FIFO order == ``(when, seq)``
order, exactly matching the previous heapq implementation):

* the ring holds events with ``when`` in ``[now, horizon)``; the
  overflow heap holds ``when >= horizon``; ``horizon`` never decreases
  and stays within ``R`` of the clock, so bucket indices are unambiguous;
* an event is appended to a bucket only while ``when < horizon``, and
  the overflow heap is flushed (in ``(when, seq)`` order) the moment
  ``horizon`` rises past an event's cycle -- so within any bucket,
  append order is scheduling order.

:class:`ControlledSimulator` (model checking) runs on this same queue:
it pops a whole bucket as the batch of candidates for a choice point,
and puts the untaken ones back at the head of their bucket.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from itertools import groupby
from operator import itemgetter
from typing import Any, Callable, Iterator, List, Optional, Sequence, Tuple

#: ring size in cycles; must be a power of two.  Delays in the modelled
#: machine are tens of cycles, so virtually nothing overflows.
_RING = 512
_MASK = _RING - 1

#: occupancy bitmask tables: bit ``i`` of ``Simulator._occ`` is set
#: exactly when ring bucket ``i`` is non-empty.  ``_BIT[i]`` sets it,
#: ``_CLR[i]`` clears it.  Because every pending in-horizon cycle
#: ``t`` lies in ``[now, now + _RING)``, bucket index ``t & _MASK``
#: identifies ``t`` uniquely, and the next occupied cycle is found in
#: O(1) with one shift + least-set-bit on a 512-bit int -- no heap,
#: no scan, no stale entries.
_BIT = tuple(1 << i for i in range(_RING))
_CLR = tuple(~(1 << i) for i in range(_RING))


class SimulationError(RuntimeError):
    """Base class for simulation failures."""


@dataclass(frozen=True)
class StuckThread:
    """One thread still blocked when the event queue drained."""

    node: int
    op: str                    # repr of the operation it was blocked on

    def __str__(self) -> str:
        return f"node {self.node} blocked at {self.op}"


class DeadlockError(SimulationError):
    """Raised when the event queue drains while threads are still blocked.

    ``stuck`` attributes the deadlock: one :class:`StuckThread` per
    never-finished thread, naming its node and the operation it was
    blocked on.
    """

    def __init__(self, message: str,
                 stuck: Sequence[StuckThread] = ()) -> None:
        super().__init__(message)
        self.stuck: List[StuckThread] = list(stuck)


class Simulator:
    """A deterministic discrete-event simulator.

    >>> sim = Simulator()
    >>> hits = []
    >>> sim.schedule(5, hits.append, "a")
    >>> sim.schedule(3, hits.append, "b")
    >>> sim.run()
    >>> hits
    ['b', 'a']
    >>> sim.now
    5

    ``snapshot()``/``restore()`` may be called between :meth:`run`
    calls, never from inside an executing event (use
    :class:`ControlledSimulator` for that).
    """

    __slots__ = ("now", "_ring", "_occ", "_overflow",
                 "_horizon", "_seq", "_running", "_stopped",
                 "_max_events", "events_processed")

    def __init__(self, max_events: Optional[int] = None) -> None:
        self.now: int = 0
        #: flat per-cycle buckets: [fn0, args0, fn1, args1, ...]
        self._ring: List[list] = [[] for _ in range(_RING)]
        #: ring-occupancy bitmask: bit ``i`` set iff ``_ring[i]`` is
        #: non-empty (see ``_BIT``/``_CLR``).  Maintained by every
        #: insert (empty -> non-empty) and every bucket drain.
        self._occ: int = 0
        #: far-future events, as (when, seq, fn, args) heap entries
        self._overflow: List[Tuple[int, int, Callable[..., Any], tuple]] = []
        self._horizon: int = _RING
        self._seq: int = 0
        self._running = False
        self._stopped = False
        #: safety valve against runaway simulations (None = unbounded)
        self._max_events = max_events
        self.events_processed: int = 0

    # ------------------------------------------------------------------
    # scheduling
    # ------------------------------------------------------------------

    def schedule(self, delay: int, fn: Callable[..., Any], *args: Any) -> None:
        """Schedule ``fn(*args)`` to run ``delay`` cycles from now."""
        if delay < 0:
            raise SimulationError(f"negative delay {delay}")
        when = self.now + delay
        if when < self._horizon:
            i = when & _MASK
            b = self._ring[i]
            if not b:
                self._occ |= _BIT[i]
            b.append(fn)
            b.append(args)
        else:
            self._insert_far(when, fn, args)

    def at(self, when: int, fn: Callable[..., Any], *args: Any) -> None:
        """Schedule ``fn(*args)`` at absolute time ``when`` (>= now)."""
        if when < self.now:
            raise SimulationError(
                f"cannot schedule in the past ({when} < {self.now})")
        if when < self._horizon:
            i = when & _MASK
            b = self._ring[i]
            if not b:
                self._occ |= _BIT[i]
            b.append(fn)
            b.append(args)
        else:
            self._insert_far(when, fn, args)

    def _insert_far(self, when: int, fn: Callable[..., Any],
                    args: tuple) -> None:
        """Insert an event at or beyond the horizon: advance the
        horizon if the ring can cover it, else park it in the overflow
        heap."""
        if when < self.now + _RING:
            self._advance_horizon()
            i = when & _MASK
            b = self._ring[i]
            if not b:
                self._occ |= _BIT[i]
            b.append(fn)
            b.append(args)
        else:
            self._seq += 1
            heapq.heappush(self._overflow, (when, self._seq, fn, args))

    def _advance_horizon(self) -> None:
        """Raise the horizon to ``now + R`` and flush newly-covered
        overflow events into their buckets in (when, seq) order."""
        new_h = self.now + _RING
        overflow = self._overflow
        if overflow:
            ring = self._ring
            pop = heapq.heappop
            while overflow and overflow[0][0] < new_h:
                when, _seq, fn, args = pop(overflow)
                i = when & _MASK
                b = ring[i]
                if not b:
                    self._occ |= _BIT[i]
                b.append(fn)
                b.append(args)
        self._horizon = new_h

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------

    def _next_time(self) -> Optional[int]:
        """Cycle of the next pending event, or None if idle.

        Pure occupancy-mask arithmetic: bits at index >= ``now & _MASK``
        are cycles in the current ring lap, lower bits are cycles that
        wrapped past the lap boundary (and therefore come later)."""
        occ = self._occ
        if occ:
            now = self.now
            idx = now & _MASK
            x = occ >> idx
            if x:
                return now + ((x & -x).bit_length() - 1)
            return now + _RING - idx + ((occ & -occ).bit_length() - 1)
        if self._overflow:
            return self._overflow[0][0]
        return None

    def run(self, until: Optional[int] = None) -> None:
        """Drain the event queue, optionally stopping at time ``until``.

        Returns when the queue is empty or ``until`` is reached.  The
        clock is left at the time of the last processed event (or at
        ``until`` if given and reached).
        """
        if self._running:
            raise SimulationError("run() is not reentrant")
        self._running = True
        self._stopped = False
        ring = self._ring
        overflow = self._overflow
        try:
            if until is None and self._max_events is None:
                # the common case: no horizon, no livelock budget.
                # Find the next occupied cycle straight from the
                # occupancy mask and drain its bucket.  The bucket is
                # emptied (and its bit cleared) *before* dispatch, so a
                # handler scheduling into the current cycle re-occupies
                # it through the ordinary schedule() path and the mask
                # re-finds it at the same ``now`` -- after the current
                # batch, i.e. still in scheduling order.
                done = 0
                try:
                    while True:
                        occ = self._occ
                        if not occ:
                            if overflow:
                                self.now = overflow[0][0]
                                self._advance_horizon()
                                continue
                            return
                        idx = self.now & _MASK
                        x = occ >> idx
                        if x:
                            off = (x & -x).bit_length() - 1
                            t = self.now + off
                            bi = (idx + off) & _MASK
                        else:
                            bi = (occ & -occ).bit_length() - 1
                            t = self.now + _RING - idx + bi
                        b = ring[bi]
                        self._occ = occ & _CLR[bi]
                        self.now = t
                        if len(b) == 2:         # singleton bucket
                            fn, args = b
                            b.clear()
                            done += 1
                            fn(*args)
                            if self._stopped:
                                return
                            continue
                        batch = b[:]
                        b.clear()
                        i = 0
                        n = len(batch)
                        while i < n:
                            fn = batch[i]
                            args = batch[i + 1]
                            i += 2
                            done += 1
                            fn(*args)
                            if self._stopped:
                                rest = batch[i:]
                                if rest:
                                    # t == now: the mask re-finds the
                                    # bucket on resume
                                    b[0:0] = rest   # ahead of new arrivals
                                    self._occ |= _BIT[bi]
                                return
                finally:
                    self.events_processed += done
            # bounded path: a time horizon and/or livelock budget
            limit = self._max_events
            while not self._stopped:
                t = self._next_time()
                if t is None:
                    return
                if until is not None and t > until:
                    # never dispatched: same-cycle seq order untouched
                    self.now = until
                    return
                self.now = t
                if t >= self._horizon:
                    self._advance_horizon()
                bi = t & _MASK
                b = ring[bi]
                batch = b[:]
                b.clear()
                self._occ &= _CLR[bi]
                i = 0
                n = len(batch)
                try:
                    while i < n:
                        fn = batch[i]
                        args = batch[i + 1]
                        i += 2
                        self.events_processed += 1
                        if (limit is not None
                                and self.events_processed > limit):
                            raise SimulationError(
                                f"exceeded max_events={limit}; "
                                "likely livelock")
                        fn(*args)
                        if self._stopped:
                            break
                finally:
                    rest = batch[i:]
                    if rest:
                        # t == now: the mask re-finds it on resume
                        b[0:0] = rest       # ahead of new arrivals
                        self._occ |= _BIT[bi]
        finally:
            self._running = False

    def stop(self) -> None:
        """Stop the run loop after the current event."""
        self._stopped = True

    def _count_event(self) -> None:
        """Tick ``events_processed`` and trip the ``max_events``
        livelock safety valve (shared by :meth:`run` and :meth:`step`)."""
        self.events_processed += 1
        if (self._max_events is not None
                and self.events_processed > self._max_events):
            raise SimulationError(
                f"exceeded max_events={self._max_events}; "
                "likely livelock")

    def step(self) -> bool:
        """Process a single event.  Returns False if the queue is empty
        or the simulator has been stopped.  Enforces the same
        ``max_events`` livelock safety valve as :meth:`run`.
        """
        if self._stopped:
            return False
        t = self._next_time()
        if t is None:
            return False
        self.now = t
        if t >= self._horizon:
            self._advance_horizon()
        bi = t & _MASK
        b = self._ring[bi]
        fn = b[0]
        args = b[1]
        del b[:2]
        if not b:
            self._occ &= _CLR[bi]
        self._count_event()
        fn(*args)
        return True

    # ------------------------------------------------------------------
    # snapshot / restore
    # ------------------------------------------------------------------

    def _buckets(self) -> Iterator[Tuple[int, list]]:
        """Yield ``(when, bucket)`` for every occupied ring bucket in
        cycle order, visiting only the set bits of the occupancy mask:
        first the bits at or above ``now & _MASK``, then the ones that
        wrapped past the lap boundary."""
        now = self.now
        idx = now & _MASK
        occ = self._occ
        ring = self._ring
        for bits, base in ((occ >> idx, now),
                           (occ & ~(-1 << idx), now + _RING - idx)):
            while bits:
                low = bits & -bits
                bits ^= low
                t = base + low.bit_length() - 1
                yield t, ring[t & _MASK]

    def snapshot(self):
        """O(pending events) copy of the simulator's state.  Callback
        and argument references are shared with the snapshot; the bound
        arguments are component objects the caller is responsible for
        restoring in place."""
        buckets = [(t & _MASK, b[:]) for t, b in self._buckets()]
        return (self.now, self._seq, self.events_processed,
                self._stopped, self._horizon,
                buckets, self._overflow[:], self._occ)

    def restore(self, snap) -> None:
        (now, seq, events_processed, stopped, horizon,
         buckets, overflow, occ) = snap
        for _t, b in self._buckets():
            b.clear()
        self.now = now
        self._seq = seq
        self.events_processed = events_processed
        self._stopped = stopped
        self._horizon = horizon
        ring = self._ring
        for i, items in buckets:
            ring[i][:] = items
        self._overflow[:] = overflow
        self._occ = occ

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------

    @property
    def pending_events(self) -> int:
        return (sum(map(len, self._ring)) >> 1) + len(self._overflow)

    def peek_time(self) -> Optional[int]:
        """Time of the next event, or None if the queue is empty."""
        return self._next_time()

    def iter_pending(self) -> Iterator[Tuple[int, int, Callable[..., Any],
                                             tuple]]:
        """Yield every pending event as ``(when, position, fn, args)``,
        in dispatch order; ``position`` is the event's place among the
        pending events of its cycle (0 fires first).  Every overflow
        ``when`` lies beyond every ring ``when``, so the overflow
        events, in ``(when, seq)`` order, come last."""
        for t, b in self._buckets():
            for j in range(0, len(b), 2):
                yield (t, j >> 1, b[j], b[j + 1])
        for when, group in groupby(sorted(self._overflow), itemgetter(0)):
            for pos, (_when, _seq, fn, args) in enumerate(group):
                yield (when, pos, fn, args)


class ControlledSimulator(Simulator):
    """A :class:`Simulator` whose same-cycle event order is a choice.

    The stock simulator resolves same-cycle ties by scheduling order,
    which makes every run deterministic -- and blind to the
    interleavings a real machine could exhibit.  This subclass exposes
    that tie-break as an explicit *choice point*: whenever two or more
    events are ready at the minimum time, ``chooser(candidates)`` picks
    which one fires next; the rest go back to the head of their bucket
    and are re-offered -- possibly alongside events the chosen handler
    just scheduled for the same cycle.

    ``candidates`` is the bucket's events in scheduling order, as
    ``(when, position, fn, args)`` tuples.  A ``None`` chooser (or one
    that always answers 0) reproduces the stock simulator exactly.
    Every decision is appended to ``choice_log`` as
    ``(n_candidates, chosen_index)``, which is precisely the schedule
    the model checker replays.

    The queue is the base class's calendar queue; the model checker
    reads it through :meth:`pop_ready_batch`, :meth:`push_events`,
    :meth:`iter_pending` and :meth:`step`.
    """

    __slots__ = ("chooser", "choice_log")

    def __init__(self, chooser: Optional[
            Callable[[List[tuple]], int]] = None,
            max_events: Optional[int] = None) -> None:
        super().__init__(max_events=max_events)
        self.chooser = chooser
        self.choice_log: List[Tuple[int, int]] = []

    # the base class's scheduling, bound in this class's own namespace:
    # perfbench/probes.py wraps these two, _pop_controlled, run and step
    # from vars(ControlledSimulator) (tests/unit/test_perfbench_probes.py)
    schedule = Simulator.schedule
    at = Simulator.at

    # -- public batch API (used by the model checker) ------------------

    def pop_ready_batch(self) -> List[tuple]:
        """Drain the next occupied bucket: every event ready at the
        minimum pending time, as ``(when, position, fn, args)`` tuples
        in scheduling order.  The clock moves to that time.  The
        returned tuples are exactly what :meth:`push_events` accepts
        back."""
        t = self._next_time()
        self.now = t
        if t >= self._horizon:
            self._advance_horizon()
        bi = t & _MASK
        b = self._ring[bi]
        self._occ &= _CLR[bi]
        batch = [(t, j >> 1, b[j], b[j + 1]) for j in range(0, len(b), 2)]
        b.clear()
        return batch

    def push_events(self, events: Sequence[tuple]) -> None:
        """Put a non-empty batch from :meth:`pop_ready_batch` back at
        the head of its bucket, ahead of anything scheduled for that
        cycle since."""
        i = events[0][0] & _MASK
        b = self._ring[i]
        if not b:
            self._occ |= _BIT[i]
        b[0:0] = [x for _when, _pos, fn, args in events for x in (fn, args)]

    def _pop_controlled(self) -> tuple:
        """Pop the next event as ``(when, position, fn, args)``,
        consulting the chooser on a tie."""
        batch = self.pop_ready_batch()
        if len(batch) == 1:
            return batch[0]
        idx = 0 if self.chooser is None else self.chooser(batch)
        if not 0 <= idx < len(batch):
            raise SimulationError(
                f"chooser returned {idx} for {len(batch)} candidates")
        self.choice_log.append((len(batch), idx))
        chosen = batch.pop(idx)
        self.push_events(batch)
        return chosen

    # -- execution -----------------------------------------------------

    def run(self, until: Optional[int] = None) -> None:
        if self._running:
            raise SimulationError("run() is not reentrant")
        self._running = True
        self._stopped = False
        try:
            while not self._stopped:
                t = self._next_time()
                if t is None:
                    return
                if until is not None and t > until:
                    self.now = until
                    return
                _when, _pos, fn, args = self._pop_controlled()
                self._count_event()
                fn(*args)
        finally:
            self._running = False

    def step(self, on_event: Optional[Callable] = None) -> bool:
        """Process a single event.  ``on_event(when, fn, args)`` runs
        after the choice is made but before the event executes (replay
        traces print the event first, so the violating transition is
        the last line of the trace)."""
        if self._stopped or self._next_time() is None:
            return False
        when, _pos, fn, args = self._pop_controlled()
        self._count_event()
        if on_event is not None:
            on_event(when, fn, args)
        fn(*args)
        return True

    # -- snapshot ------------------------------------------------------

    def snapshot(self):
        return super().snapshot(), self.choice_log[:]

    def restore(self, snap) -> None:
        base, choice_log = snap
        super().restore(base)
        self.choice_log[:] = choice_log
