"""Property test: the calendar/bucket queue is order-equivalent to a
plain ``(when, seq)`` heap.

:class:`~repro.engine.Simulator` stores events in per-cycle ring
buckets with an occupancy bitmask and an overflow heap for far-future
events.  Its observable contract is unchanged from the classic heap
implementation: events fire in ``(when, scheduling order)`` order,
``run(until=...)`` parks the clock at ``until`` without dispatching
past it, and ``stop()`` halts after the current event with the rest of
the queue intact.

Hypothesis drives both implementations through the same randomized
script -- initial events, callback-time rescheduling through both
``schedule`` and ``at``, far-future delays that overflow the ring, an
optional ``until`` horizon and an optional mid-run ``stop()`` -- and
requires identical fire logs, clocks and event counts.

:class:`~repro.engine.ControlledSimulator` runs on the same calendar
queue and offers each same-cycle tie to a chooser.  A second script
drives it and the heap (which then keeps the untaken candidates with
their seq) under one drawn chooser: it snapshots from inside an event
and runs on, restores and abandons the run with events still pending,
then restores again and runs to the end.  It requires identical fire
logs, pending events, candidate batches, choice logs, clocks and
event counts.
"""

import heapq
from itertools import groupby
from operator import itemgetter

from hypothesis import given, settings, strategies as st

from repro.engine import ControlledSimulator, Simulator
from repro.engine.simulator import _RING


class HeapSim:
    """Reference implementation: the classic ``(when, seq)`` heap.  A
    same-cycle tie goes to ``chooser`` (candidate 0 when it is None);
    the untaken candidates go back with their seq, and every tie is
    logged as ``(n_candidates, chosen_index)``."""

    def __init__(self):
        self.now = 0
        self.events_processed = 0
        self._q = []
        self._seq = 0
        self._stopped = False
        self.chooser = None
        self.choice_log = []

    def schedule(self, delay, fn, *args):
        assert delay >= 0
        self._seq += 1
        heapq.heappush(self._q, (self.now + delay, self._seq, fn, args))

    def at(self, when, fn, *args):
        assert when >= self.now
        self._seq += 1
        heapq.heappush(self._q, (when, self._seq, fn, args))

    def stop(self):
        self._stopped = True

    @property
    def pending_events(self):
        return len(self._q)

    def run(self, until=None):
        self._stopped = False
        while self._q and not self._stopped:
            if until is not None and self._q[0][0] > until:
                self.now = until
                return
            when, _seq, fn, args = self._pop()
            self.now = when
            self.events_processed += 1
            fn(*args)

    def _pop(self):
        q = self._q
        batch = [heapq.heappop(q)]
        while q and q[0][0] == batch[0][0]:
            batch.append(heapq.heappop(q))
        if len(batch) == 1:
            return batch[0]
        idx = 0 if self.chooser is None else self.chooser(batch)
        self.choice_log.append((len(batch), idx))
        chosen = batch.pop(idx)
        for ev in batch:
            heapq.heappush(q, ev)
        return chosen

    def iter_pending(self):
        """``(when, position, fn, args)`` in dispatch order."""
        for when, group in groupby(sorted(self._q), itemgetter(0)):
            for pos, (_when, _seq, fn, args) in enumerate(group):
                yield when, pos, fn, args

    def snapshot(self):
        return (self.now, self._seq, self._q[:], self.events_processed,
                self.choice_log[:])

    def restore(self, snap):
        self.now, self._seq, q, self.events_processed, log = snap
        self._q[:] = q
        self.choice_log[:] = log


#: (initial delay, [child delays]) -- children are scheduled from the
#: parent's callback, alternating schedule()/at(); delays beyond
#: ``_RING`` exercise the overflow heap and horizon advance
_EVENT = st.tuples(
    st.integers(min_value=0, max_value=3 * _RING),
    st.lists(st.integers(min_value=0, max_value=3 * _RING), max_size=3),
)


def _drive(sim, events, until, stop_at):
    """Run ``events`` on ``sim``; return the observable trace."""
    log = []
    fired = [0]

    def child(label):
        log.append((sim.now, label))

    def parent(i, children):
        log.append((sim.now, i))
        fired[0] += 1
        if fired[0] == stop_at:
            sim.stop()
        for j, delay in enumerate(children):
            label = (i, j)
            if j % 2:
                sim.at(sim.now + delay, child, label)
            else:
                sim.schedule(delay, child, label)

    for i, (delay, children) in enumerate(events):
        sim.schedule(delay, parent, i, children)

    if until is not None:
        sim.run(until=until)
        log.append(("until-mark", sim.now))
    # drain, resuming as long as stop() left events behind
    while sim.pending_events:
        sim.run()
    return log, sim.now, sim.events_processed


@settings(max_examples=80, deadline=None)
@given(
    events=st.lists(_EVENT, max_size=16),
    until=st.one_of(st.none(), st.integers(min_value=0,
                                           max_value=4 * _RING)),
    stop_at=st.one_of(st.none(), st.integers(min_value=1, max_value=8)),
)
def test_calendar_queue_matches_heap_order(events, until, stop_at):
    ref = _drive(HeapSim(), events, until, stop_at)
    got = _drive(Simulator(), events, until, stop_at)
    assert got == ref


#: a delay that is often 0-3 (same-cycle ties, and a child scheduled
#: into the current cycle from its parent's callback) and otherwise
#: up to three ring laps (overflow and horizon advance)
_DELAY = st.one_of(st.integers(min_value=0, max_value=3),
                   st.integers(min_value=0, max_value=3 * _RING))
_TIED_EVENT = st.tuples(_DELAY, st.lists(_DELAY, max_size=3))


def _drive_controlled(sim, events, picks, snap_at, cut):
    """Run ``events`` under a chooser that takes ``picks`` in turn
    (modulo the batch size), logging the pending events after each
    event and taking a snapshot from inside the ``snap_at``-th.  Then
    restore it, abandon that run ``cut`` events later with events
    still pending, restore it again and run to the end.  Returns the
    observable trace of the first pass and, if a snapshot was taken,
    of the last."""
    log = []
    count = [0]
    stop_at = [None]
    snap = []

    def chooser(batch):
        log.append(("tie", [(ev[0], ev[3]) for ev in batch]))
        return picks[len(sim.choice_log) % len(picks)] % len(batch)

    def fired():
        log.append([(when, pos, args)
                    for when, pos, _fn, args in sim.iter_pending()])
        count[0] += 1
        if count[0] == snap_at:
            snap.append((sim.snapshot(), len(log)))
        if count[0] == stop_at[0]:
            sim.stop()

    def child(label):
        log.append((sim.now, label))
        fired()

    def parent(i, children):
        log.append((sim.now, i))
        for j, delay in enumerate(children):
            if j % 2:
                sim.at(sim.now + delay, child, (i, j))
            else:
                sim.schedule(delay, child, (i, j))
        fired()

    def trace():
        return log[:], sim.now, sim.events_processed, list(sim.choice_log)

    sim.chooser = chooser
    for i, (delay, children) in enumerate(events):
        sim.schedule(delay, parent, i, children)
    sim.run()
    passes = [trace()]
    if snap:
        state, mark = snap[0]
        for stop in (snap_at + cut, None):
            sim.restore(state)
            del log[mark:]
            count[0], stop_at[0] = snap_at, stop
            sim.run()
        passes.append(trace())
    return passes


@settings(max_examples=80, deadline=None)
@given(
    events=st.lists(_TIED_EVENT, max_size=16),
    picks=st.lists(st.integers(min_value=0, max_value=7), min_size=1,
                   max_size=8),
    snap_at=st.one_of(st.none(), st.integers(min_value=1, max_value=12)),
    cut=st.integers(min_value=1, max_value=6),
)
def test_controlled_queue_matches_heap_choices(events, picks, snap_at,
                                               cut):
    ref = _drive_controlled(HeapSim(), events, picks, snap_at, cut)
    got = _drive_controlled(ControlledSimulator(), events, picks,
                            snap_at, cut)
    assert got == ref
    # the restored run replays the first one exactly
    assert got[-1] == got[0]
