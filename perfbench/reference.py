"""A fixed piece of pure-Python work that measures the host's speed.

A shared host does not run a process at one speed: the clock follows
the load of the other tenants, and a busy sibling hyperthread slows
every instruction.  Host CPU seconds of the program move with it, run
to run, by more than a program change the benchmark should see.
``reference()`` is timed in the program's own process, between its
operations, and ``work_s`` and ``setup_s`` are the program's CPU
seconds divided by the speed it shows (``speed_factor``): host CPU
seconds on a host where ``reference()`` takes ``NOMINAL_S``.

The reference has two parts of about equal time.  A small cache
simulation in the simulator's shape (an event heap, per-node dicts of
slotted lines, a sharer map, generator thread programs) allocates as
the program does; a loop of integer arithmetic only dispatches
bytecode.  When the host speeds up, the simulation part gains more than
the program does and the loop less, so the reference times both.  It
imports nothing from the program and is never changed with it: a
change to the program moves the program's seconds and not the
reference's.
"""

from __future__ import annotations

import gc
import heapq
import statistics
import time
from typing import Dict, List, Sequence, Tuple

#: CPU seconds one ``reference()`` takes on the machine the bounds were
#: set on (Intel Xeon, 2 vCPUs, CPython 3.11)
NOMINAL_S = 0.0100
#: operation CPU seconds on either side of an operation whose reference
#: samples give its speed factor
WINDOW_S = 1.0
#: what ``reference()`` returns
EXPECTED = (2000, 35, 1965, 100001)

NODES = 16
STEPS = 125
ADDRESSES = 2048
LOOP = 50000


class _Line:
    __slots__ = ("tag", "state", "stamp")

    def __init__(self, tag: int, state: str, stamp: int) -> None:
        self.tag = tag
        self.state = state
        self.stamp = stamp


class _Node:
    __slots__ = ("cache", "hits", "misses")

    def __init__(self) -> None:
        self.cache = {}
        self.hits = 0
        self.misses = 0


def _program(seed: int):
    """A node's access stream: (address, is_write) from an LCG."""
    x = seed
    for _ in range(STEPS):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        yield (x >> 8) % ADDRESSES, (x >> 4) & 3 == 0


def _dispatch() -> int:
    total = 0
    for i in range(LOOP):
        total += i * i % 7
    return total


def reference():
    """Simulate 16 nodes sharing 2048 lines under write-invalidate,
    then run the arithmetic loop; returns (accesses, hits, misses, loop
    total), always ``EXPECTED``."""
    heap = []
    nodes = [_Node() for _ in range(NODES)]
    programs = [_program(i + 1) for i in range(NODES)]
    sharers = {}
    seq = 0
    for i in range(NODES):
        heapq.heappush(heap, (i, i, i))
    accesses = 0
    while heap:
        t, _, n = heapq.heappop(heap)
        try:
            addr, write = next(programs[n])
        except StopIteration:
            continue
        node = nodes[n]
        line = node.cache.get(addr)
        if line is None or (write and line.state != "M"):
            node.misses += 1
            for other in sharers.pop(addr, ()):
                if other != n:
                    nodes[other].cache.pop(addr, None)
            line = _Line(addr, "M" if write else "S", t)
            node.cache[addr] = line
            sharers.setdefault(addr, set()).add(n)
            delay = 40
        else:
            node.hits += 1
            line.stamp = t
            delay = 1
        seq += 1
        heapq.heappush(heap, (t + delay, seq, n))
        accesses += 1
    return (accesses, sum(x.hits for x in nodes),
            sum(x.misses for x in nodes), _dispatch())


def timed() -> float:
    """CPU seconds of one ``reference()``, the cyclic collector paused
    (the reference makes no cycles, and a collection would scan the
    program's heap)."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.process_time()
        reference()
        return time.process_time() - t0
    finally:
        if enabled:
            gc.enable()


def speed_factor(samples: Sequence[float]) -> float:
    """How much slower than nominal the host ran while ``samples`` were
    taken: their mean over ``NOMINAL_S``."""
    return statistics.fmean(samples) / NOMINAL_S


class Pacer:
    """Takes reference samples between operations, one for every
    ``every_s`` CPU seconds the operations used, so the samples spread
    over a pass the way its time does.  Each sample is stamped with the
    operations' CPU seconds in the pass so far."""

    def __init__(self, every_s: float = 0.2) -> None:
        self.every_s = every_s
        self.clock = 0.0
        self.owed = 0.0
        self.samples: List[Tuple[float, float]] = []

    def after(self, op_seconds: float) -> None:
        self.clock += op_seconds
        self.owed += op_seconds
        while self.owed >= self.every_s:
            self.owed -= self.every_s
            self.samples.append((self.clock, timed()))

    def take(self) -> List[Tuple[float, float]]:
        """The pass's (stamp, seconds) samples, at least one; the next
        pass starts its stamps from zero."""
        if not self.samples:
            self.samples.append((self.clock, timed()))
        out, self.samples, self.clock = self.samples, [], 0.0
        return out


def at_nominal_speed(ops: Dict[str, float],
                     samples: Sequence[Tuple[float, float]],
                     window_s: float = WINDOW_S) -> Dict[str, float]:
    """``ops`` (CPU seconds, in the order they ran) each divided by the
    speed factor of the samples stamped within ``window_s`` of it (the
    nearest sample when none is), so a change of the host's speed in
    the middle of a pass is charged to the operations it slowed."""
    out = {}
    start = 0.0
    for name, seconds in ops.items():
        end = start + seconds
        near = [ref for at, ref in samples
                if start - window_s <= at <= end + window_s]
        if not near:
            near = [min(samples, key=lambda s: abs(s[0] - end))[1]]
        out[name] = seconds / speed_factor(near)
        start = end
    return out
