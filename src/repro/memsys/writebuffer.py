"""4-entry write buffer with read bypass / forwarding.

Per the paper: writes go into the write buffer and take 1 cycle, unless
the buffer is full, in which case the processor stalls until an entry
frees.  Reads are allowed to bypass queued writes (and, for functional
correctness, forward the value of a queued write to the same word).

The buffer itself is passive FIFO storage; the per-protocol cache
controller owns the retire loop (it pops the head, runs the protocol's
write transaction, and releases the entry when the write has globally
performed far enough for the next one to issue).
"""

from __future__ import annotations

import itertools
from collections import deque
from typing import Any, Callable, Deque, List, Optional, Sequence

_write_ids = itertools.count()


class PendingWrite:
    __slots__ = ("write_id", "addr", "word", "block", "value", "mask")

    def __init__(self, addr: int, word: int, block: int, value: Any,
                 mask: Optional[int] = None) -> None:
        self.write_id = next(_write_ids)
        self.addr = addr
        self.word = word
        self.block = block
        self.value = value
        #: sub-word store mask (None = full word)
        self.mask = mask

    def __repr__(self) -> str:  # pragma: no cover
        return f"<W#{self.write_id} {self.word:#x}={self.value!r}>"


class WriteBuffer:
    """FIFO write buffer for one processor."""

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise ValueError("write buffer capacity must be >= 1")
        self.capacity = capacity
        self._fifo: Deque[PendingWrite] = deque()
        #: callbacks waiting for a free slot (stalled processor)
        self._space_waiters: List[Callable[[], None]] = []

    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._fifo)

    @property
    def full(self) -> bool:
        return len(self._fifo) >= self.capacity

    @property
    def empty(self) -> bool:
        return not self._fifo

    def enqueue(self, write: PendingWrite) -> None:
        if self.full:
            raise RuntimeError("enqueue on full write buffer")
        self._fifo.append(write)

    def head(self) -> Optional[PendingWrite]:
        return self._fifo[0] if self._fifo else None

    def pop(self) -> PendingWrite:
        """Retire the head entry and wake space waiters."""
        write = self._fifo.popleft()
        if self._space_waiters:
            waiters, self._space_waiters = self._space_waiters, []
            for cb in waiters:
                cb()
        return write

    # ------------------------------------------------------------------
    # read forwarding
    # ------------------------------------------------------------------

    def writes_to(self, word: int) -> Sequence[PendingWrite]:
        """All queued writes to ``word``, oldest first (for composing
        sub-word stores); ``()`` when the buffer is empty."""
        if not self._fifo:
            return ()
        return [w for w in self._fifo if w.word == word]

    def pending_blocks(self) -> List[int]:
        return [w.block for w in self._fifo]

    # ------------------------------------------------------------------
    # snapshot / restore (PendingWrite entries are immutable after
    # enqueue, so the snapshot shares them by reference)
    # ------------------------------------------------------------------

    def snapshot_state(self):
        return tuple(self._fifo), tuple(self._space_waiters)

    def restore_state(self, snap) -> None:
        fifo, space = snap
        self._fifo = deque(fifo)
        self._space_waiters = list(space)

    # ------------------------------------------------------------------
    # stall hooks
    # ------------------------------------------------------------------

    def on_space(self, callback: Callable[[], None]) -> None:
        self._space_waiters.append(callback)
