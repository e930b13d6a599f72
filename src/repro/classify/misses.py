"""Cache-miss classification.

Categories (paper section 3.2):

* **cold** -- first reference to the block by this processor;
* **true sharing** -- the block had been cached and was invalidated by a
  remote write, and the missing processor (eventually) references a word
  that was remotely written while it did not hold the block;
* **false sharing** -- invalidated by a remote write, but the processor
  only references words the remote writer(s) did not touch;
* **eviction** -- the block was displaced by a conflicting block (we fold
  explicit ``flush``-instruction departures into this class; see
  DESIGN.md);
* **drop** -- the block was self-invalidated by the competitive-update
  counter;
* **exclusive requests** -- not misses, but counted alongside: upgrades
  of a read-shared block already cached by the writer (WI only).

True/false resolution is deferred in the style of Dubois et al.: a
sharing miss opens a *pending* record holding the set of words remotely
written while the block was away; it resolves to *true* at the first
local reference to one of those words, and to *false* when the block
leaves the cache again (or at end of run) without such a reference.
"""

from __future__ import annotations

import enum
from typing import Any, Dict, Optional, Set, Tuple

from repro.memsys.cache import EvictReason


class MissClass(enum.Enum):
    COLD = "cold"
    TRUE_SHARING = "true"
    FALSE_SHARING = "false"
    EVICTION = "eviction"
    DROP = "drop"

    @property
    def useful(self) -> bool:
        """Paper: cold-start and true-sharing misses are *useful*."""
        return self in (MissClass.COLD, MissClass.TRUE_SHARING)


# counter slots, one per MissClass member in definition order
_COLD, _TRUE_SHARING, _FALSE_SHARING, _EVICTION, _DROP = range(
    len(MissClass))


class _Pending:
    """Unresolved sharing miss: true iff a remote-written word gets
    referenced before the block leaves again.

    Holds the write-log sequence number at departure rather than a word
    snapshot: the invalidating write may still be in flight (applied at
    the writer's cache after our miss is recorded), so the remote-word
    set must be evaluated live at each reference.
    """

    __slots__ = ("leave_seq",)

    def __init__(self, leave_seq: int) -> None:
        self.leave_seq = leave_seq


class MissClassifier:
    """Online classifier; one instance per simulated machine.  The
    counts live in a list indexed by class, so counting hashes no enum
    member."""

    def __init__(self) -> None:
        self._counts = [0] * len(MissClass)
        #: exclusive-request (upgrade) transaction count
        self.exclusive_requests = 0
        #: total shared references (for miss-rate computation)
        self.shared_refs = 0

        # per-block global write log: word -> (writer, seq)
        self._writes: Dict[int, Dict[int, Tuple[int, int]]] = {}
        self._write_seq: Dict[int, int] = {}

        # (node, block) -> seq at the moment the block left the cache
        self._leave_seq: Dict[Tuple[int, int], int] = {}
        # (node, block) -> why the block left
        self._leave_reason: Dict[Tuple[int, int], EvictReason] = {}
        # (node, block) ever cached (cold detection)
        self._touched: Set[Tuple[int, int]] = set()
        # (node, block) -> pending true/false record
        self._pending: Dict[Tuple[int, int], _Pending] = {}

    @property
    def counts(self) -> Dict[MissClass, int]:
        """Misses per category (a fresh dict)."""
        return dict(zip(MissClass, self._counts))

    # ------------------------------------------------------------------
    # feed (called by protocol controllers)
    # ------------------------------------------------------------------

    def record_write(self, block: int, word: int, writer: int) -> None:
        """A write to ``word`` of ``block`` by ``writer`` became globally
        visible (processed at the home / owner)."""
        seq = self._write_seq.get(block, 0) + 1
        self._write_seq[block] = seq
        self._writes.setdefault(block, {})[word] = (writer, seq)

    def record_leave(self, node: int, block: int,
                     reason: EvictReason) -> None:
        """``block`` left ``node``'s cache for ``reason``.

        Must be called *before* :meth:`record_write` for the write that
        causes an invalidation, so the write is seen as happening while
        the block is away.
        """
        key = (node, block)
        self._leave_seq[key] = self._write_seq.get(block, 0)
        self._leave_reason[key] = reason
        self._resolve_pending(key)

    def record_miss(self, node: int, block: int, word: int) -> None:
        """Classify a demand miss by ``node`` on ``word`` of ``block``."""
        key = (node, block)
        if key not in self._touched:
            self._touched.add(key)
            self._counts[_COLD] += 1
            return
        reason = self._leave_reason.get(key, EvictReason.REPLACEMENT)
        if reason is EvictReason.DROP:
            self._counts[_DROP] += 1
        elif reason is EvictReason.INVALIDATION:
            leave = self._leave_seq.get(key, 0)
            if self._remotely_written(node, block, leave, word):
                self._counts[_TRUE_SHARING] += 1
            else:
                # defer: true iff a remote-written word is referenced
                # during this caching lifetime
                self._pending[key] = _Pending(leave)
        else:  # REPLACEMENT or FLUSH
            self._counts[_EVICTION] += 1

    def record_reference(self, node: int, block: int, word: int,
                         count: bool = True) -> None:
        """A shared reference (hit or miss) by ``node``.

        ``count=False`` re-registers a reference for pending-resolution
        purposes without inflating the shared-reference total (used when
        a miss's fill finally delivers the value the reference observed).
        """
        if count:
            self.shared_refs += 1
        pend = self._pending.get((node, block))
        if pend is not None and self._remotely_written(
                node, block, pend.leave_seq, word):
            del self._pending[(node, block)]
            self._counts[_TRUE_SHARING] += 1

    def record_upgrade(self, node: int, block: int) -> None:
        self.exclusive_requests += 1

    # ------------------------------------------------------------------

    def _remotely_written(self, node: int, block: int, leave_seq: int,
                          word: int) -> bool:
        """Was ``word`` written by another processor after ``leave_seq``?"""
        log = self._writes.get(block)
        if not log:
            return False
        entry = log.get(word)
        if entry is None:
            return False
        writer, seq = entry
        return seq > leave_seq and writer != node

    def _resolve_pending(self, key: Tuple[int, int]) -> None:
        if key in self._pending:
            del self._pending[key]
            self._counts[_FALSE_SHARING] += 1

    # ------------------------------------------------------------------

    def finalize(self) -> None:
        """Resolve all deferred sharing misses (end of run => false)."""
        for key in list(self._pending):
            self._resolve_pending(key)

    # ------------------------------------------------------------------
    # snapshot / restore
    # ------------------------------------------------------------------

    def snapshot_state(self):
        return (self._counts[:], self.exclusive_requests,
                self.shared_refs,
                {b: dict(log) for b, log in self._writes.items()},
                dict(self._write_seq), dict(self._leave_seq),
                dict(self._leave_reason), set(self._touched),
                {k: p.leave_seq for k, p in self._pending.items()})

    def restore_state(self, snap) -> None:
        (counts, exclusive_requests, shared_refs, writes, write_seq,
         leave_seq, leave_reason, touched, pending) = snap
        self._counts = list(counts)
        self.exclusive_requests = exclusive_requests
        self.shared_refs = shared_refs
        self._writes = {b: dict(log) for b, log in writes.items()}
        self._write_seq = dict(write_seq)
        self._leave_seq = dict(leave_seq)
        self._leave_reason = dict(leave_reason)
        self._touched = set(touched)
        self._pending = {k: _Pending(ls) for k, ls in pending.items()}

    # ------------------------------------------------------------------
    # results
    # ------------------------------------------------------------------

    @property
    def total_misses(self) -> int:
        return sum(self._counts)

    def useful_misses(self) -> int:
        return sum(n for c, n in zip(MissClass, self._counts) if c.useful)

    def useless_misses(self) -> int:
        return sum(n for c, n in zip(MissClass, self._counts)
                   if not c.useful)

    def miss_rate(self) -> float:
        if self.shared_refs == 0:
            return 0.0
        return self.total_misses / self.shared_refs

    def as_dict(self) -> Dict[str, int]:
        out = {c.value: n for c, n in zip(MissClass, self._counts)}
        out["exclusive_requests"] = self.exclusive_requests
        out["total"] = self.total_misses
        return out
