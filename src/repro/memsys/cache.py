"""Direct-mapped data cache over flat preallocated arrays.

64 KB, 64-byte blocks by default (1024 lines).  The cache is a passive
structure driven by the per-protocol cache controller; it stores per-word
values (so programs running on the simulator observe functionally
coherent data) and per-line protocol metadata (install sequence numbers
used to discard stale invalidations, and the competitive-update counter).

Array layout (the hot-path contract):

* ``_tags`` -- one stdlib ``array('q')`` slot per cache line, holding
  the resident block number or ``-1``.  The per-access probe touches
  only this array: a tag miss never reaches a Python object.
* ``_lines`` -- the per-slot payload records (:class:`CacheLine`),
  parallel to ``_tags``.  A line's protocol state is the plain int
  ``state_code`` (index into :data:`CACHE_STATES`); the ``state``
  property keeps the enum view for observers and tests.
* ``_lru`` -- per-set slot order, maintained only when
  ``associativity > 1`` (a direct-mapped set has nothing to order).

Slot ``i`` belongs to set ``i // associativity``; a block maps to set
``block & mask`` when the set count is a power of two (the common
case), else ``block % num_sets``.

The cache also hosts the *watcher* registry used by the spin-wait fast
path: any mutation of a block's local copy (install, update, invalidate)
fires the block's watchers, which is how a spinning processor learns that
its cached value may have changed.

``snapshot_state()`` / ``restore_state()`` copy the flat arrays and
per-line payloads in O(lines), preserving the identity of resident
:class:`CacheLine` records so callbacks captured before a snapshot stay
valid after a restore.
"""

from __future__ import annotations

import enum
from array import array
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional


class CacheState(enum.Enum):
    INVALID = "I"
    SHARED = "S"       # WI: read-shared, clean
    MODIFIED = "M"     # WI: exclusive dirty
    VALID = "V"        # PU/CU: valid copy kept coherent by updates
    RETAINED = "R"     # PU/CU: effectively-private; writes stay local
    EXCLUSIVE = "E"    # MESI: exclusive clean; silent upgrade to M


#: dense enum view indexed by the per-line ``state_code`` ints below
CACHE_STATES = (CacheState.INVALID, CacheState.SHARED,
                CacheState.MODIFIED, CacheState.VALID,
                CacheState.RETAINED, CacheState.EXCLUSIVE)

#: plain-int state codes (INVALID must stay 0: occupancy tests rely on
#: ``state_code`` being falsy exactly for invalid lines)
STATE_INVALID = 0
STATE_SHARED = 1
STATE_MODIFIED = 2
STATE_VALID = 3
STATE_RETAINED = 4
STATE_EXCLUSIVE = 5

for _code, _state in enumerate(CACHE_STATES):
    _state.code = _code
del _code, _state


def _state_code(state) -> int:
    """Accept either a :class:`CacheState` member or its int code."""
    return state if type(state) is int else state.code


#: why a block left the cache (drives miss classification)
class EvictReason(enum.Enum):
    REPLACEMENT = "replacement"
    INVALIDATION = "invalidation"   # remote write under WI
    DROP = "drop"                   # CU self-invalidation
    FLUSH = "flush"                 # explicit block flush instruction


@dataclass
class EvictionInfo:
    """Returned by :meth:`Cache.install` when a victim was displaced."""
    block: int
    state: CacheState
    data: Dict[int, Any]


class CacheLine:
    __slots__ = ("block", "state_code", "data", "seq", "update_count",
                 "dirty_words")

    def __init__(self, block: int, state,
                 data: Optional[Dict[int, Any]] = None, seq: int = -1):
        self.block = block
        #: plain-int protocol state (index into CACHE_STATES)
        self.state_code = _state_code(state)
        #: word-aligned address -> value
        self.data: Dict[int, Any] = dict(data) if data else {}
        #: sequence number of the installing transaction (stale-INV guard)
        self.seq = seq
        #: competitive-update counter (updates since last local reference)
        self.update_count = 0
        #: words written locally while RETAINED (flushed on recall)
        self.dirty_words: Dict[int, Any] = {}

    @property
    def state(self) -> CacheState:
        return CACHE_STATES[self.state_code]

    @state.setter
    def state(self, value) -> None:
        self.state_code = _state_code(value)


class Cache:
    """A set-associative cache for one node (direct-mapped by default,
    as in the paper; LRU replacement within a set)."""

    def __init__(self, num_lines: int, block_size: int,
                 associativity: int = 1) -> None:
        if num_lines < 1:
            raise ValueError("cache needs at least one line")
        if associativity < 1 or num_lines % associativity:
            raise ValueError(
                f"associativity {associativity} must divide the "
                f"{num_lines}-line cache")
        self.num_lines = num_lines
        self.block_size = block_size
        self.associativity = associativity
        self.num_sets = num_lines // associativity
        #: mask for the power-of-two set count (the common case); the
        #: lookup path is per-access hot, where `&` beats `%`
        self._set_mask = (self.num_sets - 1
                          if self.num_sets & (self.num_sets - 1) == 0
                          else None)
        #: flat tag array: resident block per slot, -1 = empty
        self._tags = array("q", [-1]) * num_lines
        #: per-slot payload records, parallel to _tags
        self._lines: List[Optional[CacheLine]] = [None] * num_lines
        #: per set: occupied slots in LRU order (index 0 = least
        #: recent); only maintained for associativity > 1
        self._lru: Optional[List[List[int]]] = (
            None if associativity == 1
            else [[] for _ in range(self.num_sets)])
        #: block -> callbacks fired when the local copy of block changes
        self._watchers: Dict[int, List[Callable[[], None]]] = {}

    # ------------------------------------------------------------------
    # lookup
    # ------------------------------------------------------------------

    def index_of(self, block: int) -> int:
        """The set index of ``block``."""
        mask = self._set_mask
        if mask is not None:
            return block & mask
        return block % self.num_sets

    def lookup(self, block: int) -> Optional[CacheLine]:
        """The line holding ``block``, or None.  Touches LRU."""
        mask = self._set_mask
        s = block & mask if mask is not None else block % self.num_sets
        if self._lru is None:                     # direct-mapped
            if self._tags[s] == block:
                line = self._lines[s]
                if line.state_code:
                    return line
            return None
        base = s * self.associativity
        for slot in range(base, base + self.associativity):
            if self._tags[slot] == block:
                line = self._lines[slot]
                if not line.state_code:
                    return None
                lru = self._lru[s]
                if lru[-1] != slot:               # move to MRU position
                    lru.remove(slot)
                    lru.append(slot)
                return line
        return None

    def peek(self, block: int) -> Optional[CacheLine]:
        """The line holding ``block``, or None -- WITHOUT touching LRU.

        For observers (the coherence sanitizer, invariant checks): a
        peek must never perturb replacement order.
        """
        s = self.index_of(block)
        base = s * self.associativity
        for slot in range(base, base + self.associativity):
            if self._tags[slot] == block:
                line = self._lines[slot]
                if not line.state_code:
                    return None
                return line
        return None

    def contains(self, block: int) -> bool:
        return self.lookup(block) is not None

    def _set_slots(self, s: int):
        """Occupied slots of set ``s`` in LRU order (oldest first)."""
        if self._lru is None:
            return (s,) if self._tags[s] != -1 else ()
        return self._lru[s]

    def iter_lines(self):
        """Yield every resident (non-INVALID) line, sets in index
        order, within a set in LRU order (oldest first)."""
        for s in range(self.num_sets):
            for slot in self._set_slots(s):
                line = self._lines[slot]
                if line.state_code:
                    yield line

    def resident_blocks(self) -> List[int]:
        return [line.block for line in self.iter_lines()]

    # ------------------------------------------------------------------
    # mutation (all mutators fire watchers)
    # ------------------------------------------------------------------

    def install(self, block: int, state, data: Dict[int, Any],
                seq: int = -1) -> Optional[EvictionInfo]:
        """Install ``block``; returns eviction info if a different valid
        block was displaced (the set's LRU victim)."""
        code = _state_code(state)
        s = self.index_of(block)
        evicted = None
        if self._lru is None:                     # direct-mapped
            slot = s
            tag = self._tags[slot]
            if tag != -1 and tag != block:
                victim = self._lines[slot]
                if victim.state_code:
                    evicted = EvictionInfo(
                        victim.block, CACHE_STATES[victim.state_code],
                        dict(victim.data))
        else:
            lru = self._lru[s]
            base = s * self.associativity
            slot = -1
            for cand in range(base, base + self.associativity):
                if self._tags[cand] == block:     # re-install in place
                    slot = cand
                    lru.remove(slot)
                    lru.append(slot)
                    break
            if slot < 0:
                if len(lru) >= self.associativity:
                    slot = lru.pop(0)             # LRU victim
                    victim = self._lines[slot]
                    if victim.state_code:
                        evicted = EvictionInfo(
                            victim.block,
                            CACHE_STATES[victim.state_code],
                            dict(victim.data))
                else:
                    for cand in range(base, base + self.associativity):
                        if self._tags[cand] == -1:
                            slot = cand
                            break
                lru.append(slot)
        self._tags[slot] = block
        line = self._lines[slot]
        if line is None:
            self._lines[slot] = CacheLine(block, code, data, seq)
        else:                                     # reuse the record
            line.block = block
            line.state_code = code
            line.data = dict(data) if data else {}
            line.seq = seq
            line.update_count = 0
            if line.dirty_words:
                line.dirty_words = {}
        self._fire(block)
        if evicted is not None:
            # a spinner parked on the victim must notice it left
            self._fire(evicted.block)
        return evicted

    def invalidate(self, block: int) -> Optional[CacheLine]:
        """Drop ``block`` if present; returns the old line (for
        writeback decisions) or None."""
        s = self.index_of(block)
        base = s * self.associativity
        for slot in range(base, base + self.associativity):
            if self._tags[slot] == block:
                line = self._lines[slot]
                if not line.state_code:
                    return None
                # detach the record: callers keep reading the returned
                # line's fields after the drop
                self._tags[slot] = -1
                self._lines[slot] = None
                if self._lru is not None:
                    self._lru[s].remove(slot)
                self._fire(block)
                return line
        return None

    def write_word(self, block: int, word: int, value: Any) -> bool:
        """Update one word of a cached block (local write or incoming
        update).  Returns False if the block is not cached."""
        line = self.lookup(block)
        if line is None:
            return False
        line.data[word] = value
        self._fire(block)
        return True

    def read_word(self, block: int, word: int) -> Any:
        line = self.lookup(block)
        if line is None:
            raise KeyError(f"block {block} not cached")
        return line.data.get(word, 0)

    # ------------------------------------------------------------------
    # watchers (spin-wait fast path)
    # ------------------------------------------------------------------

    def watch(self, block: int, callback: Callable[[], None]) -> None:
        """Register a one-shot callback fired on the next change to the
        local copy of ``block``."""
        self._watchers.setdefault(block, []).append(callback)

    def _fire(self, block: int) -> None:
        cbs = self._watchers.pop(block, None)
        if cbs:
            for cb in cbs:
                cb()

    # ------------------------------------------------------------------
    # snapshot / restore (O(lines) array + payload copies)
    # ------------------------------------------------------------------

    def snapshot_state(self):
        lines = []
        for slot in range(self.num_lines):
            line = self._lines[slot] if self._tags[slot] != -1 else None
            if line is None:
                lines.append(None)
            else:
                lines.append((line.block, line.state_code,
                              dict(line.data), line.seq,
                              line.update_count,
                              dict(line.dirty_words)))
        lru = (None if self._lru is None
               else [list(order) for order in self._lru])
        watchers = {b: list(cbs) for b, cbs in self._watchers.items()}
        return self._tags[:], lines, lru, watchers

    def restore_state(self, snap) -> None:
        tags, lines, lru, watchers = snap
        self._tags[:] = tags
        for slot, rec in enumerate(lines):
            if rec is None:
                self._lines[slot] = None
                continue
            line = self._lines[slot]
            if line is None:
                line = self._lines[slot] = CacheLine(rec[0], rec[1])
            line.block = rec[0]
            line.state_code = rec[1]
            line.data = dict(rec[2])
            line.seq = rec[3]
            line.update_count = rec[4]
            line.dirty_words = dict(rec[5])
        if lru is not None:
            self._lru = [list(order) for order in lru]
        self._watchers = {b: list(cbs) for b, cbs in watchers.items()}
