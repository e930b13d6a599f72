"""Shared-memory layout control (subsystem S13).

The paper maps shared data "to the processors that use them most
frequently".  Block-level interleaving assigns block ``b`` to home
``b % P``; this allocator hands out addresses whose block numbers encode
the requested home, giving workloads precise placement control (MCS
queue nodes at their owner's node, dissemination flags at the spinning
processor, reduction slots at their writer, ...).

Placement also controls *block sharing*: by default every allocation
starts a fresh cache block (no accidental false sharing between
unrelated variables); ``pack=True`` co-locates an allocation into the
home's currently open packed block, which the layout-ablation benchmark
uses to measure the cost of careless layout.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional, Set, Tuple

from repro.config import NO_HYBRID_MESI, MachineConfig, Protocol


@dataclass
class SharedAlloc:
    """One named allocation (for debugging and tests)."""

    label: str
    addr: int
    nbytes: int
    home: int


class MemoryMap:
    """Home-aware shared-memory allocator."""

    def __init__(self, config: MachineConfig) -> None:
        self.config = config
        #: next fresh block index (multiplied out per home)
        self._next_block_round = 0
        #: home -> (open packed block base, bytes used)
        self._packed: Dict[int, Tuple[int, int]] = {}
        self.allocations: List[SharedAlloc] = []
        #: initial values to install in home memories before the run
        self.initial_values: Dict[int, int] = {}
        #: block -> managing protocol, for HYBRID machines
        self.block_policy: Dict[int, Protocol] = {}
        self._current_protocol: Optional[Protocol] = None
        #: words used as synchronization objects (lock/barrier state);
        #: the race detector exempts them from the data-race check
        self.sync_words: Set[int] = set()
        #: release words: a store here is a lock handoff and must find
        #: the storing node quiescent (fenced).  Maps word -> optional
        #: predicate over the stored value selecting which stores are
        #: releases (e.g. MCS ``locked`` words release only on 0).
        self.release_words: Dict[int, Optional[Callable[[int], bool]]] = {}

    # ------------------------------------------------------------------
    # synchronization-word registry (checkers)
    # ------------------------------------------------------------------

    def mark_sync(self, addr: int) -> None:
        """Register ``addr``'s word as a synchronization object."""
        self.sync_words.add(self.config.word_of(addr))

    def mark_release(self, addr: int,
                     predicate: Optional[Callable[[int], bool]] = None
                     ) -> None:
        """Register ``addr``'s word as a release (lock-handoff) word.

        ``predicate`` selects which stored values constitute a release;
        ``None`` means every store does.  Implies :meth:`mark_sync`.
        """
        word = self.config.word_of(addr)
        self.sync_words.add(word)
        self.release_words[word] = predicate

    # ------------------------------------------------------------------
    # per-allocation protocol tagging (HYBRID machines)
    # ------------------------------------------------------------------

    @contextlib.contextmanager
    def use_protocol(self, protocol: Protocol) -> Iterator[None]:
        """Tag every block allocated inside the context with
        ``protocol``.  On a :attr:`~repro.config.Protocol.HYBRID`
        machine those blocks are then managed by that protocol::

            with machine.memmap.use_protocol(Protocol.CU):
                lock = MCSLock(machine)      # lock data under CU
            with machine.memmap.use_protocol(Protocol.PU):
                barrier = DisseminationBarrier(machine)

        Nesting is allowed; the innermost tag wins.  On single-protocol
        machines the tags are recorded but have no effect.  A HYBRID
        machine takes no MESI tag (:data:`~repro.config.NO_HYBRID_MESI`).
        """
        if protocol is Protocol.HYBRID:
            raise ValueError("tag allocations with a concrete protocol")
        if protocol is Protocol.MESI and \
                self.config.protocol is Protocol.HYBRID:
            raise ValueError(NO_HYBRID_MESI)
        prev = self._current_protocol
        self._current_protocol = protocol
        try:
            yield
        finally:
            self._current_protocol = prev

    def protocol_of_block(self, block: int) -> Protocol:
        """The protocol managing ``block`` on a HYBRID machine."""
        return self.block_policy.get(block, self.config.hybrid_default)

    # ------------------------------------------------------------------

    def _fresh_block(self, home: int) -> int:
        """Base address of a fresh block homed at ``home``."""
        if not 0 <= home < self.config.num_procs:
            raise ValueError(f"home {home} out of range")
        block = self._next_block_round * self.config.num_procs + home
        self._next_block_round += 1
        if self._current_protocol is not None:
            self.block_policy[block] = self._current_protocol
        return block * self.config.block_size_bytes

    def alloc_block(self, home: int, label: str = "") -> int:
        """A whole fresh cache block homed at ``home``."""
        base = self._fresh_block(home)
        self.allocations.append(
            SharedAlloc(label, base, self.config.block_size_bytes, home))
        return base

    def alloc_word(self, home: int, label: str = "", init: int = 0,
                   pack: bool = False) -> int:
        """One word homed at ``home``.

        With ``pack=False`` (default) the word gets a block of its own;
        with ``pack=True`` it shares the home's open packed block.
        """
        cfg = self.config
        if pack:
            base, used = self._packed.get(home, (None, cfg.block_size_bytes))
            if base is None or used + cfg.word_size_bytes > cfg.block_size_bytes:
                base, used = self._fresh_block(home), 0
            addr = base + used
            self._packed[home] = (base, used + cfg.word_size_bytes)
        else:
            addr = self._fresh_block(home)
        self.allocations.append(
            SharedAlloc(label, addr, cfg.word_size_bytes, home))
        if init:
            self.initial_values[cfg.word_of(addr)] = init
        return addr

    def alloc_words(self, home: int, n: int, label: str = "",
                    init: int = 0) -> List[int]:
        """``n`` words homed at ``home``, packed together into as few
        blocks as possible (contiguous addresses within each block)."""
        cfg = self.config
        per_block = cfg.words_per_block
        out: List[int] = []
        for start in range(0, n, per_block):
            base = self._fresh_block(home)
            count = min(per_block, n - start)
            for i in range(count):
                addr = base + i * cfg.word_size_bytes
                out.append(addr)
                if init:
                    self.initial_values[addr] = init
            self.allocations.append(
                SharedAlloc(f"{label}[{start}:{start + count}]", base,
                            count * cfg.word_size_bytes, home))
        return out

    def alloc_struct(self, home: int, fields: List[str], label: str = "",
                     pad_to_block: bool = True) -> Dict[str, int]:
        """A small record (<= one block) homed at ``home``.

        Returns field name -> word address.  ``pad_to_block`` keeps the
        record alone in its block (the usual padding discipline for
        per-processor synchronization records such as MCS queue nodes).
        """
        cfg = self.config
        if len(fields) > cfg.words_per_block:
            raise ValueError(
                f"struct {label!r} with {len(fields)} fields does not fit "
                f"in one {cfg.block_size_bytes}-byte block")
        base = self._fresh_block(home) if pad_to_block else \
            self.alloc_word(home, pack=True)
        out = {}
        for i, name in enumerate(fields):
            out[name] = base + i * cfg.word_size_bytes
        self.allocations.append(
            SharedAlloc(label, base, len(fields) * cfg.word_size_bytes,
                        home))
        return out

    def alloc_region(self, nbytes: int, label: str = "") -> int:
        """A contiguous region spanning whole blocks.

        Consecutive blocks interleave across the machine's homes in
        block-number order -- exactly the paper's "shared data are
        interleaved across the memories at the block level" default.
        Used for plain shared arrays such as the sequential reduction's
        ``local_max[0..P-1]``.
        """
        cfg = self.config
        nblocks = (nbytes + cfg.block_size_bytes - 1) // cfg.block_size_bytes
        if nblocks < 1:
            raise ValueError("region must span at least one block")
        # start on a fresh interleave round so homes run 0,1,2,... P-1
        first_block = self._next_block_round * cfg.num_procs
        self._next_block_round += (
            (nblocks + cfg.num_procs - 1) // cfg.num_procs)
        if self._current_protocol is not None:
            for b in range(first_block, first_block + nblocks):
                self.block_policy[b] = self._current_protocol
        base = first_block * cfg.block_size_bytes
        self.allocations.append(
            SharedAlloc(label, base, nblocks * cfg.block_size_bytes,
                        first_block % cfg.num_procs))
        return base

    # ------------------------------------------------------------------

    def set_initial(self, addr: int, value: int) -> None:
        """Set a pre-run initial value (installed directly in memory)."""
        self.initial_values[self.config.word_of(addr)] = value

    def home_of(self, addr: int) -> int:
        return self.config.home_of_block(self.config.block_of(addr))

    def find(self, label: str) -> Optional[SharedAlloc]:
        for alloc in self.allocations:
            if alloc.label == label:
                return alloc
        return None
