"""Machine and protocol configuration.

All architectural parameters of the simulated multiprocessor live here.
Defaults reproduce the machine described in section 3.1 of the paper:
a 32-node DASH-like directly-connected multiprocessor with 64-KB
direct-mapped caches, 64-byte blocks, 4-entry write buffers, block-level
memory interleaving, and a bi-directional wormhole-routed mesh.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field, replace
from typing import Dict, Tuple


class Protocol(enum.Enum):
    """Coherence protocol selector.

    WI -- DASH-style write invalidate with release consistency.
    PU -- pure update: write-through to home, home propagates updates to
          sharers, sharers ack to the writer, writer stalls for acks only
          at release points.  Includes the "retain" optimization for
          effectively-private blocks.
    CU -- competitive update: PU plus per-cached-block counters; a node
          self-invalidates a block after ``update_threshold`` consecutive
          un-referenced updates and asks the home to stop sending them.
    HYBRID -- per-block protocol selection (the FLASH/Typhoon scenario
          that motivates the paper): each shared allocation is tagged
          with the protocol that manages its blocks, and the machine
          runs all of them side by side.
    MESI -- write invalidate with a clean-exclusive state: a read miss
          on an unowned block is granted E and upgrades to M silently
          on the first store.  Authored as a stable-state spec only;
          its transient states are synthesized
          (:mod:`repro.protospec.synth`).
    """

    WI = "wi"
    PU = "pu"
    CU = "cu"
    HYBRID = "hybrid"
    MESI = "mesi"

    @property
    def is_update_based(self) -> bool:
        return self in (Protocol.PU, Protocol.CU)

    @property
    def short(self) -> str:
        """One-letter label used in the paper's bar charts (i / u / c)."""
        return {"wi": "i", "pu": "u", "cu": "c", "hybrid": "h",
                "mesi": "e"}[self.value]

    @classmethod
    def parse(cls, text: str) -> "Protocol":
        t = text.strip().lower()
        aliases = {
            "i": cls.WI, "wi": cls.WI, "inv": cls.WI, "invalidate": cls.WI,
            "u": cls.PU, "pu": cls.PU, "update": cls.PU, "pure-update": cls.PU,
            "c": cls.CU, "cu": cls.CU, "competitive": cls.CU,
            "competitive-update": cls.CU,
            "h": cls.HYBRID, "hy": cls.HYBRID, "hybrid": cls.HYBRID,
            "e": cls.MESI, "mesi": cls.MESI,
        }
        try:
            return aliases[t]
        except KeyError:
            raise ValueError(f"unknown protocol {text!r}") from None


#: Mesh shapes used for each machine size (paper simulates up to 32 nodes;
#: shapes follow the usual convention of keeping the mesh near-square).
MESH_SHAPES: Dict[int, Tuple[int, int]] = {
    1: (1, 1),
    2: (2, 1),
    4: (2, 2),
    8: (4, 2),
    16: (4, 4),
    32: (8, 4),
    64: (8, 8),
}


def mesh_shape(num_nodes: int) -> Tuple[int, int]:
    """Return the (width, height) of the mesh for ``num_nodes`` nodes.

    Sizes from :data:`MESH_SHAPES` are used verbatim; other sizes get the
    most square factorization available.
    """
    if num_nodes in MESH_SHAPES:
        return MESH_SHAPES[num_nodes]
    if num_nodes <= 0:
        raise ValueError("num_nodes must be positive")
    best = (num_nodes, 1)
    for h in range(1, int(math.isqrt(num_nodes)) + 1):
        if num_nodes % h == 0:
            best = (num_nodes // h, h)
    return best


@dataclass(frozen=True)
class MachineConfig:
    """Architectural parameters of the simulated machine.

    The defaults are the paper's (section 3.1).  All times are in
    processor cycles; the network clock equals the processor clock.
    """

    num_procs: int = 32
    protocol: Protocol = Protocol.WI

    # --- cache ---------------------------------------------------------
    cache_size_bytes: int = 64 * 1024
    block_size_bytes: int = 64
    word_size_bytes: int = 4
    #: 1 = direct-mapped (the paper's machine); higher values add LRU
    #: set-associativity (ablation knob)
    cache_associativity: int = 1

    # --- write buffer --------------------------------------------------
    write_buffer_entries: int = 4

    # --- memory --------------------------------------------------------
    #: cycles from request arrival at the home until the first word is
    #: available.
    mem_first_word_cycles: int = 20
    #: additional cycles per subsequent word of a block transfer.
    mem_per_word_cycles: int = 1
    #: occupancy of the memory module for a directory-only operation
    #: (state lookup / update without a data access).
    dir_access_cycles: int = 4
    #: cycles the home's directory controller spends per sharer when
    #: iterating the full-map vector to issue an invalidation or update
    #: propagation (DASH issued invalidations at a similar rate).
    prop_issue_cycles: int = 4

    # --- network -------------------------------------------------------
    #: per-switch delay applied to the header of each message.
    switch_delay_cycles: int = 2
    #: datapath width in bytes (16 bits in the paper).
    flit_bytes: int = 2
    #: size of a control (non-data) message in bytes.
    ctrl_msg_bytes: int = 8
    #: header overhead added to data-carrying messages, in bytes.
    header_bytes: int = 8

    # --- update-based protocols ----------------------------------------
    #: competitive-update self-invalidation threshold
    update_threshold: int = 4
    #: PU optimization 1: a block cached only by its writer stops being
    #: written through (the home grants "retain" and the writer keeps
    #: future updates local until a recall)
    retain_private: bool = True
    #: protocol for untagged allocations on a HYBRID machine
    hybrid_default: Protocol = Protocol.WI
    #: PU optimization 2: flush the forking processor's cache when a
    #: parallel thread is created, eliminating useless updates of data
    #: written by the parent but not needed by the child
    fork_flush: bool = True
    #: consistency-model ablation: when True, every write stalls the
    #: processor until it has globally performed (sequential
    #: consistency) instead of retiring through the write buffer under
    #: release consistency as in the paper
    sequential_consistency: bool = False

    # --- checkers (src/repro/checkers) ---------------------------------
    #: run the coherence sanitizer (SWMR, directory/cache agreement,
    #: golden-value reads, fence/release discipline) during the run
    enable_sanitizer: bool = False
    #: run the happens-before data-race detector during the run
    enable_race_detector: bool = False
    #: raise :class:`repro.checkers.CheckerError` at end of run if any
    #: enabled checker reported violations (otherwise the report is
    #: left on ``machine.checker_report`` for inspection)
    checkers_strict: bool = True

    # --- misc ----------------------------------------------------------
    #: latency of a purely node-local request (cache controller to the
    #: local home, no network traversal).
    local_hop_cycles: int = 2
    #: adversarial-timing injection: each remote message's propagation
    #: is stretched by a deterministic pseudo-random 0..N cycles (seeded
    #: by ``network_jitter_seed``).  Per-destination FIFO delivery is
    #: preserved (it is a property of the receiving NIC), so protocol
    #: correctness must hold for every seed -- the race-hunting knob
    #: used by the property tests.
    network_jitter_cycles: int = 0
    network_jitter_seed: int = 0x5EED

    def __post_init__(self) -> None:
        if self.num_procs < 1:
            raise ValueError("num_procs must be >= 1")
        if self.hybrid_default is Protocol.HYBRID:
            raise ValueError("hybrid_default must be a concrete protocol")
        for name in ("word_size_bytes", "block_size_bytes",
                     "cache_size_bytes"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if self.block_size_bytes % self.word_size_bytes:
            raise ValueError("block size must be a multiple of word size")
        if self.cache_size_bytes % self.block_size_bytes:
            raise ValueError("cache size must be a multiple of block size")
        lines = self.cache_size_bytes // self.block_size_bytes
        if self.cache_associativity < 1 or lines % self.cache_associativity:
            raise ValueError("associativity must divide the line count")
        if self.write_buffer_entries < 1:
            raise ValueError("write buffer needs at least one entry")
        if self.update_threshold < 1:
            raise ValueError("update threshold must be >= 1")
        # precomputed shift/mask for the power-of-two sizes (the only
        # sizes the paper uses); block_of / word_of are on the
        # per-access hot path, where a shift beats a division.  The
        # frozen dataclass forbids normal assignment, and these are not
        # fields, so they stay out of equality / replace / asdict.
        bs, ws = self.block_size_bytes, self.word_size_bytes
        object.__setattr__(self, "_block_shift",
                           bs.bit_length() - 1 if bs & (bs - 1) == 0
                           else None)
        object.__setattr__(self, "_word_mask",
                           ~(ws - 1) if ws & (ws - 1) == 0 else None)

    # -- derived quantities ---------------------------------------------

    @property
    def words_per_block(self) -> int:
        return self.block_size_bytes // self.word_size_bytes

    @property
    def num_cache_lines(self) -> int:
        return self.cache_size_bytes // self.block_size_bytes

    @property
    def mesh(self) -> Tuple[int, int]:
        return mesh_shape(self.num_procs)

    @property
    def data_msg_bytes(self) -> int:
        """Size of a whole-block data message (header + block)."""
        return self.header_bytes + self.block_size_bytes

    @property
    def word_msg_bytes(self) -> int:
        """Size of a single-word update/atomic message (header + word)."""
        return self.header_bytes + self.word_size_bytes

    def block_of(self, addr: int) -> int:
        shift = self._block_shift
        if shift is not None:
            return addr >> shift
        return addr // self.block_size_bytes

    def word_of(self, addr: int) -> int:
        """Word-aligned address of ``addr`` (the classification unit)."""
        mask = self._word_mask
        if mask is not None:
            return addr & mask
        return (addr // self.word_size_bytes) * self.word_size_bytes

    def block_base(self, addr: int) -> int:
        shift = self._block_shift
        if shift is not None:
            return (addr >> shift) << shift
        return (addr // self.block_size_bytes) * self.block_size_bytes

    def home_of_block(self, block: int) -> int:
        """Home node of a block under block-level interleaving.

        Explicit placement (see :mod:`repro.runtime.memory_map`) encodes
        the home directly in the address's block number, so interleaving
        simply takes the block number modulo the machine size.
        """
        return block % self.num_procs

    def with_protocol(self, protocol: Protocol) -> "MachineConfig":
        return replace(self, protocol=protocol)

    def with_procs(self, num_procs: int) -> "MachineConfig":
        return replace(self, num_procs=num_procs)


#: Machine sizes swept in the paper's figures 8, 11 and 14.
PAPER_MACHINE_SIZES = (1, 2, 4, 8, 16, 32)

#: All protocols, in the paper's presentation order.
ALL_PROTOCOLS = (Protocol.WI, Protocol.PU, Protocol.CU)


@dataclass(frozen=True)
class ExperimentScale:
    """Iteration-count scaling for the synthetic workloads.

    The paper's synthetic programs execute 32000 total lock acquisitions,
    5000 barrier episodes and 5000 reductions.  Latency metrics are
    per-iteration averages, so uniformly scaling the counts preserves the
    reported series; the default benchmark scale keeps pure-Python runs
    tractable.
    """

    lock_total_acquires: int = 32000
    barrier_episodes: int = 5000
    reduction_iters: int = 5000

    @classmethod
    def paper(cls) -> "ExperimentScale":
        return cls()

    @classmethod
    def scaled(cls, factor: float) -> "ExperimentScale":
        if factor <= 0:
            raise ValueError("scale factor must be positive")
        base = cls()
        try:
            return cls(
                lock_total_acquires=max(
                    1, int(base.lock_total_acquires * factor)),
                barrier_episodes=max(1, int(base.barrier_episodes * factor)),
                reduction_iters=max(1, int(base.reduction_iters * factor)),
            )
        except OverflowError:
            raise ValueError(f"scale factor {factor!r} overflows the "
                             "iteration counts") from None

    @classmethod
    def quick(cls) -> "ExperimentScale":
        """Tiny scale for tests."""
        return cls(lock_total_acquires=64, barrier_episodes=8,
                   reduction_iters=8)


DEFAULT_BENCH_SCALE = ExperimentScale.scaled(0.02)
