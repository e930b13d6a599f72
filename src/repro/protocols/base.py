"""Shared machinery of the per-node coherence controllers.

A :class:`NodeCtrl` plays two roles:

* **cache side** -- services its processor's reads/writes/atomics,
  drains the write buffer (one write transaction in flight, which also
  provides the per-processor write-ordering the queue-based locks rely
  on), tracks outstanding acks for release consistency, and reacts to
  incoming invalidations/updates/forward requests;
* **home side** -- owns the directory entries and the memory module for
  the blocks homed at this node, and serializes transactions per block.

Protocol subclasses implement the message handlers and the write-retire
transaction; everything protocol-independent (reference bookkeeping,
fences, flushes, eviction plumbing, the writeback-race continuation
mechanism) lives here.

Ordering note: the network fabric delivers messages to a given node in
global send order (a FIFO-NIC assumption, see
:mod:`repro.network.fabric`).  Together with home-side per-block
serialization this rules out stale-invalidation and fill/invalidate
races; the sequence-number guards on installs are kept as defensive
checks and to allow swapping in a non-FIFO fabric.
"""

from __future__ import annotations

from functools import partial
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Tuple

from repro.engine import ControlledSimulator
from repro.isa.ops import merge_word
from repro.memsys import (
    Cache, CacheState, Directory, MemoryModule, WriteBuffer,
)
from repro.memsys.cache import CACHE_STATES, EvictReason
from repro.memsys.directory import DirState
from repro.memsys.writebuffer import PendingWrite
from repro.network.messages import MSG_TYPES, Message, MsgType


class PendingFill:
    """Bookkeeping for the (single) outstanding read miss."""

    __slots__ = ("block", "word", "cb", "inv_seq")

    def __init__(self, block: int, word: int, cb: Callable[[Any], None]):
        self.block = block
        self.word = word
        self.cb = cb
        self.inv_seq: Optional[int] = None


class HandlerTableError(RuntimeError):
    """A controller's HANDLERS table does not fit its protocol spec (a
    routed message without a handler, a handler for a message the spec
    never routes, or an entry naming a method the class lacks) --
    raised at construction, not as a dispatch error mid-simulation."""


def _validate_handler_table(cls, spec) -> None:
    """Fail fast: every MsgType the protocol's declarative spec lists
    as receivable must have a HANDLERS entry on this class, the class
    must not claim to handle messages the spec never routes to a node
    (the spec is the single source of truth for dispatch), and every
    entry must name a method the class defines."""
    receivable = spec.receivable()
    missing = sorted(m.name for m in receivable
                     if m not in cls.HANDLERS)
    if missing:
        details = []
        for name in missing:
            sides = [s.name for s in spec.sides
                     if name in s.message_events()]
            details.append(f"{name} ({'/'.join(sides)} side)")
        raise HandlerTableError(
            f"{cls.__name__} cannot run protocol "
            f"{spec.protocol!r}: no HANDLERS entry for "
            f"{', '.join(details)}; every message the {spec.protocol} "
            f"spec routes to a node needs a handler before the "
            f"simulation starts")
    extra = sorted(m.name for m in cls.HANDLERS if m not in receivable)
    if extra:
        raise HandlerTableError(
            f"{cls.__name__} handles {', '.join(extra)} but the "
            f"{spec.protocol!r} spec never routes "
            f"{'them' if len(extra) > 1 else 'it'} to a node; either "
            f"the spec table is missing receive rows or the handler "
            f"entry is dead")
    unbound = sorted(f"{m.name} -> {name}"
                     for m, name in cls.HANDLERS.items()
                     if not callable(getattr(cls, name, None)))
    if unbound:
        raise HandlerTableError(
            f"{cls.__name__}'s HANDLERS names methods the class does "
            f"not define: {', '.join(unbound)}")


#: (controller class, protocol) -> dense handler-name tuple indexed by
#: ``MsgType.index``, validated and compiled once per process
_DISPATCH_TABLES: Dict[tuple, Tuple[Optional[str], ...]] = {}


def compile_dispatch(cls, protocol) -> Tuple[Optional[str], ...]:
    """Compile the per-class dispatch table from the protocol's
    declarative spec: exactly the message types
    :meth:`~repro.protospec.model.ProtocolSpec.receivable` lists get a
    handler-name slot (``MsgType.index``-indexed); everything else is
    ``None`` and fails loudly at :meth:`NodeCtrl.receive`.  The first
    call for a (class, protocol) pair validates the class's HANDLERS
    against the spec (:class:`HandlerTableError`)."""
    key = (cls, protocol)
    table = _DISPATCH_TABLES.get(key)
    if table is None:
        from repro.protospec import get_spec
        spec = get_spec(protocol)
        _validate_handler_table(cls, spec)
        names: List[Optional[str]] = [None] * len(MSG_TYPES)
        for mtype in spec.receivable():
            names[mtype.index] = cls.HANDLERS[mtype]
        table = _DISPATCH_TABLES[key] = tuple(names)
    return table


class LineSets(NamedTuple):
    """The line states each handler branch applies in, read from a
    protocol's cache-side rows whose state names a line state, as
    bitmasks over ``CACHE_STATES`` codes (``1 << code``); and whether
    the home grants an unowned read clean-exclusive."""

    read_hit: int       # (s, local:read) sends nothing
    store_local: int    # (s, local:store) sends nothing
    atomic_local: int   # (s, local:atomic) sends nothing
    serves_fwd: int     # (s, FETCH_FWD) sends OWNER_DATA
    evict_wb: int       # (s, local:evict) sends WRITEBACK
    grants_e: bool      # (U, READ_REQ) sends EXCL_REPLY

    @classmethod
    def from_spec(cls, spec) -> "LineSets":
        codes = {s.value: s.code for s in CACHE_STATES}

        def mask(event: str, sends: str = "") -> int:
            # the line states whose row sends ``sends`` ("": nothing)
            return sum({1 << codes[r.state] for r in spec.cache.rows
                        if r.event == event and r.state in codes and (
                            f"send:{sends}" in r.actions if sends else
                            not any(a[:5] == "send:" for a in r.actions))})

        serves_fwd = mask("FETCH_FWD", "OWNER_DATA")
        if serves_fwd != mask("FETCH_INV_FWD", "OWNER_DATA_EX"):
            from repro.protospec import SpecError
            raise SpecError(
                f"{spec.protocol}: the line states that serve FETCH_FWD "
                f"and FETCH_INV_FWD differ")
        return cls(
            mask("local:read"), mask("local:store"), mask("local:atomic"),
            serves_fwd, mask("local:evict", "WRITEBACK"),
            any(r.state == DirState.UNOWNED.value and r.event == "READ_REQ"
                and "send:EXCL_REPLY" in r.actions for r in spec.home.rows))


#: protocol value -> its compiled LineSets, once per process
_LINE_SETS: Dict[str, LineSets] = {}


def compile_line_sets(protocol) -> LineSets:
    """The :class:`LineSets` of a protocol (a
    :class:`~repro.config.Protocol` member or its value), compiled from
    its declarative spec on first use."""
    key = getattr(protocol, "value", protocol)
    if key not in _LINE_SETS:
        from repro.protospec import get_spec
        _LINE_SETS[key] = LineSets.from_spec(get_spec(key))
    return _LINE_SETS[key]


class NodeCtrl:
    """Base class for WI / PU / CU node controllers."""

    def __init__(self, machine, node: int) -> None:
        self.machine = machine
        self.sim = machine.sim
        self.config = machine.config
        self.node = node
        #: ``_send(mtype, dst, block, **payload)`` posts a message from
        #: this node: ``Network.post`` with ``src`` bound, so a send runs
        #: one Python frame.  It is the controller's only handle on the
        #: network.  Keep a controller at 29 instance attributes or
        #: fewer: on CPython 3.11 a 30th slows every attribute access
        #: on it (``_check_fence`` 45 -> 61 ns)
        self._send = partial(machine.net.post, node)

        cfg = self.config
        self.cache = Cache(cfg.num_cache_lines, cfg.block_size_bytes,
                           cfg.cache_associativity)
        self.wb = WriteBuffer(cfg.write_buffer_entries)
        self.mem = MemoryModule(self.sim, cfg, node)
        self.directory = Directory(node)

        self.miss_cls = machine.miss_classifier
        self.upd_cls = machine.update_classifier
        #: coherence sanitizer, or None when checking is off (cached so
        #: the hot paths pay one attribute test per hook)
        self.san = getattr(machine, "sanitizer", None)

        #: invalidation/update acks not yet collected (release consistency)
        self.outstanding_acks = 0
        self._retiring = False
        self._fence_waiters: List[Callable[[], None]] = []
        self._drain_waiters: List[Callable[[], None]] = []
        self._pending_fill: Optional[PendingFill] = None
        #: outstanding atomic operation (at most one; WB is drained first)
        self._pending_atomic: Optional[dict] = None
        #: home side: in-progress transaction per block, re-dispatched
        #: after a writeback race resolves (FWD_NACK path)
        self._txn: Dict[int, Tuple[Callable[[Message], None], Message]] = {}

        #: the line states each handler branch applies in, compiled
        #: from the protocol's table (bitmasks over state codes)
        (self._read_hit, self._store_local, self._atomic_local,
         self._serves_fwd, self._evict_wb, self._grants_e) = \
            compile_line_sets(cfg.protocol)

        #: address-split scalars hoisted out of the per-access path
        #: (None when the block size is not a power of two)
        self._block_shift = cfg._block_shift
        self._word_mask = cfg._word_mask
        self._num_procs = cfg.num_procs

        self._handlers = self._build_handlers()
        # Direct dispatch: the fabric delivers straight into the handler,
        # skipping receive()'s per-message indirection.  Disabled under
        # the model checker, whose invariants and replay traces identify
        # in-flight messages by the Network._deliver callback.
        direct = not isinstance(self.sim, ControlledSimulator)
        machine.net.register(node, self.receive,
                             self._handlers if direct else None)

    # ------------------------------------------------------------------
    # subclass wiring
    # ------------------------------------------------------------------

    #: MsgType -> unbound method name, defined by subclasses
    HANDLERS: Dict[MsgType, str] = {}

    def _build_handlers(self) -> List[Optional[Callable[[Message], None]]]:
        # a flat list indexed by MsgType.index: the dispatch runs once
        # per delivered message, and list indexing skips the enum hash.
        # The populated slots come from the protocol spec's receivable
        # set, not from HANDLERS directly -- the declarative tables are
        # the source of truth for what a node may be sent.
        names = compile_dispatch(type(self), self.config.protocol)
        return [getattr(self, name) if name is not None else None
                for name in names]

    def receive(self, msg: Message) -> None:
        handler = self._handlers[msg.mtype.index]
        if handler is None:
            # a message the active protocol does not speak is a protocol
            # bug, never a droppable stray: record it for the checker
            # report (when the sanitizer is on) and fail loudly either
            # way -- silent ignores are exactly what the model checker
            # is meant to rule out
            if self.san is not None:
                self.san.report.violation(
                    "sanitizer", "unhandled-message",
                    f"{type(self).__name__} has no handler for "
                    f"{msg.mtype} (src={msg.src})",
                    cycle=self.sim.now, node=self.node, block=msg.block)
            raise RuntimeError(
                f"{type(self).__name__} has no handler for {msg.mtype}")
        handler(msg)

    # ------------------------------------------------------------------
    # helpers
    # ------------------------------------------------------------------

    def home_of(self, block: int) -> int:
        return block % self._num_procs

    def _ref(self, block: int, word: int) -> None:
        """Record a shared reference for both classifiers and reset the
        competitive-update counter."""
        self.miss_cls.record_reference(self.node, block, word)
        self.upd_cls.record_reference(self.node, block, word)
        line = self.cache.lookup(block)
        if line is not None:
            line.update_count = 0

    # ------------------------------------------------------------------
    # processor interface: read
    # ------------------------------------------------------------------

    def local_view(self, block: int, word: int):
        """The locally visible value of ``word``: queued writes composed
        over the cached copy (reads bypass + forward from the write
        buffer).  Returns ``(hit, value)``; ``hit`` is False when
        neither the write buffer nor the cache can supply it.

        For sub-word stores the base value is the newest queued
        full-word write, else the cached word (if the block still lacks
        a local base, uninitialized-memory zero is assumed -- exact for
        programs that do not read words they partially wrote before the
        store retires, which holds for all shipped workloads).
        """
        pending = self.wb.writes_to(word)
        base = None
        start = 0
        for i in range(len(pending) - 1, -1, -1):
            if pending[i].mask is None:
                base = pending[i].value
                start = i + 1
                break
        if base is None:
            line = self.cache.lookup(block)
            if line is not None and \
                    self._read_hit >> line.state_code & 1:
                base = line.data.get(word, 0)
            elif not pending:
                return False, None
            else:
                base = 0
        value = base
        for w in pending[start:]:
            value = merge_word(value, w.value, w.mask)
        return True, value

    def read(self, addr: int, cb: Callable[[Any], None]) -> None:
        shift = self._block_shift
        if shift is not None:
            block = addr >> shift
            word = addr & self._word_mask
        else:
            cfg = self.config
            word = cfg.word_of(addr)
            block = cfg.block_of(addr)
        # fused fast path: one cache probe serves both the classifier
        # bookkeeping (_ref) and the hit test.  Equivalent to
        # _ref + local_view because with no buffered write to ``word``
        # the locally visible value *is* the cached word.
        self.miss_cls.record_reference(self.node, block, word)
        self.upd_cls.record_reference(self.node, block, word)
        line = self.cache.lookup(block)
        if line is not None:
            line.update_count = 0
            if (self._read_hit >> line.state_code & 1
                    and not self.wb.writes_to(word)):
                value = line.data.get(word, 0)
                if self.san is not None:
                    # nothing of ours is buffered: the value read is a
                    # coherent copy and must come from the golden history
                    self.san.check_read(self.node, block, word, value,
                                        state=line.state.value)
                self.sim.schedule(1, cb, value)
                return

        hit, value = self.local_view(block, word)
        if hit:
            if self.san is not None and not self.wb.writes_to(word):
                ln = self.cache.peek(block)
                self.san.check_read(
                    self.node, block, word, value,
                    state=ln.state.value if ln is not None else "")
            self.sim.schedule(1, cb, value)
            return

        if self._pending_fill is not None:
            raise RuntimeError(
                f"node {self.node}: second outstanding read (blocking "
                f"processor invariant violated)")
        self.miss_cls.record_miss(self.node, block, word)
        self._pending_fill = PendingFill(block, word, cb)
        self._send(MsgType.READ_REQ, self.home_of(block), block,
                   requester=self.node)

    def _complete_fill(self, msg: Message, state) -> None:
        """Install a fill and resume the stalled read.  ``state`` is an
        int state code (enum members also accepted)."""
        if type(state) is not int:
            state = state.code
        pend = self._pending_fill
        if pend is None or pend.block != msg.block:
            raise RuntimeError(
                f"node {self.node}: unexpected fill for blk {msg.block}")
        self._pending_fill = None
        data = msg.data or {}
        if self.san is not None:
            self.san.check_read(self.node, msg.block, pend.word,
                                data.get(pend.word, 0),
                                state=CACHE_STATES[state].value)
        evicted = self.cache.install(msg.block, state, data, msg.seq)
        if evicted is not None:
            self._evict(evicted.block, evicted.state, evicted.data,
                        EvictReason.REPLACEMENT)
        value = data.get(pend.word, 0)
        # compose any still-buffered own stores over the fill
        for w in self.wb.writes_to(pend.word):
            value = merge_word(value, w.value, w.mask)
        # re-register the missing reference now that the write that
        # invalidated us has certainly been logged (true/false sharing
        # resolution); does not inflate the reference count
        self.miss_cls.record_reference(self.node, msg.block, pend.word,
                                       count=False)
        self.upd_cls.record_reference(self.node, msg.block, pend.word)
        if pend.inv_seq is not None and pend.inv_seq >= msg.seq:
            # an invalidation overtook the fill: consume the value once,
            # then drop the block
            if self.san is not None:
                self.san.event(
                    "inv-overtook-fill",
                    f"invalidation (seq {pend.inv_seq}) arrived before "
                    f"the fill (seq {msg.seq}); value consumed once, "
                    f"block dropped", node=self.node, block=msg.block)
            self.cache.invalidate(msg.block)
        pend.cb(value)

    # ------------------------------------------------------------------
    # processor interface: write
    # ------------------------------------------------------------------

    def write(self, addr: int, value: Any, cb: Callable[[Any], None],
              mask: Optional[int] = None) -> None:
        cfg = self.config
        word = cfg.word_of(addr)
        block = cfg.block_of(addr)
        self._ref(block, word)
        if self.san is not None:
            self.san.check_release_store(self, word, value)
        pw = PendingWrite(addr, word, block, value, mask)
        if self.wb.full:
            self.wb.on_space(lambda: self._enqueue_write(pw, cb))
        else:
            self._enqueue_write(pw, cb)

    def _enqueue_write(self, pw: PendingWrite,
                       cb: Callable[[Any], None]) -> None:
        self.wb.enqueue(pw)
        if self.config.sequential_consistency:
            # SC ablation: the processor stalls until the write has
            # globally performed (buffer drained + all acks collected)
            self._maybe_retire()
            self.fence(lambda: cb(None))
        else:
            self.sim.schedule(1, cb, None)
            self._maybe_retire()

    def _maybe_retire(self) -> None:
        if self._retiring:
            return
        head = self.wb.head()
        if head is None:
            return
        self._retiring = True
        self._retire(head)

    def _retire(self, pw: PendingWrite) -> None:
        raise NotImplementedError

    def _retire_done(self) -> None:
        self.wb.pop()
        self._retiring = False
        self._check_fence()
        if self.wb.empty and self._drain_waiters:
            waiters, self._drain_waiters = self._drain_waiters, []
            for w in waiters:
                w()
        self._maybe_retire()

    # ------------------------------------------------------------------
    # processor interface: fences / drains
    # ------------------------------------------------------------------

    def fence(self, cb: Callable[[], None]) -> None:
        """Release point: write buffer drained + all acks collected."""
        if self.san is not None:
            # re-verify completion at fire time, independently of
            # _fence_ok (catches a broken fence implementation)
            cb = self.san.wrap_fence(self, cb)
        if self._fence_ok():
            self.sim.schedule(1, cb)
        else:
            self._fence_waiters.append(cb)

    def _fence_ok(self) -> bool:
        return (self.wb.empty and not self._retiring
                and self.outstanding_acks == 0)

    def _check_fence(self) -> None:
        if self._fence_waiters and self._fence_ok():
            waiters, self._fence_waiters = self._fence_waiters, []
            for cb in waiters:
                self.sim.schedule(1, cb)

    def _ack_collected(self, n: int = 1) -> None:
        # May go transiently negative: sharers ack to the writer as soon
        # as they see the invalidation/update, which can beat the home's
        # reply carrying the expected-ack count.  Fences are still safe:
        # they also require the write buffer (and any atomic) to be
        # idle, at which point every expected-ack count has been added.
        self.outstanding_acks -= n
        self._check_fence()

    def _when_drained(self, cb: Callable[[], None]) -> None:
        """Run ``cb`` once the write buffer is empty and no write
        transaction is in flight (atomics force this)."""
        if self.wb.empty and not self._retiring:
            cb()
        else:
            self._drain_waiters.append(cb)

    # ------------------------------------------------------------------
    # processor interface: atomics (protocol-specific execution)
    # ------------------------------------------------------------------

    def atomic(self, opname: str, addr: int, operand: Any,
               cb: Callable[[Any], None]) -> None:
        cfg = self.config
        word = cfg.word_of(addr)
        block = cfg.block_of(addr)
        self._when_drained(
            lambda: self._start_atomic(opname, block, word, operand, cb))

    def _start_atomic(self, opname: str, block: int, word: int,
                      operand: Any, cb: Callable[[Any], None]) -> None:
        raise NotImplementedError

    # ------------------------------------------------------------------
    # processor interface: flushes
    # ------------------------------------------------------------------

    def flush_block(self, addr: int, cb: Callable[[], None]) -> None:
        block = self.config.block_of(addr)
        if block in self.wb.pending_blocks():
            # a write to this block is still buffered; a hardware flush
            # drains it first (the update-conscious MCS lock flushes a
            # queue node immediately after writing to it)
            self._when_drained(lambda: self.flush_block(addr, cb))
            return
        line = self.cache.lookup(block)
        if line is None:
            self.sim.schedule(1, cb)
            return
        self.cache.invalidate(block)
        self._evict(block, line.state, line.data, EvictReason.FLUSH)
        self.sim.schedule(1, cb)

    def flush_all(self, cb: Callable[[], None]) -> None:
        blocks = self.cache.resident_blocks()
        for block in blocks:
            line = self.cache.lookup(block)
            self.cache.invalidate(block)
            self._evict(block, line.state, line.data, EvictReason.FLUSH)
        self.sim.schedule(max(1, len(blocks)), cb)

    def _evict(self, block: int, state: CacheState, data: Dict[int, Any],
               reason: EvictReason) -> None:
        """Classification + protocol plumbing for a block leaving the
        cache (replacement or flush)."""
        self.miss_cls.record_leave(self.node, block, reason)
        self.upd_cls.record_block_gone(self.node, block)
        self._evict_protocol(block, state, data)

    def _evict_protocol(self, block: int, state: CacheState,
                        data: Dict[int, Any]) -> None:
        raise NotImplementedError

    # ------------------------------------------------------------------
    # home side: transaction plumbing
    # ------------------------------------------------------------------

    def _begin_txn(self, msg: Message,
                   body: Callable[[Message], None]) -> None:
        """Acquire the block's directory entry, remember the transaction
        (for writeback-race re-dispatch) and run its body."""
        def start() -> None:
            self._txn[msg.block] = (body, msg)
            body(msg)
        self.directory.acquire(msg.block, start)

    def _end_txn(self, block: int) -> None:
        self._txn.pop(block, None)
        self.directory.release(block)

    def _retry_txn(self, block: int) -> None:
        """Re-dispatch the in-flight transaction after a writeback race
        resolved (the directory entry is no longer DIRTY)."""
        body, msg = self._txn[block]
        body(msg)

    def on_fwd_nack(self, msg: Message) -> None:
        """A forward/recall raced with the ex-owner's writeback.  By the
        FIFO delivery guarantee the writeback has already been processed,
        so the transaction can simply be retried."""
        self._retry_txn(msg.block)

    #: the spec's transient states, which the runtime holds implicitly:
    #: the home's busy state by open request; line state -> its
    #: transient(s) with an atomic, with a retiring write outstanding;
    #: with no line, those of a fill, a retiring write, an atomic
    SPEC_STATES: tuple = ({}, {}, ((), (), ()))

    def abstract_state(self, side: str, block: int,
                       line_code: Optional[int] = None):
        """The spec state of ``block``'s copy (``side="cache"``) or
        directory entry (``"home"``) here, or the frozenset of the
        candidates the runtime's fields cannot tell apart.
        ``line_code`` stands in for an evicted line's state."""
        busy, with_line, no_line = self._spec_states(block)
        if side == "home":
            txn = self._txn.get(block)
            return (busy[txn[1].mtype] if txn is not None
                    else self.directory.entry(block).state.value)
        if line_code is None:
            line = self.cache.peek(block)
            line_code = line.state_code if line is not None else 0
        pf, pa, head = self._pending_fill, self._pending_atomic, \
            self.wb.head()
        fill, write, atomic = (
            pf is not None and pf.block == block,
            self._retiring and head is not None and head.block == block,
            pa is not None and pa["block"] == block)
        if line_code:
            with_atomic, with_write = with_line.get(line_code, (0, 0))
            states = {with_atomic} if atomic and with_atomic else \
                set(with_write) if write and with_write else \
                {CACHE_STATES[line_code].value}
        else:
            states = set().union(*(names for names, on in zip(
                no_line, (fill, write, atomic)) if on)) or {"I"}
        return states.pop() if len(states) == 1 else frozenset(states)

    def _spec_states(self, block: int) -> tuple:
        return self.SPEC_STATES

    # ------------------------------------------------------------------
    # snapshot / restore
    # ------------------------------------------------------------------

    def snapshot_state(self):
        """O(state) copy of everything this controller mutates during a
        run.  Objects referenced by pending events / closures
        (PendingFill, the atomic record, transaction messages) are
        shared with the snapshot and restored in place, so callbacks
        captured before the snapshot stay valid after a restore."""
        pf = self._pending_fill
        return (
            self.cache.snapshot_state(),
            self.wb.snapshot_state(),
            self.mem.snapshot_state(),
            self.directory.snapshot_state(),
            self.outstanding_acks,
            self._retiring,
            tuple(self._fence_waiters),
            tuple(self._drain_waiters),
            pf,
            pf.inv_seq if pf is not None else None,
            self._pending_atomic,
            dict(self._txn),
        )

    def restore_state(self, snap) -> None:
        (cache_snap, wb_snap, mem_snap, dir_snap, acks, retiring,
         fence_waiters, drain_waiters, pf, inv_seq, pending_atomic,
         txn) = snap
        self.cache.restore_state(cache_snap)
        self.wb.restore_state(wb_snap)
        self.mem.restore_state(mem_snap)
        self.directory.restore_state(dir_snap)
        self.outstanding_acks = acks
        self._retiring = retiring
        self._fence_waiters = list(fence_waiters)
        self._drain_waiters = list(drain_waiters)
        self._pending_fill = pf
        if pf is not None:
            pf.inv_seq = inv_seq
        self._pending_atomic = pending_atomic
        self._txn = dict(txn)

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------

    def quiesced(self) -> bool:
        """True when this node has no buffered or in-flight work."""
        return (self.wb.empty and not self._retiring
                and self.outstanding_acks == 0
                and self._pending_fill is None
                and not self._txn)

    def __repr__(self) -> str:  # pragma: no cover
        return f"<{type(self).__name__} node={self.node}>"
