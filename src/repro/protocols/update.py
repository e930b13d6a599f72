"""Update-based protocols: pure update (PU) and competitive update (CU).

PU (paper section 3.1): a processor writes through its cache to the home
node.  The home applies the write to memory and sends update messages to
the other processors sharing the block, plus a message to the writer
with the number of acknowledgements to expect; sharers update their
caches and ack *to the writer*.  The writer only stalls waiting for acks
at release points (release consistency).

PU optimizations implemented:

1. **retain-private**: when the home receives an update for a block
   cached only by the updating processor, the writer is told to retain
   future updates locally (the block is effectively private; the cache
   line moves to RETAINED and writes stop generating traffic until a
   remote read recalls the block);
2. **fork flush**: the runtime flushes the parent processor's cache when
   a parallel process is created (see
   :meth:`repro.runtime.machine.Machine.spawn`).

CU adds a per-cached-block counter of updates received since the last
local reference; when it reaches the threshold (4 in the paper) the node
self-invalidates the block and sends a DROP_NOTICE asking the home to
stop sending updates.  Local references reset the counter.

Atomic instructions execute *at the home memory*: the requester sends an
ATOMIC_REQ, the home performs the operation, replies with the result,
and propagates the new value to all sharers (whose acks are collected by
the requester under release consistency).

Hot-path convention: as in :mod:`repro.protocols.wi`, cache/directory
states are plain int codes (``STATE_*`` / ``DIR_*``) and the sharer
bitmap is manipulated with integer bit ops.
"""

from __future__ import annotations

from typing import Any, Callable, Dict

from repro.isa.ops import apply_atomic, merge_word
from repro.memsys.cache import (
    STATE_RETAINED, STATE_VALID, CacheLine, CacheState, EvictReason,
)
from repro.memsys.directory import (
    DIR_DIRTY, DIR_SHARED, DIR_UNOWNED, mask_nodes,
)
from repro.network.messages import Message, MsgType
from repro.protocols.base import NodeCtrl


class PUNodeCtrl(NodeCtrl):
    """Per-node controller for the pure-update protocol."""

    HANDLERS = {
        # home side
        MsgType.READ_REQ: "_home_read",
        MsgType.UPDATE: "_home_update",
        MsgType.ATOMIC_REQ: "_home_atomic",
        MsgType.RECALL_REPLY: "_home_recall_reply",
        MsgType.WRITEBACK: "_home_writeback",
        MsgType.DROP_NOTICE: "_home_drop_notice",
        MsgType.FWD_NACK: "on_fwd_nack",
        # cache side
        MsgType.READ_REPLY: "_cache_read_reply",
        MsgType.UPD_PROP: "_cache_upd_prop",
        MsgType.UPD_ACK: "_cache_upd_ack",
        MsgType.WRITER_ACK: "_cache_writer_ack",
        MsgType.RECALL: "_cache_recall",
        MsgType.ATOMIC_REPLY: "_cache_atomic_reply",
    }

    # the home holds a request open only to recall the retained copy; a
    # retiring write beside a V copy is a write-through, or an R hit
    # whose _retire_done a recall beat; beside none, also a fill
    SPEC_STATES = (
        dict.fromkeys((MsgType.READ_REQ, MsgType.UPDATE,
                       MsgType.ATOMIC_REQ), "D_R"),
        {STATE_VALID: ("AV_W", ("VW_A", "V")),
         STATE_RETAINED: ("AR_W", None)},
        (("IV_D",), ("IV_W", "IW_A", "I"), ("AI_W",)))

    # ==================================================================
    # cache side: write retirement (write-through with one transaction
    # in flight, which also gives per-processor write ordering)
    # ==================================================================

    def _retire(self, pw) -> None:
        line = self.cache.lookup(pw.block)
        if line is None:
            # write-allocate: fetch the block, then write through.  This
            # is what makes MCS competitors end up caching each other's
            # queue nodes (the sharing pathology of section 4.1).
            self.miss_cls.record_miss(self.node, pw.block, pw.word)
            self._send(MsgType.READ_REQ, self.home_of(pw.block), pw.block,
                       requester=self.node, write_id=pw.write_id)
            return  # resumes in _cache_read_reply with the write_id echoed
        if self._store_local >> line.state_code & 1:
            # effectively private: keep the write local
            merged = merge_word(line.data.get(pw.word, 0), pw.value,
                                pw.mask)
            if self.san is not None:
                self.san.record_value(pw.word, merged)
            self.cache.write_word(pw.block, pw.word, merged)
            line.dirty_words[pw.word] = merged
            self.miss_cls.record_write(pw.block, pw.word, self.node)
            self.sim.schedule(1, self._retire_done)
            return
        self._write_through(line, pw)

    def _write_through(self, line: CacheLine, pw) -> None:
        """Apply the head store to our own copy at once and send it to
        the home; the write completes on WRITER_ACK."""
        merged = merge_word(line.data.get(pw.word, 0), pw.value, pw.mask)
        if self.san is not None:
            self.san.record_value(pw.word, merged)
        self.cache.write_word(pw.block, pw.word, merged)
        self._send(MsgType.UPDATE, self.home_of(pw.block), pw.block,
                   word=pw.word, value=pw.value, mask=pw.mask,
                   write_id=pw.write_id)

    def _cache_writer_ack(self, msg: Message) -> None:
        head = self.wb.head()
        if head is None or head.write_id != msg.write_id:
            raise RuntimeError(
                f"node {self.node}: WRITER_ACK for write "
                f"{msg.write_id} does not match retiring write {head}")
        self.outstanding_acks += msg.nacks
        if msg.retain:
            line = self.cache.lookup(msg.block)
            if line is not None:
                line.state_code = STATE_RETAINED
                if self.san is not None:
                    self.san.on_exclusive(self.node, msg.block)
            else:
                # we lost the copy before the grant arrived: cancel it
                self._send(MsgType.DROP_NOTICE, self.home_of(msg.block),
                           msg.block)
        self._retire_done()

    def _cache_upd_ack(self, msg: Message) -> None:
        self._ack_collected()

    # ==================================================================
    # cache side: incoming updates
    # ==================================================================

    def _cache_upd_prop(self, msg: Message) -> None:
        line = self.cache.lookup(msg.block)
        if line is None:
            # raced with our drop/flush/eviction; still ack the writer
            self.upd_cls.record_stale_update(self.node, msg.block)
            self._send(MsgType.UPD_ACK, msg.requester, msg.block)
            return
        if self._drop_check(line, msg):
            self._send(MsgType.UPD_ACK, msg.requester, msg.block)
            return
        if self.san is not None:
            self.san.check_update(self.node, msg.block, msg.word,
                                  msg.value)
        # Merge under the writer's mask rather than overwriting: the
        # propagated value is the home's merge at *serialization* time,
        # so bytes outside the mask may predate a store this node has
        # already applied locally (and not yet written through).  A
        # full-word overwrite here loses that store if the copy is
        # later retained as the dirty owner.
        merged = merge_word(line.data.get(msg.word, 0), msg.value,
                            msg.mask)
        merged = self._shadow_pending_stores(msg, merged)
        self.cache.write_word(msg.block, msg.word, merged)
        self.upd_cls.record_update(self.node, msg.block, msg.word)
        self._send(MsgType.UPD_ACK, msg.requester, msg.block)

    def _shadow_pending_stores(self, msg: Message, merged: int) -> int:
        """Store-buffer shadowing: a write of ours still queued (or
        awaiting WRITER_ACK) serializes after this update -- its ack
        would have preceded the UPD_PROP on the home->us channel
        otherwise -- so re-apply it on top lest the incoming value
        roll the word back to the older serialization."""
        for pw in self.wb.writes_to(msg.word):
            merged = merge_word(merged, pw.value, pw.mask)
        return merged

    def _drop_check(self, line: CacheLine, msg: Message) -> bool:
        """Competitive-update hook; pure update never drops."""
        return False

    # ==================================================================
    # cache side: read fills / recalls
    # ==================================================================

    def _cache_read_reply(self, msg: Message) -> None:
        if msg.write_id is not None:
            # write-allocate fill: install, then write through
            pw = self.wb.head()
            if pw is None or pw.write_id != msg.write_id:
                raise RuntimeError(
                    f"node {self.node}: allocate fill for write "
                    f"{msg.write_id} does not match retiring write {pw}")
            evicted = self.cache.install(msg.block, STATE_VALID,
                                         msg.data or {}, msg.seq)
            if evicted is not None:
                self._evict(evicted.block, evicted.state, evicted.data,
                            EvictReason.REPLACEMENT)
            self._write_through(self.cache.lookup(pw.block), pw)
            return
        self._complete_fill(msg, STATE_VALID)

    def _cache_recall(self, msg: Message) -> None:
        """Home needs our retained (dirty) copy back."""
        line = self.cache.lookup(msg.block)
        if line is not None:
            data = dict(line.data)
            line.state_code = STATE_VALID
            line.dirty_words.clear()
            self._send(MsgType.RECALL_REPLY, msg.src, msg.block, data=data)
        else:
            # evicted: our WRITEBACK has already reached the home (FIFO)
            self._send(MsgType.FWD_NACK, msg.src, msg.block)

    # ==================================================================
    # cache side: atomics (performed at the home memory)
    # ==================================================================

    def _start_atomic(self, opname: str, block: int, word: int,
                      operand: Any, cb: Callable[[Any], None]) -> None:
        # a memory-side atomic is a shared reference, but it does NOT
        # consult the local cached copy: it neither makes previously
        # received updates useful nor counts as the kind of reference
        # that justifies keeping the block up to date
        self.miss_cls.record_reference(self.node, block, word)
        self._pending_atomic = {
            "opname": opname, "block": block, "word": word, "cb": cb,
        }
        self._send(MsgType.ATOMIC_REQ, self.home_of(block), block,
                   requester=self.node, word=word, op=opname,
                   operand=operand)

    def _cache_atomic_reply(self, msg: Message) -> None:
        pa = self._pending_atomic
        if pa is None or pa["block"] != msg.block:
            raise RuntimeError(
                f"node {self.node}: unexpected ATOMIC_REPLY for "
                f"blk {msg.block}")
        self._pending_atomic = None
        line = self.cache.lookup(msg.block)
        if line is not None:
            # our own copy gets the new value with the reply
            self.cache.write_word(msg.block, msg.word, msg.value)
            line.update_count = 0
        self.outstanding_acks += msg.nacks
        self.sim.schedule(1, pa["cb"], msg.result)

    # ==================================================================
    # cache side: evictions
    # ==================================================================

    def _evict_protocol(self, block: int, state: CacheState,
                        data: Dict[int, Any]) -> None:
        if self._evict_wb >> state.code & 1:
            self._send(MsgType.WRITEBACK, self.home_of(block), block,
                       data=dict(data))
        else:
            # stop receiving updates for a block we no longer hold
            self._send(MsgType.DROP_NOTICE, self.home_of(block), block)

    # ==================================================================
    # home side
    # ==================================================================

    def _home_read(self, msg: Message) -> None:
        self._begin_txn(msg, self._read_txn)

    def _read_txn(self, msg: Message) -> None:
        ent = self.directory.entry(msg.block)
        if ent.dstate == DIR_DIRTY:
            self._send(MsgType.RECALL, ent.owner, msg.block)
            return  # resumes on RECALL_REPLY (or FWD_NACK retry)
        seq = ent.next_seq()
        t = self.mem.reserve(self.mem.block_access_cycles())

        def finish() -> None:
            data = self.mem.read_block(msg.block)
            self._send(MsgType.READ_REPLY, msg.requester, msg.block,
                       data=data, seq=seq, write_id=msg.write_id)
            ent.dstate = DIR_SHARED
            ent.sharer_mask |= 1 << msg.requester
            self._end_txn(msg.block)

        self.sim.at(t, finish)

    def _home_update(self, msg: Message) -> None:
        self._begin_txn(msg, self._update_txn)

    def _update_txn(self, msg: Message) -> None:
        ent = self.directory.entry(msg.block)
        if ent.dstate == DIR_DIRTY:
            if ent.owner == msg.src:
                raise RuntimeError(
                    f"home {self.node}: write-through from the retaining "
                    f"owner {msg.src} for blk {msg.block}")
            self._send(MsgType.RECALL, ent.owner, msg.block)
            return
        t = self.mem.reserve(self.mem.word_access_cycles())

        def finish() -> None:
            merged = merge_word(self.mem.read_word(msg.word), msg.value,
                                msg.mask)
            if self.san is not None:
                self.san.record_value(msg.word, merged)
            self.mem.write_word(msg.word, merged)
            self.miss_cls.record_write(msg.block, msg.word, msg.src)
            receivers = mask_nodes(ent.sharer_mask & ~(1 << msg.src))
            if receivers:
                issue_done = self._issue_props(msg.block, msg.word,
                                               merged, msg.src,
                                               receivers,
                                               mask=msg.mask)
                def ack() -> None:
                    self._send(MsgType.WRITER_ACK, msg.src, msg.block,
                               nacks=len(receivers),
                               write_id=msg.write_id)
                    self._end_txn(msg.block)
                self.sim.at(issue_done, ack)
            else:
                retain = (self.config.retain_private
                          and ent.sharer_mask >> msg.src & 1 == 1)
                if retain:
                    ent.dstate = DIR_DIRTY
                    ent.owner = msg.src
                    ent.sharer_mask = 0
                self._send(MsgType.WRITER_ACK, msg.src, msg.block,
                           nacks=0, retain=retain, write_id=msg.write_id)
                self._end_txn(msg.block)

        self.sim.at(t, finish)

    def _home_atomic(self, msg: Message) -> None:
        self._begin_txn(msg, self._atomic_txn)

    def _atomic_txn(self, msg: Message) -> None:
        ent = self.directory.entry(msg.block)
        if ent.dstate == DIR_DIRTY:
            self._send(MsgType.RECALL, ent.owner, msg.block)
            return
        t = self.mem.reserve(self.mem.word_access_cycles())

        def finish() -> None:
            old = self.mem.read_word(msg.word)
            new, result = apply_atomic(msg.op, old, msg.operand)
            if self.san is not None:
                self.san.record_value(msg.word, new)
            self.mem.write_word(msg.word, new)
            self.miss_cls.record_write(msg.block, msg.word, msg.requester)
            receivers = mask_nodes(ent.sharer_mask
                                   & ~(1 << msg.requester))
            # the reply goes out right away; the propagation loop
            # occupies the directory controller afterwards
            self._send(MsgType.ATOMIC_REPLY, msg.requester, msg.block,
                       word=msg.word, value=new, result=result,
                       nacks=len(receivers))
            issue_done = self._issue_props(msg.block, msg.word, new,
                                           msg.requester, receivers)
            self.sim.at(issue_done, self._end_txn, msg.block)

        self.sim.at(t, finish)

    def _issue_props(self, block: int, word: int, value, writer: int,
                     receivers, mask=None) -> int:
        """Issue one update propagation per sharer at the directory
        controller's iteration rate; returns the absolute completion
        time of the issue loop.  ``mask`` is the originating store's
        byte mask (``None`` for full-word stores and atomics): the
        receivers only apply the masked bytes, so a propagation cannot
        clobber a disjoint sub-word store they applied locally after
        this one serialized."""
        c = self.config.prop_issue_cycles
        sched = self.sim.schedule
        for k, s in enumerate(receivers):
            # method + args, no per-receiver closure
            sched(k * c, self._send_prop, s, block, word, value, mask,
                  writer)
        return self.sim.now + len(receivers) * c

    def _send_prop(self, dst: int, block: int, word: int, value,
                   mask, writer: int) -> None:
        self._send(MsgType.UPD_PROP, dst, block, word=word, value=value,
                   mask=mask, requester=writer)

    def _home_recall_reply(self, msg: Message) -> None:
        """The retaining owner flushed its dirty copy back; resume the
        stalled transaction."""
        ent = self.directory.entry(msg.block)
        t = self.mem.reserve(self.mem.block_access_cycles())
        block = msg.block
        data = msg.data or {}
        src_bit = 1 << msg.src

        def finish() -> None:
            self.mem.write_block(block, data)
            ent.dstate = DIR_SHARED
            ent.owner = -1
            ent.sharer_mask |= src_bit  # the ex-owner stays a sharer
            self._retry_txn(block)

        self.sim.at(t, finish)

    def _home_writeback(self, msg: Message) -> None:
        """Eviction/flush of a retained block; processed immediately so a
        racing recall's retry observes the directory already updated."""
        ent = self.directory.entry(msg.block)
        if ent.dstate == DIR_DIRTY and ent.owner == msg.src:
            ent.dstate = DIR_UNOWNED
            ent.owner = -1
        ent.sharer_mask &= ~(1 << msg.src)
        t = self.mem.reserve(self.mem.block_access_cycles())
        self.sim.at(t, self.mem.write_block, msg.block, msg.data or {})

    def _home_drop_notice(self, msg: Message) -> None:
        """A sharer dropped/flushed its copy (or cancels a retain grant
        that arrived after it lost the line)."""
        ent = self.directory.entry(msg.block)
        ent.sharer_mask &= ~(1 << msg.src)
        if ent.dstate == DIR_DIRTY and ent.owner == msg.src:
            # retain-cancel: memory is current (the owner never wrote
            # locally in RETAINED state)
            ent.dstate = DIR_UNOWNED
            ent.owner = -1
        elif ent.dstate == DIR_SHARED and not ent.sharer_mask:
            ent.dstate = DIR_UNOWNED


class CUNodeCtrl(PUNodeCtrl):
    """Competitive update: PU plus threshold-based self-invalidation."""

    def _drop_check(self, line: CacheLine, msg: Message) -> bool:
        line.update_count += 1
        if line.update_count < self.config.update_threshold:
            return False
        # threshold reached: this update is a *drop* update; the block
        # self-invalidates and the home is told to stop updating us
        self.upd_cls.record_drop_update(self.node, msg.block, msg.word)
        self.miss_cls.record_leave(self.node, msg.block, EvictReason.DROP)
        self.cache.invalidate(msg.block)
        self._send(MsgType.DROP_NOTICE, self.home_of(msg.block), msg.block)
        return True
