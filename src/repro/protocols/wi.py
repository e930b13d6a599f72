"""Write-invalidate protocol (DASH-style, release consistency).

Transactions, with the home serializing per block:

* **read miss** -- READ_REQ to home; served from memory if clean, or
  forwarded to the dirty owner (FETCH_FWD), who sends the data to the
  requester (OWNER_DATA) and a sharing writeback to the home
  (SHARING_WB), demoting itself to SHARED.
* **write to SHARED block** -- UPGRADE_REQ (the paper's *exclusive
  request* transaction); the home invalidates the other sharers, whose
  acks go directly to the writer (release consistency: the writer only
  waits for them at release/fence points).
* **write miss** -- RDEX_REQ; like a read miss but invalidating; a dirty
  owner transfers ownership to the requester (OWNER_DATA_EX +
  DIRTY_TRANSFER to the home).
* **atomic** -- executed in the cache controller after obtaining an
  exclusive copy via the same transactions (paper section 3.1).
* **M eviction** -- WRITEBACK to home.  S evictions are silent (DASH
  keeps possibly-stale full-map sharer bits; invalidations to
  non-caching nodes are acked harmlessly).

A FETCH/RDEX forward that races with the ex-owner's in-flight writeback
is FWD_NACKed; the FIFO delivery guarantee means the writeback has
already landed at the home by then, so the transaction simply retries
and is served from (now current) memory.

Hot-path convention: cache/directory states are compared and assigned
as plain int codes (``STATE_*`` / ``DIR_*``) and the sharer bitmap is
manipulated with integer bit ops.  The line states a branch applies in
(a read hit, a local store or atomic, serving a forward, writing back
on eviction) and whether an unowned read is granted clean-exclusive
are compiled from the protocol's table
(:func:`~repro.protocols.base.compile_line_sets`), so the same handlers
run MESI (:mod:`repro.protocols.mesi`).  The runtime has no transient
states; :meth:`~repro.protocols.base.NodeCtrl.abstract_state` names the
spec's from ``SPEC_STATES``, and :mod:`repro.staticcheck.refinement`
checks each executed transition against the table.
"""

from __future__ import annotations

from typing import Any, Callable, Dict

from repro.isa.ops import apply_atomic, merge_word
from repro.memsys.cache import (
    STATE_MODIFIED, STATE_SHARED, CacheState, EvictReason,
)
from repro.memsys.directory import (
    DIR_DIRTY, DIR_SHARED, DIR_UNOWNED, mask_nodes,
)
from repro.network.messages import Message, MsgType
from repro.protocols.base import NodeCtrl


class WINodeCtrl(NodeCtrl):
    """Per-node controller for the write-invalidate protocol."""

    HANDLERS = {
        # home side
        MsgType.READ_REQ: "_home_read",
        MsgType.RDEX_REQ: "_home_rdex",
        MsgType.UPGRADE_REQ: "_home_upgrade",
        MsgType.SHARING_WB: "_home_sharing_wb",
        MsgType.DIRTY_TRANSFER: "_home_dirty_transfer",
        MsgType.WRITEBACK: "_home_writeback",
        MsgType.FWD_NACK: "on_fwd_nack",
        # cache side
        MsgType.READ_REPLY: "_cache_fill_shared",
        MsgType.OWNER_DATA: "_cache_fill_shared",
        MsgType.RDEX_REPLY: "_cache_fill_exclusive",
        MsgType.OWNER_DATA_EX: "_cache_fill_exclusive",
        MsgType.UPGRADE_REPLY: "_cache_upgrade_reply",
        MsgType.INV: "_cache_inv",
        MsgType.INV_ACK: "_cache_inv_ack",
        MsgType.FETCH_FWD: "_cache_fetch_fwd",
        MsgType.FETCH_INV_FWD: "_cache_fetch_inv_fwd",
    }

    # a retiring write beside an S copy is an upgrade, or an M hit a
    # forward demoted before _retire_done; beside none, also an RDEX
    SPEC_STATES = (
        {MsgType.READ_REQ: "BUSY_R", MsgType.RDEX_REQ: "BUSY_X",
         MsgType.UPGRADE_REQ: "BUSY_X"},
        {STATE_SHARED: ("SM_AW", ("SM_W", "S"))},
        (("IS_D",), ("IM_D", "I_W", "I"), ("IM_AD", "I_AW")))

    # ==================================================================
    # cache side: write retirement
    # ==================================================================

    def _apply_store(self, line, pw) -> None:
        """Apply a (possibly sub-word) store to an exclusive copy."""
        merged = merge_word(line.data.get(pw.word, 0), pw.value, pw.mask)
        if self.san is not None:
            self.san.record_value(pw.word, merged)
        self.cache.write_word(pw.block, pw.word, merged)
        self.miss_cls.record_write(pw.block, pw.word, self.node)

    def _retire(self, pw) -> None:
        line = self.cache.lookup(pw.block)
        if line is not None and self._store_local >> line.state_code & 1:
            # exclusive: write locally, no traffic (a clean-exclusive
            # copy goes dirty silently: the directory records us as
            # owner already)
            line.state_code = STATE_MODIFIED
            self._apply_store(line, pw)
            self.sim.schedule(1, self._retire_done)
        else:
            self._request_exclusive(line, pw.block, pw.word)

    def _request_exclusive(self, line, block: int, word: int) -> None:
        """Ask the home for an exclusive copy: beside an S copy the
        paper's "exclusive request" transaction, else a write miss."""
        if line is not None and line.state_code == STATE_SHARED:
            self.miss_cls.record_upgrade(self.node, block)
            mtype = MsgType.UPGRADE_REQ
        else:
            self.miss_cls.record_miss(self.node, block, word)
            mtype = MsgType.RDEX_REQ
        self._send(mtype, self.home_of(block), block, requester=self.node,
                   word=word)

    def _cache_upgrade_reply(self, msg: Message) -> None:
        line = self.cache.lookup(msg.block)
        if line is None:
            # conflict-evicted while the upgrade was in flight: the home
            # granted ownership, so fetch the data with a fresh RDEX
            pa = self._pending_atomic
            word = pa["word"] if pa is not None and \
                pa["block"] == msg.block else self.wb.head().word
            self._send(MsgType.RDEX_REQ, self.home_of(msg.block),
                       msg.block, requester=self.node, word=word)
            return
        line.state_code = STATE_MODIFIED
        line.seq = msg.seq
        self._exclusive_granted(msg, line)

    def _cache_fill_exclusive(self, msg: Message) -> None:
        evicted = self.cache.install(msg.block, STATE_MODIFIED,
                                     msg.data or {}, msg.seq)
        if evicted is not None:
            self._evict(evicted.block, evicted.state, evicted.data,
                        EvictReason.REPLACEMENT)
        self._exclusive_granted(msg, self.cache.lookup(msg.block))

    def _exclusive_granted(self, msg: Message, line) -> None:
        """Our copy is M now: run the pending atomic on it, or retire
        the head store into it."""
        if self.san is not None:
            self.san.on_exclusive(self.node, msg.block)
        self.outstanding_acks += msg.nacks
        pa = self._pending_atomic
        if pa is not None and pa["block"] == msg.block:
            self._pending_atomic = None
            self._run_atomic(line, pa["word"], pa["opname"],
                             pa["operand"], pa["cb"])
        else:
            self._apply_store(line, self.wb.head())
            self._retire_done()

    # ==================================================================
    # cache side: read fills
    # ==================================================================

    def _cache_fill_shared(self, msg: Message) -> None:
        self._complete_fill(msg, STATE_SHARED)

    # ==================================================================
    # cache side: atomics (computed in the cache controller)
    # ==================================================================

    def _start_atomic(self, opname: str, block: int, word: int,
                      operand: Any, cb: Callable[[Any], None]) -> None:
        self._ref(block, word)
        line = self.cache.lookup(block)
        if line is not None and self._atomic_local >> line.state_code & 1:
            line.state_code = STATE_MODIFIED     # silent E->M, as above
            self._run_atomic(line, word, opname, operand, cb)
            return
        self._pending_atomic = {
            "opname": opname, "block": block, "word": word,
            "operand": operand, "cb": cb,
        }
        self._request_exclusive(line, block, word)

    def _run_atomic(self, line, word: int, opname: str, operand: Any,
                    cb: Callable[[Any], None]) -> None:
        """Execute an atomic on our exclusive copy ``line`` and resume
        the processor with its result."""
        new, result = apply_atomic(opname, line.data.get(word, 0), operand)
        if self.san is not None:
            self.san.record_value(word, new)
        self.cache.write_word(line.block, word, new)
        self.miss_cls.record_write(line.block, word, self.node)
        self.sim.schedule(1, cb, result)

    # ==================================================================
    # cache side: incoming coherence
    # ==================================================================

    def _cache_inv(self, msg: Message) -> None:
        line = self.cache.lookup(msg.block)
        if line is not None and line.seq <= msg.seq:
            self.upd_cls.record_block_gone(self.node, msg.block)
            self.cache.invalidate(msg.block)
        elif line is not None:
            # install seq newer than the invalidation: the INV targeted
            # a copy we no longer hold (defensive guard, promoted from a
            # silent drop to a sanitizer event)
            if self.san is not None:
                self.san.event(
                    "stale-inv-ignored",
                    f"invalidation (seq {msg.seq}) older than the "
                    f"installed copy (seq {line.seq}); ignored",
                    node=self.node, block=msg.block)
        elif (self._pending_fill is not None
              and self._pending_fill.block == msg.block):
            prev = self._pending_fill.inv_seq
            self._pending_fill.inv_seq = (
                msg.seq if prev is None else max(prev, msg.seq))
        self._send(MsgType.INV_ACK, msg.requester, msg.block)

    def _cache_inv_ack(self, msg: Message) -> None:
        self._ack_collected()

    def _cache_fetch_fwd(self, msg: Message) -> None:
        """Home forwarded a read to us (we own the block)."""
        line = self.cache.lookup(msg.block)
        if line is not None and self._serves_fwd >> line.state_code & 1:
            data = dict(line.data)
            line.state_code = STATE_SHARED
            self._send(MsgType.OWNER_DATA, msg.requester, msg.block,
                       data=data, seq=msg.seq)
            self._send(MsgType.SHARING_WB, msg.src, msg.block,
                       data=data, requester=msg.requester)
        else:
            self._send(MsgType.FWD_NACK, msg.src, msg.block,
                       requester=msg.requester)

    def _cache_fetch_inv_fwd(self, msg: Message) -> None:
        """Home forwarded a write/rdex to us; transfer ownership."""
        line = self.cache.lookup(msg.block)
        if line is not None and self._serves_fwd >> line.state_code & 1:
            data = dict(line.data)
            self.miss_cls.record_leave(self.node, msg.block,
                                       EvictReason.INVALIDATION)
            self.upd_cls.record_block_gone(self.node, msg.block)
            self.cache.invalidate(msg.block)
            self._send(MsgType.OWNER_DATA_EX, msg.requester, msg.block,
                       data=data, seq=msg.seq, nacks=0)
            self._send(MsgType.DIRTY_TRANSFER, msg.src, msg.block,
                       requester=msg.requester)
        else:
            self._send(MsgType.FWD_NACK, msg.src, msg.block,
                       requester=msg.requester)

    # ==================================================================
    # cache side: evictions
    # ==================================================================

    def _evict_protocol(self, block: int, state: CacheState,
                        data: Dict[int, Any]) -> None:
        if self._evict_wb >> state.code & 1:
            # a clean-exclusive copy writes back too: its data is clean,
            # but the write clears the directory's owner record
            self._send(MsgType.WRITEBACK, self.home_of(block), block,
                       data=dict(data))
        # SHARED evictions are silent (DASH full-map keeps stale bits)

    # ==================================================================
    # home side
    # ==================================================================

    def _home_read(self, msg: Message) -> None:
        self._begin_txn(msg, self._read_txn)

    def _read_txn(self, msg: Message) -> None:
        ent = self.directory.entry(msg.block)
        if ent.dstate == DIR_DIRTY:
            self._send(MsgType.FETCH_FWD, ent.owner, msg.block,
                       requester=msg.requester, seq=ent.next_seq())
            return  # completes on SHARING_WB (or retries on FWD_NACK)
        seq = ent.next_seq()
        t = self.mem.reserve(self.mem.block_access_cycles())
        if ent.dstate == DIR_UNOWNED and self._grants_e:
            # MESI: nobody holds a copy (U implies an empty sharer
            # mask), so grant clean-exclusive and record the reader as
            # owner
            def finish_excl() -> None:
                data = self.mem.read_block(msg.block)
                self._send(MsgType.EXCL_REPLY, msg.requester,
                           msg.block, data=data, seq=seq)
                ent.dstate = DIR_DIRTY
                ent.owner = msg.requester
                ent.sharer_mask = 0
                self._end_txn(msg.block)

            self.sim.at(t, finish_excl)
            return

        def finish() -> None:
            data = self.mem.read_block(msg.block)
            self._send(MsgType.READ_REPLY, msg.requester, msg.block,
                       data=data, seq=seq)
            ent.dstate = DIR_SHARED
            ent.sharer_mask |= 1 << msg.requester
            self._end_txn(msg.block)

        self.sim.at(t, finish)

    def _issue_invalidations(self, msg: Message, invs, seq: int) -> int:
        """Issue one invalidation per sharer at the directory
        controller's iteration rate; returns the absolute completion
        time of the issue loop."""
        c = self.config.prop_issue_cycles
        block = msg.block
        req = msg.requester
        sched = self.sim.schedule
        for k, s in enumerate(invs):
            self.miss_cls.record_leave(s, block,
                                       EvictReason.INVALIDATION)
            # method + args, no per-sharer closure
            sched(k * c, self._send_inv, s, block, req, seq)
        return self.sim.now + len(invs) * c

    def _send_inv(self, dst: int, block: int, requester: int,
                  seq: int) -> None:
        self._send(MsgType.INV, dst, block, requester=requester, seq=seq)

    def _home_rdex(self, msg: Message) -> None:
        self._begin_txn(msg, self._rdex_txn)

    def _rdex_txn(self, msg: Message) -> None:
        ent = self.directory.entry(msg.block)
        if ent.dstate == DIR_DIRTY:
            self._send(MsgType.FETCH_INV_FWD, ent.owner, msg.block,
                       requester=msg.requester, seq=ent.next_seq())
            return  # completes on DIRTY_TRANSFER (or retries on NACK)
        seq = ent.next_seq()
        invs = mask_nodes(ent.sharer_mask & ~(1 << msg.requester))
        issue_done = self._issue_invalidations(msg, invs, seq)
        t = self.mem.reserve(self.mem.block_access_cycles())

        def finish() -> None:
            data = self.mem.read_block(msg.block)
            self._send(MsgType.RDEX_REPLY, msg.requester, msg.block,
                       data=data, nacks=len(invs), seq=seq)
            ent.dstate = DIR_DIRTY
            ent.owner = msg.requester
            ent.sharer_mask = 0
            # the entry must not reopen before the DIRTY commit above:
            # a queued read popped against the pre-commit state would
            # hand out a SHARED copy alongside the new owner's M copy
            if issue_done <= t:
                self._end_txn(msg.block)

        self.sim.at(t, finish)
        if issue_done > t:
            self.sim.at(issue_done, self._end_txn, msg.block)

    def _home_upgrade(self, msg: Message) -> None:
        self._begin_txn(msg, self._upgrade_txn)

    def _upgrade_txn(self, msg: Message) -> None:
        ent = self.directory.entry(msg.block)
        if ent.dstate == DIR_SHARED and \
                ent.sharer_mask >> msg.requester & 1:
            seq = ent.next_seq()
            invs = mask_nodes(ent.sharer_mask & ~(1 << msg.requester))
            issue_done = self._issue_invalidations(msg, invs, seq)
            t = self.mem.reserve(self.mem.dir_cycles())

            def finish() -> None:
                self._send(MsgType.UPGRADE_REPLY, msg.requester,
                           msg.block, nacks=len(invs), seq=seq)
                ent.dstate = DIR_DIRTY
                ent.owner = msg.requester
                ent.sharer_mask = 0
                # as in _rdex_txn: commit before the entry reopens
                if issue_done <= t:
                    self._end_txn(msg.block)

            self.sim.at(t, finish)
            if issue_done > t:
                self.sim.at(issue_done, self._end_txn, msg.block)
        else:
            # the requester's copy was invalidated (or ownership moved)
            # while its upgrade was in flight: serve data instead
            self._rdex_txn(msg)

    def _home_sharing_wb(self, msg: Message) -> None:
        """Ex-dirty owner demoted to SHARED; completes a forwarded read."""
        ent = self.directory.entry(msg.block)
        t = self.mem.reserve(self.mem.block_access_cycles())
        block = msg.block
        data = msg.data or {}
        sharers = (1 << msg.src) | (1 << msg.requester)

        def finish() -> None:
            self.mem.write_block(block, data)
            ent.dstate = DIR_SHARED
            ent.owner = -1
            ent.sharer_mask = sharers
            self._end_txn(block)

        self.sim.at(t, finish)

    def _home_dirty_transfer(self, msg: Message) -> None:
        """Ownership moved between caches; completes a forwarded rdex."""
        ent = self.directory.entry(msg.block)
        if ent.early_wb_mask >> msg.requester & 1:
            # the new owner already evicted and wrote back before this
            # transfer arrived: memory is current, recording it as the
            # dirty owner now would strand the block (every forward to
            # it would NACK and retry forever)
            ent.early_wb_mask &= ~(1 << msg.requester)
            ent.dstate = DIR_UNOWNED
            ent.owner = -1
            ent.sharer_mask = 0
            self._end_txn(msg.block)
            return
        ent.dstate = DIR_DIRTY
        ent.owner = msg.requester
        ent.sharer_mask = 0
        self._end_txn(msg.block)

    def _home_writeback(self, msg: Message) -> None:
        """Eviction writeback; processed immediately (never queued) so a
        racing forward's retry observes the directory already updated."""
        ent = self.directory.entry(msg.block)
        if ent.dstate == DIR_DIRTY and ent.owner == msg.src:
            ent.dstate = DIR_UNOWNED
            ent.owner = -1
        elif msg.block in self._txn:
            # mid-transaction writeback from a node the directory does
            # not (yet) record as owner: ownership is moving to it
            # cache-to-cache and the DIRTY_TRANSFER is still in flight
            ent.early_wb_mask |= 1 << msg.src
        t = self.mem.reserve(self.mem.block_access_cycles())
        self.sim.at(t, self.mem.write_block, msg.block, msg.data or {})
