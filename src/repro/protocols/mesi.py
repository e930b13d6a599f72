"""MESI: write invalidate with a clean-exclusive state.

The controller is the WI machine (:class:`repro.protocols.wi.WINodeCtrl`)
running MESI's table, the synthesized spec of
:mod:`repro.protospec.mesi`, whose docstring lists the E deltas.  WI's
handlers read the line states each branch applies in, and whether an
unowned read is granted E, from the table
(:func:`~repro.protocols.base.compile_line_sets`), so only the one
message the table adds is handled here: the E fill.

Ordering note: the E grant and a later forward for the same block
travel home->reader on one channel, so FIFO delivery guarantees the
fill lands before the forward -- the forward never catches the reader
still in IS_D except in the (NACKed, retried) writeback race WI
already handles.
"""

from __future__ import annotations

from repro.memsys.cache import STATE_EXCLUSIVE
from repro.network.messages import Message, MsgType
from repro.protocols.wi import WINodeCtrl


class MESINodeCtrl(WINodeCtrl):
    """Per-node controller for the MESI protocol."""

    HANDLERS = {**WINodeCtrl.HANDLERS,
                MsgType.EXCL_REPLY: "_cache_fill_exclusive_clean"}

    def _cache_fill_exclusive_clean(self, msg: Message) -> None:
        """EXCL_REPLY: fill the outstanding read miss clean-exclusive."""
        self._complete_fill(msg, STATE_EXCLUSIVE)
        if self.san is not None and \
                self.cache.lookup(msg.block) is not None:
            # the fill survived (no overtaking invalidation): we are
            # now the recorded owner -- same SWMR entry point as an
            # RDEX fill
            self.san.on_exclusive(self.node, msg.block)
