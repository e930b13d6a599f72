"""Per-block protocol selection: the FLASH / Typhoon scenario.

The paper's motivation is "the advent of machines that support multiple
coherence protocols within the same application", and its conclusion is
that "both the protocol and implementation [of each construct] should
be taken into account".  The hybrid controller makes that executable:
every shared allocation carries a protocol tag (see
:meth:`repro.runtime.memory_map.MemoryMap.use_protocol`), and each
block is managed end-to-end by its own protocol -- WI, PU, or CU --
while all of them share the node's cache, write buffer, memory module,
directory, and release-consistency ack accounting.

This works because a block's coherence life is fully self-contained:
its cache states, directory entry, and message types never mix with
another block's, and the shared resources (write-buffer retirement
order, fence semantics, NIC/memory occupancy) are protocol-agnostic.
The dispatchers below route the few entry points the base class leaves
protocol-specific -- write retirement, atomics, read transactions,
fills, evictions, writebacks -- to the WI or PU/CU implementation that
owns the block.
"""

from __future__ import annotations

from typing import Any, Callable, Dict

from repro.config import Protocol
from repro.memsys.cache import CacheLine, CacheState
from repro.network.messages import Message, MsgType
from repro.protocols.update import CUNodeCtrl, PUNodeCtrl
from repro.protocols.wi import WINodeCtrl


class HybridNodeCtrl(CUNodeCtrl, WINodeCtrl):
    """Node controller multiplexing WI / PU / CU per block."""

    # union of both handler tables, with the colliding message types
    # routed through per-block dispatchers
    HANDLERS = {
        **WINodeCtrl.HANDLERS,
        **PUNodeCtrl.HANDLERS,
        MsgType.READ_REQ: "_home_read_hybrid",
        MsgType.READ_REPLY: "_cache_read_reply_hybrid",
        MsgType.WRITEBACK: "_home_writeback_hybrid",
    }

    # ------------------------------------------------------------------
    # policy
    # ------------------------------------------------------------------

    def _block_protocol(self, block: int) -> Protocol:
        return self.machine.memmap.protocol_of_block(block)

    def _updates(self, block: int) -> bool:
        return self._block_protocol(block).is_update_based

    # ------------------------------------------------------------------
    # protocol-specific entry points, dispatched per block
    # ------------------------------------------------------------------

    def _retire(self, pw) -> None:
        if self._updates(pw.block):
            PUNodeCtrl._retire(self, pw)
        else:
            WINodeCtrl._retire(self, pw)

    def _start_atomic(self, opname: str, block: int, word: int,
                      operand: Any, cb: Callable[[Any], None]) -> None:
        if self._updates(block):
            PUNodeCtrl._start_atomic(self, opname, block, word,
                                     operand, cb)
        else:
            WINodeCtrl._start_atomic(self, opname, block, word,
                                     operand, cb)

    def _evict_protocol(self, block: int, state: CacheState,
                        data: Dict[int, Any]) -> None:
        if self._updates(block):
            PUNodeCtrl._evict_protocol(self, block, state, data)
        else:
            WINodeCtrl._evict_protocol(self, block, state, data)

    def _spec_states(self, block: int) -> tuple:
        return (PUNodeCtrl if self._updates(block)
                else WINodeCtrl).SPEC_STATES

    def _drop_check(self, line: CacheLine, msg: Message) -> bool:
        # only CU-managed blocks run the competitive counter
        if self._block_protocol(msg.block) is Protocol.CU:
            return CUNodeCtrl._drop_check(self, line, msg)
        return False

    # ------------------------------------------------------------------
    # colliding message types
    # ------------------------------------------------------------------

    def _home_read_hybrid(self, msg: Message) -> None:
        body = (PUNodeCtrl._read_txn if self._updates(msg.block)
                else WINodeCtrl._read_txn)
        self._begin_txn(msg, body.__get__(self))

    def _cache_read_reply_hybrid(self, msg: Message) -> None:
        if self._updates(msg.block):
            PUNodeCtrl._cache_read_reply(self, msg)
        else:
            WINodeCtrl._cache_fill_shared(self, msg)

    def _home_writeback_hybrid(self, msg: Message) -> None:
        if self._updates(msg.block):
            PUNodeCtrl._home_writeback(self, msg)
        else:
            WINodeCtrl._home_writeback(self, msg)
