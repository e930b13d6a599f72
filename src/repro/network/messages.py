"""Coherence message vocabulary.

One message class is shared by all protocols; the :class:`MsgType`
enumeration spans the union of WI / PU / CU transactions.  Messages are
deliberately lightweight (``__slots__``; explicit optional fields rather
than a payload dict) because the simulator creates millions of them.
"""

from __future__ import annotations

import enum
from typing import Any, Optional


class MsgType(enum.Enum):
    # --- shared -------------------------------------------------------
    READ_REQ = "read_req"            # proc  -> home   (ctrl)
    READ_REPLY = "read_reply"        # home  -> proc   (data)

    # --- write invalidate ----------------------------------------------
    FETCH_FWD = "fetch_fwd"          # home  -> owner  (ctrl): fwd read
    OWNER_DATA = "owner_data"        # owner -> proc   (data): fwd'd read
    SHARING_WB = "sharing_wb"        # owner -> home   (data): demote M->S
    RDEX_REQ = "rdex_req"            # proc  -> home   (ctrl): read excl.
    RDEX_REPLY = "rdex_reply"        # home  -> proc   (data + ack count)
    UPGRADE_REQ = "upgrade_req"      # proc  -> home   (ctrl)
    UPGRADE_REPLY = "upgrade_reply"  # home  -> proc   (ctrl + ack count)
    INV = "inv"                      # home  -> sharer (ctrl)
    INV_ACK = "inv_ack"              # sharer-> requester (ctrl)
    FETCH_INV_FWD = "fetch_inv_fwd"  # home  -> owner  (ctrl): fwd rdex
    OWNER_DATA_EX = "owner_data_ex"  # owner -> proc   (data): ownership
    DIRTY_TRANSFER = "dirty_transfer"  # owner -> home (ctrl): completes fwd
    WRITEBACK = "writeback"          # proc  -> home   (data): evict dirty
    REPL_HINT = "repl_hint"          # proc  -> home   (ctrl): evict shared

    # --- update-based ---------------------------------------------------
    UPDATE = "update"                # writer -> home  (word data)
    UPD_PROP = "upd_prop"            # home   -> sharer (word data)
    UPD_ACK = "upd_ack"              # sharer -> writer (ctrl)
    WRITER_ACK = "writer_ack"        # home   -> writer (ctrl + ack count)
    RECALL = "recall"                # home   -> retainer (ctrl)
    RECALL_REPLY = "recall_reply"    # retainer -> home (data)
    ATOMIC_REQ = "atomic_req"        # proc   -> home  (word data)
    ATOMIC_REPLY = "atomic_reply"    # home   -> proc  (word data)
    DROP_NOTICE = "drop_notice"      # sharer -> home  (ctrl)
    FWD_NACK = "fwd_nack"            # ex-owner -> home (ctrl): fwd raced
                                     # with an in-flight writeback

    # --- MESI (synthesized; repro/protospec/mesi.py) --------------------
    EXCL_REPLY = "excl_reply"        # home  -> proc   (data): clean-
                                     # exclusive grant for a read miss on
                                     # an unowned block

    @property
    def is_data(self) -> bool:
        """True if the message carries a whole cache block."""
        return self in _BLOCK_DATA

    @property
    def is_word(self) -> bool:
        """True if the message carries a single word."""
        return self in _WORD_DATA


_BLOCK_DATA = {
    MsgType.READ_REPLY, MsgType.OWNER_DATA, MsgType.SHARING_WB,
    MsgType.RDEX_REPLY, MsgType.OWNER_DATA_EX, MsgType.WRITEBACK,
    MsgType.RECALL_REPLY, MsgType.EXCL_REPLY,
}
_WORD_DATA = {
    MsgType.UPDATE, MsgType.UPD_PROP, MsgType.ATOMIC_REQ,
    MsgType.ATOMIC_REPLY,
}

#: MsgType members in definition order; ``mt.index`` is the position,
#: so per-type tables can be plain lists (enum hashing is measurably
#: expensive on the fabric's per-message path)
MSG_TYPES = tuple(MsgType)
for _i, _mt in enumerate(MSG_TYPES):
    _mt.index = _i
del _i, _mt


class Message:
    """A single network message.

    Attributes
    ----------
    mtype : MsgType
    src, dst : int            node ids
    block : int               block number the transaction concerns
    size : int                bytes on the wire (set by the fabric caller)
    requester : int           original requesting node (for forwards)
    word : Optional[int]      word-aligned address for word-grain messages
    value : Any               data value carried (word messages)
    data : Optional[dict]     word -> value map (block messages)
    nacks : int               number of acks the receiver should expect
    seq : int                 home-issued transaction sequence number
    op : Optional[str]        atomic opcode
    operand : Any             atomic operand(s)
    result : Any              atomic result
    retain : bool             PU retain-private hint on WRITER_ACK
    write_id : Optional[int]  id of the originating write (ack matching)
    """

    __slots__ = ("mtype", "src", "dst", "block", "size", "requester",
                 "word", "value", "data", "nacks", "seq", "op", "operand",
                 "result", "retain", "write_id", "mask")

    def __init__(self, mtype: MsgType, src: int, dst: int, block: int,
                 size: int = 0, requester: int = -1,
                 word: Optional[int] = None, value: Any = None,
                 data: Optional[dict] = None, nacks: int = 0, seq: int = -1,
                 op: Optional[str] = None, operand: Any = None,
                 result: Any = None, retain: bool = False,
                 write_id: Optional[int] = None,
                 mask: Optional[int] = None) -> None:
        self.mtype = mtype
        self.src = src
        self.dst = dst
        self.block = block
        self.size = size
        self.requester = requester
        self.word = word
        self.value = value
        self.data = data
        self.nacks = nacks
        self.seq = seq
        self.op = op
        self.operand = operand
        self.result = result
        self.retain = retain
        self.write_id = write_id
        self.mask = mask

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        extra = []
        if self.word is not None:
            extra.append(f"w={self.word:#x}")
        if self.nacks:
            extra.append(f"nacks={self.nacks}")
        if self.op:
            extra.append(f"op={self.op}")
        return (f"<{self.mtype.name} {self.src}->{self.dst} "
                f"blk={self.block} {' '.join(extra)}>")
