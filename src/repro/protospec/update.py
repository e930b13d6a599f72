"""Pure and competitive update, authored as one stable-state spec and
synthesized.

The paper's update protocols (section 3.1), executed by
:class:`repro.protocols.update.PUNodeCtrl` and ``CUNodeCtrl``.  A
cache holds a block ``I`` (invalid), ``V`` (valid: every store writes
through to the home, which propagates it to the other sharers) or
``R`` (retained: the home found the writer the only sharer, so its
stores stay local until the home recalls the block).  The home
records the block ``U`` (unowned), ``S`` (shared) or ``D`` (retained
by one node).  CU is PU whose sharers count the updates they do not
use and drop their copy at a threshold.

Written here: the stable states, the transactions between them with
their completions and lost-copy shadows, the evictions of a copy a
wait holds, a sharer's answer to an update propagation, the reactions
to a ``RECALL``, and the home's serves, ``RECALL`` forwards and
``WRITEBACK``/``DROP_NOTICE`` rules.
:func:`~repro.protospec.synth.synthesize` derives the update rows at
every wait, the ``RECALL`` NACK rows, the home's busy state with its
queue, race and NACK rows, and every reasoned Impossible entry.

The transients follow the textbook naming convention: ``IV_D`` is
"was Invalid, going to Valid, waiting for Data"; ``VW_A`` is "Valid,
a write-through waiting for its Ack"; an ``A`` prefix (``AI_W``,
``AV_W``, ``AR_W``) marks an atomic waiting at the home; ``IW_A``
continues a write-through whose copy was evicted.  On the home side,
``D_R`` holds the entry open while a ``RECALL`` is in flight.
"""

from __future__ import annotations

from repro.protospec.model import ProtocolSpec
from repro.protospec.synth import (
    CacheTxn, Completion, HolderReaction, HomeCompletion, HomeForward,
    HomeRule, HomeServe, LocalRule, LostCopy, Reaction, StableCacheSide,
    StableHomeSide, StableSpec, synthesize,
)

_NO_GRANT = "no retain grant"


def pu_stable(competitive: bool = False) -> StableSpec:
    """The authored stable-state description of PU or, with
    ``competitive=True``, of CU (pre-synthesis)."""
    if competitive:
        update = (
            HolderReaction("cache_write send:UPD_ACK",
                           when="counter_below",
                           guard="update counter below the threshold"),
            HolderReaction("invalidate send:DROP_NOTICE send:UPD_ACK",
                           when="counter_at_threshold",
                           guard="update counter reaches the threshold",
                           note="competitive drop: self-invalidate and "
                                "ask the home to stop updating us"))
    else:
        update = (HolderReaction("cache_write send:UPD_ACK"),)
    cache = StableCacheSide(
        initial="I",
        stable=("I", "V", "R"),
        holders=("V", "R"),
        owners=("R",),
        local_rules=(
            LocalRule("V", "local:read", "", "V",
                      note="cache hit" + ("; resets the update counter"
                                          if competitive else "")),
            LocalRule("R", "local:read", "", "R", note="cache hit"),
            LocalRule("R", "local:store", "cache_write retire_done", "R",
                      note="retained (effectively private): the write "
                           "stays local"),
            LocalRule("V", "local:evict", "send:DROP_NOTICE", "I",
                      note="tell the home to stop sending updates"),
            LocalRule("R", "local:evict", "send:WRITEBACK", "I",
                      note="a retained copy is dirty; write it back"),
            # a wait that holds a copy can lose it to an eviction
            LocalRule("VW_A", "local:evict", "send:DROP_NOTICE", "IW_A"),
            LocalRule("AV_W", "local:evict", "send:DROP_NOTICE", "AI_W"),
            LocalRule("AR_W", "local:evict", "send:WRITEBACK", "AI_W"),
        ),
        transactions=(
            CacheTxn("I", "local:read", "READ_REQ", "IV_D",
                     completions=(Completion("READ_REPLY", "fill", "V"),)),
            CacheTxn(
                "I", "local:store", "READ_REQ", "IV_W",
                note="write-allocate: fetch the block, then write "
                     "through",
                completions=(Completion(
                    "READ_REPLY", "install evict cache_write send:UPDATE",
                    "VW_A",
                    note="write-allocate fill: install (maybe displacing "
                         "a victim), apply the store, write through"),)),
            CacheTxn(
                "V", "local:store", "UPDATE", "VW_A",
                actions="cache_write",
                note="write-through: local copy updated immediately, the "
                     "home serializes and propagates",
                completions=(
                    Completion("WRITER_ACK", "retire_done", "V",
                               when="msg_no_retain", guard=_NO_GRANT),
                    Completion("WRITER_ACK", "cache:=RETAINED retire_done",
                               "R", when="msg_retain",
                               guard="retain grant: we are the sole "
                                     "sharer, future writes stay local"),
                ),
                lost_copy=LostCopy("IW_A", completions=(
                    Completion("WRITER_ACK", "retire_done", "I",
                               when="msg_no_retain", guard=_NO_GRANT),
                    Completion("WRITER_ACK",
                               "send:DROP_NOTICE retire_done", "I",
                               when="msg_retain",
                               guard="retain grant arrived after the "
                                     "line was lost",
                               note="cancel the grant so the home does "
                                    "not record a phantom owner"),
                ))),
            CacheTxn("I", "local:atomic", "ATOMIC_REQ", "AI_W",
                     note="atomics execute at the home memory",
                     completions=(Completion("ATOMIC_REPLY", "", "I"),)),
            CacheTxn("V", "local:atomic", "ATOMIC_REQ", "AV_W",
                     completions=(Completion(
                         "ATOMIC_REPLY", "cache_write", "V",
                         note="our own copy gets the new value with the "
                              "reply"),),
                     lost_copy=LostCopy("AI_W")),
            CacheTxn("R", "local:atomic", "ATOMIC_REQ", "AR_W",
                     completions=(),
                     note="the home recalls our retained copy (AR_W -> "
                          "AV_W) before it performs the atomic, so no "
                          "reply reaches AR_W"),
        ),
        reactions=(
            Reaction("R", "RECALL", "cache:=VALID send:RECALL_REPLY", "V",
                     note="flush the dirty words home; we stay a sharer"),
            Reaction("AR_W", "RECALL", "cache:=VALID send:RECALL_REPLY",
                     "AV_W",
                     note="our own home-side atomic recalls our retained "
                          "copy first"),
        ),
        invalidation="UPD_PROP",
        inv_ack="UPD_ACK",
        holder_reactions=update,
        stale_note="copy already dropped (stale update)",
        forwards=("RECALL",),
        defaults=(
            ("UPD_PROP", "a retained owner is the only sharer; the home "
                         "has no one else to propagate for"),
        ))
    recalled = HomeCompletion(
        "RECALL_REPLY", "mem_write dir:=SHARED retry_txn", "S",
        note="the ex-owner stays a sharer; the stalled transaction "
             "retries against the SHARED entry")
    home = StableHomeSide(
        initial="U",
        stable=("U", "S", "D"),
        serves=(
            HomeServe("U", "READ_REQ", "send:READ_REPLY dir:=SHARED", "S"),
            HomeServe("S", "READ_REQ", "send:READ_REPLY dir:=SHARED", "S"),
            HomeServe("S", "UPDATE",
                      "mem_write send:UPD_PROP send:WRITER_ACK", "S",
                      guard="other sharers hold copies",
                      when="other_sharers",
                      note="sharers ack directly to the writer (release "
                           "consistency)"),
            HomeServe("S", "UPDATE", "mem_write dir:=DIRTY send:WRITER_ACK",
                      "D",
                      guard="writer is the sole sharer and retain-private "
                            "is enabled",
                      when="sole_sharer_retain",
                      note="the writer is told to retain: the block is "
                           "effectively private and future writes stay "
                           "local"),
            HomeServe("S", "UPDATE", "mem_write send:WRITER_ACK", "S",
                      guard="writer is the sole sharer (retain-private "
                            "disabled)",
                      when="sole_sharer_no_retain"),
            HomeServe("U", "ATOMIC_REQ",
                      "atomic_op mem_write send:ATOMIC_REPLY", "U"),
            HomeServe("S", "ATOMIC_REQ",
                      "atomic_op mem_write send:ATOMIC_REPLY send:UPD_PROP",
                      "S", note="sharers' acks go to the requester"),
        ),
        forwards=(
            HomeForward("D", "READ_REQ", "RECALL", "D_R",
                        completions=(recalled,),
                        note="the retained copy is dirty; recall it "
                             "before serving memory"),
            HomeForward("D", "UPDATE", "RECALL", "D_R",
                        completions=(recalled,),
                        note="defensive: the writer is not the recorded "
                             "owner, since a retaining owner never "
                             "writes through"),
            HomeForward("D", "ATOMIC_REQ", "RECALL", "D_R",
                        completions=(recalled,)),
        ),
        rules=(
            HomeRule("D", "WRITEBACK", "mem_write dir:=UNOWNED", "U",
                     race_at_busy=True),
            HomeRule("U", "DROP_NOTICE", "", "U",
                     note="stale drop; sharer bookkeeping only"),
            HomeRule("S", "DROP_NOTICE", "", "S",
                     guard="other sharers remain",
                     when="other_sharers_remain"),
            HomeRule("S", "DROP_NOTICE", "dir:=UNOWNED", "U",
                     guard="the last sharer dropped", when="last_sharer"),
            HomeRule("D", "DROP_NOTICE", "dir:=UNOWNED", "U",
                     guard="retain-cancel from the recorded owner",
                     when="from_owner",
                     note="memory is current: the owner never wrote "
                          "locally in RETAINED state",
                     race_at_busy=True),
            HomeRule("D", "DROP_NOTICE", "", "D",
                     guard="stale drop from a non-owner",
                     when="not_from_owner", race_at_busy=True),
        ),
        defaults=(
            ("UPDATE", "a write-through comes from a node holding a VALID "
                       "copy, which the directory records as a sharer "
                       "(so the entry is SHARED or DIRTY)"),
            ("WRITEBACK", "only the retaining (dirty) owner writes back"),
        ))
    wi_family = tuple(
        (name, "write-invalidate-family message; the update protocols "
               "never invalidate remotely")
        for name in ("FETCH_FWD", "OWNER_DATA", "SHARING_WB", "RDEX_REQ",
                     "RDEX_REPLY", "UPGRADE_REQ", "UPGRADE_REPLY", "INV",
                     "INV_ACK", "FETCH_INV_FWD", "OWNER_DATA_EX",
                     "DIRTY_TRANSFER"))
    return StableSpec(
        protocol="cu" if competitive else "pu",
        description=(
            ("competitive update: pure update plus threshold-based "
             "self-invalidation" if competitive else
             "pure update with retain-private")
            + " (paper section 3.1); stable states authored in "
              "repro/protospec/update.py, transients generated by "
              "repro/protospec/synth.py"),
        cache=cache,
        home=home,
        unused_messages=(
            ("REPL_HINT", "replacement hints are defined but never "
                          "sent; evictions use DROP_NOTICE/WRITEBACK"),
            ("EXCL_REPLY", "MESI-family message; the update protocols "
                           "have no clean-exclusive state"),
        ) + wi_family)


def pu_spec() -> ProtocolSpec:
    """PU: synthesized from the stable-state description above."""
    return synthesize(pu_stable())


def cu_spec() -> ProtocolSpec:
    """CU (threshold 4): synthesized from the same description."""
    return synthesize(pu_stable(competitive=True))
