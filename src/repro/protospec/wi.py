"""Write invalidate, authored as a stable-state spec and synthesized.

The paper's baseline protocol (section 2): DASH-style write
invalidate under release consistency, executed by
:class:`repro.protocols.wi.WINodeCtrl`.  It is described here *only*
at the stable-state level -- three cache states (``I``/``S``/``M``),
three directory states (``U``/``S``/``D``), the transactions between
them and the owner's reactions to the directory's forwards -- and
:func:`~repro.protospec.synth.synthesize` generates every transient
state, every racing-invalidation row, every NACK-retry row and every
reasoned Impossible entry.

The transients follow the textbook naming convention: ``IS_D`` is
"was Invalid, going to Shared, waiting for Data"; ``SM_W`` is "was
Shared, going to Modified, waiting for the upgrade grant (W)"; ``_A``
marks a pending atomic; ``I_W``/``I_AW`` continue an upgrade whose
copy a racing writer invalidated.  On the home side, ``BUSY_R`` and
``BUSY_X`` hold the directory entry open while a forward to the dirty
owner is in flight.

:mod:`repro.protospec.mesi` is this machine plus a clean-exclusive
state, written as deltas on :func:`wi_stable`.
"""

from __future__ import annotations

from repro.protospec.model import ProtocolSpec
from repro.protospec.synth import (
    CacheTxn, Completion, HomeCompletion, HomeForward, HomeRule,
    HomeServe, LocalRule, LostCopy, Reaction, StableCacheSide,
    StableHomeSide, StableSpec, synthesize,
)

_DEMOTED = ("upgrade demoted: an earlier writer took ownership and "
            "served our request from its cache")
_DEMOTED_LOST = "upgrade demoted after our copy was lost"
_WB_FIRST = ("; the interim owner already wrote back, so memory "
             "serves the data")


def wi_stable() -> StableSpec:
    """The authored stable-state description (pre-synthesis)."""
    cache = StableCacheSide(
        initial="I",
        stable=("I", "S", "M"),
        holders=("S", "M"),
        owners=("M",),
        local_rules=(
            LocalRule("S", "local:read", "", "S", note="cache hit"),
            LocalRule("M", "local:read", "", "M", note="cache hit"),
            LocalRule("M", "local:store", "apply_store retire_done",
                      "M"),
            LocalRule("M", "local:atomic", "atomic_op cache_write",
                      "M",
                      note="atomics execute in the cache on an "
                           "exclusive copy"),
            LocalRule("S", "local:evict", "", "I",
                      note="SHARED evictions are silent; the "
                           "directory keeps possibly-stale full-map "
                           "sharer bits"),
            LocalRule("M", "local:evict", "send:WRITEBACK", "I"),
        ),
        transactions=(
            CacheTxn(
                "I", "local:read", "READ_REQ", "IS_D",
                completions=(
                    Completion("READ_REPLY", "fill", "S"),
                    Completion("OWNER_DATA", "fill", "S",
                               note="forwarded read served by the "
                                    "ex-owner"),
                )),
            CacheTxn(
                "I", "local:store", "RDEX_REQ", "IM_D",
                completions=(
                    Completion("RDEX_REPLY",
                               "install apply_store retire_done "
                               "evict", "M",
                               note="install may displace a victim "
                                    "line (evict)"),
                    Completion("OWNER_DATA_EX",
                               "install apply_store retire_done "
                               "evict", "M"),
                )),
            CacheTxn(
                "I", "local:atomic", "RDEX_REQ", "IM_AD",
                completions=(
                    Completion("RDEX_REPLY",
                               "install finish_atomic evict", "M"),
                    Completion("OWNER_DATA_EX",
                               "install finish_atomic evict", "M"),
                )),
            CacheTxn(
                "S", "local:store", "UPGRADE_REQ", "SM_W",
                note="the paper's 'exclusive request' transaction",
                completions=(
                    Completion("UPGRADE_REPLY",
                               "cache:=MODIFIED apply_store "
                               "retire_done", "M"),
                    Completion("OWNER_DATA_EX",
                               "install apply_store retire_done "
                               "evict", "M", guard=_DEMOTED),
                ),
                lost_copy=LostCopy("I_W", completions=(
                    Completion("UPGRADE_REPLY", "send:RDEX_REQ",
                               "IM_D",
                               guard="line lost while the upgrade "
                                     "was in flight",
                               note="the home granted ownership; "
                                    "refetch the data with a fresh "
                                    "RDEX"),
                    Completion("RDEX_REPLY",
                               "install apply_store retire_done "
                               "evict", "M",
                               guard=_DEMOTED_LOST + _WB_FIRST),
                    Completion("OWNER_DATA_EX",
                               "install apply_store retire_done "
                               "evict", "M", guard=_DEMOTED_LOST),
                ))),
            CacheTxn(
                "S", "local:atomic", "UPGRADE_REQ", "SM_AW",
                completions=(
                    Completion("UPGRADE_REPLY",
                               "cache:=MODIFIED finish_atomic", "M"),
                    Completion("OWNER_DATA_EX",
                               "install finish_atomic evict", "M",
                               guard=_DEMOTED),
                ),
                lost_copy=LostCopy("I_AW", completions=(
                    Completion("UPGRADE_REPLY", "send:RDEX_REQ",
                               "IM_AD",
                               guard="line lost while the upgrade "
                                     "was in flight"),
                    Completion("RDEX_REPLY",
                               "install finish_atomic evict", "M",
                               guard=_DEMOTED_LOST + _WB_FIRST),
                    Completion("OWNER_DATA_EX",
                               "install finish_atomic evict", "M",
                               guard=_DEMOTED_LOST),
                ))),
        ),
        reactions=(
            Reaction("M", "FETCH_FWD",
                     "cache:=SHARED send:OWNER_DATA send:SHARING_WB",
                     "S"),
            Reaction("M", "FETCH_INV_FWD",
                     "invalidate send:OWNER_DATA_EX "
                     "send:DIRTY_TRANSFER", "I",
                     note="ownership transfers cache-to-cache; "
                          "DIRTY_TRANSFER tells the home"),
        ))
    dirty_done = HomeCompletion(
        "DIRTY_TRANSFER", "dir:=DIRTY", "D",
        note="ownership moved cache-to-cache")
    home = StableHomeSide(
        initial="U",
        stable=("U", "S", "D"),
        serves=(
            HomeServe("U", "READ_REQ", "send:READ_REPLY dir:=SHARED",
                      "S"),
            HomeServe("S", "READ_REQ", "send:READ_REPLY", "S"),
            HomeServe("U", "RDEX_REQ",
                      "send:RDEX_REPLY dir:=DIRTY", "D"),
            HomeServe("S", "RDEX_REQ",
                      "send:INV send:RDEX_REPLY dir:=DIRTY", "D",
                      note="invalidation acks go straight to the "
                           "requester (release consistency)"),
            HomeServe("S", "UPGRADE_REQ",
                      "send:INV send:UPGRADE_REPLY dir:=DIRTY", "D",
                      guard="requester still on the sharer list",
                      when="requester_is_sharer"),
            HomeServe("S", "UPGRADE_REQ",
                      "send:INV send:RDEX_REPLY dir:=DIRTY", "D",
                      guard="requester was invalidated while its "
                            "upgrade was in flight",
                      when="requester_not_sharer",
                      note="demoted to a full exclusive-data "
                           "transaction"),
            HomeServe("U", "UPGRADE_REQ",
                      "send:RDEX_REPLY dir:=DIRTY", "D",
                      guard="every copy (including the requester's) "
                            "is gone",
                      note="demoted to a full exclusive-data "
                           "transaction"),
        ),
        forwards=(
            HomeForward("D", "READ_REQ", "FETCH_FWD", "BUSY_R",
                        completions=(HomeCompletion(
                            "SHARING_WB",
                            "mem_write dir:=SHARED", "S",
                            note="ex-owner demoted itself to SHARED; "
                                 "both it and the requester are "
                                 "sharers now"),)),
            HomeForward("D", "RDEX_REQ", "FETCH_INV_FWD", "BUSY_X",
                        completions=(dirty_done,)),
            HomeForward("D", "UPGRADE_REQ", "FETCH_INV_FWD", "BUSY_X",
                        completions=(dirty_done,),
                        note="an earlier writer took ownership first; "
                             "demoted to a full exclusive-data "
                             "transaction"),
        ),
        rules=(
            HomeRule("D", "WRITEBACK", "mem_write dir:=UNOWNED", "U",
                     race_at_busy=True),
        ),
        defaults=(
            ("WRITEBACK",
             "only the recorded owner writes back, and the entry is "
             "DIRTY (or mid-transaction) until its writeback "
             "arrives"),
        ))
    return StableSpec(
        protocol="wi",
        description="DASH-style write invalidate under release "
                    "consistency (paper section 2); stable states "
                    "authored in repro/protospec/wi.py, transients "
                    "generated by repro/protospec/synth.py",
        cache=cache,
        home=home,
        unused_messages=(
            ("REPL_HINT", "replacement hints are defined but never "
                          "sent: SHARED evictions are silent"),
            ("UPDATE", "update-family message; invalidation never "
                       "updates"),
            ("UPD_PROP", "update-family message; invalidation never "
                         "updates"),
            ("UPD_ACK", "update-family message; invalidation never "
                        "updates"),
            ("WRITER_ACK", "update-family message; write completion "
                           "is RDEX_REPLY/UPGRADE_REPLY"),
            ("RECALL", "update-family message; ownership is recalled "
                       "via FETCH_FWD/FETCH_INV_FWD"),
            ("RECALL_REPLY", "update-family message; owners answer "
                             "with SHARING_WB/DIRTY_TRANSFER"),
            ("ATOMIC_REQ", "atomics execute in the cache on an "
                           "exclusive copy, not at the home"),
            ("ATOMIC_REPLY", "atomics execute in the cache on an "
                             "exclusive copy, not at the home"),
            ("DROP_NOTICE", "update-family message; SHARED evictions "
                            "are silent"),
            ("EXCL_REPLY", "MESI-family message; WI has no clean-"
                           "exclusive state and grants exclusivity "
                           "via RDEX_REPLY/UPGRADE_REPLY"),
        ))


def wi_spec() -> ProtocolSpec:
    """WI: synthesized from the stable-state description above."""
    return synthesize(wi_stable())
