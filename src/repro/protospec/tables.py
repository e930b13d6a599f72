"""Hand-written transition tables for the update protocols and the
hybrid.

Each builder returns a validated :class:`ProtocolSpec` transcribed from
the imperative controllers:

* :func:`pu_spec` -- pure update
  (:class:`repro.protocols.update.PUNodeCtrl`);
* :func:`cu_spec` -- competitive update: PU with threshold
  self-invalidation rows on UPD_PROP
  (:class:`repro.protocols.update.CUNodeCtrl`);
* :func:`hybrid_spec` -- the per-block WI/CU hybrid, built by
  *merging* the synthesized WI table (:mod:`repro.protospec.wi`) and
  the CU table: colliding ``(state, event)`` pairs get mutually
  exclusive "WI-managed block" / "update-managed block" guards, and
  cross-protocol pairs (a WI-only state meeting an update-only
  message, or vice versa) are auto-declared impossible.

State naming follows the textbook transient convention: ``IV_D`` is
"was Invalid, going to Valid, waiting for Data"; ``VW_A`` is "Valid, a
write-through waiting for its Ack"; an ``A`` prefix (``AI_W``,
``AV_W``, ``AR_W``) marks an atomic waiting at the home.  The
directory-side transient ``D_R`` models the per-block transaction the
home holds open while a recall is in flight.

Every ``(state, message-event)`` pair is either given a row or an
:class:`Impossible` entry -- the :func:`_side` helper enforces this at
construction time, so a forgotten pair is a build error here and a
``completeness`` finding for specs built any other way.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, Iterable, List, Optional, Sequence

from repro.protospec.model import (
    ANY_STATE, LOCAL_PREFIX, Impossible, ProtocolSpec, SideSpec,
    SpecError, TransitionRow, call_site,
)
from repro.protospec.synth import FIFO_FAIRNESS
from repro.protospec.wi import wi_spec

# ----------------------------------------------------------------------
# construction helpers
# ----------------------------------------------------------------------


def _row(state: str, event: str, actions: str = "",
         next_state: Optional[str] = None, guard: Optional[str] = None,
         retry: bool = False, fairness: Optional[str] = None,
         note: Optional[str] = None,
         when: Optional[str] = None) -> TransitionRow:
    """Compact row constructor; ``actions`` is space-separated.  The
    row's origin is the call."""
    return TransitionRow(state=state, event=event,
                         actions=tuple(actions.split()),
                         next_state=next_state, guard=guard, retry=retry,
                         fairness=fairness, note=note, when=when,
                         origin=call_site())


def _side(name: str, initial: str, states: Sequence[str],
          stable: Sequence[str], events: Sequence[str],
          rows: Iterable[TransitionRow],
          impossible: Iterable[Impossible] = (),
          defaults: Optional[Dict[str, str]] = None) -> SideSpec:
    """Build a side and *complete* it: any ``(state, message-event)``
    pair with neither a row nor an explicit impossible entry gets an
    :class:`Impossible` with the event's default reason.  An event with
    uncovered pairs and no default is a construction error -- being
    forced to write the reason down is the point."""
    rows = tuple(rows)
    impossible = list(impossible)
    covered = set()
    for r in rows:
        for s in (states if r.state == ANY_STATE else (r.state,)):
            covered.add((s, r.event))
    covered.update((i.state, i.event) for i in impossible)
    for ev in events:
        if ev.startswith(LOCAL_PREFIX):
            continue
        for s in states:
            if (s, ev) in covered:
                continue
            reason = (defaults or {}).get(ev)
            if reason is None:
                raise SpecError(
                    f"{name}: ({s}, {ev}) has no row, no impossible "
                    f"entry, and no default reason")
            impossible.append(Impossible(s, ev, reason))
    return SideSpec(name=name, initial=initial, states=tuple(states),
                    stable=tuple(stable), events=tuple(events),
                    rows=rows, impossible=tuple(impossible))


# ----------------------------------------------------------------------
# pure update / competitive update
# ----------------------------------------------------------------------

def pu_spec(competitive: bool = False) -> ProtocolSpec:
    """Pure update (``repro/protocols/update.py``); with
    ``competitive=True``, the CU variant: UPD_PROP rows split on the
    per-line update counter and the threshold drop self-invalidates."""

    proto = "cu" if competitive else "pu"

    # ---- cache side --------------------------------------------------
    cache_rows: List[TransitionRow] = [
        # processor stimuli
        _row("I", "local:read", "send:READ_REQ", "IV_D"),
        _row("V", "local:read", "", "V",
             note="cache hit" + ("; resets the update counter"
                                 if competitive else "")),
        _row("R", "local:read", "", "R", note="cache hit"),
        _row("I", "local:store", "send:READ_REQ", "IV_W",
             note="write-allocate: fetch the block, then write "
                  "through"),
        _row("V", "local:store", "cache_write send:UPDATE", "VW_A",
             note="write-through: local copy updated immediately, the "
                  "home serializes and propagates"),
        _row("R", "local:store", "cache_write retire_done", "R",
             note="retained (effectively private): the write stays "
                  "local"),
        _row("I", "local:atomic", "send:ATOMIC_REQ", "AI_W",
             note="atomics execute at the home memory"),
        _row("V", "local:atomic", "send:ATOMIC_REQ", "AV_W"),
        _row("R", "local:atomic", "send:ATOMIC_REQ", "AR_W"),
        _row("V", "local:evict", "send:DROP_NOTICE", "I",
             note="tell the home to stop sending updates"),
        _row("R", "local:evict", "send:WRITEBACK", "I",
             note="a retained copy is dirty; write it back"),
        _row("VW_A", "local:evict", "send:DROP_NOTICE", "IW_A"),
        _row("AV_W", "local:evict", "send:DROP_NOTICE", "AI_W"),
        _row("AR_W", "local:evict", "send:WRITEBACK", "AI_W"),
        # read fills
        _row("IV_D", "READ_REPLY", "fill", "V"),
        _row("IV_W", "READ_REPLY",
             "install evict cache_write send:UPDATE", "VW_A",
             note="write-allocate fill: install (maybe displacing a "
                  "victim), apply the store, write through"),
        # write-through completion
        _row("VW_A", "WRITER_ACK", "retire_done", "V",
             guard="no retain grant", when="msg_no_retain"),
        _row("VW_A", "WRITER_ACK", "cache:=RETAINED retire_done", "R",
             guard="retain grant: we are the sole sharer, future "
                   "writes stay local",
             when="msg_retain"),
        _row("IW_A", "WRITER_ACK", "retire_done", "I",
             guard="no retain grant", when="msg_no_retain"),
        _row("IW_A", "WRITER_ACK", "send:DROP_NOTICE retire_done", "I",
             guard="retain grant arrived after the line was lost",
             when="msg_retain",
             note="cancel the grant so the home does not record a "
                  "phantom owner"),
        # incoming update propagations (writer acked directly)
        _row("I", "UPD_PROP", "send:UPD_ACK", "I",
             guard="copy already dropped (stale update)"),
        _row("IV_D", "UPD_PROP", "send:UPD_ACK", "IV_D",
             guard="copy already dropped (stale update)"),
        _row("IV_W", "UPD_PROP", "send:UPD_ACK", "IV_W",
             guard="copy already dropped (stale update)"),
        _row("IW_A", "UPD_PROP", "send:UPD_ACK", "IW_A",
             guard="copy already dropped (stale update)"),
        _row("AI_W", "UPD_PROP", "send:UPD_ACK", "AI_W",
             guard="copy already dropped (stale update)"),
        _row(ANY_STATE, "UPD_ACK", "ack"),
        # recalls of a retained copy
        _row("R", "RECALL", "cache:=VALID send:RECALL_REPLY", "V",
             note="flush the dirty words home; we stay a sharer"),
        _row("AR_W", "RECALL", "cache:=VALID send:RECALL_REPLY",
             "AV_W",
             note="our own home-side atomic recalls our retained copy "
                  "first"),
        _row("I", "RECALL", "send:FWD_NACK", "I",
             guard="already evicted; our WRITEBACK is in flight",
             retry=True, fairness=FIFO_FAIRNESS),
        _row("IV_D", "RECALL", "send:FWD_NACK", "IV_D",
             guard="already evicted; our WRITEBACK is in flight",
             retry=True, fairness=FIFO_FAIRNESS),
        _row("IV_W", "RECALL", "send:FWD_NACK", "IV_W",
             guard="already evicted; our WRITEBACK is in flight",
             retry=True, fairness=FIFO_FAIRNESS),
        _row("AI_W", "RECALL", "send:FWD_NACK", "AI_W",
             guard="already evicted; our WRITEBACK is in flight",
             retry=True, fairness=FIFO_FAIRNESS),
        # home-side atomic completion
        _row("AV_W", "ATOMIC_REPLY", "cache_write", "V",
             note="our own copy gets the new value with the reply"),
        _row("AI_W", "ATOMIC_REPLY", "", "I"),
    ]
    upd_prop_live = [("V", "V"), ("VW_A", "VW_A"), ("AV_W", "AV_W")]
    if competitive:
        drop_to = {"V": "I", "VW_A": "IW_A", "AV_W": "AI_W"}
        for state, _ in upd_prop_live:
            cache_rows.append(_row(
                state, "UPD_PROP", "cache_write send:UPD_ACK", state,
                guard="update counter below the threshold",
                when="counter_below"))
            cache_rows.append(_row(
                state, "UPD_PROP",
                "invalidate send:DROP_NOTICE send:UPD_ACK",
                drop_to[state],
                guard="update counter reaches the threshold",
                when="counter_at_threshold",
                note="competitive drop: self-invalidate and ask the "
                     "home to stop updating us"))
    else:
        for state, _ in upd_prop_live:
            cache_rows.append(_row(
                state, "UPD_PROP", "cache_write send:UPD_ACK", state))
    cache_impossible = [
        Impossible("R", "UPD_PROP",
                   "a retained owner is the only sharer; the home has "
                   "no one else to propagate for"),
        Impossible("AR_W", "UPD_PROP",
                   "a retained owner is the only sharer; the home has "
                   "no one else to propagate for"),
        Impossible("V", "RECALL",
                   "recalls target the recorded dirty owner; a VALID "
                   "copy answered (or never received) the recall"),
        Impossible("VW_A", "RECALL",
                   "recalls target the recorded dirty owner; a VALID "
                   "copy answered (or never received) the recall"),
        Impossible("IW_A", "RECALL",
                   "recalls target the recorded dirty owner; a VALID "
                   "copy answered (or never received) the recall"),
        Impossible("AV_W", "RECALL",
                   "recalls target the recorded dirty owner; a VALID "
                   "copy answered (or never received) the recall"),
        Impossible("AR_W", "ATOMIC_REPLY",
                   "the home recalls our retained copy (AR_W -> AV_W) "
                   "before performing the atomic"),
    ]
    cache_defaults = {
        "READ_REPLY": "a read reply only answers this node's "
                      "outstanding READ_REQ (IV_D / IV_W)",
        "WRITER_ACK": "a writer ack only answers this node's "
                      "outstanding write-through (VW_A / IW_A)",
        "ATOMIC_REPLY": "an atomic reply only answers this node's "
                        "outstanding ATOMIC_REQ (AI_W / AV_W)",
    }
    cache = _side(
        "cache", "I",
        states=("I", "V", "R", "IV_D", "IV_W", "VW_A", "IW_A", "AI_W",
                "AV_W", "AR_W"),
        stable=("I", "V", "R"),
        events=("local:read", "local:store", "local:atomic",
                "local:evict", "READ_REPLY", "UPD_PROP", "UPD_ACK",
                "WRITER_ACK", "RECALL", "ATOMIC_REPLY"),
        rows=cache_rows, impossible=cache_impossible,
        defaults=cache_defaults)

    # ---- home (directory) side ---------------------------------------
    home_rows: List[TransitionRow] = [
        # reads
        _row("U", "READ_REQ",
             "begin_txn send:READ_REPLY dir:=SHARED end_txn", "S"),
        _row("S", "READ_REQ",
             "begin_txn send:READ_REPLY dir:=SHARED end_txn", "S"),
        _row("D", "READ_REQ", "begin_txn send:RECALL", "D_R",
             note="the retained copy is dirty; recall it before "
                  "serving memory"),
        _row("D_R", "READ_REQ", "begin_txn", "D_R",
             note="queued on the busy directory entry"),
        # write-throughs
        _row("S", "UPDATE",
             "begin_txn mem_write send:UPD_PROP send:WRITER_ACK "
             "end_txn", "S",
             guard="other sharers hold copies",
             when="other_sharers",
             note="sharers ack directly to the writer (release "
                  "consistency)"),
        _row("S", "UPDATE",
             "begin_txn mem_write dir:=DIRTY send:WRITER_ACK end_txn",
             "D",
             guard="writer is the sole sharer and retain-private is "
                   "enabled",
             when="sole_sharer_retain",
             note="the writer is told to retain: the block is "
                  "effectively private and future writes stay local"),
        _row("S", "UPDATE",
             "begin_txn mem_write send:WRITER_ACK end_txn", "S",
             guard="writer is the sole sharer (retain-private "
                   "disabled)",
             when="sole_sharer_no_retain"),
        _row("D", "UPDATE", "begin_txn send:RECALL", "D_R",
             guard="writer is not the recorded owner (defensive "
                   "recall)",
             note="the retaining owner itself never writes through; "
                  "the controller treats that as a protocol error"),
        _row("D_R", "UPDATE", "begin_txn", "D_R",
             note="queued on the busy directory entry"),
        # home-side atomics
        _row("U", "ATOMIC_REQ",
             "begin_txn atomic_op mem_write send:ATOMIC_REPLY end_txn",
             "U"),
        _row("S", "ATOMIC_REQ",
             "begin_txn atomic_op mem_write send:ATOMIC_REPLY "
             "send:UPD_PROP end_txn", "S",
             note="sharers' acks go to the requester"),
        _row("D", "ATOMIC_REQ", "begin_txn send:RECALL", "D_R"),
        _row("D_R", "ATOMIC_REQ", "begin_txn", "D_R",
             note="queued on the busy directory entry"),
        # recall completion
        _row("D_R", "RECALL_REPLY", "mem_write dir:=SHARED retry_txn",
             "S",
             note="the ex-owner stays a sharer; the stalled "
                  "transaction retries against the SHARED entry"),
        # evictions / drops
        _row("D", "WRITEBACK", "mem_write dir:=UNOWNED", "U"),
        _row("D_R", "WRITEBACK", "mem_write dir:=UNOWNED", "D_R",
             note="processed immediately (never queued): the "
                  "outstanding RECALL will be NACKed and its retry "
                  "must observe the clean entry"),
        _row("U", "DROP_NOTICE", "", "U",
             note="stale drop; sharer bookkeeping only"),
        _row("S", "DROP_NOTICE", "", "S",
             guard="other sharers remain",
             when="other_sharers_remain"),
        _row("S", "DROP_NOTICE", "dir:=UNOWNED", "U",
             guard="the last sharer dropped",
             when="last_sharer"),
        _row("D", "DROP_NOTICE", "dir:=UNOWNED", "U",
             guard="retain-cancel from the recorded owner",
             when="from_owner",
             note="memory is current: the owner never wrote locally in "
                  "RETAINED state"),
        _row("D", "DROP_NOTICE", "", "D",
             guard="stale drop from a non-owner",
             when="not_from_owner"),
        _row("D_R", "DROP_NOTICE", "dir:=UNOWNED", "D_R",
             guard="the recalled owner dropped its line before the "
                   "RECALL reached it",
             when="from_owner",
             note="clears the vanished owner so the FWD_NACK retry "
                  "re-runs against a clean entry instead of "
                  "re-recalling a node at I forever"),
        _row("D_R", "DROP_NOTICE", "", "D_R",
             guard="stale drop from a non-owner",
             when="not_from_owner",
             note="sharer bookkeeping only; the open transaction is "
                  "unaffected"),
        # recall races
        _row("D_R", "FWD_NACK", "retry_txn", "U", retry=True,
             fairness=FIFO_FAIRNESS,
             note="the retried request then re-runs against the clean "
                  "entry"),
    ]
    home_defaults = {
        "UPDATE": "a write-through comes from a node holding a VALID "
                  "copy, which the directory records as a sharer (so "
                  "the entry is SHARED or DIRTY)",
        "RECALL_REPLY": "a recall reply only completes the RECALL of "
                        "the transaction in flight",
        "WRITEBACK": "only the retaining (dirty) owner writes back",
        "FWD_NACK": "a recall NACK only answers a RECALL issued by "
                    "the open transaction",
    }
    home = _side(
        "home", "U",
        states=("U", "S", "D", "D_R"),
        stable=("U", "S", "D"),
        events=("READ_REQ", "UPDATE", "ATOMIC_REQ", "RECALL_REPLY",
                "WRITEBACK", "DROP_NOTICE", "FWD_NACK"),
        rows=home_rows, defaults=home_defaults)

    wi_family_unused = tuple(
        (name, "write-invalidate-family message; the update protocols "
               "never invalidate remotely")
        for name in ("FETCH_FWD", "OWNER_DATA", "SHARING_WB",
                     "RDEX_REQ", "RDEX_REPLY", "UPGRADE_REQ",
                     "UPGRADE_REPLY", "INV", "INV_ACK",
                     "FETCH_INV_FWD", "OWNER_DATA_EX",
                     "DIRTY_TRANSFER"))
    spec = ProtocolSpec(
        protocol=proto,
        description=("competitive update: pure update plus "
                     "threshold-based self-invalidation (paper "
                     "section 3.1)" if competitive else
                     "pure update with retain-private (paper section "
                     "3.1)"),
        cache=cache, home=home,
        unused_messages=(
            ("REPL_HINT", "replacement hints are defined but never "
                          "sent; evictions use DROP_NOTICE/WRITEBACK"),
            ("EXCL_REPLY", "MESI-family message; the update protocols "
                           "have no clean-exclusive state"),
        ) + wi_family_unused)
    spec.validate()
    return spec


def cu_spec() -> ProtocolSpec:
    """Competitive update (paper section 3.1, threshold 4)."""
    return pu_spec(competitive=True)


# ----------------------------------------------------------------------
# hybrid: per-block WI / CU, built by merging the two tables
# ----------------------------------------------------------------------

_WI_GUARD = "WI-managed block"
_UPD_GUARD = "update-managed block"

_SEPARATION = ("per-block protocol separation: a block is managed by "
               "exactly one base protocol, and neither the "
               "write-invalidate nor the update machine pairs this "
               "state with this event")


def _merge_sides(a: SideSpec, b: SideSpec) -> SideSpec:
    """Merge the WI side ``a`` and the update side ``b`` into one
    hybrid side.  Rows whose (state, event) exists in both sources get
    mutually exclusive per-block guards; uncovered pairs inherit the
    sources' impossible entries or an auto-generated cross-protocol
    separation entry."""
    if a.initial != b.initial:
        raise SpecError(
            f"cannot merge sides {a.name!r}: initial states differ "
            f"({a.initial!r} vs {b.initial!r})")
    states = a.states + tuple(s for s in b.states if s not in a.states)
    stable = a.stable + tuple(s for s in b.stable if s not in a.stable)
    events = a.events + tuple(e for e in b.events if e not in a.events)

    def keys(side: SideSpec) -> set:
        out = set()
        for r in side.rows:
            for s in (side.states if r.state == ANY_STATE
                      else (r.state,)):
                out.add((s, r.event))
        return out

    collide = keys(a) & keys(b)

    def reguard(row: TransitionRow, label: str) -> TransitionRow:
        if (row.state, row.event) not in collide:
            if row.state == ANY_STATE and any(
                    (s, row.event) in collide for s in states):
                raise SpecError(
                    f"merge of {a.name!r}: wildcard row for "
                    f"{row.event} collides; split it per state first")
            return row
        return replace(row, guard=label if row.guard is None
                       else f"{label}; {row.guard}")

    rows = tuple([reguard(r, _WI_GUARD) for r in a.rows]
                 + [reguard(r, _UPD_GUARD) for r in b.rows])

    covered = set()
    for r in rows:
        for s in (states if r.state == ANY_STATE else (r.state,)):
            covered.add((s, r.event))
    imp_a = {(i.state, i.event): i for i in a.impossible}
    imp_b = {(i.state, i.event): i for i in b.impossible}
    impossible: List[Impossible] = []
    for ev in events:
        if ev.startswith(LOCAL_PREFIX):
            continue
        for s in states:
            if (s, ev) in covered:
                continue
            reasons = []
            for table in (imp_a, imp_b):
                entry = table.get((s, ev))
                if entry is not None and entry.reason not in reasons:
                    reasons.append(entry.reason)
            impossible.append(Impossible(
                s, ev, " / ".join(reasons) if reasons else _SEPARATION))
    return SideSpec(name=a.name, initial=a.initial, states=states,
                    stable=stable, events=events, rows=rows,
                    impossible=tuple(impossible))


def hybrid_spec() -> ProtocolSpec:
    """Per-block WI/CU hybrid (paper section 5): each block is managed
    by exactly one base protocol, so the machine is the disjoint union
    of the WI and CU machines over a shared state/event namespace."""
    wi = wi_spec()
    cu = pu_spec(competitive=True)
    spec = ProtocolSpec(
        protocol="hybrid",
        description="per-block hybrid: write-invalidate or competitive "
                    "update chosen per block (paper section 5)",
        cache=_merge_sides(wi.cache, cu.cache),
        home=_merge_sides(wi.home, cu.home),
        unused_messages=(
            ("REPL_HINT", "replacement hints are defined but never "
                          "sent by any protocol"),
            ("EXCL_REPLY", "MESI-family message; neither hybrid base "
                           "protocol has a clean-exclusive state"),
        ))
    spec.validate()
    return spec
