"""Transient-state synthesis: a full :class:`ProtocolSpec` from a
stable-state description.

A hand-written table (:mod:`repro.protospec.tables`) spells out
every transient state and every race row by hand -- roughly three
quarters of each table is bookkeeping for messages that cross each
other in flight.  This module implements what the protocol-synthesis
literature (Synthia, ProtoGen) argues for instead: the author describes
only the *stable-state* protocol --

* the stable states, and which of them hold a copy / own the block;
* the transactions that move between them (stimulus, request message,
  the completion messages that can answer it);
* the reactions of copy holders to the directory's messages (an owner
  serving a forward);

-- and everything transient is derived mechanically:

1. every :class:`CacheTxn` gets its declared transient state, plus (if
   the origin state holds a copy that a racing invalidation can take)
   a shadow transient for the copy-lost continuation;
2. racing invalidations at every state get rows: invalidate-and-ack
   where a copy is resident, stale-ack where none is, a reasoned
   :class:`~repro.protospec.model.Impossible` at owners (the directory
   recalls owners with forwards, never invalidations);
3. directory forwards get NACK-retry rows at the initial state and at
   transients entered from it (the ex-owner's writeback race), with
   the FIFO fairness justification the progress pass requires, and
   reasoned Impossible entries everywhere else;
4. on the home side, immediate serves are wrapped in
   ``begin_txn``/``end_txn``, each forward gets a busy transient with
   queue rows for every request, writeback-race rows, and a
   ``FWD_NACK`` retry row;
5. every remaining (state, message) pair is closed with a generated
   Impossible entry, so the completeness pass applies to synthesized
   specs exactly as to hand-written ones.

The output is an ordinary validated :class:`ProtocolSpec`:
``compile_dispatch`` executes it unchanged, every static pass applies,
and the spec-graph explorer (:mod:`repro.staticcheck.graph`) can walk
it.  The write-invalidate family is written this way:
:mod:`repro.protospec.wi` authors WI as ~40 stable-state declarations
whose synthesized table has exactly the transition relation of the
hand-written WI table it replaced, and :mod:`repro.protospec.mesi`
adds MESI's clean-exclusive deltas to it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.protospec.model import (
    ANY_STATE, LOCAL_PREFIX, ORIGIN_FIELD, Impossible, Origin,
    ProtocolSpec, SideSpec, SpecError, TransitionRow, call_site,
)

#: fairness justification attached to every synthesized NACK/retry row
#: (the hand-written update tables give the same argument): the
#: ex-owner's WRITEBACK precedes its NACK on the same channel, so
#: per-channel FIFO delivery guarantees the retried transaction is
#: served from current memory.
FIFO_FAIRNESS = ("FIFO delivery: the ex-owner's WRITEBACK precedes its "
                 "NACK on the same channel, so the retried transaction "
                 "is served from current memory and cannot NACK again")

XFER_FAIRNESS = ("the exclusive data that made this node the recorded "
                 "owner is already in flight; once it installs, the "
                 "retried forward is served from the new exclusive "
                 "copy")


def _actions(text: str) -> Tuple[str, ...]:
    return tuple(text.split())


class _Declaration:
    """A declaration records the call that built it as ``origin``, and
    :func:`synthesize` stamps it on every row the declaration yields.
    ``dataclasses.replace`` passes it through unchanged."""

    def __post_init__(self) -> None:
        if self.origin is None:
            object.__setattr__(self, "origin", call_site(2))


# ----------------------------------------------------------------------
# stable-state input model -- cache side
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class LocalRule(_Declaration):
    """A local stimulus handled without opening a transaction (cache
    hits, silent or writeback evictions, silent upgrades)."""

    state: str
    stimulus: str                   # "local:read" etc.
    actions: str = ""               # space-separated action tokens
    next_state: Optional[str] = None
    note: Optional[str] = None
    origin: Origin = field(**ORIGIN_FIELD)


@dataclass(frozen=True)
class Completion:
    """One message that can answer an outstanding transaction."""

    event: str
    actions: str
    next_state: str
    when: Optional[str] = None
    guard: Optional[str] = None
    note: Optional[str] = None


@dataclass(frozen=True)
class LostCopy(_Declaration):
    """The copy-lost continuation of a transaction whose origin state
    held a copy: a racing invalidation moves the transient to
    ``shadow``, where these completions apply instead."""

    shadow: str
    completions: Tuple[Completion, ...]
    origin: Origin = field(**ORIGIN_FIELD)


@dataclass(frozen=True)
class CacheTxn(_Declaration):
    """A stimulus that opens a transaction: send ``request``, wait in
    ``transient`` for one of ``completions``."""

    state: str
    stimulus: str
    request: str
    transient: str
    completions: Tuple[Completion, ...]
    lost_copy: Optional[LostCopy] = None
    note: Optional[str] = None
    origin: Origin = field(**ORIGIN_FIELD)


@dataclass(frozen=True)
class Reaction(_Declaration):
    """A stable-state response to a directory message (an owner
    serving a forward)."""

    state: str
    event: str
    actions: str
    next_state: str
    note: Optional[str] = None
    origin: Origin = field(**ORIGIN_FIELD)


@dataclass(frozen=True)
class StableCacheSide(_Declaration):
    """Everything the author says about the cache side.  Its origin
    goes on the rows its states and messages imply: the invalidation
    rows of the stable states, the ack row and the initial state's
    forward NACKs."""

    initial: str
    stable: Tuple[str, ...]
    #: states holding a readable copy (targets of invalidations)
    holders: Tuple[str, ...]
    #: states holding the (clean- or dirty-) exclusive copy; subset of
    #: holders.  Owners are recalled with forwards, never invalidated.
    owners: Tuple[str, ...]
    local_rules: Tuple[LocalRule, ...]
    transactions: Tuple[CacheTxn, ...]
    reactions: Tuple[Reaction, ...] = ()
    #: invalidation message and its ack; None disables the whole
    #: invalidation closure (update-style protocols)
    invalidation: Optional[str] = "INV"
    inv_ack: str = "INV_ACK"
    #: directory forward messages (owner recalls); every owner state
    #: must have a reaction for each
    forwards: Tuple[str, ...] = ("FETCH_FWD", "FETCH_INV_FWD")
    nack: str = "FWD_NACK"
    #: authored Impossible reasons per event, overriding the generated
    #: text for pairs the closure rules out
    defaults: Tuple[Tuple[str, str], ...] = ()
    origin: Origin = field(**ORIGIN_FIELD)


# ----------------------------------------------------------------------
# stable-state input model -- home side
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class HomeServe(_Declaration):
    """A request served immediately (no forward): the synthesizer
    wraps ``actions`` in ``begin_txn``/``end_txn``."""

    state: str
    request: str
    actions: str
    next_state: str
    guard: Optional[str] = None
    when: Optional[str] = None
    note: Optional[str] = None
    origin: Origin = field(**ORIGIN_FIELD)


@dataclass(frozen=True)
class HomeCompletion:
    """A message that closes a forwarded transaction; the synthesizer
    appends ``end_txn``."""

    event: str
    actions: str
    next_state: str
    note: Optional[str] = None


@dataclass(frozen=True)
class HomeForward(_Declaration):
    """A request the home serves by forwarding to the recorded owner:
    the entry goes busy until a completion (or a NACK retry).  The
    first forward into a busy state introduces it: its origin goes on
    the state's queue, completion, race and NACK rows."""

    state: str
    request: str
    fwd: str
    busy: str
    completions: Tuple[HomeCompletion, ...]
    note: Optional[str] = None
    origin: Origin = field(**ORIGIN_FIELD)


@dataclass(frozen=True)
class HomeRule(_Declaration):
    """An event handled outside the transaction framework (an owner's
    WRITEBACK).  With ``race_at_busy`` the synthesizer adds the same
    handling at every busy state, processed immediately so the NACKed
    forward's retry observes the clean entry."""

    state: str
    event: str
    actions: str
    next_state: str
    guard: Optional[str] = None
    when: Optional[str] = None
    note: Optional[str] = None
    race_at_busy: bool = False
    origin: Origin = field(**ORIGIN_FIELD)


@dataclass(frozen=True)
class StableHomeSide:
    """Everything the author says about the home side."""

    initial: str
    stable: Tuple[str, ...]
    serves: Tuple[HomeServe, ...]
    forwards: Tuple[HomeForward, ...] = ()
    rules: Tuple[HomeRule, ...] = ()
    nack: str = "FWD_NACK"
    defaults: Tuple[Tuple[str, str], ...] = ()


@dataclass(frozen=True)
class StableSpec:
    """A whole protocol, stable states only."""

    protocol: str
    description: str
    cache: StableCacheSide
    home: StableHomeSide
    unused_messages: Tuple[Tuple[str, str], ...] = ()


# ----------------------------------------------------------------------
# synthesis
# ----------------------------------------------------------------------


def _ordered(seq) -> List:
    out, seen = [], set()
    for item in seq:
        if item not in seen:
            seen.add(item)
            out.append(item)
    return out


def _synth_cache(side: StableCacheSide) -> SideSpec:
    if side.initial not in side.stable:
        raise SpecError("cache: initial state must be stable")
    if not set(side.holders) <= set(side.stable):
        raise SpecError("cache: holders must be stable states")
    if not set(side.owners) <= set(side.holders):
        raise SpecError("cache: owners must be holders")

    # state list: stable states first (initial first), then the
    # transaction transients, then the copy-lost shadows
    states = [side.initial] + [s for s in side.stable
                               if s != side.initial]
    transients: List[str] = []
    shadows: List[str] = []
    for txn in side.transactions:
        if txn.state not in side.stable:
            raise SpecError(
                f"cache: transaction from unknown stable state "
                f"{txn.state!r}")
        transients.append(txn.transient)
        if txn.lost_copy is not None:
            shadows.append(txn.lost_copy.shadow)
    states += _ordered(transients) + _ordered(
        s for s in shadows if s not in transients)
    if len(set(states)) != len(states):
        raise SpecError("cache: transient names collide with states")

    covered = {(r.state, r.stimulus) for r in side.local_rules}
    for txn in side.transactions:
        if (txn.state, txn.stimulus) in covered:
            raise SpecError(
                f"cache: ({txn.state}, {txn.stimulus}) has both a "
                f"local rule and a transaction")
        covered.add((txn.state, txn.stimulus))

    rows: List[TransitionRow] = []
    for lr in side.local_rules:
        rows.append(TransitionRow(
            state=lr.state, event=lr.stimulus,
            actions=_actions(lr.actions), next_state=lr.next_state,
            note=lr.note, origin=lr.origin))
    for txn in side.transactions:
        rows.append(TransitionRow(
            state=txn.state, event=txn.stimulus,
            actions=(f"send:{txn.request}",),
            next_state=txn.transient, note=txn.note, origin=txn.origin))
        for c in txn.completions:
            rows.append(TransitionRow(
                state=txn.transient, event=c.event,
                actions=_actions(c.actions), next_state=c.next_state,
                guard=c.guard, when=c.when, note=c.note,
                origin=txn.origin))
        if txn.lost_copy is not None:
            for c in txn.lost_copy.completions:
                rows.append(TransitionRow(
                    state=txn.lost_copy.shadow, event=c.event,
                    actions=_actions(c.actions),
                    next_state=c.next_state,
                    guard=c.guard, when=c.when, note=c.note,
                    origin=txn.lost_copy.origin))
    for rx in side.reactions:
        rows.append(TransitionRow(
            state=rx.state, event=rx.event,
            actions=_actions(rx.actions), next_state=rx.next_state,
            note=rx.note, origin=rx.origin))

    impossible: List[Impossible] = []

    # --- invalidation closure -----------------------------------------
    if side.invalidation is not None:
        inv, ack = side.invalidation, side.inv_ack
        inv_ack_send = f"send:{ack}"
        for s in side.stable:
            if s in side.owners:
                impossible.append(Impossible(
                    s, inv,
                    "the directory never invalidates the exclusive "
                    "owner; ownership moves via "
                    + "/".join(side.forwards)))
            elif s in side.holders:
                rows.append(TransitionRow(
                    state=s, event=inv,
                    actions=("invalidate", inv_ack_send),
                    next_state=side.initial, origin=side.origin))
            else:
                rows.append(TransitionRow(
                    state=s, event=inv, actions=(inv_ack_send,),
                    next_state=s,
                    note="stale invalidation for a copy already "
                         "dropped; acked harmlessly (full-map bits "
                         "may be stale)", origin=side.origin))
        for txn in side.transactions:
            holds = (txn.state in side.holders
                     and txn.state not in side.owners)
            if holds:
                if txn.lost_copy is None:
                    raise SpecError(
                        f"cache: transaction {txn.transient} starts "
                        f"from copy-holding state {txn.state} but "
                        f"declares no lost_copy continuation")
                rows.append(TransitionRow(
                    state=txn.transient, event=inv,
                    actions=("invalidate", inv_ack_send),
                    next_state=txn.lost_copy.shadow,
                    note="a racing writer won; the outstanding "
                         "request will be answered after its "
                         "transaction completes", origin=txn.origin))
                rows.append(TransitionRow(
                    state=txn.lost_copy.shadow, event=inv,
                    actions=(inv_ack_send,),
                    next_state=txn.lost_copy.shadow,
                    origin=txn.lost_copy.origin))
            else:
                rows.append(TransitionRow(
                    state=txn.transient, event=inv,
                    actions=(inv_ack_send,),
                    next_state=txn.transient,
                    note="no copy is resident; a racing invalidation "
                         "is acked and remembered against the "
                         "pending fill's sequence number",
                    origin=txn.origin))
        # ack collection is node-level (release consistency: the
        # writer only waits at fence points)
        rows.append(TransitionRow(
            state=ANY_STATE, event=ack, actions=("ack",),
            origin=side.origin))

    # --- forward closure ----------------------------------------------
    owner_only = ("the home forwards this message only to the node it "
                  "records as the exclusive owner; this state was "
                  "never recorded as owner while the transaction was "
                  "open")
    defaults = dict(side.defaults)
    if side.forwards:
        reacted = {(rx.state, rx.event) for rx in side.reactions}
        nack_transients = [(t.transient, t.origin)
                           for t in side.transactions
                           if t.state == side.initial]
        for fwd in side.forwards:
            for owner in side.owners:
                if (owner, fwd) not in reacted:
                    raise SpecError(
                        f"cache: owner state {owner} has no reaction "
                        f"for forward {fwd}")
            for st, origin in [(side.initial, side.origin)] \
                    + nack_transients:
                rows.append(TransitionRow(
                    state=st, event=fwd,
                    actions=(f"send:{side.nack}",), next_state=st,
                    guard="ownership given up; our WRITEBACK is in "
                          "flight",
                    retry=True, fairness=FIFO_FAIRNESS, origin=origin))
            # A node upgrading from a holder state can be the RECORDED
            # owner before its exclusive data arrives: the old owner's
            # ownership transfer names it in the directory while the
            # grant (and a demoting INV, for the shadow states) is
            # still in flight.  A forward landing in that window is
            # NACKed and retried.
            for txn in side.transactions:
                if txn.state == side.initial:
                    continue
                if not any(c.next_state in side.owners
                           for c in txn.completions):
                    continue
                waits = [(txn.transient, txn.origin)]
                if txn.lost_copy is not None:
                    waits.append((txn.lost_copy.shadow,
                                  txn.lost_copy.origin))
                for st, origin in waits:
                    rows.append(TransitionRow(
                        state=st, event=fwd,
                        actions=(f"send:{side.nack}",),
                        next_state=st,
                        guard="recorded as owner, but our exclusive "
                              "data is still in flight",
                        retry=True, fairness=XFER_FAIRNESS,
                        origin=origin))
            defaults.setdefault(fwd, owner_only)

    # --- event alphabet -----------------------------------------------
    stimuli = _ordered([lr.stimulus for lr in side.local_rules]
                       + [t.stimulus for t in side.transactions])
    for stim in stimuli:
        if not stim.startswith(LOCAL_PREFIX):
            raise SpecError(f"cache: stimulus {stim!r} must be local:*")
    message_events = _ordered(
        [c.event for t in side.transactions for c in t.completions]
        + [c.event for t in side.transactions if t.lost_copy
           for c in t.lost_copy.completions]
        + ([side.invalidation, side.inv_ack]
           if side.invalidation is not None else [])
        + list(side.forwards)
        + [rx.event for rx in side.reactions])
    events = stimuli + message_events

    # --- completeness closure -----------------------------------------
    handlers_of: Dict[str, List[str]] = {}
    requests_of: Dict[str, List[str]] = {}
    for txn in side.transactions:
        comps = list(txn.completions) + (
            list(txn.lost_copy.completions) if txn.lost_copy else [])
        for c in comps:
            handlers_of.setdefault(c.event, [])
            requests_of.setdefault(c.event, [])
            for lst, val in ((handlers_of[c.event], txn.transient),
                             (requests_of[c.event], txn.request)):
                if val not in lst:
                    lst.append(val)
    covered_msgs = set()
    for r in rows:
        if r.event.startswith(LOCAL_PREFIX):
            continue
        for s in (states if r.state == ANY_STATE else (r.state,)):
            covered_msgs.add((s, r.event))
    covered_msgs.update((i.state, i.event) for i in impossible)
    for ev in message_events:
        for s in states:
            if (s, ev) in covered_msgs:
                continue
            reason = defaults.get(ev)
            if reason is None and ev in handlers_of:
                reason = (f"a {ev} only answers this node's "
                          f"outstanding "
                          f"{'/'.join(requests_of[ev])} "
                          f"({' / '.join(handlers_of[ev])})")
            if reason is None:
                raise SpecError(
                    f"cache: no rule generates a row or a reason for "
                    f"({s}, {ev})")
            impossible.append(Impossible(s, ev, reason))

    return SideSpec(name="cache", initial=side.initial,
                    states=tuple(states), stable=tuple(side.stable),
                    events=tuple(events), rows=tuple(rows),
                    impossible=tuple(impossible))


def _synth_home(side: StableHomeSide) -> SideSpec:
    if side.initial not in side.stable:
        raise SpecError("home: initial state must be stable")

    busies = _ordered(f.busy for f in side.forwards)
    states = [side.initial] + [s for s in side.stable
                               if s != side.initial] + busies
    if len(set(states)) != len(states):
        raise SpecError("home: busy names collide with states")

    requests = _ordered([sv.request for sv in side.serves]
                        + [f.request for f in side.forwards])

    rows: List[TransitionRow] = []
    for sv in side.serves:
        rows.append(TransitionRow(
            state=sv.state, event=sv.request,
            actions=("begin_txn",) + _actions(sv.actions)
            + ("end_txn",),
            next_state=sv.next_state, guard=sv.guard, when=sv.when,
            note=sv.note, origin=sv.origin))
    comp_by_busy: Dict[str, Dict[str, HomeCompletion]] = {}
    fwd_of_comp: Dict[str, List[str]] = {}
    #: busy state -> the origin of the forward that introduced it
    busy_origin: Dict[str, Origin] = {}
    for f in side.forwards:
        rows.append(TransitionRow(
            state=f.state, event=f.request,
            actions=("begin_txn", f"send:{f.fwd}"), next_state=f.busy,
            note=f.note or (
                f"the transaction stays open until "
                f"{'/'.join(c.event for c in f.completions)} (or a "
                f"{side.nack} retry)"), origin=f.origin))
        busy_origin.setdefault(f.busy, f.origin)
        per_busy = comp_by_busy.setdefault(f.busy, {})
        for c in f.completions:
            prior = per_busy.get(c.event)
            if prior is not None and prior != c:
                raise SpecError(
                    f"home: busy state {f.busy} gets conflicting "
                    f"completions for {c.event}")
            per_busy[c.event] = c
            fwd_of_comp.setdefault(c.event, [])
            if f.fwd not in fwd_of_comp[c.event]:
                fwd_of_comp[c.event].append(f.fwd)
    # busy states whose completion records the requester as the new
    # dirty owner: the transfer message races the new owner's own
    # eviction writeback, and losing that race must not install
    # ownership the writer already gave up (the block would strand:
    # every forward to it would NACK and retry forever)
    transfer_busies = {
        busy for busy, comps in comp_by_busy.items()
        if any("dir:=DIRTY" in _actions(c.actions)
               for c in comps.values())}
    for busy in busies:
        origin = busy_origin[busy]
        for req in requests:
            rows.append(TransitionRow(
                state=busy, event=req, actions=("begin_txn",),
                next_state=busy,
                note="queued on the busy directory entry",
                origin=origin))
        for c in comp_by_busy[busy].values():
            actions = _actions(c.actions)
            if "dir:=DIRTY" in actions:
                rows.append(TransitionRow(
                    state=busy, event=c.event,
                    actions=actions + ("end_txn",),
                    next_state=c.next_state,
                    guard="the new owner still holds its copy",
                    when="requester_not_wrote_back", note=c.note,
                    origin=origin))
                rows.append(TransitionRow(
                    state=busy, event=c.event,
                    actions=("dir:=UNOWNED", "end_txn"),
                    next_state=side.initial,
                    guard="the new owner already evicted and wrote "
                          "back",
                    when="requester_wrote_back",
                    note="the early WRITEBACK made memory current; "
                         "recording the requester as owner now would "
                         "strand the block", origin=origin))
            else:
                rows.append(TransitionRow(
                    state=busy, event=c.event,
                    actions=actions + ("end_txn",),
                    next_state=c.next_state, note=c.note,
                    origin=origin))
    for rule in side.rules:
        rows.append(TransitionRow(
            state=rule.state, event=rule.event,
            actions=_actions(rule.actions),
            next_state=rule.next_state, guard=rule.guard,
            when=rule.when, note=rule.note, origin=rule.origin))
        if rule.race_at_busy:
            for busy in busies:
                origin = busy_origin[busy]
                if busy in transfer_busies:
                    rows.append(TransitionRow(
                        state=busy, event=rule.event,
                        actions=_actions(rule.actions),
                        next_state=busy,
                        guard="the recorded owner gave up ownership",
                        when="from_owner",
                        note="processed immediately (never queued): "
                             "the in-flight forward will be NACKed "
                             "and its retry must observe the clean "
                             "entry", origin=origin))
                    rows.append(TransitionRow(
                        state=busy, event=rule.event,
                        actions=tuple(
                            a for a in _actions(rule.actions)
                            if not a.startswith("dir:="))
                        + ("note_early_wb",),
                        next_state=busy,
                        guard="the in-flight transaction's requester "
                              "wrote back before its ownership "
                              "transfer arrived",
                        when="not_from_owner",
                        note="the directory does not record this "
                             "node as owner yet; remember the "
                             "writeback so the transfer resolves to "
                             "UNOWNED", origin=origin))
                else:
                    rows.append(TransitionRow(
                        state=busy, event=rule.event,
                        actions=_actions(rule.actions),
                        next_state=busy,
                        note="processed immediately (never queued): "
                             "the in-flight forward will be NACKed "
                             "and its retry must observe the clean "
                             "entry", origin=origin))
    for busy in busies:
        rows.append(TransitionRow(
            state=busy, event=side.nack, actions=("retry_txn",),
            next_state=side.initial, retry=True,
            fairness=FIFO_FAIRNESS,
            note="the retried request then re-runs against the clean "
                 "entry", origin=busy_origin[busy]))

    completion_events = _ordered(ev for busy in busies
                                 for ev in comp_by_busy[busy])
    rule_events = _ordered(r.event for r in side.rules)
    events = requests + completion_events + rule_events
    if side.forwards:
        events = events + [side.nack]
    events = _ordered(events)

    defaults = dict(side.defaults)
    for ev in completion_events:
        defaults.setdefault(ev, (
            f"a {ev} only completes the "
            f"{'/'.join(fwd_of_comp[ev])} of the transaction in "
            f"flight"))
    if side.forwards:
        defaults.setdefault(side.nack, (
            f"a {side.nack} only answers a forward issued by the "
            f"open transaction"))

    covered = set()
    for r in rows:
        for s in (states if r.state == ANY_STATE else (r.state,)):
            covered.add((s, r.event))
    impossible: List[Impossible] = []
    for ev in events:
        for s in states:
            if (s, ev) in covered:
                continue
            reason = defaults.get(ev)
            if reason is None:
                raise SpecError(
                    f"home: no rule generates a row or a reason for "
                    f"({s}, {ev})")
            impossible.append(Impossible(s, ev, reason))

    return SideSpec(name="home", initial=side.initial,
                    states=tuple(states), stable=tuple(side.stable),
                    events=tuple(events), rows=tuple(rows),
                    impossible=tuple(impossible))


def synthesize(stable: StableSpec) -> ProtocolSpec:
    """Derive the full transient-complete spec from ``stable``."""
    spec = ProtocolSpec(
        protocol=stable.protocol,
        description=stable.description,
        cache=_synth_cache(stable.cache),
        home=_synth_home(stable.home),
        unused_messages=stable.unused_messages)
    spec.validate()
    return spec
