"""Transient-state synthesis: a full :class:`ProtocolSpec` from a
stable-state description.

Writing a table by hand means spelling out every transient state and
every race row -- roughly three quarters of a table is bookkeeping for
messages that cross each other in flight.  This module implements what
the protocol-synthesis literature (Synthia, ProtoGen) argues for
instead: the author describes only the *stable-state* protocol --

* the stable states, and which of them hold a copy / own the block;
* the transactions that move between them (stimulus, request message,
  the completion messages that can answer it);
* how a sharer answers the directory's coherence message (an
  invalidation or an update), and how an owner answers a forward;

-- and everything transient is derived mechanically:

1. every :class:`CacheTxn` gets its declared transient state, plus (if
   the origin state holds a copy the protocol can take away) a shadow
   transient for the copy-lost continuation;
2. the coherence message gets rows at every state: the holder's
   reactions where a copy is resident (one that drops the copy moves a
   wait to its shadow), a stale ack where none is, a reasoned
   :class:`~repro.protospec.model.Impossible` at owners and at waits
   opened from an owner (the directory recalls owners with forwards);
3. directory forwards get NACK-retry rows at the initial state and at
   transients entered from it (the ex-owner's writeback race), and at
   waits for an owner grant that travels cache to cache, with the
   fairness justification the progress pass requires, and reasoned
   Impossible entries everywhere else;
4. on the home side, immediate serves are wrapped in
   ``begin_txn``/``end_txn``, each forward gets a busy transient with
   queue rows for every request, writeback-race rows, and a
   ``FWD_NACK`` retry row;
5. every remaining (state, message) pair is closed with a generated
   Impossible entry, so the completeness pass applies to synthesized
   specs exactly as to any other.

The output is an ordinary validated :class:`ProtocolSpec`:
``compile_dispatch`` executes it unchanged, every static pass applies,
and the spec-graph explorer (:mod:`repro.staticcheck.graph`) can walk
it.  Every shipped protocol is written this way:
:mod:`repro.protospec.wi` authors WI, :mod:`repro.protospec.mesi` adds
MESI's clean-exclusive deltas to it, :mod:`repro.protospec.update`
authors PU and CU, and :mod:`repro.protospec.hybrid` merges the WI and
CU tables.  ``tests/unit/test_protocol_relation.py`` pins each table's
transition relation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.protospec.model import (
    ANY_STATE, LOCAL_PREFIX, ORIGIN_FIELD, Impossible, Origin,
    ProtocolSpec, SideSpec, SpecError, TransitionRow, call_site,
    covered_pairs,
)

#: fairness justification attached to every synthesized NACK/retry row:
#: the ex-owner's WRITEBACK precedes its NACK on the same channel, so
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
    hits, silent or writeback evictions, silent upgrades), at a stable
    state or at a wait that holds a copy (its eviction)."""

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
    held a copy: a racing invalidation (or an eviction) moves the
    transient to ``shadow``, where these completions apply instead.  A
    shadow that is another transaction's transient completes as that
    transaction does, and declares no completions of its own."""

    shadow: str
    completions: Tuple[Completion, ...] = ()
    origin: Origin = field(**ORIGIN_FIELD)


@dataclass(frozen=True)
class CacheTxn(_Declaration):
    """A stimulus that opens a transaction: perform ``actions``, send
    ``request``, wait in ``transient`` for one of ``completions``."""

    state: str
    stimulus: str
    request: str
    transient: str
    completions: Tuple[Completion, ...]
    lost_copy: Optional[LostCopy] = None
    note: Optional[str] = None
    actions: str = ""
    origin: Origin = field(**ORIGIN_FIELD)


@dataclass(frozen=True)
class HolderReaction:
    """How a non-owner copy holder answers the coherence message, at a
    stable state and at every wait that holds the copy.  A reaction
    that drops the copy (``invalidate``) moves a stable holder to the
    initial state and a wait to its lost-copy shadow; any other leaves
    it where it is."""

    actions: str
    when: Optional[str] = None
    guard: Optional[str] = None
    note: Optional[str] = None


@dataclass(frozen=True)
class Reaction(_Declaration):
    """A response to a directory message at a given state (an owner
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
    goes on the rows its states and messages imply: the coherence
    message's rows at the stable states, the ack row and the initial
    state's forward NACKs."""

    initial: str
    stable: Tuple[str, ...]
    #: states holding a readable copy (targets of the coherence message)
    holders: Tuple[str, ...]
    #: states holding the (clean- or dirty-) exclusive copy; subset of
    #: holders.  Owners are recalled with forwards and never get the
    #: coherence message.
    owners: Tuple[str, ...]
    local_rules: Tuple[LocalRule, ...]
    transactions: Tuple[CacheTxn, ...]
    reactions: Tuple[Reaction, ...] = ()
    #: the coherence message the directory sends non-owner holders (an
    #: invalidation, or an update propagation) and its ack; None
    #: disables the whole closure
    invalidation: Optional[str] = "INV"
    inv_ack: str = "INV_ACK"
    #: how a non-owner holder answers it, one reaction per ``when``
    holder_reactions: Tuple[HolderReaction, ...] = ()
    #: the note on every row that only acks it because no copy is
    #: resident; None keeps the invalidation notes
    stale_note: Optional[str] = None
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
    appends ``end_txn`` unless the completion retries the stalled
    request (``retry_txn``)."""

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
    handling, under the same guard, at every busy state, processed
    immediately so the NACKed forward's retry observes the clean
    entry."""

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


def _waits(txn: CacheTxn) -> list:
    """A transaction's wait state and its lost-copy shadow, each with
    the declaration that introduced it."""
    return [(txn.transient, txn)] + (
        [(txn.lost_copy.shadow, txn.lost_copy)] if txn.lost_copy else [])


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
            actions=_actions(txn.actions) + (f"send:{txn.request}",),
            next_state=txn.transient, note=txn.note, origin=txn.origin))
        for state, wait in _waits(txn):
            rows.extend(TransitionRow(
                state=state, event=c.event, actions=_actions(c.actions),
                next_state=c.next_state, guard=c.guard, when=c.when,
                note=c.note, origin=wait.origin)
                for c in wait.completions)
    for rx in side.reactions:
        rows.append(TransitionRow(
            state=rx.state, event=rx.event,
            actions=_actions(rx.actions), next_state=rx.next_state,
            note=rx.note, origin=rx.origin))

    impossible: List[Impossible] = []
    defaults = dict(side.defaults)

    # --- coherence-message closure ------------------------------------
    if side.invalidation is not None:
        inv, ack = side.invalidation, side.inv_ack
        ack_only = (f"send:{ack}",)
        at_owner = defaults.get(inv, (
            "the directory never invalidates the exclusive owner; "
            "ownership moves via " + "/".join(side.forwards)))
        acked = set()

        def react(state, drop_to, origin, note=None) -> None:
            for hr in side.holder_reactions:
                drops = "invalidate" in _actions(hr.actions)
                rows.append(TransitionRow(
                    state=state, event=inv, actions=_actions(hr.actions),
                    next_state=drop_to if drops else state,
                    guard=hr.guard, when=hr.when,
                    note=hr.note or (note if drops else None),
                    origin=origin))

        def stale(state, origin, note) -> None:
            # a shadow that is another transaction's wait gets one row
            if state not in acked:
                acked.add(state)
                rows.append(TransitionRow(
                    state=state, event=inv, actions=ack_only,
                    next_state=state, note=side.stale_note or note,
                    origin=origin))

        for s in side.stable:
            if s in side.owners:
                impossible.append(Impossible(s, inv, at_owner))
            elif s in side.holders:
                react(s, side.initial, side.origin)
            else:
                stale(s, side.origin,
                      "stale invalidation for a copy already dropped; "
                      "acked harmlessly (full-map bits may be stale)")
        for txn in side.transactions:
            if txn.state in side.owners:
                impossible.append(Impossible(txn.transient, inv,
                                             at_owner))
            elif txn.state in side.holders:
                if txn.lost_copy is None:
                    raise SpecError(
                        f"cache: transaction {txn.transient} starts "
                        f"from copy-holding state {txn.state} but "
                        f"declares no lost_copy continuation")
                react(txn.transient, txn.lost_copy.shadow, txn.origin,
                      "a racing writer won; the outstanding request "
                      "will be answered after its transaction "
                      "completes")
                stale(txn.lost_copy.shadow, txn.lost_copy.origin, None)
            else:
                stale(txn.transient, txn.origin,
                      "no copy is resident; a racing invalidation is "
                      "acked and remembered against the pending "
                      "fill's sequence number")
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
    if side.forwards:
        reacted = {(rx.state, rx.event) for rx in side.reactions}
        nack_transients = [(t.transient, t.origin)
                           for t in side.transactions
                           if t.state == side.initial]
        # messages an owner's reaction sends cache to cache
        relayed = {a[len("send:"):] for rx in side.reactions
                   for a in _actions(rx.actions)
                   if a.startswith("send:")}
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
            # NACKed and retried.  A grant the home sends itself
            # travels on the forward's own channel, so it cannot be
            # overtaken: that window only opens cache to cache.
            for txn in side.transactions:
                if txn.state == side.initial or not any(
                        c.next_state in side.owners and c.event in relayed
                        for c in txn.completions):
                    continue
                for st, wait in _waits(txn):
                    rows.append(TransitionRow(
                        state=st, event=fwd,
                        actions=(f"send:{side.nack}",),
                        next_state=st,
                        guard="recorded as owner, but our exclusive "
                              "data is still in flight",
                        retry=True, fairness=XFER_FAIRNESS,
                        origin=wait.origin))
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
        for c in (c for _, wait in _waits(txn) for c in wait.completions):
            handlers_of.setdefault(c.event, [])
            requests_of.setdefault(c.event, [])
            for lst, val in ((handlers_of[c.event], txn.transient),
                             (requests_of[c.event], txn.request)):
                if val not in lst:
                    lst.append(val)
    covered_msgs = covered_pairs(rows, states) | {
        (i.state, i.event) for i in impossible}
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
                # a completion that retries the stalled request leaves
                # the transaction open for the retry to close
                if "retry_txn" not in actions:
                    actions += ("end_txn",)
                rows.append(TransitionRow(
                    state=busy, event=c.event, actions=actions,
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
                        next_state=busy, guard=rule.guard,
                        when=rule.when,
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

    covered = covered_pairs(rows, states)
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
