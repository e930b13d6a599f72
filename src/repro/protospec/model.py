"""Declarative protocol transition tables.

A :class:`ProtocolSpec` is a JSON-serializable description of one
coherence protocol as two finite state machines -- the **cache side**
(the life of a block in one node's cache) and the **home side** (the
life of the block's directory entry at its home node).  Each side lists
its states (stable and transient), the events it can receive, and a set
of :class:`TransitionRow` entries::

    (state, event) -> (guard, actions, next_state)

Events are either coherence message types (the ``MsgType`` member name,
e.g. ``"INV"``) or processor-local stimuli namespaced ``local:*``
(``local:read``, ``local:store``, ``local:atomic``, ``local:evict``).
Guards and actions are symbolic strings drawn from a fixed vocabulary
(:data:`ACTION_VOCABULARY`) that mirrors what the imperative handlers in
:mod:`repro.protocols` actually do -- ``send:INV``, ``cache:=M``,
``install``, ``ack`` and so on -- which is what lets the refinement
check (:mod:`repro.staticcheck.refinement`) match every transition the
handlers execute to a row.  Each row also records where it was
declared (``origin``, outside its JSON form).

Pairs that can never occur are not simply left out: they are declared
:class:`Impossible` with a written reason, so the completeness check can
tell "thought about and ruled out" apart from "forgot".

Everything here is deliberately dependency-light (``repro.network`` and
the stdlib only): the tables are imported by the protocol layer itself
for the fail-fast handler validation, so this module must not import
:mod:`repro.protocols`.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from repro.network.messages import MsgType

#: wildcard state for rows that apply in any state (node-level effects
#: such as ack collection, which do not depend on the block's state)
ANY_STATE = "*"

#: prefix of processor-local (non-message) events
LOCAL_PREFIX = "local:"

#: the local events the specs may use, and the controller entry point
#: each one corresponds to (where the refinement check records it)
LOCAL_EVENTS = {
    "local:read": "read",
    "local:store": "_retire",
    "local:atomic": "_start_atomic",
    "local:evict": "_evict_protocol",
}

#: every legal non-``send:`` / non-state-write action token, with what
#: it means in the imperative controllers
ACTION_VOCABULARY = {
    "install": "self.cache.install(...) of a data reply",
    "invalidate": "self.cache.invalidate(...)",
    "fill": "self._complete_fill(...): install + resume stalled read",
    "apply_store": "self._apply_store(...): retire the head store locally",
    "finish_atomic": "self._run_atomic(...) of the pending atomic",
    "evict": "self._evict(...): displacement of a victim line",
    "ack": "self._ack_collected(): one expected ack arrived",
    "retire_done": "self._retire_done(): head write globally performed",
    "begin_txn": "self._begin_txn(...): serialize on the directory entry",
    "end_txn": "self._end_txn(...): release the directory entry",
    "retry_txn": "self._retry_txn(...): re-dispatch after a race",
    "cache_write": "self.cache.write_word(...)",
    "mem_write": "home memory write (word or block)",
    "atomic_op": "apply_atomic(...) executed here",
    "note_early_wb": "record a mid-transaction writeback from the "
                     "node an in-flight DIRTY_TRANSFER will name as "
                     "owner (DirEntry.early_wb_mask)",
}

#: machine-evaluable guard predicates.  ``guard`` stays the prose
#: explanation for humans; ``when`` is the predicate the spec-graph
#: explorer (:mod:`repro.staticcheck.graph`) evaluates when several
#: rows share a (state, event) pair.  Rows without a ``when`` are
#: explored nondeterministically (sound over-approximation).
WHEN_VOCABULARY = {
    "requester_is_sharer": "the requesting node is on the sharer list",
    "requester_not_sharer": "the requesting node is no longer on the "
                            "sharer list",
    "other_sharers": "at least one node other than the writer shares "
                     "the block",
    "sole_sharer_retain": "the writer is the only sharer and "
                          "retain-private is enabled",
    "sole_sharer_no_retain": "the writer is the only sharer and "
                             "retain-private is disabled",
    "other_sharers_remain": "removing the sender leaves the sharer "
                            "list non-empty",
    "last_sharer": "the sender was the last sharer",
    "from_owner": "the sender is the recorded dirty owner",
    "not_from_owner": "the sender is not the recorded dirty owner",
    "msg_retain": "the message carries a retain grant",
    "msg_no_retain": "the message carries no retain grant",
    "counter_below": "the per-line update counter is below the "
                     "threshold",
    "counter_at_threshold": "the per-line update counter reaches the "
                            "threshold",
    "requester_wrote_back": "the open transaction's requester already "
                            "wrote the block back (early writeback)",
    "requester_not_wrote_back": "no early writeback from the open "
                                "transaction's requester",
}

_STATE_WRITE_PREFIXES = ("cache:=", "dir:=")


def _is_known_action(action: str) -> bool:
    if action in ACTION_VOCABULARY:
        return True
    if action.startswith("send:"):
        return action[len("send:"):] in MsgType.__members__
    return any(action.startswith(p) for p in _STATE_WRITE_PREFIXES)


class SpecError(ValueError):
    """A malformed protocol spec (unknown state/event/action...)."""


#: ``(file, line)`` of the call that declared a row, or None
Origin = Optional[Tuple[str, int]]

#: the field every declaration keeps its origin in: out of equality,
#: hashing and the JSON form, so it moves no spec or row digest
ORIGIN_FIELD = dict(default=None, compare=False, repr=False)


def call_site(depth: int = 1) -> Tuple[str, int]:
    """``(file, line)`` of the call ``depth`` frames above the caller
    (1: the caller's caller).  Reads the frame, not the source file."""
    frame = sys._getframe(depth + 1)
    return frame.f_code.co_filename, frame.f_lineno


def covered_pairs(rows, states) -> Set[Tuple[str, str]]:
    """The (state, event) pairs ``rows`` cover, a wildcard row standing
    for every state in ``states``."""
    return {(s, r.event) for r in rows
            for s in (states if r.state == ANY_STATE else (r.state,))}


@dataclass(frozen=True)
class TransitionRow:
    """One ``(state, event) -> (guard, actions, next_state)`` row.

    ``state`` may be :data:`ANY_STATE`; ``next_state`` ``None`` means
    "unchanged".  ``guard`` is a symbolic condition (``None`` = always);
    two rows for the same (state, event) must have distinct guards.
    ``retry`` marks rows that re-issue/retry without making protocol
    progress; a cycle of retry rows must carry a ``fairness``
    justification or the progress check flags it.  ``when`` is the
    optional machine-evaluable counterpart of ``guard``, drawn from
    :data:`WHEN_VOCABULARY`.  ``origin`` is where the row was
    declared (a spec builder's call; None for a row read from JSON).
    """

    state: str
    event: str
    actions: Tuple[str, ...]
    next_state: Optional[str] = None
    guard: Optional[str] = None
    retry: bool = False
    fairness: Optional[str] = None
    note: Optional[str] = None
    when: Optional[str] = None
    origin: Origin = field(**ORIGIN_FIELD)

    #: :meth:`__hash__`, once computed.  Not a field (out of equality,
    #: repr, JSON and ``dataclasses.replace``), set like
    #: ``RunSpec._key``, and left out of pickles and copies: ``str``
    #: hashes are salted per process.
    _hash = None

    def __hash__(self) -> int:
        # the value the dataclass would generate (the compare fields'
        # tuple, ``origin`` left out), kept: the spec-graph explorer
        # hashes rows on every edge
        h = self._hash
        if h is None:
            h = hash((self.state, self.event, self.actions,
                      self.next_state, self.guard, self.retry,
                      self.fairness, self.note, self.when))
            object.__setattr__(self, "_hash", h)
        return h

    def __getstate__(self) -> dict:
        state = dict(self.__dict__)
        state.pop("_hash", None)
        return state

    def to_json(self) -> dict:
        out: dict = {"state": self.state, "event": self.event,
                     "actions": list(self.actions)}
        if self.next_state is not None:
            out["next_state"] = self.next_state
        if self.guard is not None:
            out["guard"] = self.guard
        if self.retry:
            out["retry"] = True
        if self.fairness is not None:
            out["fairness"] = self.fairness
        if self.note is not None:
            out["note"] = self.note
        if self.when is not None:
            out["when"] = self.when
        return out

    @classmethod
    def from_json(cls, data: dict) -> "TransitionRow":
        return cls(state=data["state"], event=data["event"],
                   actions=tuple(data["actions"]),
                   next_state=data.get("next_state"),
                   guard=data.get("guard"),
                   retry=bool(data.get("retry", False)),
                   fairness=data.get("fairness"),
                   note=data.get("note"),
                   when=data.get("when"))


@dataclass(frozen=True)
class Impossible:
    """A (state, event) pair declared unreachable, with the reason."""

    state: str
    event: str
    reason: str

    def to_json(self) -> dict:
        return {"state": self.state, "event": self.event,
                "reason": self.reason}

    @classmethod
    def from_json(cls, data: dict) -> "Impossible":
        return cls(state=data["state"], event=data["event"],
                   reason=data["reason"])


@dataclass(frozen=True)
class SideSpec:
    """One side (cache or home) of a protocol as a finite state machine."""

    name: str                       # "cache" | "home"
    initial: str
    states: Tuple[str, ...]         # stable + transient, initial first
    stable: Tuple[str, ...]         # subset of states
    events: Tuple[str, ...]         # MsgType names + local:* stimuli
    rows: Tuple[TransitionRow, ...]
    impossible: Tuple[Impossible, ...] = ()

    # -- convenience views ---------------------------------------------

    def message_events(self) -> Tuple[str, ...]:
        return tuple(e for e in self.events
                     if not e.startswith(LOCAL_PREFIX))

    def rows_for(self, state: str, event: str) -> List[TransitionRow]:
        """Rows matching (state, event), wildcard rows included."""
        return [r for r in self.rows if r.event == event
                and r.state in (state, ANY_STATE)]

    def impossible_for(self, state: str, event: str) -> Optional[Impossible]:
        for imp in self.impossible:
            if imp.state == state and imp.event == event:
                return imp
        return None

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "initial": self.initial,
            "states": list(self.states),
            "stable": list(self.stable),
            "events": list(self.events),
            "rows": [r.to_json() for r in self.rows],
            "impossible": [i.to_json() for i in self.impossible],
        }

    @classmethod
    def from_json(cls, data: dict) -> "SideSpec":
        return cls(name=data["name"], initial=data["initial"],
                   states=tuple(data["states"]),
                   stable=tuple(data["stable"]),
                   events=tuple(data["events"]),
                   rows=tuple(TransitionRow.from_json(r)
                              for r in data["rows"]),
                   impossible=tuple(Impossible.from_json(i)
                                    for i in data.get("impossible", ())))


@dataclass(frozen=True)
class ProtocolSpec:
    """A whole protocol: cache side + home side + metadata."""

    protocol: str                   # a Protocol member's value
    description: str
    cache: SideSpec
    home: SideSpec
    #: MsgType names this protocol never uses at all (with the reason),
    #: e.g. WI never speaks UPDATE; used by the orphan-message check
    unused_messages: Tuple[Tuple[str, str], ...] = ()

    @property
    def sides(self) -> Tuple[SideSpec, SideSpec]:
        return (self.cache, self.home)

    def side(self, name: str) -> SideSpec:
        for s in self.sides:
            if s.name == name:
                return s
        raise KeyError(name)

    def receivable(self) -> FrozenSet[MsgType]:
        """Every message type a node running this protocol can receive
        (either side; one controller plays both roles)."""
        names = set()
        for s in self.sides:
            names.update(s.message_events())
        return frozenset(MsgType[n] for n in names)

    def used_messages(self) -> FrozenSet[str]:
        """Message-type names mentioned anywhere in the spec (events or
        ``send:`` actions)."""
        used = {e for s in self.sides for e in s.message_events()}
        for s in self.sides:
            for r in s.rows:
                for a in r.actions:
                    if a.startswith("send:"):
                        used.add(a[len("send:"):])
        return frozenset(used)

    # -- validation ----------------------------------------------------

    def validate(self) -> None:
        """Raise :class:`SpecError` on structural problems: unknown
        states/events/actions, rows outside the declared alphabets,
        duplicate state names, bad initial state."""
        for side in self.sides:
            where = f"{self.protocol}/{side.name}"
            if len(set(side.states)) != len(side.states):
                raise SpecError(f"{where}: duplicate state names")
            if side.initial not in side.states:
                raise SpecError(
                    f"{where}: initial state {side.initial!r} is not in "
                    f"the state list")
            unknown = set(side.stable) - set(side.states)
            if unknown:
                raise SpecError(
                    f"{where}: stable states {sorted(unknown)} not in "
                    f"the state list")
            for ev in side.events:
                if ev.startswith(LOCAL_PREFIX):
                    if ev not in LOCAL_EVENTS:
                        raise SpecError(
                            f"{where}: unknown local event {ev!r}")
                elif ev not in MsgType.__members__:
                    raise SpecError(
                        f"{where}: {ev!r} is not a MsgType name")
            for row in side.rows:
                rwhere = f"{where}: row ({row.state}, {row.event})"
                if row.state != ANY_STATE and row.state not in side.states:
                    raise SpecError(f"{rwhere}: unknown state")
                if row.event not in side.events:
                    raise SpecError(
                        f"{rwhere}: event not in the side's alphabet")
                if row.next_state is not None \
                        and row.next_state not in side.states:
                    raise SpecError(
                        f"{rwhere}: unknown next_state "
                        f"{row.next_state!r}")
                for action in row.actions:
                    if not _is_known_action(action):
                        raise SpecError(
                            f"{rwhere}: unknown action {action!r}")
                if row.when is not None \
                        and row.when not in WHEN_VOCABULARY:
                    raise SpecError(
                        f"{rwhere}: unknown when-predicate "
                        f"{row.when!r}")
            for imp in side.impossible:
                iwhere = f"{where}: impossible ({imp.state}, {imp.event})"
                if imp.state not in side.states:
                    raise SpecError(f"{iwhere}: unknown state")
                if imp.event not in side.events:
                    raise SpecError(
                        f"{iwhere}: event not in the side's alphabet")
                if not imp.reason.strip():
                    raise SpecError(f"{iwhere}: empty reason")
        for name, reason in self.unused_messages:
            if name not in MsgType.__members__:
                raise SpecError(
                    f"{self.protocol}: unused_messages entry {name!r} "
                    f"is not a MsgType name")
            if not reason.strip():
                raise SpecError(
                    f"{self.protocol}: unused message {name} needs a "
                    f"reason")

    # -- serialization -------------------------------------------------

    def to_json(self) -> dict:
        return {
            "protocol": self.protocol,
            "description": self.description,
            "cache": self.cache.to_json(),
            "home": self.home.to_json(),
            "unused_messages": [list(u) for u in self.unused_messages],
        }

    @classmethod
    def from_json(cls, data: dict) -> "ProtocolSpec":
        return cls(protocol=data["protocol"],
                   description=data["description"],
                   cache=SideSpec.from_json(data["cache"]),
                   home=SideSpec.from_json(data["home"]),
                   unused_messages=tuple(
                       (n, r) for n, r in data.get("unused_messages", ())))

    def dumps(self, **kw) -> str:
        kw.setdefault("indent", 2)
        kw.setdefault("sort_keys", True)
        return json.dumps(self.to_json(), **kw)

    @classmethod
    def loads(cls, text: str) -> "ProtocolSpec":
        return cls.from_json(json.loads(text))
