"""Exhaustive spec-graph exploration: tables only, no simulator.

Builds the **product graph** of two cache-side machines and one
home-side machine executing a :class:`~repro.protospec.ProtocolSpec`
symbolically -- every reachable combination of cache states, home
state, directory bookkeeping (owner / sharers), in-flight messages and
outstanding acks, under every message interleaving the network allows
(per-(src,dst) FIFO channels, arbitrary cross-channel reordering) --
and checks, statically:

* **deadlock-freedom** -- no reachable non-quiescent state without a
  successor (a transaction that can never complete);
* **livelock-freedom** -- from every reachable state some quiescent
  state is reachable (retry/NACK loops must terminate under the FIFO
  fairness the tables claim);
* **message-race completeness** -- no reachable delivery hits a
  ``(state, event)`` pair the spec declared :class:`Impossible` (the
  written reason was wrong) or left without a row;
* **stale-copy freedom** -- at quiescence every resident copy holds
  the latest serialized write, and memory does too whenever no owner
  is recorded;
* **cu-counter** -- a resident update-managed line never reaches the
  competitive threshold;
* **coverage** -- spec states or rows never exercised by any
  interleaving are reported (dead transients rot).

Every violation carries a **minimized counterexample path** (BFS finds
shortest traces) whose steps name the rows that fired, each with the
``file:line`` of the spec declaration it came from (its ``origin``).

The two cache agents are interchangeable -- no table row names an
agent, routing is by role, and ``when`` predicates compare agent ids
only by equality and membership -- so the swap of agents 0 and 1 maps
successors to successors and every check above to itself.  The
explorer therefore visits each state once up to that **mirror**: a
new state is interned under its own key and its mirror's, and is
expanded as first reached, so paths stay concrete.

The model is deliberately small and finite:

* one block, two cache agents, one home -- every protocol race in
  :mod:`repro.protospec` is a two-party race (requester vs. owner or
  requester vs. sharer) plus the home;
* each agent issues at most ``max_ops`` processor operations (read /
  store / atomic / evict), so writes -- and therefore data versions --
  are bounded;
* data freshness is abstract: a copy / memory / message is ``F``
  (holds the latest serialized write), ``S`` (stale), or ``P`` (a
  write-through copy whose UPDATE has not been serialized by the home
  yet).  Serialization points follow the protocols: immediate at the
  cache for invalidation-style exclusive writes, at the home for
  write-throughs and home-side atomics;
* the competitive-update counter is modeled directly with a small
  threshold.

``hybrid`` specs are explored by guard-prefix projection: the
"WI-managed block" and "update-managed block" sub-machines run
separately (a block is managed by exactly one base protocol, so the
product of the two is never reachable) and coverage is the union.

:data:`SPEC_MUTATIONS` mirrors the four seeded runtime mutations of
:mod:`repro.modelcheck.mutations` at the table level; the explorer
must catch each one with a counterexample path, which is what
``staticcheck --graph-mutants`` (and the cross-validation test) pins.
"""

from __future__ import annotations

import gc
from array import array
from collections import deque
from dataclasses import dataclass, replace
from typing import (
    Callable, Dict, FrozenSet, List, NamedTuple, Optional, Set, Tuple,
)

from repro.protospec.model import (
    LOCAL_PREFIX, ProtocolSpec, SideSpec, TransitionRow,
)
from repro.staticcheck.report import Finding, source_path

#: the two cache agents; the home is its own third party
AGENTS = (0, 1)
HOME = "home"

#: freshness tags (see module docstring)
FRESH, STALE, PENDING = "F", "S", "P"

# ---------------------------------------------------------------------
# message routing
# ---------------------------------------------------------------------

#: cache-side sends addressed to the home
_TO_HOME = frozenset((
    "READ_REQ", "RDEX_REQ", "UPGRADE_REQ", "UPDATE", "ATOMIC_REQ",
    "WRITEBACK", "DROP_NOTICE", "REPL_HINT", "SHARING_WB",
    "DIRTY_TRANSFER", "RECALL_REPLY", "FWD_NACK",
))
#: cache-side sends addressed to the requester of the triggering
#: message (acks and owner-to-requester data)
_TO_REQUESTER = frozenset((
    "INV_ACK", "UPD_ACK", "OWNER_DATA", "OWNER_DATA_EX",
))
#: home-side sends addressed to the requester being served
_HOME_TO_REQUESTER = frozenset((
    "READ_REPLY", "RDEX_REPLY", "UPGRADE_REPLY", "EXCL_REPLY",
    "WRITER_ACK", "ATOMIC_REPLY",
))
#: home-side sends addressed to the recorded owner
_HOME_TO_OWNER = frozenset(("FETCH_FWD", "FETCH_INV_FWD", "RECALL"))
#: home-side fanout to every sharer except the requester
_HOME_FANOUT = frozenset(("INV", "UPD_PROP"))

#: sends that carry the sender's copy data (tag captured at row entry)
_CARRIES_COPY = frozenset((
    "OWNER_DATA", "OWNER_DATA_EX", "WRITEBACK", "SHARING_WB",
    "RECALL_REPLY",
))
#: home sends that carry memory data
_CARRIES_MEM = frozenset((
    "READ_REPLY", "RDEX_REPLY", "EXCL_REPLY", "ATOMIC_REPLY",
    "UPD_PROP",
))
#: data grants a waiting cache will install/fill from; an INV fanned
#: while one is in flight to its target is NEWER than that grant and
#: must invalidate what it installs (it is not born stale)
_DATA_GRANTS = frozenset((
    "READ_REPLY", "OWNER_DATA", "RDEX_REPLY", "OWNER_DATA_EX",
    "UPGRADE_REPLY", "EXCL_REPLY",
))
#: grants whose ``nacks`` field tells the requester how many acks the
#: same serving row fanned out on its behalf
_CARRIES_NACKS = frozenset((
    "RDEX_REPLY", "UPGRADE_REPLY", "WRITER_ACK", "ATOMIC_REPLY",
))


class Msg(NamedTuple):
    """One in-flight message (no payload beyond the freshness tag).  A
    named tuple, so the states that hold it hash and compare in C."""

    type: str
    src: object                  # 0 | 1 | "home"
    dst: object
    requester: int
    tag: str = FRESH
    nacks: int = 0
    retain: bool = False
    #: an INV whose target copy was replaced while it was in flight;
    #: the runtime filters these with install sequence numbers
    #: (``line.seq <= msg.seq``), the model with this flag
    stale_epoch: bool = False

    def label(self) -> str:
        return f"{self.type} {self.src}->{self.dst}"


_CHANNELS = ((0, HOME), (1, HOME), (HOME, 0), (HOME, 1), (0, 1), (1, 0))
#: (src, dst) -> the channel's index in ``World.chans``
_CHANNEL_INDEX = {chan: i for i, chan in enumerate(_CHANNELS)}

# ---------------------------------------------------------------------
# the interned state store
# ---------------------------------------------------------------------

#: the ``poisoned`` pairs, interned apart from every other part: a bool
#: pair equals the int pair with the same values, and an ``acks`` pair
#: must stay ints (a deadlock's detail prints it)
_FLAG_PAIRS = {(a, b): (a, b) for a in (False, True) for b in (False, True)}


def _interned(frozen: tuple, parts: dict) -> tuple:
    """``frozen``, rebuilt from the copy ``parts`` holds of each of its
    parts (adding the parts it does not hold yet).  Across the states
    one ``parts`` interns, equal per-agent pairs, agent sets, message
    tuples (channels and the home queue) and ``chans`` tuples are then
    one object.  The result is the exact tuple, equal to ``frozen``."""
    part = parts.setdefault
    (cstate, copy, acks, budget, poisoned, home, owner, sharers, mem,
     open_txn, queue, chans, early_wb) = frozen
    known = parts.get(chans)
    if known is None:
        # most new states share their channels with an earlier state,
        # so the channels are interned one by one only when they do not
        known = tuple(map(part, chans, chans))
        parts[known] = known
    # ``open_txn`` needs no interning: it is a message of an interned
    # channel or queue, or the Mirror's shared image of one
    return (part(cstate, cstate), part(copy, copy), part(acks, acks),
            part(budget, budget), _FLAG_PAIRS[poisoned], home, owner,
            part(sharers, sharers), mem, open_txn, part(queue, queue),
            known, part(early_wb, early_wb))


# ---------------------------------------------------------------------
# the agent mirror
# ---------------------------------------------------------------------

#: the party each party becomes when agents 0 and 1 swap
_SWAP = {0: 1, 1: 0, HOME: HOME}
#: channel i of a mirrored state carries channel _MIRROR_CHANNEL[i]
_MIRROR_CHANNEL = tuple(_CHANNEL_INDEX[_SWAP[src], _SWAP[dst]]
                        for src, dst in _CHANNELS)
#: agent sets (sharers, early writebacks) under the swap
_MIRROR_SET = {s: frozenset(_SWAP[a] for a in s) for s in (
    frozenset(), frozenset((0,)), frozenset((1,)), frozenset((0, 1)))}


def _mirror_msg(m: Msg) -> Msg:
    return Msg(m.type, _SWAP[m.src], _SWAP[m.dst], _SWAP[m.requester],
               m.tag, m.nacks, m.retain, m.stale_epoch)


class Mirror(dict):
    """The swap of agents 0 and 1 on frozen states: per-agent fields
    trade places, agent ids in the directory and in every queued, open
    or in-flight message are renamed, and the channels trade places.

    Call it on a frozen state.  As a dict it maps each message tuple
    (a channel, the home queue, or the open transaction's request as a
    1-tuple) to its mirror, filled on first use: a spec graph holds a
    few hundred distinct ones, so an exploration builds one ``Mirror``
    and mirrors each of them once.  The tuples of an image come from
    ``parts``, the table :func:`_interned` interns keys with, so an
    image is interned as it is built."""

    def __init__(self, parts: dict) -> None:
        super().__init__()
        self.parts = parts

    def __missing__(self, msgs: Tuple[Msg, ...]) -> Tuple[Msg, ...]:
        mirrored = tuple(map(_mirror_msg, msgs))
        self[msgs] = mirrored = self.parts.setdefault(mirrored, mirrored)
        return mirrored

    def __call__(self, frozen: tuple) -> tuple:
        part = self.parts.setdefault
        (cstate, copy, acks, budget, poisoned, home, owner, sharers, mem,
         open_txn, queue, chans, early_wb) = frozen
        pairs = ((cstate[1], cstate[0]), (copy[1], copy[0]),
                 (acks[1], acks[0]), (budget[1], budget[0]))
        chans = tuple(map(self.__getitem__,
                          map(chans.__getitem__, _MIRROR_CHANNEL)))
        return (*map(part, pairs, pairs),
                _FLAG_PAIRS[poisoned[1], poisoned[0]], home,
                None if owner is None else _SWAP[owner],
                _MIRROR_SET[sharers], mem,
                None if open_txn is None else self[(open_txn,)][0],
                self[queue], part(chans, chans), _MIRROR_SET[early_wb])


class World:
    """One mutable product state (frozen to a tuple for hashing)."""

    __slots__ = ("cstate", "copy", "acks", "budget", "poisoned", "home",
                 "owner", "sharers", "mem", "open_txn", "queue", "chans",
                 "early_wb")

    cstate: List[str]
    copy: List[Optional[Tuple[str, int]]]    # (tag, counter) | None
    acks: List[int]
    budget: List[int]
    #: a current-epoch INV overtook this agent's pending read fill;
    #: the fill's data will be consumed once and the block dropped
    #: (PendingFill.inv_seq in the runtime)
    poisoned: List[bool]
    home: str
    owner: Optional[int]
    sharers: FrozenSet[int]
    mem: str
    open_txn: Optional[Msg]
    queue: Tuple[Msg, ...]
    #: one FIFO per entry of ``_CHANNELS``, in that order
    chans: List[Tuple[Msg, ...]]
    #: agents whose WRITEBACK arrived mid-transaction, before the
    #: DIRTY_TRANSFER naming them owner (DirEntry.early_wb_mask)
    early_wb: FrozenSet[int]

    def __init__(self, cstate, copy, acks, budget, poisoned, home, owner,
                 sharers, mem, open_txn, queue, chans, early_wb) -> None:
        self.cstate = cstate
        self.copy = copy
        self.acks = acks
        self.budget = budget
        self.poisoned = poisoned
        self.home = home
        self.owner = owner
        self.sharers = sharers
        self.mem = mem
        self.open_txn = open_txn
        self.queue = queue
        self.chans = chans
        self.early_wb = early_wb

    def clone(self) -> "World":
        return World(list(self.cstate), list(self.copy), list(self.acks),
                     list(self.budget), list(self.poisoned), self.home,
                     self.owner, self.sharers, self.mem, self.open_txn,
                     self.queue, list(self.chans), self.early_wb)

    def freeze(self) -> tuple:
        return (tuple(self.cstate), tuple(self.copy), tuple(self.acks),
                tuple(self.budget), tuple(self.poisoned),
                self.home, self.owner, self.sharers,
                self.mem, self.open_txn, self.queue,
                tuple(self.chans), self.early_wb)

    @staticmethod
    def thaw(frozen: tuple) -> "World":
        """The world :meth:`freeze` made ``frozen`` from: the frozen
        fields are exactly the slots, so nothing is lost.  Its
        per-agent fields and channels are the key's own tuples, so it
        can be read and cloned but not changed in place; successors
        are made from clones, whose fields are lists."""
        return World(*frozen)

    # -- network ------------------------------------------------------

    def push(self, msg: Msg) -> None:
        i = _CHANNEL_INDEX[msg.src, msg.dst]
        self.chans[i] = self.chans[i] + (msg,)

    def in_flight(self) -> bool:
        return any(self.chans)

    # -- freshness ----------------------------------------------------

    def serialize_write(self) -> None:
        """A new write enters the coherence order: everything that was
        'latest' is now stale; the caller marks the new owners fresh.
        ``P`` copies/messages are untouched -- their writes are still
        ahead in the (unserialized) future."""
        for i in AGENTS:
            if self.copy[i] is not None and self.copy[i][0] == FRESH:
                self.copy[i] = (STALE, self.copy[i][1])
        if self.mem == FRESH:
            self.mem = STALE
        chans = self.chans
        for i, chan in enumerate(chans):
            if chan:
                chans[i] = tuple(m._replace(tag=STALE) if m.tag == FRESH
                                 else m for m in chan)

    def new_epoch(self, agent: int) -> None:
        """``agent``'s copy just died (or was replaced in place): any
        INV still in flight to it was issued against that dead epoch,
        and anything installed from now on carries a larger install
        sequence number.  The runtime's ``line.seq <= msg.seq`` guard
        makes the cache ack-and-ignore those stale INVs; mark them so
        the model can do the same."""
        chans = self.chans
        for i, (_, dst) in enumerate(_CHANNELS):
            if dst != agent or not chans[i]:
                continue
            chans[i] = tuple(m._replace(stale_epoch=True)
                             if m.type == "INV" else m for m in chans[i])


def initial_world(max_ops: int) -> World:
    return World(cstate=["", ""], copy=[None, None], acks=[0, 0],
                 budget=[max_ops, max_ops], poisoned=[False, False],
                 home="", owner=None,
                 sharers=frozenset(), mem=FRESH, open_txn=None,
                 queue=(), chans=[() for _ in _CHANNELS],
                 early_wb=frozenset())


# ---------------------------------------------------------------------
# when-predicate evaluation
# ---------------------------------------------------------------------

def _when_ok(when: str, msg: Optional[Msg], world: World,
             agent: Optional[int], retain: bool, threshold: int) -> bool:
    """Evaluate one WHEN_VOCABULARY predicate in context."""
    sharers = world.sharers
    if when == "requester_is_sharer":
        return msg.requester in sharers
    if when == "requester_not_sharer":
        return msg.requester not in sharers
    if when == "other_sharers":
        return bool(sharers - {msg.requester})
    if when == "sole_sharer_retain":
        return sharers <= {msg.requester} and retain
    if when == "sole_sharer_no_retain":
        return sharers <= {msg.requester} and not retain
    if when == "other_sharers_remain":
        return bool(sharers - {msg.src})
    if when == "last_sharer":
        return not (sharers - {msg.src})
    if when == "from_owner":
        return msg.src == world.owner
    if when == "not_from_owner":
        return msg.src != world.owner
    if when == "msg_retain":
        return msg.retain
    if when == "msg_no_retain":
        return not msg.retain
    if when == "counter_below":
        counter = world.copy[agent][1] if world.copy[agent] else 0
        return counter + 1 < threshold
    if when == "counter_at_threshold":
        counter = world.copy[agent][1] if world.copy[agent] else 0
        return counter + 1 >= threshold
    if when == "requester_wrote_back":
        return msg.requester in world.early_wb
    if when == "requester_not_wrote_back":
        return msg.requester not in world.early_wb
    raise ValueError(f"unknown when-predicate {when!r}")


# ---------------------------------------------------------------------
# the explorer
# ---------------------------------------------------------------------

class Violation(NamedTuple):
    """One finding of a run, at the first state (in BFS order) that
    shows it."""

    kind: str
    detail: str
    sid: int
    #: ``(kind, text)``, the same for a state and its mirror: ``text``
    #: is the detail without the agent it names (for a deadlock, the
    #: smaller of the two orientations' details)
    key: tuple


class _Stuck(Exception):
    """A delivery hit a pair with no row: completeness violation."""

    def __init__(self, finding_kind: str, detail: str) -> None:
        super().__init__(detail)
        self.finding_kind = finding_kind
        self.detail = detail


@dataclass(frozen=True)
class Step:
    """One labelled edge of a counterexample path; every state first
    reached over the same edge shares one."""

    label: str
    rows: Tuple[Tuple[str, TransitionRow], ...] = ()   # (side, row)

    def to_json(self) -> dict:
        out = {"label": self.label}
        rows = []
        for side, row in self.rows:
            entry = {"side": side, "state": row.state,
                     "event": row.event,
                     "actions": list(row.actions)}
            if row.guard:
                entry["guard"] = row.guard
            if row.origin:
                entry["file"], entry["line"] = origin_of(row)
            rows.append(entry)
        if rows:
            out["rows"] = rows
        return out


class ParentLinks:
    """``links[sid]`` is ``(parent id, Step)``: the state ``sid`` was
    first reached from (None for the start) and over which edge.  The
    explorer appends to ``ids`` (-1 for the start) and ``steps``: one
    integer array and one list of shared steps, not a tuple per
    state."""

    __slots__ = ("ids", "steps")

    def __init__(self) -> None:
        self.ids = array("i")
        self.steps: List[Step] = []

    def __len__(self) -> int:
        return len(self.steps)

    def __getitem__(self, sid: int) -> Tuple[Optional[int], Step]:
        parent = self.ids[sid]
        return (None if parent < 0 else parent), self.steps[sid]


class Successors:
    """``succs[sid]`` is the array of state ``sid``'s successor ids.  A
    state's successors are all recorded before the next state's, so the
    explorer appends them to one integer array, ``ids``, state after
    state, and appends to ``starts`` where each state's begin."""

    __slots__ = ("ids", "starts")

    def __init__(self) -> None:
        self.ids = array("i")
        self.starts = array("i")

    def __len__(self) -> int:
        return len(self.starts)

    def __getitem__(self, sid: int) -> array:
        starts = self.starts
        end = starts[sid + 1] if sid + 1 < len(starts) else len(self.ids)
        return self.ids[starts[sid]:end]


class SpecGraphExplorer:
    """BFS over the 2-agent x home product graph of one spec, one
    state per agent-mirror orbit."""

    def __init__(self, spec: ProtocolSpec, *, retain: bool = True,
                 threshold: int = 2, max_ops: int = 3,
                 row_filter: Optional[Callable[[TransitionRow], bool]]
                 = None,
                 max_states: int = 400_000) -> None:
        self.spec = spec
        self.retain = retain
        self.threshold = threshold
        self.max_ops = max_ops
        self.row_filter = row_filter or (lambda row: True)
        self.max_states = max_states
        # exploration results
        self.visited_states: Dict[str, Set[str]] = {
            "cache": set(), "home": set()}
        self.visited_rows: Dict[str, Set[TransitionRow]] = {
            "cache": set(), "home": set()}
        # states are numbered 0, 1, ... in BFS order; these are indexed
        # by that id
        self.parent = ParentLinks()
        self.succs = Successors()
        #: ids of the quiescent states, ascending
        self.quiescent: List[int] = []
        #: one per distinct ``Violation.key``, in BFS order
        self.violations: List[Violation] = []
        self._reported: Set[tuple] = set()
        self.truncated = False
        # (side, state, event) -> the rows row_filter keeps, built lazily
        self._index: Dict[Tuple[str, str, str],
                          Tuple[TransitionRow, ...]] = {}
        self._local_events = tuple(sorted(
            e for e in spec.cache.events if e.startswith(LOCAL_PREFIX)))

    # -- row lookup ---------------------------------------------------

    def _indexed(self, side: SideSpec, state: str, event: str
                 ) -> Tuple[TransitionRow, ...]:
        """The rows for (state, event), wildcard rows included, that
        pass ``row_filter``."""
        key = (side.name, state, event)
        rows = self._index.get(key)
        if rows is None:
            rows = self._index[key] = tuple(
                r for r in side.rows_for(state, event)
                if self.row_filter(r))
        return rows

    def _select(self, rows: Tuple[TransitionRow, ...], world: World,
                msg: Optional[Msg], agent: Optional[int]
                ) -> List[TransitionRow]:
        """Filter a (state, event) row set by their ``when`` predicates.
        Rows without a ``when`` always stay: if several remain, the
        explorer branches on all of them (sound over-approximation)."""
        return [r for r in rows
                if r.when is None
                or _when_ok(r.when, msg, world, agent, self.retain,
                            self.threshold)]

    def _rows(self, side: SideSpec, state: str, world: World, msg: Msg,
              agent: Optional[int] = None) -> List[TransitionRow]:
        """The rows a delivery of ``msg`` fires."""
        event = msg.type
        rows = self._indexed(side, state, event)
        if not rows:
            imp = side.impossible_for(state, event)
            if imp is not None:
                raise _Stuck(
                    "impossible-reached",
                    f"({state}, {event}) was declared impossible "
                    f"({imp.reason!r}) but the spec graph reaches it")
            raise _Stuck(
                "missing-row",
                f"({state}, {event}) is reachable but has neither a "
                f"row nor an impossible entry")
        return self._select(rows, world, msg, agent)

    # -- cache side ---------------------------------------------------

    def _apply_cache_row(self, world: World, agent: int,
                         row: TransitionRow,
                         msg: Optional[Msg]) -> World:
        w = world.clone()
        state = w.cstate[agent]
        copy_tag = w.copy[agent][0] if w.copy[agent] else STALE
        counter = w.copy[agent][1] if w.copy[agent] else 0
        event = row.event
        poisoned_fill = False
        if event == "INV" and world.copy[agent] is None \
                and state not in self.spec.cache.stable:
            # A current-epoch INV reached us while our read fill is
            # still in flight.  The runtime records its sequence
            # number against the pending fill
            # (``PendingFill.inv_seq``): the fill will install, be
            # consumed exactly once, and the block dropped
            # (``_complete_fill``'s inv-overtook-fill path).
            w.poisoned[agent] = True
        for action in row.actions:
            if action.startswith("send:"):
                mtype = action[len("send:"):]
                if mtype in _TO_HOME:
                    dst, req = HOME, (msg.requester if msg is not None
                                      and mtype in ("SHARING_WB",
                                                    "DIRTY_TRANSFER",
                                                    "RECALL_REPLY",
                                                    "FWD_NACK")
                                      else agent)
                elif mtype in _TO_REQUESTER:
                    dst, req = msg.requester, msg.requester
                else:  # pragma: no cover - vocabulary check catches it
                    raise ValueError(
                        f"no route for cache send {mtype}")
                tag = copy_tag if mtype in _CARRIES_COPY else FRESH
                if mtype == "UPDATE":
                    tag = PENDING
                if dst == agent:
                    # an ack addressed to ourselves (we are the
                    # requester): collect it immediately, no hop
                    if mtype in ("INV_ACK", "UPD_ACK"):
                        w.acks[agent] -= 1
                        continue
                w.push(Msg(mtype, agent, dst, req, tag=tag))
            elif action in ("install", "fill"):
                if action == "fill" and w.poisoned[agent]:
                    # inv-overtook-fill: the data is consumed once
                    # (the waiting read completes) but the block is
                    # dropped, leaving the cache without the line
                    w.copy[agent] = None
                    poisoned_fill = True
                else:
                    if action == "install" \
                            or w.copy[agent] is not None:
                        # exclusive data ("install"): once the home
                        # granted us ownership it cannot fan another
                        # INV at us until we give it up, so every INV
                        # still in flight predates the grant.  A fill
                        # replacing a resident copy in place likewise
                        # outranks INVs aimed at the old epoch.
                        w.new_epoch(agent)
                    w.copy[agent] = (msg.tag, 0)
                w.poisoned[agent] = False
            elif action == "invalidate":
                w.copy[agent] = None
                w.new_epoch(agent)
            elif action == "apply_store":
                w.serialize_write()
                w.copy[agent] = (FRESH, 0)
            elif action == "finish_atomic":
                w.serialize_write()
                w.copy[agent] = (FRESH, 0)
            elif action == "cache_write":
                if "send:UPDATE" in row.actions:
                    # write-through (a local store, or a deferred
                    # store performed when the fill lands): locally
                    # latest, globally pending until the home
                    # serializes the UPDATE
                    w.copy[agent] = (PENDING, 0)
                elif event == "local:store":
                    # a store to a retained / owned line: the cache
                    # holds the only copy, so the write serializes
                    # in place (PU/CU "R", the update analog of M)
                    w.serialize_write()
                    w.copy[agent] = (FRESH, 0)
                elif event == "local:atomic":
                    w.serialize_write()
                    w.copy[agent] = (FRESH, 0)
                elif w.copy[agent] is not None \
                        and w.copy[agent][0] in (PENDING, FRESH):
                    # our own unserialized write stays newest; and a
                    # FRESH copy proves a serialization AFTER the
                    # incoming update was fanned (the demotion that
                    # staled the message would have staled the copy
                    # too) -- the runtime's store-buffer shadowing
                    # keeps the newer local value in both cases
                    pass
                else:
                    w.copy[agent] = (msg.tag, w.copy[agent][1]
                                     if w.copy[agent] else 0)
            elif action == "atomic_op":
                pass    # paired with cache_write (local) / mem_write
            elif action == "ack":
                w.acks[agent] -= 1
            elif action in ("retire_done", "evict") \
                    or action.startswith("cache:="):
                pass    # completion bookkeeping / state via next_state
            else:  # pragma: no cover - vocabulary check catches it
                raise ValueError(f"cache action {action!r} unhandled")
        # competitive counter: remote updates count, local ops reset.
        # An at-threshold row that KEEPS the copy resident (the seeded
        # cu-counter-stuck mutation) must still advance the counter so
        # the cu-counter check can see the line never drops.
        if row.when in ("counter_below", "counter_at_threshold") \
                and w.copy[agent] is not None:
            w.copy[agent] = (w.copy[agent][0], counter + 1)
        elif event.startswith(LOCAL_PREFIX) \
                and w.copy[agent] is not None:
            w.copy[agent] = (w.copy[agent][0], 0)
        if event == "local:evict":
            w.copy[agent] = None    # the victim line leaves the cache
            w.new_epoch(agent)
        w.cstate[agent] = row.next_state or state
        if poisoned_fill:
            # the block is gone: the runtime lands in the protocol's
            # invalid/initial cache state, not the row's next_state
            w.cstate[agent] = self.spec.cache.initial
        return w

    # -- home side ----------------------------------------------------

    def _grant_extras(self, mtype: str, fanned: int,
                      row: TransitionRow) -> dict:
        extras: dict = {}
        if mtype in _CARRIES_NACKS:
            extras["nacks"] = fanned
        if mtype == "WRITER_ACK":
            extras["retain"] = "dir:=DIRTY" in row.actions
        return extras

    def _apply_home_row(self, world: World, row: TransitionRow,
                        msg: Msg,
                        steps: List[Tuple[str, TransitionRow]]
                        ) -> List[World]:
        w = world.clone()
        event = row.event
        fanned = 0
        retried = False
        redispatch: List[Msg] = []
        # grants that carry an ack count are pushed after the whole
        # action list ran: a row may name the grant before its fanout
        # (PU's atomic row sends ATOMIC_REPLY, then UPD_PROP), and the
        # nacks field must count the fanout either way.  Deferral is
        # invisible to the product graph: the grant and the fanned
        # messages travel on different (src, dst) channels.
        deferred_grants: List[Tuple[str, str, int]] = []
        queue_only = (row.actions == ("begin_txn",))
        if queue_only:
            w.queue = w.queue + (msg,)
            w.home = row.next_state or w.home
            return [w]
        for action in row.actions:
            if action.startswith("send:"):
                mtype = action[len("send:"):]
                if mtype in _HOME_FANOUT:
                    targets = sorted(w.sharers - {msg.requester})
                    fanned = len(targets)
                    tag = FRESH if mtype == "UPD_PROP" else STALE
                    for t in targets:
                        # An INV fanned at a stale full-map bit is born
                        # stale: the target neither holds a copy nor
                        # has granted data in flight, so anything it
                        # installs later carries a larger sequence
                        # number than this INV and ignores it.
                        born_stale = (
                            mtype == "INV"
                            and w.copy[t] is None
                            and not any(
                                m.dst == t and m.type in _DATA_GRANTS
                                for chan in w.chans for m in chan))
                        w.push(Msg(mtype, HOME, t, msg.requester,
                                   tag=tag, stale_epoch=born_stale))
                elif mtype in _HOME_TO_REQUESTER:
                    tag = w.mem if mtype in _CARRIES_MEM else FRESH
                    if mtype in _CARRIES_NACKS:
                        deferred_grants.append(
                            (mtype, tag, msg.requester))
                    else:
                        w.push(Msg(mtype, HOME, msg.requester,
                                   msg.requester, tag=tag))
                    if mtype == "READ_REPLY":
                        w.sharers = w.sharers | {msg.requester}
                elif mtype in _HOME_TO_OWNER:
                    if w.owner is None:  # pragma: no cover
                        raise ValueError(
                            f"{mtype} forwarded with no recorded "
                            f"owner")
                    w.push(Msg(mtype, HOME, w.owner, msg.requester))
                else:  # pragma: no cover
                    raise ValueError(f"no route for home send {mtype}")
            elif action == "mem_write":
                if event == "UPDATE":
                    # the write-through serializes HERE: home order is
                    # the coherence order for update protocols
                    w.serialize_write()
                    w.mem = FRESH
                    src = msg.requester
                    if w.copy[src] is not None \
                            and w.copy[src][0] == PENDING:
                        w.copy[src] = (FRESH, w.copy[src][1])
                elif event == "ATOMIC_REQ":
                    w.mem = FRESH    # serialized by atomic_op below
                else:
                    w.mem = msg.tag
            elif action == "atomic_op":
                w.serialize_write()
                w.mem = FRESH
            elif action == "dir:=DIRTY":
                w.owner = msg.requester
                w.sharers = frozenset()
            elif action == "dir:=SHARED":
                w.owner = None
            elif action == "dir:=UNOWNED":
                w.owner = None
                w.sharers = frozenset()
            elif action == "begin_txn":
                if w.open_txn is None:
                    w.open_txn = msg
            elif action == "end_txn":
                w.open_txn = None
                if w.queue:
                    redispatch.append(w.queue[0])
                    w.queue = w.queue[1:]
            elif action == "retry_txn":
                if w.open_txn is not None:
                    redispatch.append(w.open_txn)
                    w.open_txn = None
                retried = True
            elif action == "note_early_wb":
                w.early_wb = w.early_wb | {msg.src}
            else:  # pragma: no cover
                raise ValueError(f"home action {action!r} unhandled")
        for mtype, tag, dst in deferred_grants:
            w.push(Msg(mtype, HOME, dst, dst, tag=tag,
                       **self._grant_extras(mtype, fanned, row)))
        # event-specific sharer bookkeeping (the imperative handlers
        # update the full-map mask; the actions list abstracts it)
        if event == "SHARING_WB":
            w.sharers = w.sharers | {msg.src, msg.requester}
        elif event == "RECALL_REPLY":
            w.sharers = w.sharers | {msg.src}
        elif event == "DROP_NOTICE":
            w.sharers = w.sharers - {msg.src}
        elif event == "DIRTY_TRANSFER":
            # the transfer consumes the requester's early-writeback
            # record whichever way it resolved
            w.early_wb = w.early_wb - {msg.requester}
        w.home = row.next_state or w.home
        if retried:
            # the runtime re-dispatches the open transaction against
            # the CURRENT directory entry, not the row's static next
            # state (which encodes only the writeback-race outcome):
            # a forward NACKed by a still-filling new owner retries
            # against a directory that is still DIRTY
            w.home = self._dir_state(w)
        worlds = [w]
        for queued in redispatch:
            worlds = [w2 for wv in worlds
                      for w2 in self._dispatch_home(wv, queued, steps)]
        return worlds

    def _dir_state(self, world: World) -> str:
        """The stable home state the directory bookkeeping implies
        (every spec names them U / S / D)."""
        if world.owner is not None:
            return "D"
        return "S" if world.sharers else "U"

    def _dispatch_home(self, world: World, msg: Msg,
                       steps: List[Tuple[str, TransitionRow]]
                       ) -> List[World]:
        rows = self._rows(self.spec.home, world.home, world, msg)
        out: List[World] = []
        for row in rows:
            self.visited_rows["home"].add(row)
            steps.append(("home", row))
            out.extend(self._apply_home_row(world, row, msg, steps))
        return out

    def _dispatch_cache(self, world: World, agent: int, msg: Msg,
                        steps: List[Tuple[str, TransitionRow]]
                        ) -> List[World]:
        rows = self._rows(self.spec.cache, world.cstate[agent], world,
                          msg, agent)
        out: List[World] = []
        for row in rows:
            self.visited_rows["cache"].add(row)
            steps.append(("cache", row))
            out.append(self._apply_cache_row(world, agent, row, msg))
        return out

    # -- successor generation -----------------------------------------
    # Successors come as (frozen world, step label, step rows), each
    # world frozen once: ``run`` makes a Step only for a state it has
    # not seen.

    def _initial(self) -> World:
        w = initial_world(self.max_ops)
        w.cstate = [self.spec.cache.initial, self.spec.cache.initial]
        w.home = self.spec.home.initial
        return w

    def _local_successors(self, world: World, frozen: tuple
                          ) -> List[Tuple[tuple, str, tuple]]:
        out: List[Tuple[tuple, str, tuple]] = []
        cache = self.spec.cache
        for agent in AGENTS:
            if world.budget[agent] <= 0:
                continue
            for event in self._local_events:
                # no row for a local stimulus = the processor stalls
                # at this transient; that is progress-by-waiting, not
                # a completeness hole (deliveries must still drain)
                rows = self._select(
                    self._indexed(cache, world.cstate[agent], event),
                    world, None, agent)
                for row in rows:
                    succ = self._apply_cache_row(world, agent, row,
                                                 None)
                    # record coverage before the no-op check: a pure
                    # hit exercises its row even though the self-loop
                    # successor is skipped
                    self.visited_rows["cache"].add(row)
                    succ.budget[agent] -= 1
                    sf = succ.freeze()
                    # pure hit: a no-op self-loop (only the budget
                    # moved)
                    if sf[:3] == frozen[:3] and sf[4:] == frozen[4:]:
                        continue
                    out.append((sf, f"agent {agent}: {event}",
                                (("cache", row),)))
        return out

    def _delivery_successors(self, world: World
                             ) -> List[Tuple[tuple, str, tuple]]:
        out: List[Tuple[tuple, str, tuple]] = []
        for ci, chan in enumerate(world.chans):
            if not chan:
                continue
            msg = chan[0]
            base = world.clone()
            base.chans[ci] = chan[1:]
            steps: List[Tuple[str, TransitionRow]] = []
            if msg.type == "INV" and msg.stale_epoch:
                # the runtime's seq guard: an INV that targeted a
                # replaced copy is acked and otherwise ignored.  The
                # spec's pure-ack INV rows describe exactly this path,
                # so taking it covers them.
                for r in self._indexed(self.spec.cache,
                                       world.cstate[msg.dst], "INV"):
                    if "invalidate" not in r.actions:
                        self.visited_rows["cache"].add(r)
                base.push(Msg("INV_ACK", msg.dst, msg.requester,
                              msg.requester))
                out.append((base.freeze(), f"deliver {msg.label()} "
                                           f"(stale epoch: "
                                           f"ack-and-ignore)", ()))
                continue
            if msg.dst == HOME:
                succs = self._dispatch_home(base, msg, steps)
            else:
                succs = self._dispatch_cache(base, msg.dst, msg,
                                             steps)
                # a grant carrying fanned-out acks arms the counter
                if msg.nacks:
                    for s in succs:
                        s.acks[msg.dst] += msg.nacks
            label, rows = f"deliver {msg.label()}", tuple(steps)
            out.extend((s.freeze(), label, rows) for s in succs)
        return out

    def _successors(self, world: World, frozen: tuple
                    ) -> List[Tuple[tuple, str, tuple]]:
        return (self._delivery_successors(world)
                + self._local_successors(world, frozen))

    # -- quiescence and the data checks --------------------------------

    def _is_quiescent(self, world: World) -> bool:
        return (world.cstate[0] in self.spec.cache.stable
                and world.cstate[1] in self.spec.cache.stable
                and world.home in self.spec.home.stable
                and world.open_txn is None
                and not world.queue
                and not world.in_flight()
                and not any(world.acks))

    def _report(self, kind: str, sid: int, detail: str,
                key: Optional[str] = None) -> None:
        """Record a violation unless one with the same key (by default
        its detail) was recorded before.  A detail that names an agent
        passes its mirror-invariant remainder as ``key``."""
        key = (kind, detail if key is None else key)
        if key not in self._reported:
            self._reported.add(key)
            self.violations.append(Violation(kind, detail, sid, key))

    def _report_agent(self, kind: str, sid: int, agent: int,
                      text: str) -> None:
        self._report(kind, sid, f"agent {agent} {text}", key=text)

    def _data_violations(self, world: World, sid: int,
                         quiescent: bool) -> None:
        if quiescent:
            for agent in AGENTS:
                cp = world.copy[agent]
                if cp is not None and cp[0] != FRESH:
                    self._report_agent(
                        "stale-copy", sid, agent,
                        f"rests with a {cp[0]}-tagged copy in "
                        f"{world.cstate[agent]}: a local read would "
                        f"return a value older than the last "
                        f"serialized write")
            if world.owner is None and world.mem != FRESH:
                self._report(
                    "stale-copy", sid,
                    f"memory rests {world.mem}-tagged with no "
                    f"recorded owner: the next miss is served stale "
                    f"data")
        for agent in AGENTS:
            cp = world.copy[agent]
            if cp is not None and cp[1] >= self.threshold:
                self._report_agent(
                    "cu-counter", sid, agent,
                    f"keeps a resident copy at the competitive "
                    f"threshold ({cp[1]} >= {self.threshold}): the "
                    f"line never drops and every remote write keeps "
                    f"paying the update")

    @staticmethod
    def _deadlock_detail(frozen: tuple) -> str:
        cstate, acks, home, chans = frozen[0], frozen[2], frozen[5], \
            frozen[11]
        return (f"non-quiescent state has no successor: cache={cstate} "
                f"home={home} in-flight="
                f"{[m.label() for chan in chans for m in chan]} "
                f"acks={acks}")

    # -- the BFS driver ------------------------------------------------

    def run(self) -> None:
        """Number each new state in BFS order and expand it once.  The
        exact frozen tuple and its :class:`Mirror` image are both
        interned to the state's id, so a state reached after its mirror
        is not numbered again.  A state and its mirror sit at the same
        BFS depth, so paths stay shortest.

        The store keeps only what is new about a state.  Both keys are
        built from one table of parts (:func:`_interned` and the
        :class:`Mirror` share it), so equal parts are one object across
        all states; the frontier holds keys and a state's world is
        thawed from its key when it is expanded; the states first
        reached over one edge share its :class:`Step`; and parents and
        successors are integer arrays.  The interning dicts are dropped
        before the livelock pass.

        The cyclic collector is paused meanwhile: the interned states,
        successors and parents live until the run returns, and the
        collector's hundreds of passes over them per run free nothing."""
        enabled = gc.isenabled()
        gc.disable()
        try:
            self._explore()
            self._check_livelock()
        finally:
            if enabled:
                gc.enable()

    def _explore(self) -> None:
        parts: dict = {}
        mirror = Mirror(parts)
        # (label, rows) -> the Step of that edge
        steps: Dict[tuple, Step] = {}
        start = _interned(self._initial().freeze(), parts)
        # the start state is its own mirror
        ids: Dict[tuple, int] = {start: 0}
        parent_ids, parent_steps = self.parent.ids, self.parent.steps
        parent_ids.append(-1)
        parent_steps.append(Step("start"))
        kids, starts = self.succs.ids, self.succs.starts
        # the keys of the states not yet expanded, in id order
        pending = deque([start])
        while pending:
            frozen = pending.popleft()
            world = World.thaw(frozen)
            sid = len(starts)
            starts.append(len(kids))
            self.visited_states["cache"].update(world.cstate)
            self.visited_states["home"].add(world.home)
            quiescent = self._is_quiescent(world)
            if quiescent:
                self.quiescent.append(sid)
            self._data_violations(world, sid, quiescent)
            try:
                succs = self._successors(world, frozen)
            except _Stuck as stuck:
                self._report(stuck.finding_kind, sid, stuck.detail)
                continue
            if not succs and not quiescent:
                detail = self._deadlock_detail(frozen)
                self._report("deadlock", sid, detail, key=min(
                    detail, self._deadlock_detail(mirror(frozen))))
                continue
            for sf, label, rows in succs:
                kid = ids.get(sf)
                if kid is None:
                    kid = len(parent_steps)
                    if kid >= self.max_states:
                        self.truncated = True
                        continue
                    sf = _interned(sf, parts)
                    ids[sf] = ids[mirror(sf)] = kid
                    step = steps.get((label, rows))
                    if step is None:
                        step = steps[label, rows] = Step(label, rows)
                    parent_ids.append(sid)
                    parent_steps.append(step)
                    pending.append(sf)
                kids.append(kid)

    def _check_livelock(self) -> None:
        """Reverse reachability from the quiescent set: every explored
        state must be able to drain back to rest."""
        if self.truncated:
            return              # frontier cut: reachability is partial
        succs = self.succs
        rev: List[List[int]] = [[] for _ in range(len(succs))]
        for src in range(len(succs)):
            for kid in succs[src]:
                rev[kid].append(src)
        can_rest = bytearray(len(succs))
        for sid in self.quiescent:
            can_rest[sid] = 1
        stack = list(self.quiescent)
        while stack:
            for pred in rev[stack.pop()]:
                if not can_rest[pred]:
                    can_rest[pred] = 1
                    stack.append(pred)
        # report the first such state in BFS order, i.e. the lowest id
        stuck = can_rest.find(0)
        if stuck >= 0:
            self._report(
                "livelock", stuck,
                "reachable state from which no quiescent state "
                "is reachable: an in-flight transaction can "
                "never complete")

    # -- counterexample reconstruction ---------------------------------

    def path_to(self, sid: int) -> List[Step]:
        steps: List[Step] = []
        node: Optional[int] = sid
        while node is not None:
            node, step = self.parent[node]
            steps.append(step)
        steps.reverse()
        return steps


def origin_of(row: TransitionRow) -> Tuple[str, int]:
    """The ``(file, line)`` that declared ``row``, the file relative to
    the checkout; ``("", 0)`` for a row with no recorded origin."""
    if row.origin is None:
        return "", 0
    return source_path(row.origin[0]), row.origin[1]


# ---------------------------------------------------------------------
# public API
# ---------------------------------------------------------------------

def explore_spec(spec: ProtocolSpec, *, retain: bool = True,
                 threshold: int = 2, max_ops: int = 3,
                 row_filter=None, max_states: int = 400_000
                 ) -> SpecGraphExplorer:
    """Run one exploration of ``spec`` and return the explorer with its
    visited sets, quiescent set, and violations filled in."""
    ex = SpecGraphExplorer(spec, retain=retain, threshold=threshold,
                           max_ops=max_ops, row_filter=row_filter,
                           max_states=max_states)
    ex.run()
    return ex


def _row_key(row: TransitionRow) -> tuple:
    # identity modulo the hybrid merge's guard relabelling
    return (row.state, row.event, row.actions, row.next_state,
            row.when, row.retry)


def _runs_for(protocol: str, spec: ProtocolSpec,
              threshold: int) -> List[dict]:
    """The run matrix: each entry explores one closed sub-machine."""
    if protocol == "wi" or protocol == "mesi":
        return [dict(label=protocol, retain=True)]
    if protocol in ("pu", "cu"):
        return [dict(label=f"{protocol} retain", retain=True),
                dict(label=f"{protocol} no-retain", retain=False)]
    if protocol == "hybrid":
        # project the merged table back onto its two closed
        # sub-machines: a block is managed by exactly one base
        # protocol, so the cross product is unreachable by design
        from repro.protospec import get_spec
        wi_keys = {_row_key(r) for side in get_spec("wi").sides
                   for r in side.rows}
        cu_keys = {_row_key(r) for side in get_spec("cu").sides
                   for r in side.rows}
        wi_filter = lambda r: _row_key(r) in wi_keys      # noqa: E731
        cu_filter = lambda r: _row_key(r) in cu_keys      # noqa: E731
        return [dict(label="hybrid/wi", retain=True,
                     row_filter=wi_filter),
                dict(label="hybrid/cu retain", retain=True,
                     row_filter=cu_filter),
                dict(label="hybrid/cu no-retain", retain=False,
                     row_filter=cu_filter)]
    raise ValueError(f"no run matrix for protocol {protocol!r}")


def check_spec_graph(protocol, spec: Optional[ProtocolSpec] = None,
                     *, max_ops: int = 3, threshold: int = 2,
                     max_states: int = 400_000
                     ) -> Tuple[List[Finding], dict]:
    """Exhaustively explore the spec graph of ``protocol``.

    Returns ``(findings, graph_json)``: spec-level safety/liveness
    violations (severity ``error``, each with a minimized
    counterexample) plus coverage gaps (severity ``warn``), and a
    JSON-able summary for CI artifacts."""
    proto = getattr(protocol, "value", protocol)
    if spec is None:
        from repro.protospec import get_spec
        spec = get_spec(protocol)
    findings: List[Finding] = []
    runs_json: List[dict] = []
    counterexamples: List[dict] = []
    visited_states = {"cache": set(), "home": set()}
    visited_rows = {"cache": set(), "home": set()}
    # a later run's repeat of an earlier run's finding is not reported
    seen: Set[tuple] = set()
    counters: Dict[str, int] = {}
    for run in _runs_for(proto, spec, threshold):
        ex = explore_spec(spec, retain=run["retain"],
                          threshold=threshold, max_ops=max_ops,
                          row_filter=run.get("row_filter"),
                          max_states=max_states)
        for side in ("cache", "home"):
            visited_states[side] |= ex.visited_states[side]
            visited_rows[side] |= ex.visited_rows[side]
        runs_json.append({"label": run["label"],
                          "states": len(ex.parent),
                          "quiescent": len(ex.quiescent),
                          "truncated": ex.truncated})
        for kind, detail, sid, key in ex.violations:
            if key in seen:
                continue
            seen.add(key)
            n = counters[kind] = counters.get(kind, 0) + 1
            ident = f"{proto}/graph-{kind}/{n}"
            steps = ex.path_to(sid)
            path_json = [s.to_json() for s in steps]
            counterexamples.append({"ident": ident, "kind": kind,
                                    "run": run["label"],
                                    "steps": path_json})
            file, line = "", 0
            state = event = side = ""
            for s in reversed(steps):
                if s.rows:
                    side, last = s.rows[-1]
                    state, event = last.state, last.event
                    file, line = origin_of(last)
                    break
            trace = " -> ".join(s.label for s in steps[1:]) or "initial"
            findings.append(Finding(
                check="spec-graph", ident=ident,
                detail=f"[{run['label']}] {detail}; shortest trace: "
                       f"{trace}",
                protocol=proto, side=side, state=state, event=event,
                file=file, line=line, severity="error"))
        if ex.truncated:
            findings.append(Finding(
                check="spec-graph",
                ident=f"{proto}/graph-truncated/{run['label']}",
                detail=f"[{run['label']}] exploration truncated at "
                       f"{max_states} states; results are partial",
                protocol=proto, severity="error"))
    # coverage: states or rows no interleaving ever exercised
    for side_name in ("cache", "home"):
        side = getattr(spec, side_name)
        for state in side.states:
            if state not in visited_states[side_name]:
                findings.append(Finding(
                    check="spec-graph",
                    ident=f"{proto}/graph-unreachable/{side_name}/"
                          f"{state}",
                    detail=f"{side_name} state {state!r} was never "
                           f"entered by any explored interleaving "
                           f"(max_ops={max_ops})",
                    protocol=proto, side=side_name, state=state,
                    severity="warn"))
        idents: Set[str] = set()
        for row in side.rows:
            if row in visited_rows[side_name]:
                continue
            ident = (f"{proto}/graph-dead-row/{side_name}/{row.state}/"
                     f"{row.event}")
            if row.when:
                ident += f"/{row.when}"
            while ident in idents:          # same pair, several rows
                ident += "+"
            idents.add(ident)
            file, line = origin_of(row)
            findings.append(Finding(
                check="spec-graph", ident=ident,
                detail=f"{side_name} row ({row.state}, {row.event}) "
                       f"never fired in any explored interleaving "
                       f"(max_ops={max_ops})",
                protocol=proto, side=side_name, state=row.state,
                event=row.event, file=file, line=line,
                severity="warn"))
    graph_json = {
        "protocol": proto,
        "max_ops": max_ops,
        "threshold": threshold,
        "runs": runs_json,
        "coverage": {
            side: {"states_visited": sorted(visited_states[side]),
                   "rows_visited": len(visited_rows[side]),
                   "rows_total": len(getattr(spec, side).rows)}
            for side in ("cache", "home")},
        "findings": [f.to_json() for f in findings],
        "counterexamples": counterexamples,
    }
    return findings, graph_json


# ---------------------------------------------------------------------
# seeded spec-level mutations
# ---------------------------------------------------------------------

def _edit_rows(spec: ProtocolSpec, side_name: str, pred, edit
               ) -> ProtocolSpec:
    side = getattr(spec, side_name)
    hits = 0
    new_rows = []
    for row in side.rows:
        if pred(row):
            hits += 1
            new_rows.append(edit(row))
        else:
            new_rows.append(row)
    if not hits:
        raise ValueError(
            f"spec mutation matched no {side_name} rows")
    new_side = replace(side, rows=tuple(new_rows))
    return replace(spec, **{side_name: new_side})


def _drop_action(row: TransitionRow, action: str) -> TransitionRow:
    return replace(row, actions=tuple(
        a for a in row.actions if a != action))


def _mut_wi_drop_inv_ack(spec: ProtocolSpec) -> ProtocolSpec:
    return _edit_rows(
        spec, "cache",
        lambda r: r.event == "INV_ACK" and "ack" in r.actions,
        lambda r: _drop_action(r, "ack"))


def _mut_wi_skip_invalidation(spec: ProtocolSpec) -> ProtocolSpec:
    return _edit_rows(
        spec, "home",
        lambda r: r.event in ("RDEX_REQ", "UPGRADE_REQ")
        and "send:INV" in r.actions,
        lambda r: _drop_action(r, "send:INV"))


def _mut_pu_upd_prop_overwrite(spec: ProtocolSpec) -> ProtocolSpec:
    return _edit_rows(
        spec, "cache",
        lambda r: r.event == "UPD_PROP" and "cache_write" in r.actions,
        lambda r: _drop_action(r, "cache_write"))


def _mut_cu_counter_stuck(spec: ProtocolSpec) -> ProtocolSpec:
    return _edit_rows(
        spec, "cache",
        lambda r: r.event == "UPD_PROP"
        and r.when == "counter_at_threshold",
        lambda r: replace(r, actions=("cache_write", "send:UPD_ACK"),
                          next_state=r.state))


@dataclass(frozen=True)
class SpecMutation:
    """A seeded table-level bug the graph explorer must catch."""

    name: str
    protocol: str
    description: str
    expect: FrozenSet[str]      # acceptable violation kinds
    _apply: Callable[[ProtocolSpec], ProtocolSpec]

    def apply(self, spec: ProtocolSpec) -> ProtocolSpec:
        return self._apply(spec)


#: mirrors the four runtime mutations of repro.modelcheck.mutations
SPEC_MUTATIONS: Dict[str, SpecMutation] = {m.name: m for m in (
    SpecMutation(
        "wi-drop-inv-ack", "wi",
        "the requester never counts INV_ACKs: outstanding "
        "invalidation acks never drain",
        frozenset(("deadlock", "livelock")),
        _mut_wi_drop_inv_ack),
    SpecMutation(
        "wi-skip-invalidation", "wi",
        "the home grants exclusivity without invalidating sharers",
        frozenset(("stale-copy",)),
        _mut_wi_skip_invalidation),
    SpecMutation(
        "pu-upd-prop-overwrite", "pu",
        "sharers drop the propagated data on the floor",
        frozenset(("stale-copy",)),
        _mut_pu_upd_prop_overwrite),
    SpecMutation(
        "cu-counter-stuck", "cu",
        "the competitive drop never happens: the line stays resident "
        "at the threshold",
        frozenset(("cu-counter",)),
        _mut_cu_counter_stuck),
)}


def apply_spec_mutation(spec: ProtocolSpec, name: str) -> ProtocolSpec:
    try:
        mut = SPEC_MUTATIONS[name]
    except KeyError:
        raise KeyError(
            f"unknown spec mutation {name!r}; have "
            f"{', '.join(sorted(SPEC_MUTATIONS))}") from None
    return mut.apply(spec)
