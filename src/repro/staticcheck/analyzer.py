"""Pure-static analysis of a :class:`~repro.protospec.ProtocolSpec`.

Nothing here runs the simulator; every check is a graph or table walk
over the declarative spec:

* **completeness** -- every ``(state, message-event)`` pair has a
  transition row or an explicit :class:`Impossible` declaration, so
  "thought about and ruled out" is distinguishable from "forgot";
* **contradiction** -- no pair has *both* a row and an impossible
  declaration;
* **reachability** -- every state is reachable from the side's reset
  state via declared transitions (dead states usually mean a deleted
  transition left half the machine behind);
* **ambiguity** -- no two rows match the same ``(state, event)`` with
  the same guard (wildcard rows are expanded over all states);
* **progress** -- retry/NACK rows that form a cycle (including
  self-loops) must carry a written ``fairness`` justification for why
  the retry terminates;
* **vocabulary** -- every :class:`MsgType` is either used by the spec
  (as an event or a ``send:`` action) or listed in
  ``unused_messages`` with a reason, and never both;
* **routing** -- every message event some side receives is sent by at
  least one row, and every ``send:`` target is received by some side
  (no dead-letter messages).

Local (``local:*``) stimuli are excluded from completeness: a
processor can always reference memory, but which stimuli are
meaningful per state is documentation, not protocol surface.
"""

from __future__ import annotations

from typing import Dict, List, Set, Tuple

from repro.network.messages import MsgType
from repro.protospec.model import (
    ANY_STATE, LOCAL_PREFIX, ProtocolSpec, SideSpec, covered_pairs,
)
from repro.staticcheck.report import Finding

#: analyzer check names, in report order
CHECKS = ("completeness", "contradiction", "reachability", "ambiguity",
          "progress", "vocabulary", "routing")


def _expand(side: SideSpec, state: str) -> Tuple[str, ...]:
    return side.states if state == ANY_STATE else (state,)


def _check_completeness(spec: ProtocolSpec, side: SideSpec,
                        out: List[Finding]) -> None:
    covered = covered_pairs(side.rows, side.states)
    declared_imp = {(i.state, i.event) for i in side.impossible}
    for event in side.message_events():
        for state in side.states:
            pair = (state, event)
            if pair in covered:
                if pair in declared_imp:
                    out.append(Finding(
                        check="contradiction",
                        ident=f"contradiction:{spec.protocol}:"
                              f"{side.name}:{state}:{event}",
                        detail=f"({state}, {event}) has transition "
                               f"row(s) AND an impossible declaration "
                               f"-- one of them is wrong",
                        protocol=spec.protocol, side=side.name,
                        state=state, event=event))
                continue
            if pair in declared_imp:
                continue
            out.append(Finding(
                check="completeness",
                ident=f"completeness:{spec.protocol}:{side.name}:"
                      f"{state}:{event}",
                detail=f"({state}, {event}) has no transition row and "
                       f"no impossible declaration: a message the "
                       f"handler would hit this hole on",
                protocol=spec.protocol, side=side.name, state=state,
                event=event))


def _check_reachability(spec: ProtocolSpec, side: SideSpec,
                        out: List[Finding]) -> None:
    succ: Dict[str, Set[str]] = {s: set() for s in side.states}
    for row in side.rows:
        for s in _expand(side, row.state):
            succ[s].add(row.next_state if row.next_state is not None
                        else s)
    seen = {side.initial}
    frontier = [side.initial]
    while frontier:
        nxt = frontier.pop()
        for s in succ.get(nxt, ()):
            if s not in seen:
                seen.add(s)
                frontier.append(s)
    for state in side.states:
        if state in seen:
            continue
        dead_rows = sum(1 for r in side.rows
                        if state in _expand(side, r.state))
        out.append(Finding(
            check="reachability",
            ident=f"reachability:{spec.protocol}:{side.name}:{state}",
            detail=f"state {state} is unreachable from reset "
                   f"({side.initial}); its {dead_rows} row(s) can "
                   f"never fire",
            protocol=spec.protocol, side=side.name, state=state))


def _check_ambiguity(spec: ProtocolSpec, side: SideSpec,
                     out: List[Finding]) -> None:
    by_key: Dict[Tuple[str, str, str], int] = {}
    for row in side.rows:
        for s in _expand(side, row.state):
            key = (s, row.event, row.guard or "")
            by_key[key] = by_key.get(key, 0) + 1
    flagged: Set[Tuple[str, str]] = set()
    for (state, event, guard), n in sorted(by_key.items()):
        if n < 2 or (state, event) in flagged:
            continue
        flagged.add((state, event))
        gtxt = f"guard {guard!r}" if guard else "no guard"
        out.append(Finding(
            check="ambiguity",
            ident=f"ambiguity:{spec.protocol}:{side.name}:{state}:"
                  f"{event}",
            detail=f"{n} rows match ({state}, {event}) with {gtxt}; "
                   f"the dispatch is nondeterministic",
            protocol=spec.protocol, side=side.name, state=state,
            event=event))


def _check_progress(spec: ProtocolSpec, side: SideSpec,
                    out: List[Finding]) -> None:
    """Retry edges that sit on a cycle (a NACK loop) need a written
    fairness argument for why the loop terminates."""
    edges: List[Tuple[str, str, object]] = []
    succ: Dict[str, Set[str]] = {}
    for row in side.rows:
        if not row.retry:
            continue
        for s in _expand(side, row.state):
            dst = row.next_state if row.next_state is not None else s
            edges.append((s, dst, row))
            succ.setdefault(s, set()).add(dst)

    def reaches(src: str, dst: str) -> bool:
        seen, frontier = {src}, [src]
        while frontier:
            cur = frontier.pop()
            if cur == dst:
                return True
            for nxt in succ.get(cur, ()):
                if nxt not in seen:
                    seen.add(nxt)
                    frontier.append(nxt)
        return False

    flagged: Set[Tuple[str, str]] = set()
    for src, dst, row in edges:
        if row.fairness:
            continue
        # the edge is on a retry-only cycle iff dst reaches src
        if not reaches(dst, src):
            continue
        key = (src, row.event)
        if key in flagged:
            continue
        flagged.add(key)
        out.append(Finding(
            check="progress",
            ident=f"progress:{spec.protocol}:{side.name}:{src}:"
                  f"{row.event}",
            detail=f"retry row ({src}, {row.event}) -> {dst} closes a "
                   f"retry cycle with no fairness justification: "
                   f"nothing documented guarantees the retry storm "
                   f"terminates",
            protocol=spec.protocol, side=side.name, state=src,
            event=row.event))


def _check_vocabulary(spec: ProtocolSpec, out: List[Finding]) -> None:
    used = spec.used_messages()
    unused = {name for name, _ in spec.unused_messages}
    for name in sorted(used & unused):
        out.append(Finding(
            check="vocabulary",
            ident=f"vocabulary:{spec.protocol}:contradiction:{name}",
            detail=f"{name} is declared unused but the spec sends or "
                   f"receives it",
            protocol=spec.protocol, event=name))
    for m in MsgType:
        if m.name in used or m.name in unused:
            continue
        out.append(Finding(
            check="vocabulary",
            ident=f"vocabulary:{spec.protocol}:orphan:{m.name}",
            detail=f"{m.name} is neither used by the {spec.protocol} "
                   f"spec nor declared unused with a reason",
            protocol=spec.protocol, event=m.name))


def _check_routing(spec: ProtocolSpec, out: List[Finding]) -> None:
    receivable = {e for side in spec.sides
                  for e in side.message_events()}
    sent: Set[str] = set()
    for side in spec.sides:
        for row in side.rows:
            for action in row.actions:
                if action.startswith("send:"):
                    sent.add(action[len("send:"):])
    for name in sorted(sent - receivable):
        out.append(Finding(
            check="routing",
            ident=f"routing:{spec.protocol}:dead-letter:{name}",
            detail=f"some row sends {name} but neither side lists it "
                   f"as a receivable event",
            protocol=spec.protocol, event=name))
    for name in sorted(receivable - sent):
        out.append(Finding(
            check="routing",
            ident=f"routing:{spec.protocol}:never-sent:{name}",
            detail=f"{name} is in a side's event alphabet but no row "
                   f"ever sends it; the transitions for it can never "
                   f"fire",
            protocol=spec.protocol, event=name))


def analyze_spec(spec: ProtocolSpec) -> List[Finding]:
    """Run every static check against one protocol spec."""
    out: List[Finding] = []
    for side in spec.sides:
        _check_completeness(spec, side, out)   # + contradiction
        _check_reachability(spec, side, out)
        _check_ambiguity(spec, side, out)
        _check_progress(spec, side, out)
    _check_vocabulary(spec, out)
    _check_routing(spec, out)
    return out
