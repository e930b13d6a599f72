"""The refinement check: every transition the simulator executes must
be a row of its protocol's table (after Abadi and Lamport, "The
Existence of Refinement Mappings", 1991).

Each delivery and local stimulus (``LOCAL_EVENTS``), with the spec
state before and after (``NodeCtrl.abstract_state``), must match
exactly one row of a state it mapped to: ``when`` holds before, the
``send:`` actions are the messages posted (routed as in the graph; a
fan-out goes to every sharer but the requester), ``next_state`` is the
state after, and the acks moved by the row's ``ack`` and the grant's
``nacks``; and the handler leaves its message unchanged (snapshots
share it).  A mismatch is a ``refinement`` finding naming the
handler's and the row's ``file:line``.  A hybrid block runs its base
protocol's rows.  A home transition whose rows end the directory
transaction lasts until the release or retry, which starts the
granted or retried request's against the entry's stable state.  As in
the graph, a stale INV, a local stimulus with no row that changes
nothing, and the state after a retry need no row.  The recorder wraps
only what no pending event holds, so no model-checker state key moves,
and keeps open transitions in ``machine.snapshot_containers``.
"""

from __future__ import annotations

from collections import Counter, namedtuple
from contextlib import contextmanager
from operator import attrgetter
from typing import Dict, List, Optional, Set, Tuple

from repro.memsys.directory import DIR_DIRTY, mask_nodes
from repro.network.messages import Message
from repro.protospec import LOCAL_EVENTS, LOCAL_PREFIX, get_spec
from repro.staticcheck.graph import (
    _CARRIES_NACKS, _HOME_FANOUT, _HOME_TO_OWNER, _HOME_TO_REQUESTER,
    _TO_HOME, _TO_REQUESTER, _when_ok, origin_of,
)
from repro.staticcheck.report import Finding, source_path

#: what guards and routes read, named as the graph's Msg and World name
#: it (``poisoned``: an INV overtook the pending fill; ``stale``: this
#: INV is older than the resident copy)
Context = namedtuple("Context", "home requester src owner sharers "
                     "early_wb copy nacks retain poisoned stale")

#: a running transition; ``parts``: its directory and line fields as it
#: began and, at a home, at its first send (when a serve read memory);
#: ``fields``: its message's, as delivered
Frame = namedtuple("Frame", "view side node block before event msg parts "
                   "handler acks sends fields")
_FIELDS = attrgetter(*Message.__slots__)


def _states(state) -> tuple:
    return tuple(sorted(state)) if isinstance(state, frozenset) \
        else (state,)


def _rows(view: str, side: str, state: str, event: str) -> list:
    return get_spec(view.split("/")[-1]).side(side).rows_for(state, event)


def _parts(ctrl, block: int) -> tuple:
    ent, line = ctrl.directory.peek(block), ctrl.cache.peek(block)
    pf = ctrl._pending_fill
    return ((ent.owner if ent.dstate == DIR_DIRTY else None,
             ent.sharer_mask, ent.early_wb_mask)
            if ent is not None else (None, 0, 0)) + (
        (line.update_count, line.seq) if line is not None else (0, None)
    ) + (pf.inv_seq if pf is not None and pf.block == block else None,)


class RefinementCheck:
    """Records the transitions of the machines it is attached to and
    checks each against its table as it finishes."""

    def __init__(self) -> None:
        #: (view, side) -> the rows transitions hit
        self.hits: Dict[Tuple[str, str], Set] = {}
        #: per view, the transitions checked, and those whose state
        #: before was ambiguous
        self.transitions: Counter = Counter()
        self.ambiguous: Counter = Counter()
        #: ident -> the first finding under it
        self.findings: Dict[str, Finding] = {}
        self._stack: List[Optional[Frame]] = []
        self._verdicts: Dict[tuple, tuple] = {}

    @contextmanager
    def recording(self):
        """Attach to every machine built inside the block (through a
        class attribute, so the figure workloads need no parameter)."""
        from repro.runtime.machine import Machine
        init = Machine.__init__

        def init_and_attach(machine, *args, **kwargs) -> None:
            init(machine, *args, **kwargs)
            opened: Dict[tuple, Frame] = {}     # rewound by restores
            machine.snapshot_containers.append(opened)
            for ctrl in machine.controllers:
                self._wrap(ctrl, machine.config.protocol.value, opened)
        Machine.__init__ = init_and_attach
        try:
            yield self
        finally:
            Machine.__init__ = init

    def _wrap(self, ctrl, proto: str, opened: dict) -> None:
        stack, node = self._stack, ctrl.node
        home_events = set(get_spec(proto).home.events)

        def innermost(block=None) -> Optional[int]:
            for i in range(len(stack) - 1, -1, -1):
                f = stack[i]
                if f and f.node == node and (block is None or (
                        f.block, f.side) == (block, "home")):
                    return i
            return None

        def begin(side, block, event, msg, handler, before=None,
                  line_code=None) -> int:
            for i, f in enumerate(stack):
                # what is left of a transition on the same copy is the
                # stimulus it ran into (a fill resuming the processor)
                if f and (f.node, f.block, f.side) == (node, block, side):
                    self._finish(i, ctrl, line_code)
            view = proto
            if proto == "hybrid":
                view += "/cu" if ctrl.machine.memmap.protocol_of_block(
                    block).is_update_based else "/wi"
            stack.append(Frame(
                view, side, node, block, before or ctrl.abstract_state(
                    side, block, line_code), event, msg,
                (_parts(ctrl, block),), handler, ctrl.outstanding_acks,
                (), msg and _FIELDS(msg)))
            return len(stack) - 1

        def end(i: int) -> None:
            f = stack[i]
            if f and f.side == "home" and any(
                    "end_txn" in r.actions or "retry_txn" in r.actions
                    for s in _states(f.before)
                    for r in _rows(f.view, "home", s, f.event)):
                opened[node, f.block] = f     # runs until the release
            elif f:
                self._finish(i, ctrl)
            del stack[i:]

        def close_txn(block: int) -> None:
            i = innermost(block)
            if i is not None:
                self._finish(i, ctrl)
            elif (node, block) in opened:
                self._emit(opened.pop((node, block)), ctrl)

        def deliver(handler):
            def delivered(msg: Message) -> None:
                event = msg.mtype.name
                i = begin("home" if event in home_events else "cache",
                          msg.block, event, msg, handler)
                try:
                    handler(msg)
                finally:
                    end(i)
            return delivered

        ctrl._handlers[:] = [h and deliver(h) for h in ctrl._handlers]

        def local(event, entry):
            def stimulus(*args):
                block = (ctrl.config.block_of(args[0])
                         if event == "local:read" else args[0].block
                         if event == "local:store" else args[1]
                         if event == "local:atomic" else args[0])
                # the state before a store is the one before
                # _maybe_retire marked it retiring, and an eviction's
                # the one before the line left
                retiring = ctrl._retiring
                ctrl._retiring &= event != "local:store"
                i = begin("cache", block, event, None, entry,
                          line_code=args[1].code
                          if event == "local:evict" else None)
                ctrl._retiring = retiring
                try:
                    return entry(*args)
                finally:
                    end(i)
            return stimulus

        for event, name in LOCAL_EVENTS.items():
            setattr(ctrl, name, local(event, getattr(ctrl, name)))
        send, release, retry = (ctrl._send, ctrl.directory.release,
                                ctrl._retry_txn)

        def sent(mtype, dst, block, *args, **kwargs) -> None:
            i = innermost()
            f = stack[i] if i is not None else opened.get((node, block))
            if f is None:
                self._report(send, None, proto, "", "", mtype.name,
                             "a send outside any transition")
            else:
                if f.side == "home" and not f.sends and (
                        parts := _parts(ctrl, f.block)) != f.parts[0]:
                    f = f._replace(parts=f.parts + (parts,))
                f = f._replace(sends=f.sends + ((mtype.name, dst),))
                if i is not None:
                    stack[i] = f
                else:
                    opened[node, block] = f
            send(mtype, dst, block, *args, **kwargs)

        def txn_ends(run):
            def ended(block: int) -> None:
                close_txn(block)
                if run is release and not ctrl.directory.entry(
                        block).queue:
                    return release(block)     # nothing to grant
                i = begin("home", block, "", None, None,
                          ctrl.directory.entry(block).state.value)
                try:
                    run(block)
                finally:
                    body, msg = ctrl._txn[block]
                    stack[i] = stack[i]._replace(
                        event=msg.mtype.name, msg=msg, handler=body)
                    end(i)
            return ended

        ctrl._send, ctrl.directory.release, ctrl._retry_txn = (
            sent, txn_ends(release), txn_ends(retry))

    def _finish(self, i: int, ctrl, line_code=None) -> None:
        f, self._stack[i] = self._stack[i], None
        self._emit(f, ctrl, line_code)

    # -- checking -------------------------------------------------------

    def _emit(self, f: Frame, ctrl, line_code=None) -> None:
        after = ctrl.abstract_state(f.side, f.block, line_code)
        acks = ctrl.outstanding_acks - f.acks if f.side == "cache" else 0
        sends = tuple(sorted(f.sends, key=repr))
        cfg, m = ctrl.config, f.msg
        verdicts = []
        for owner, sharers, early_wb, counter, seq, inv_seq in f.parts:
            c = Context(
                ctrl.home_of(f.block), ctrl.node if m is None
                else m.requester if m.requester >= 0 else m.src,
                m and m.src, owner, frozenset(mask_nodes(sharers)),
                frozenset(mask_nodes(early_wb)), (("", counter),),
                m and m.nacks, m and m.retain,
                m is not None and inv_seq is not None and inv_seq >= m.seq,
                f.event == "INV" and seq is not None and seq > m.seq)
            key = (f.view, f.side, f.before, f.event, c, sends, acks, after,
                   cfg.retain_private, cfg.update_threshold)
            if key not in self._verdicts:
                self._verdicts[key] = self._judge(*key)
            verdicts.append(self._verdicts[key])
        self.transitions[f.view] += 1
        self.ambiguous[f.view] += isinstance(f.before, frozenset)
        rows, problem, named = min(verdicts, key=lambda v: v[1] is not None)
        changed = f.fields and [n for n, was, now in zip(
            Message.__slots__, f.fields, _FIELDS(f.msg)) if now is not was]
        if changed:
            problem = f"rewrote its message's {', '.join(changed)}"
            named = named or next(iter(rows), None)
        if problem is None:
            self.hits.setdefault((f.view, f.side), set()).update(rows)
            return
        before = "/".join(_states(f.before))
        self._report(f.handler, named, f.view, f.side, before, f.event,
                     f"({before}, {f.event}) {problem}; the transition "
                     f"posted {list(sends) or 'nothing'}, moved the acks "
                     f"by {acks} and ended in {'/'.join(_states(after))}")

    def _judge(self, view, side, before, event, c, sends, acks, after,
               retain, threshold) -> tuple:
        """``(rows hit, None, None)`` or ``((), problem, row named)``."""
        states, afters, got = _states(before), _states(after), \
            Counter(sends)
        if c.stale:
            ok = got == {("INV_ACK", c.requester): 1} and not acks \
                and afters == states
            return (), None if ok else "acks a stale INV wrongly", None
        initial = get_spec(view.split("/")[-1]).cache.initial
        hits, named, per_state, some = [], None, Counter(), False
        for state in states:
            for row in _rows(view, side, state, event):
                some = True
                if row.when and not _when_ok(row.when, c, c, 0, retain,
                                             threshold):
                    continue
                named = named or row
                want = Counter()
                for action in row.actions:
                    mtype = action[5:]
                    if action[:5] != "send:":
                        continue
                    if side == "home" and mtype in _HOME_FANOUT:
                        want.update((mtype, n) for n in
                                    c.sharers - {c.requester})
                    elif side == "cache":
                        want[mtype, c.home if mtype in _TO_HOME else
                             c.requester if mtype in _TO_REQUESTER
                             else None] += 1
                    else:
                        want[mtype, c.requester
                             if mtype in _HOME_TO_REQUESTER else c.owner
                             if mtype in _HOME_TO_OWNER else None] += 1
                armed = c.nacks if event in _CARRIES_NACKS else 0
                nxt = (initial if c.poisoned and "fill" in row.actions
                       else row.next_state or state)
                if want == got and (side == "home" or acks == armed
                                    - ("ack" in row.actions)) \
                        and ("retry_txn" in row.actions or nxt in afters):
                    hits.append(row)
                    per_state[state] += 1
        if hits:
            if max(per_state.values()) == 1:
                return tuple(hits), None, None
            return (), "matches several rows", named
        if not some and event.startswith(LOCAL_PREFIX) and not sends \
                and not acks and afters == states:
            return (), None, None
        return (), "matches no row" if some else "has no row", named

    def _report(self, handler, row, view, side, state, event,
                detail) -> None:
        """One finding per (view, side, state, event, handler)."""
        code = getattr(handler, "__func__", handler).__code__
        file, line = source_path(code.co_filename), code.co_firstlineno
        if row is not None:
            detail += " (row at %s:%d)" % origin_of(row)
        ident = f"refinement:{view}:{side}:{state}:{event}:{file}:{line}"
        self.findings.setdefault(ident, Finding(
            check="refinement", ident=ident, detail=detail,
            protocol=view.split("/")[0], side=side, state=state,
            event=event, file=file, line=line))
