"""Canonical machine-state keys for the model checker.

The explorer deduplicates states by *canonical key*: a string that is
equal for two machine snapshots exactly when they will behave
identically for the rest of the run (up to a declared symmetry of the
litmus program).  One pass over the machine emits the key as a flat list
of fragments:

* literal strings for everything no symmetry rewrites -- protocol
  states, data values, flags, callback names, time deltas;
* *markers* ``(kind, value)`` for the values a symmetry or the rank map
  rewrites: node, block, word, address, node set, node list, and
  sequence number (one kind per domain);
* a nested list for each unordered container (a cache's lines, a
  directory's entries, word -> value maps, ...), one fragment list per
  element.

Pending callbacks (closures, bound methods) are encoded structurally:
free variables and defaults are classified by *name* through the hint
tables below, so a closure capturing ``seq=7`` keys by sequence *rank*,
not raw value.

Sequence numbers (directory/install seqs, write ids) only matter
through their relative order: the emitter collects them per domain as
it goes, and each renders as its rank within its domain.  Every
absolute time renders as a delta from the choice-point time (the
earliest pending event): event-queue times, busy-until times, and the
integers a pending closure holds under a time-valued name (``t``,
``issue_done``).  Two copies of one state a uniform number of cycles
apart thus get one key, as their successors do.

Pending events render in dispatch order, each by its cycle delta and
callback, so an event's position within its cycle is the only order
the key records.  That is all the queue's future depends on: an event
is only ever ordered against events of its own cycle, and a newly
scheduled event lands behind every pending event of its cycle.  Two
states whose pending events agree cycle by cycle, in order, therefore
have the same futures, whatever order the cycles were filled in.

Rendering substitutes every marker through a table and sorts each
unordered container's rendered elements.  The canonical key is the
lexicographically smallest rendering over the identity and every
declared program symmetry (node relabelling + word relabelling).  A
symmetry is skipped for a state holding a value outside its maps, and
every symmetry is skipped for a state holding an *ambiguous* integer
(one reached under no name, or a name the hint tables do not
classify), which no relabelling may touch.  The key is the exact
string, never a hash of it: a collision would prune a state unsoundly.

Anything the encoder has no rule for raises :class:`Unencodable`; the
explorer then simply skips dedup for that state, which costs time but
never soundness.
"""

from __future__ import annotations

import types
from typing import Any, Dict, Iterable, List, Optional

from repro.memsys.cache import CacheLine
from repro.memsys.directory import DirEntry, mask_nodes
from repro.memsys.writebuffer import PendingWrite
from repro.network.messages import Message


class Unencodable(Exception):
    """The state contains an object the encoder has no rule for."""


# ----------------------------------------------------------------------
# markers: (kind, value) fragments whose rendering a symmetry or the
# rank map decides; the kind indexes a render table
# ----------------------------------------------------------------------

_N, _B, _W, _A, _NS, _NL, _QD, _QW = range(8)

# ----------------------------------------------------------------------
# name-hint tables: integers reached through closures / event arguments
# are classified by the variable name that carries them
# ----------------------------------------------------------------------

_NODELIST_NAMES = frozenset({"invs", "receivers", "holders"})
_DATA_NAMES = frozenset({"value", "v", "val", "merged", "old", "new",
                         "result", "operand", "init", "delta",
                         "expected", "n", "count", "duration", "cycles",
                         "nacks", "opname", "mask", "retain", "state",
                         "reason", "label"})

_AMBIGUOUS = -1
_TIME = -2

#: variable name -> marker kind of an integer it carries, None for
#: data, _TIME for an absolute time (the cycle a pending closure was
#: scheduled for or compares against), or _NS for a node bitmask
#: (rendered as the node set it holds); an integer under any other
#: name (or none) is ambiguous
_INT_KIND: Dict[str, Optional[int]] = {
    **dict.fromkeys(_DATA_NAMES),
    **dict.fromkeys(("t", "issue_done"), _TIME),
    **dict.fromkeys(("sharers", "src_bit"), _NS),
    **dict.fromkeys(("s", "src", "dst", "node", "writer", "requester",
                     "owner", "home", "parent"), _N),
    **dict.fromkeys(("seq", "inv_seq"), _QD),
    "block": _B, "blk": _B, "word": _W, "addr": _A, "write_id": _QW,
}

# ----------------------------------------------------------------------
# render tables
# ----------------------------------------------------------------------

class _Render(dict):
    """Identity rendering of one marker kind, memoized (a pure function
    of the value, so safe to share across explorations)."""

    def __init__(self, tag: str) -> None:
        super().__init__()
        self.tag = tag

    def __missing__(self, value: int) -> str:
        s = self[value] = f"{self.tag}{value}"
        return s


class _NodeTuple(dict):
    """Rendering of a node set (``ordered=False``: sorted after mapping)
    or node list through ``node_map`` (None: identity); a node outside
    the map raises KeyError."""

    def __init__(self, tag: str, ordered: bool,
                 node_map: Optional[Dict[int, int]] = None) -> None:
        super().__init__()
        self.tag, self.ordered, self.node_map = tag, ordered, node_map

    def __missing__(self, nodes: tuple) -> str:
        out = nodes
        if self.node_map is not None:
            out = [self.node_map[n] for n in out]
        if not self.ordered:
            out = sorted(out)
        s = self[nodes] = f"{self.tag}({','.join(map(str, out))})"
        return s


#: identity render tables for the kinds a symmetry rewrites
_IDENTITY = (_Render("n"), _Render("b"), _Render("w"), _Render("a"),
             _NodeTuple("ns", False), _NodeTuple("nl", True))


class Symmetry:
    """One candidate automorphism of a litmus program.

    ``node_map`` is a bijection over node ids; ``word_map`` a bijection
    over the *addresses* returned by ``alloc_word`` (word-index and
    block maps are derived from it).  Both must cover everything that
    can appear in a reachable state; a state holding an unmapped id
    is simply not mapped by this symmetry.
    """

    def __init__(self, config, node_map: Dict[int, int],
                 word_map: Dict[int, int]) -> None:
        self.node_map = dict(node_map)
        self.addr_map = dict(word_map)
        self.word_map: Dict[int, int] = {}
        self.block_map: Dict[int, int] = {}
        for a, b in word_map.items():
            self.word_map[config.word_of(a)] = config.word_of(b)
            blk_a, blk_b = config.block_of(a), config.block_of(b)
            prev = self.block_map.setdefault(blk_a, blk_b)
            if prev != blk_b:
                raise ValueError(
                    f"word map splits block {blk_a} across "
                    f"{prev} and {blk_b}")
        # render tables, one per symmetry-rewritten marker kind
        self.tables = (
            {i: f"n{j}" for i, j in self.node_map.items()},
            {i: f"b{j}" for i, j in self.block_map.items()},
            {i: f"w{j}" for i, j in self.word_map.items()},
            {i: f"a{j}" for i, j in self.addr_map.items()},
            _NodeTuple("ns", False, self.node_map),
            _NodeTuple("nl", True, self.node_map))


def _render(frags: list, tables: tuple) -> str:
    out: List[str] = []
    append = out.append
    for f in frags:
        cls = f.__class__
        if cls is str:
            append(f)
        elif cls is tuple:
            append(tables[f[0]][f[1]])
        else:
            append("{" + "".join(sorted(
                [_render(e, tables) for e in f])) + "}")
    return "".join(out)


def _unordered(out: list, elems: List[list]) -> None:
    """Append an unordered container of ``elems`` (fragment lists).
    With fewer than two elements there is nothing to sort, so they are
    inlined; the rendering is the same."""
    if len(elems) > 1:
        out += (elems, ",")
    else:
        out.append("{")
        if elems:
            out += elems[0]
        out.append("},")


def _ranks(tag: str, raws: set) -> Dict[int, str]:
    return {raw: f"{tag}{i}" for i, raw in enumerate(sorted(raws))}


# ----------------------------------------------------------------------
# bound-method owners
# ----------------------------------------------------------------------

#: exact type -> (role, carries a node id), or None for no role;
#: memoized (a pure function of the class)
_ROLES: Dict[type, Optional[tuple]] = {}


def _role(obj: Any) -> Optional[tuple]:
    cls = obj.__class__
    try:
        return _ROLES[cls]
    except KeyError:
        pass
    from repro.engine.simulator import Simulator
    from repro.memsys.directory import Directory
    from repro.memsys.memory import MemoryModule
    from repro.network.fabric import Network
    from repro.protocols.base import NodeCtrl
    from repro.runtime.machine import Machine
    from repro.runtime.processor import Processor

    role: Optional[tuple] = None
    for base, name, has_node in ((NodeCtrl, "ctrl", True),
                                 (Processor, "proc", True),
                                 (MemoryModule, "mem", True),
                                 (Directory, "dir", True),
                                 (Network, "net", False),
                                 (Simulator, "sim", False),
                                 (Machine, "machine", False)):
        if isinstance(obj, base):
            role = (name, has_node)
            break
    else:
        if cls.__name__ in ("CoherenceSanitizer", "RaceDetector"):
            role = (cls.__name__, False)
    _ROLES[cls] = role
    return role


# ----------------------------------------------------------------------
# the emitter
# ----------------------------------------------------------------------

class _Emitter:
    """One encoding pass: appends fragments and collects the sequence
    numbers of each domain; ``ambiguous`` records an ambiguous
    integer, which no symmetry may map, and ``base`` is the time every
    absolute time renders relative to.  Every method appends one value
    followed by a comma, so records need no other separators."""

    __slots__ = ("qd", "qw", "ambiguous", "base")

    def __init__(self) -> None:
        self.qd: set = set()
        self.qw: set = set()
        self.ambiguous = False
        self.base = 0

    # -- leaves ---------------------------------------------------------

    def owner(self, out: list, obj: Any) -> None:
        """A machine component by role (+ node)."""
        role = _role(obj)
        if role is None:
            raise Unencodable(f"bound method on {type(obj).__name__}")
        name, has_node = role
        if has_node:
            out += (f"{name}(", (_N, obj.node), "),")
        else:
            out.append(f"{name},")

    def cb(self, out: list, fn: Any) -> None:
        """A pending callback, structurally."""
        if fn is None:
            out.append("None,")
        elif isinstance(fn, types.MethodType):
            out.append("BM(")
            self.owner(out, fn.__self__)
            out.append(f"{fn.__func__.__qualname__!r}),")
        elif isinstance(fn, types.FunctionType):
            code = fn.__code__
            out.append(f"FN({fn.__qualname__!r},(")
            if fn.__defaults__:
                pos = code.co_varnames[:code.co_argcount]
                self.named(out, pos[code.co_argcount
                                    - len(fn.__defaults__):],
                           fn.__defaults__)
            out.append("),(")
            if fn.__closure__:
                self.named(out, code.co_freevars,
                           [cell.cell_contents for cell in fn.__closure__])
            out.append(")),")
        else:
            raise Unencodable(f"callable {fn!r}")

    def named(self, out: list, names: Iterable[str],
              values: Iterable[Any]) -> None:
        for name, v in zip(names, values):
            out.append(f"{name!r}:")
            self.hint(out, v, name)

    def cbs(self, out: list, fns: Iterable[Any]) -> None:
        out.append("(")
        for fn in fns:
            self.cb(out, fn)
        out.append("),")

    def args(self, out: list, fn: Any, args: tuple) -> None:
        out.append("(")
        if args:
            code = None
            skip = 0
            if isinstance(fn, types.MethodType):
                code = fn.__func__.__code__
                skip = 1
            elif isinstance(fn, types.FunctionType):
                code = fn.__code__
            names = (code.co_varnames[skip:skip + len(args)]
                     if code is not None else ())
            for i, a in enumerate(args):
                self.hint(out, a, names[i] if i < len(names) else None)
        out.append("),")

    def hint(self, out: list, value: Any, name: Optional[str] = None
             ) -> None:
        """A value reached through a named slot (closure free variable,
        default, or event argument)."""
        if (value is None or value.__class__ is bool
                or isinstance(value, (str, float))):
            out.append(f"{value!r},")
        elif isinstance(value, int):
            kind = _INT_KIND.get(name, _AMBIGUOUS)
            if kind is None or (kind == _N and value < 0):
                out.append(f"{value!r},")
                return
            if kind == _TIME:
                out.append(f"dt{value - self.base},")
                return
            if kind == _NS:
                out += ((_NS, mask_nodes(value)), ",")
                return
            if kind == _AMBIGUOUS:
                self.ambiguous = True
                out.append(f"x{value!r},")
                return
            if kind == _QD:
                self.qd.add(value)
            elif kind == _QW:
                self.qw.add(value)
            out += ((kind, value), ",")
        elif isinstance(value, Message):
            self.msg(out, value)
        elif isinstance(value, PendingWrite):
            self.pw(out, value)
        elif isinstance(value, CacheLine):
            out += ("LINEREF(", (_B, value.block), "),")
        elif isinstance(value, DirEntry):
            out += ("ENTREF(", (_B, value.block), "),")
        elif isinstance(value, (list, tuple)):
            if name in _NODELIST_NAMES:
                out += ((_NL, tuple(int(v) for v in value)), ",")
                return
            inner = name if name in _DATA_NAMES else None
            out.append("(")
            for v in value:
                self.hint(out, v, inner)
            out.append("),")
        elif isinstance(value, (set, frozenset)):
            if name not in _NODELIST_NAMES and name != "sharers":
                raise Unencodable(f"set under name {name!r}")
            out += ((_NS, tuple(value)), ",")
        elif isinstance(value, dict):
            if name not in ("data", "values"):
                raise Unencodable(f"dict under name {name!r}")
            self.worddict(out, value)
        elif _role(value) is not None:
            # closures frequently capture a machine component ("self",
            # "ctrl", "proc"): its identity-by-role is the whole content
            out.append("OBJ(")
            self.owner(out, value)
            out.append("),")
        elif callable(value):
            self.cb(out, value)
        else:
            from repro.protocols.base import PendingFill
            if not isinstance(value, PendingFill):
                raise Unencodable(
                    f"{type(value).__name__} under name {name!r}")
            out += ("FILLREF(", (_B, value.block), "),")

    def worddict(self, out: list, d: Dict[int, Any]) -> None:
        elems = []
        for w, v in d.items():
            e = ["(", (_W, w), ","]
            self.hint(e, v)
            e.append("),")
            elems.append(e)
        _unordered(out, elems)

    def seq(self, out: list, kind: int, raw: Optional[int]) -> None:
        """A sequence number of domain ``kind`` (None: absent)."""
        if raw is None:
            out.append("None,")
        else:
            (self.qd if kind == _QD else self.qw).add(raw)
            out += ((kind, raw), ",")

    # -- records --------------------------------------------------------

    def msg(self, out: list, m: Message) -> None:
        out += (f"MSG({m.mtype.value!r},", (_N, m.src), ",", (_N, m.dst),
                ",", (_B, m.block), ",",
                (_N, m.requester) if m.requester >= 0 else "-1", ",",
                (_W, m.word) if isinstance(m.word, int)
                else repr(m.word), ",")
        self.hint(out, m.value, "value")
        if m.data:
            self.worddict(out, m.data)
        else:
            out.append("None,")
        out.append(f"{m.nacks!r},")
        self.seq(out, _QD, m.seq if m.seq >= 0 else None)
        out.append(f"{m.op!r},")
        self.hint(out, m.operand, "operand")
        self.hint(out, m.result, "result")
        out.append(f"{m.retain!r},")
        self.seq(out, _QW, m.write_id)
        out.append(f"{m.mask!r}),")

    def pw(self, out: list, pw: PendingWrite) -> None:
        out.append("PW(")
        self.seq(out, _QW, pw.write_id)
        out += ((_A, pw.addr), ",", (_W, pw.word), ",", (_B, pw.block),
                ",")
        self.hint(out, pw.value, "value")
        out.append(f"{pw.mask!r}),")

    def line(self, out: list, line: CacheLine) -> None:
        out += ("LINE(", (_B, line.block), f",{line.state_code},")
        self.worddict(out, line.data)
        self.seq(out, _QD, line.seq)
        out.append(f"{line.update_count!r},")
        self.worddict(out, line.dirty_words)
        out.append("),")

    def dir_entry(self, out: list, ent: DirEntry) -> None:
        owner = ent.owner
        out += ("ENT(", (_B, ent.block), f",{ent.dstate},",
                (_NS, mask_nodes(ent.sharer_mask)), ",",
                (_N, owner) if isinstance(owner, int) and owner >= 0
                else repr(owner),
                f",{ent.busy!r},(")
        for fn, args in ent.queue:
            out.append("(")
            self.cb(out, fn)
            self.args(out, fn, args)
            out.append("),")
        out.append("),")
        self.seq(out, _QD, ent.seq)
        out += ((_NS, mask_nodes(ent.early_wb_mask)), "),")

    def fill(self, out: list, pend) -> None:
        if pend is None:
            out.append("None,")
            return
        out += ("FILL(", (_B, pend.block), ",", (_W, pend.word), ",")
        self.cb(out, pend.cb)
        self.seq(out, _QD, pend.inv_seq)
        out.append("),")

    def atomic(self, out: list, pa: Optional[dict]) -> None:
        if pa is None:
            out.append("None,")
            return
        out.append("PA(")
        keys = sorted(pa)
        self.named(out, keys, [pa[k] for k in keys])
        out.append("),")

    def op(self, out: list, op: Any) -> None:
        if op is None:
            out.append("None,")
            return
        out.append(f"OP({type(op).__name__!r},")
        for attr in ("addr", "value", "mask", "cycles", "opname",
                     "operand", "node"):
            if hasattr(op, attr):
                self.named(out, (attr,), (getattr(op, attr),))
        for attr in ("predicate", "fn"):
            if hasattr(op, attr):
                out.append(f"{attr!r}:")
                self.cb(out, getattr(op, attr))
        if hasattr(op, "handle"):
            out += ("'handle':proc(", (_N, op.handle.node), "),")
        out.append("),")

    def proc(self, out: list, p) -> None:
        out += ("PROC(", (_N, p.node), f",{p.started!r},{p.done!r},")
        self.op(out, p._current_op if not p.done else None)
        if p._spin_pred is not None:
            out += ("(", (_A, p._spin_addr), ",")
            self.cb(out, p._spin_pred)
            out.append("),")
        else:
            out.append("None,")
        self.cbs(out, p._done_callbacks)
        out.append("),")

    def ctrl(self, out: list, c) -> None:
        cache = c.cache
        lines = []
        for s in range(cache.num_sets):
            slots = cache._set_slots(s)
            if len(slots) > 1:
                # within-set LRU order would need its own canonical
                # form; litmus configs keep at most one line per set
                raise Unencodable("multi-line set (LRU order not "
                                  "canonical)")
            for slot in slots:
                e: list = []
                self.line(e, cache._lines[slot])
                lines.append(e)
        out += ("CTRL(", (_N, c.node), ",")
        _unordered(out, lines)
        watchers = []
        for b, cbs in cache._watchers.items():
            if cbs:
                e = ["(", (_B, b), ","]
                self.cbs(e, cbs)
                e.append("),")
                watchers.append(e)
        _unordered(out, watchers)
        out.append("(")
        for pw in c.wb._fifo:
            self.pw(out, pw)
        out.append("),")
        self.cbs(out, c.wb._space_waiters)
        self.worddict(out, c.mem._words)
        out.append(f"{max(0, c.mem._busy_until - self.base)},")
        entries = []
        for ent in c.directory._entries.values():
            e = []
            self.dir_entry(e, ent)
            entries.append(e)
        _unordered(out, entries)
        out.append(f"{c.outstanding_acks!r},{c._retiring!r},")
        self.cbs(out, c._fence_waiters)
        self.cbs(out, c._drain_waiters)
        self.fill(out, c._pending_fill)
        self.atomic(out, c._pending_atomic)
        txns = []
        for b, (body, msg) in c._txn.items():
            e = ["(", (_B, b), ","]
            self.cb(e, body)
            self.msg(e, msg)
            e.append("),")
            txns.append(e)
        _unordered(out, txns)
        out.append("),")

    def machine(self, machine, pending_events: List[tuple],
                histories: Optional[Dict[int, list]]) -> list:
        net = machine.net
        if net._jitter_rng is not None:
            raise Unencodable("network jitter (RNG state not encoded)")
        base = self.base = (pending_events[0][0] if pending_events
                            else machine.sim.now)
        out: list = ["MACHINE("]
        ctrls = []
        for c in machine.controllers:
            e: list = []
            self.ctrl(e, c)
            ctrls.append(e)
        _unordered(out, ctrls)
        procs = []
        for p in machine.processors:
            e = []
            self.proc(e, p)
            procs.append(e)
        _unordered(out, procs)
        out.append("NET(")
        for ports in (net._src_free, net._dst_free):
            _unordered(out, [["(", (_N, i), f",{max(0, t - base)}),"]
                             for i, t in enumerate(ports)])
        out.append("),EVQ(")
        for (t, _pos, fn, args) in pending_events:
            out.append(f"({t - base},")
            self.cb(out, fn)
            self.args(out, fn, args)
            out.append("),")
        out.append("),")
        if histories is not None:
            hist = []
            for n, h in histories.items():
                e = ["(", (_N, n), ",("]
                for v in h:
                    self.hint(e, v, "value")
                e.append(")),")
                hist.append(e)
            _unordered(out, hist)
        else:
            out.append("None,")
        san = machine.sanitizer
        if san is not None:
            _unordered(out, [["(", (_W, w),
                              f",{tuple(sorted(vals, key=repr))!r}),"]
                             for w, vals in san._values.items()])
        else:
            out.append("None,")
        out.append(")")
        return out


def canonical_key(machine, pending_events: List[tuple],
                  symmetries: Iterable[Symmetry] = (),
                  histories: Optional[Dict[int, list]] = None
                  ) -> Optional[str]:
    """The canonical fingerprint of a snapshot, or None when some piece
    of state is :class:`Unencodable` (the caller skips dedup then).
    ``pending_events`` are ``(when, position, fn, args)`` tuples in
    dispatch order, as :meth:`Simulator.iter_pending` yields them."""
    em = _Emitter()
    try:
        frags = em.machine(machine, pending_events, histories)
    except Unencodable:
        return None
    seqs = (_ranks("qd", em.qd), _ranks("qw", em.qw))
    best = _render(frags, _IDENTITY + seqs)
    if not em.ambiguous:
        for sym in symmetries:
            try:
                cand = _render(frags, sym.tables + seqs)
            except KeyError:  # a value outside the symmetry's maps
                continue
            if cand < best:
                best = cand
    return best
