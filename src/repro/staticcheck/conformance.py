"""AST conformance: diff the protocol source against its spec table.

For every event a protocol handles -- each ``MsgType`` in the
controller's ``HANDLERS`` plus the ``local:*`` processor stimuli -- this
pass extracts what the bound handler *actually does* and compares it
with the union of the actions the spec's transition rows declare for
that event.  The spec can therefore never silently drift from the code:
removing a send, dropping an ack, or rerouting a message shows up as a
``conformance`` finding with the handler's file:line.

Extraction walks the handler's AST (``inspect.getsource`` per *method
object*, so runtime monkey-patches -- e.g. the seeded mutations of
:mod:`repro.modelcheck.mutations` -- are seen exactly as the simulator
would run them) and records:

* ``send:X`` for ``self._send(MsgType.X, ...)``;
* ``cache:=S`` / ``dir:=S`` for ``<lvalue>.state = CacheState.S`` /
  ``DirState.S`` assignments;
* ``install`` / ``invalidate`` / ``cache_write`` for the corresponding
  ``self.cache`` calls, ``mem_write`` for ``self.mem.write_*``, and
  ``atomic_op`` for ``apply_atomic(...)``;
* an abstract token for calls to the well-known plumbing helpers
  (``self._ack_collected()`` -> ``ack``, ``self._retire_done()`` ->
  ``retire_done``, ...), without descending into them;
* recursively, the effects of protocol helper methods the handler
  references (``self._rdex_txn``, ``self._issue_invalidations``, a
  transaction body passed to ``_begin_txn``, or an explicit
  ``WINodeCtrl._read_txn`` in the hybrid dispatchers).

The recursion resolves method names through the concrete class's MRO,
so the CU controller's ``_drop_check`` contributes its drop actions
while the PU controller's contributes nothing -- same source, different
table, both checked.
"""

from __future__ import annotations

import ast
import inspect
import textwrap
from typing import Callable, Dict, List, Optional, Set, Tuple

from repro.network.messages import MsgType
from repro.protospec.model import LOCAL_EVENTS, ProtocolSpec
from repro.staticcheck.report import Finding, source_path

#: plumbing helpers summarized as one abstract action (not descended)
TOKEN_METHODS = {
    "_ack_collected": "ack",
    "_retire_done": "retire_done",
    "_end_txn": "end_txn",
    "_retry_txn": "retry_txn",
    "_begin_txn": "begin_txn",
    "_evict": "evict",
    "_finish_atomic": "finish_atomic",
    "_apply_store": "apply_store",
    "_complete_fill": "fill",
}

#: helpers with no protocol-visible effect of their own; referenced all
#: over, never worth descending into (descending into _maybe_retire
#: would smear the *next* write's transaction into every handler)
IGNORE_METHODS = {
    "_send", "_ref", "_check_fence", "_maybe_retire", "_when_drained",
    "home_of", "local_view", "receive", "quiesced", "_enqueue_write",
    "fence", "wrap_fence", "_fence_ok", "write", "atomic",
    "flush_block", "flush_all",
}

#: class names the hybrid dispatchers reference explicitly
_PROTOCOL_CLASS_NAMES = ("NodeCtrl", "WINodeCtrl", "PUNodeCtrl",
                         "CUNodeCtrl", "HybridNodeCtrl", "MESINodeCtrl")


def _protocol_classes() -> Dict[str, type]:
    from repro.protocols import (
        CUNodeCtrl, HybridNodeCtrl, MESINodeCtrl, NodeCtrl, PUNodeCtrl,
        WINodeCtrl,
    )
    return {"NodeCtrl": NodeCtrl, "WINodeCtrl": WINodeCtrl,
            "PUNodeCtrl": PUNodeCtrl, "CUNodeCtrl": CUNodeCtrl,
            "HybridNodeCtrl": HybridNodeCtrl,
            "MESINodeCtrl": MESINodeCtrl}


class ExtractionError(RuntimeError):
    """A handler could not be parsed (missing source, bad reference)."""


#: effect name -> (file, line) of the function that first contributed it
EffectMap = Dict[str, Tuple[str, int]]


def _msgtype_name(node: ast.AST) -> Optional[str]:
    """``MsgType.X`` attribute access -> ``"X"``."""
    if isinstance(node, ast.Attribute) and \
            isinstance(node.value, ast.Name) and \
            node.value.id == "MsgType" and \
            node.attr in MsgType.__members__:
        return node.attr
    return None


def _self_attr(node: ast.AST) -> Optional[str]:
    """``self.X`` -> ``"X"``."""
    if isinstance(node, ast.Attribute) and \
            isinstance(node.value, ast.Name) and node.value.id == "self":
        return node.attr
    return None


def _self_sub_attr(node: ast.AST) -> Optional[Tuple[str, str]]:
    """``self.Y.Z`` -> ``("Y", "Z")``."""
    if isinstance(node, ast.Attribute) and \
            isinstance(node.value, ast.Attribute) and \
            isinstance(node.value.value, ast.Name) and \
            node.value.value.id == "self":
        return node.value.attr, node.attr
    return None


def _class_attr(node: ast.AST) -> Optional[Tuple[str, str]]:
    """``WINodeCtrl.X`` -> ``("WINodeCtrl", "X")``."""
    if isinstance(node, ast.Attribute) and \
            isinstance(node.value, ast.Name) and \
            node.value.id in _PROTOCOL_CLASS_NAMES:
        return node.value.id, node.attr
    return None


def _function_of(obj) -> Callable:
    """Unwrap a bound/unbound method to its plain function."""
    return inspect.unwrap(getattr(obj, "__func__", obj))


class _Extractor:
    """Transitive effect extraction for one concrete controller class."""

    def __init__(self, cls: type) -> None:
        self.cls = cls
        self.classes = _protocol_classes()

    def extract(self, method_name: str) -> EffectMap:
        effects: EffectMap = {}
        self._visit_method(getattr(self.cls, method_name), effects,
                           seen=set())
        return effects

    # -- recursion -----------------------------------------------------

    def _visit_method(self, method, effects: EffectMap,
                      seen: Set[int]) -> None:
        func = _function_of(method)
        if id(func) in seen:
            return
        seen.add(id(func))
        try:
            source = textwrap.dedent(inspect.getsource(func))
        except (OSError, TypeError) as exc:
            raise ExtractionError(
                f"cannot read source of {func!r}: {exc}") from exc
        tree = ast.parse(source)
        where = (func.__code__.co_filename, func.__code__.co_firstlineno)
        self._visit_tree(tree, where, effects, seen)

    def _record(self, effects: EffectMap, name: str,
                where: Tuple[str, int]) -> None:
        effects.setdefault(name, where)

    def _follow(self, attr: str, owner: Optional[type],
                effects: EffectMap, seen: Set[int],
                where: Tuple[str, int]) -> None:
        """A reference to method ``attr`` (on ``self`` or an explicit
        protocol class): summarize, ignore, or descend."""
        if attr in TOKEN_METHODS:
            self._record(effects, TOKEN_METHODS[attr], where)
            return
        if attr in IGNORE_METHODS:
            return
        target = getattr(owner or self.cls, attr, None)
        if target is None or not callable(target):
            return
        func = _function_of(target)
        module = getattr(func, "__module__", "") or ""
        # descend only into protocol code (and the seeded-mutation
        # module, whose patched bodies stand in for protocol code)
        if not (module.startswith("repro.protocols")
                or module.startswith("repro.modelcheck")):
            return
        self._visit_method(target, effects, seen)

    # -- one function body ---------------------------------------------

    def _visit_tree(self, tree: ast.AST, where: Tuple[str, int],
                    effects: EffectMap, seen: Set[int]) -> None:
        for node in ast.walk(tree):
            line = (where[0], where[1] + max(
                getattr(node, "lineno", 1) - 1, 0))
            # ---- assignments: <lvalue>.state = CacheState.X (enum
            # form) or <lvalue>.state_code = STATE_X / <lvalue>.dstate
            # = DIR_X (the flat int-code form the hot paths use) ------
            if isinstance(node, ast.Assign):
                value = node.value
                for target in node.targets:
                    if not isinstance(target, ast.Attribute):
                        continue
                    if target.attr == "state":
                        if isinstance(value, ast.Attribute) and \
                                isinstance(value.value, ast.Name):
                            base = value.value.id
                            if base == "CacheState":
                                self._record(
                                    effects,
                                    f"cache:={value.attr}", line)
                            elif base == "DirState":
                                self._record(
                                    effects, f"dir:={value.attr}", line)
                    elif target.attr == "state_code" and \
                            isinstance(value, ast.Name) and \
                            value.id.startswith("STATE_"):
                        self._record(
                            effects,
                            f"cache:={value.id[len('STATE_'):]}", line)
                    elif target.attr == "dstate" and \
                            isinstance(value, ast.Name) and \
                            value.id.startswith("DIR_"):
                        self._record(
                            effects,
                            f"dir:={value.id[len('DIR_'):]}", line)
                continue
            # ---- ent.early_wb_mask |= ... : record a mid-transaction
            # writeback from the incoming owner ------------------------
            if isinstance(node, ast.AugAssign) and \
                    isinstance(node.op, ast.BitOr) and \
                    isinstance(node.target, ast.Attribute) and \
                    node.target.attr == "early_wb_mask":
                self._record(effects, "note_early_wb", line)
                continue
            if not isinstance(node, ast.Call):
                # a bare reference (``self.sim.at(t, self._end_txn,
                # ...)``, ``body = WINodeCtrl._read_txn``) still wires
                # the method into the handler's behaviour
                attr = _self_attr(node)
                if attr is not None:
                    self._follow(attr, None, effects, seen, line)
                    continue
                # likewise a bare ``self.mem.write_block`` /
                # ``self.cache.*`` reference scheduled as a callback
                sub = _self_sub_attr(node)
                if sub is not None:
                    owner, meth = sub
                    if owner == "cache":
                        if meth == "install":
                            self._record(effects, "install", line)
                        elif meth == "invalidate":
                            self._record(effects, "invalidate", line)
                        elif meth == "write_word":
                            self._record(effects, "cache_write", line)
                    elif owner == "mem" and meth in ("write_word",
                                                     "write_block"):
                        self._record(effects, "mem_write", line)
                    continue
                cls_ref = _class_attr(node)
                if cls_ref is not None:
                    cname, attr = cls_ref
                    self._follow(attr, self.classes[cname], effects,
                                 seen, line)
                continue
            fn = node.func
            # ---- self._send(MsgType.X, ...) --------------------------
            attr = _self_attr(fn)
            if attr == "_send":
                name = _msgtype_name(node.args[0]) if node.args else None
                self._record(effects,
                             f"send:{name}" if name else "send:?", line)
                continue
            if attr is not None:
                self._follow(attr, None, effects, seen, line)
                continue
            # ---- self.cache.* / self.mem.* ---------------------------
            sub = _self_sub_attr(fn)
            if sub is not None:
                owner, meth = sub
                if owner == "cache":
                    if meth == "install":
                        self._record(effects, "install", line)
                    elif meth == "invalidate":
                        self._record(effects, "invalidate", line)
                    elif meth == "write_word":
                        self._record(effects, "cache_write", line)
                elif owner == "mem" and meth in ("write_word",
                                                 "write_block"):
                    self._record(effects, "mem_write", line)
                continue
            # ---- apply_atomic(...) -----------------------------------
            if isinstance(fn, ast.Name) and fn.id == "apply_atomic":
                self._record(effects, "atomic_op", line)
                continue
            cls_ref = _class_attr(fn)
            if cls_ref is not None:
                cname, attr = cls_ref
                self._follow(attr, self.classes[cname], effects, seen,
                             line)


# ----------------------------------------------------------------------
# public API
# ----------------------------------------------------------------------

def handler_effects(cls: type) -> Dict[str, EffectMap]:
    """Extract effects for every event the class handles: MsgType names
    from ``cls.HANDLERS`` plus the ``local:*`` stimuli."""
    ex = _Extractor(cls)
    out: Dict[str, EffectMap] = {}
    for mtype, method_name in cls.HANDLERS.items():
        out[mtype.name] = ex.extract(method_name)
    for event, method_name in LOCAL_EVENTS.items():
        if getattr(cls, method_name, None) is not None:
            out[event] = ex.extract(method_name)
    return out


def check_conformance(spec: ProtocolSpec, cls: type) -> List[Finding]:
    """Diff the spec's per-event action unions against the class's
    extracted handler effects."""
    findings: List[Finding] = []
    proto = spec.protocol

    # spec-side union of actions per event (both sides merged: a single
    # controller plays both roles, so one handler serves the event)
    declared: Dict[str, Set[str]] = {}
    for side in spec.sides:
        for row in side.rows:
            declared.setdefault(row.event, set()).update(row.actions)
        for ev in side.events:
            declared.setdefault(ev, set())

    extracted = handler_effects(cls)

    handled_msgs = {m.name for m in cls.HANDLERS}
    for event in sorted(declared):
        is_local = event.startswith("local:")
        if not is_local and event not in handled_msgs:
            # fail-fast construction also catches this; keep it in the
            # static report so the table and code are diffed offline too
            findings.append(Finding(
                check="conformance",
                ident=f"conformance:{proto}:{event}:unhandled",
                detail=f"{cls.__name__} has no handler for {event}, "
                       f"which the {proto} table routes to it",
                protocol=proto, event=event))
            continue
        if event not in extracted:
            findings.append(Finding(
                check="conformance",
                ident=f"conformance:{proto}:{event}:unhandled",
                detail=f"{cls.__name__} has no entry point for "
                       f"{event}",
                protocol=proto, event=event))
            continue
        code = extracted[event]
        table = declared[event]
        entry = (cls.HANDLERS[MsgType[event]] if not is_local
                 else LOCAL_EVENTS[event])
        entry_fn = _function_of(getattr(cls, entry))
        entry_where = (source_path(entry_fn.__code__.co_filename),
                       entry_fn.__code__.co_firstlineno)
        for action in sorted(table - set(code)):
            findings.append(Finding(
                check="conformance",
                ident=f"conformance:{proto}:{event}:missing:{action}",
                detail=f"table row(s) for {event} declare {action!r} "
                       f"but {cls.__name__}.{entry} (and the helpers "
                       f"it reaches) never does it",
                protocol=proto, event=event,
                file=entry_where[0], line=entry_where[1]))
        for action in sorted(set(code) - table):
            file, line = code[action]
            findings.append(Finding(
                check="conformance",
                ident=f"conformance:{proto}:{event}:undeclared:{action}",
                detail=f"{cls.__name__}.{entry} does {action!r} on "
                       f"{event}, which no {proto} table row declares",
                protocol=proto, event=event,
                file=source_path(file), line=line))

    # messages the code handles that the table does not route at all
    for event in sorted(handled_msgs - set(declared)):
        method = cls.HANDLERS[MsgType[event]]
        fn = _function_of(getattr(cls, method))
        findings.append(Finding(
            check="conformance",
            ident=f"conformance:{proto}:{event}:unrouted",
            detail=f"{cls.__name__} handles {event} but the {proto} "
                   f"table does not list it on either side",
            protocol=proto, event=event,
            file=source_path(fn.__code__.co_filename),
            line=fn.__code__.co_firstlineno))
    return findings

