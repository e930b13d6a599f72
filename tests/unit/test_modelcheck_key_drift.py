"""Drift guard: every field a component saves in its snapshot reaches the
model checker's canonical state key.

The explorer prunes a state whose key it has seen before, so a field the
key leaves out lets two states that differ only in that field merge, and
one of them is never explored.  For every component the key encodes
(cache, write buffer, memory, directory, controller, network and
processor) this test perturbs each field of the component's snapshot in
turn, restores the perturbed snapshot, and requires the key to change in
at least one reachable state of the litmus programs; then it restores the
original.  A field may stay out of the key only if it is on ``ALLOWED``
with its reason.

A snapshot that grows a field fails ``test_schemas_match_snapshots``
until the field is named here; naming it puts it under this guard.
"""

from __future__ import annotations

from typing import Any, Dict, List, Tuple

import pytest

from repro.config import Protocol
from repro.modelcheck import PROGRAMS, canonical_key, get_program
from repro.modelcheck.explorer import _build

# field names, in snapshot order
CACHE = ("tags", "lines", "lru", "watchers")
LINE = ("block", "state_code", "data", "seq", "update_count",
        "dirty_words")
WRITE_BUFFER = ("fifo", "space_waiters", "empty_waiters")
MEMORY = ("words", "busy_until", "wait_cycles", "accesses")
DIR_ENTRY = ("dstate", "sharer_mask", "owner", "busy", "queue", "seq",
             "early_wb_mask")
# the first four are the components above, checked on their own
CONTROLLER = ("cache", "write_buffer", "memory", "directory",
              "outstanding_acks", "retiring", "fence_waiters",
              "drain_waiters", "pending_fill", "pending_fill.inv_seq",
              "pending_atomic", "txn")
NETWORK = ("src_free", "dst_free", "jitter_rng", "type_counts",
           "pair_counts", "n_contention")
# Machine.snapshot() saves these per processor; ``history`` is the
# thread's recorded resume values, the histories the key is given
PROCESSOR = ("started", "done", "done_time", "instructions",
             "spin_wakeups", "failure", "_current_op", "_done_callbacks",
             "_spin_addr", "_spin_word", "_spin_block", "_spin_pred",
             "history")

ALLOWED = {
    "cache.lru": "None in direct-mapped caches; with more ways the "
                 "encoder refuses a set holding two lines",
    "memory.wait_cycles": "statistic: queueing delay, never read back",
    "memory.accesses": "statistic: access count, never read back",
    "network.jitter_rng": "None without jitter; the encoder refuses a "
                          "machine with jitter",
    "network.type_counts": "traffic counter",
    "network.pair_counts": "traffic counter",
    "network.n_contention": "traffic counter",
    "processor.done_time": "statistic: the cycle the thread finished",
    "processor.instructions": "statistic: operations issued",
    "processor.spin_wakeups": "statistic: spin re-checks",
    "processor.failure": "set only while the thread's exception "
                         "propagates, which ends the run",
    "processor._spin_word": "derived from _spin_addr",
    "processor._spin_block": "derived from _spin_addr",
}

SUBCOMPONENTS = {"controller.cache", "controller.write_buffer",
                 "controller.memory", "controller.directory"}

FIELDS = {f"{comp}.{name}" for comp, schema in (
    ("cache", CACHE), ("line", LINE), ("write_buffer", WRITE_BUFFER),
    ("memory", MEMORY), ("dir_entry", DIR_ENTRY),
    ("controller", CONTROLLER), ("network", NETWORK),
    ("processor", PROCESSOR)) for name in schema}

PROTOCOLS = (Protocol.WI, Protocol.PU, Protocol.CU)


def _fresh_key(k: Any) -> Any:
    return k + 1000 if isinstance(k, int) else f"{k}'"


def _variants(value: Any, spare: Any) -> List[Any]:
    """Values to put in place of ``value``: integer steps, a flipped
    flag, an integer for None, one entry dropped, duplicated, added or
    changed, and ``spare`` (an encodable callback) for an empty
    sequence."""
    if value is None:
        return [0, 1000]
    if isinstance(value, bool):
        return [not value]
    if isinstance(value, int):
        return [value + 1, value - 1, value + 1000, value - 1000, -1]
    out: List[Any] = []
    if isinstance(value, dict):
        if value:
            k = next(iter(value))
            out.append({kk: v for kk, v in value.items() if kk != k})
            out.append({**value, _fresh_key(k): value[k]})
            out += [{**value, k: v} for v in _variants(value[k], spare)]
        else:
            out.append({0: 0})
    elif isinstance(value, (list, tuple)):
        kind = type(value)
        if value:
            out.append(value[:-1])
            out.append(value[:1] + value)
            for i, item in enumerate(value):
                out += [value[:i] + kind([v]) + value[i + 1:]
                        for v in _variants(item, spare)
                        if isinstance(item, (bool, int))]
        else:
            out.append(kind([spare]))
    return out


class _Field:
    """One snapshot field of one component instance (``where``): its
    saved value, how to install a perturbed copy and how to undo it."""

    def __init__(self, name: str, where: tuple, value: Any, apply,
                 undo) -> None:
        self.name, self.where, self.value = name, where, value
        self.apply, self.undo = apply, undo


def _replace(seq: tuple, i: int, v: Any) -> tuple:
    return seq[:i] + (v,) + seq[i + 1:]


def _fields(machine, snap, histories) -> List[_Field]:
    """Every perturbable field of every component in machine snapshot
    ``snap`` (which ``machine`` currently equals)."""
    out: List[_Field] = []
    ctrl_snaps, net_snap, procs = snap[1], snap[2], snap[7]

    def tuple_fields(prefix, where, names, rec, restore):
        for i, name in enumerate(names):
            def apply(v, i=i):
                restore(_replace(rec, i, v))
            out.append(_Field(f"{prefix}.{name}", where, rec[i], apply,
                              lambda: restore(rec)))

    for ctrl, csnap in zip(machine.controllers, ctrl_snaps):
        node = ctrl.node
        tuple_fields("controller", (node,), CONTROLLER, csnap,
                     ctrl.restore_state)
        cache_snap, wb_snap, mem_snap, dir_snap = csnap[:4]
        cache = ctrl.cache
        tuple_fields("cache", (node,), CACHE, cache_snap,
                     cache.restore_state)
        for slot, line in enumerate(cache_snap[1]):
            if line is None:
                continue

            def set_line(rec, slot=slot, cache=cache, snap=cache_snap):
                tags, lines, lru, watchers = snap
                cache.restore_state(
                    (tags, lines[:slot] + [rec] + lines[slot + 1:], lru,
                     watchers))
            tuple_fields("line", (node, slot), LINE, line, set_line)
        tuple_fields("write_buffer", (node,), WRITE_BUFFER, wb_snap,
                     ctrl.wb.restore_state)
        tuple_fields("memory", (node,), MEMORY, mem_snap,
                     ctrl.mem.restore_state)
        directory = ctrl.directory
        for block, ent in dir_snap.items():
            def set_entry(rec, block=block, directory=directory,
                          snap=dir_snap):
                directory.restore_state({**snap, block: rec})
            tuple_fields("dir_entry", (node, block), DIR_ENTRY, ent,
                         set_entry)
    tuple_fields("network", (), NETWORK, net_snap,
                 machine.net.restore_state)
    for proc, rec in zip(machine.processors, procs):
        hist = histories.get(proc.node)
        for i, name in enumerate(PROCESSOR):
            if name == "history":
                if hist is None:
                    continue

                def apply(v, hist=hist):
                    hist[:] = v

                def undo(hist=hist, saved=list(hist)):
                    hist[:] = saved
                out.append(_Field("processor.history", (proc.node,),
                                  list(hist), apply, undo))
                continue

            def apply(v, proc=proc, name=name):
                setattr(proc, name, v)

            def undo(proc=proc, name=name, saved=rec[i]):
                setattr(proc, name, saved)
            out.append(_Field(f"processor.{name}", (proc.node,), rec[i],
                              apply, undo))
    return out


def _reachable_states(program: str, protocol: Protocol):
    """The machine after every event of the default schedule."""
    litmus = get_program(program)
    machine, _built, histories, syms = _build(
        litmus, litmus.config(protocol), 50_000)
    states = []
    machine.prepare()
    while machine.sim.step():
        states.append(machine.snapshot())
    return machine, histories, syms, states


def _key(machine, syms, histories):
    try:
        return canonical_key(machine, list(machine.sim.iter_pending()),
                             syms, histories)
    except Exception:  # a perturbation the encoder cannot make sense of
        return None


def _unkeyed_fields() -> Tuple[set, set]:
    """Fields never seen to change the key, and the fields perturbed at
    all.  Stops once every field has changed it."""
    wanted = FIELDS - set(ALLOWED) - SUBCOMPONENTS
    seen: set = set()
    proven: set = set()
    observed: Dict[Tuple[str, tuple], list] = {}
    for program in PROGRAMS:
        for protocol in PROTOCOLS:
            machine, histories, syms, states = _reachable_states(
                program, protocol)
            spare = machine.processors[0]._continue_none
            for snap in states:
                machine.restore(snap)
                base = _key(machine, syms, histories)
                assert base is not None
                for field in _fields(machine, snap, histories):
                    name = field.name
                    if name in ALLOWED or name in SUBCOMPONENTS:
                        continue
                    seen.add(name)
                    # values the same field holds in other states
                    others = observed.setdefault((name, field.where), [])
                    if field.value not in others:
                        others.append(field.value)
                    if name in proven:
                        continue
                    candidates = _variants(field.value, spare) + [
                        o for o in others if o != field.value]
                    for v in candidates:
                        try:
                            field.apply(v)
                            key = _key(machine, syms, histories)
                        except Exception:  # a shape restore rejects
                            key = None
                        finally:
                            field.undo()
                        if key is not None and key != base:
                            proven.add(name)
                            break
                    assert _key(machine, syms, histories) == base
                if proven >= wanted:
                    return set(), seen
    return seen - proven, seen


@pytest.fixture(scope="module")
def unkeyed():
    return _unkeyed_fields()


def test_schemas_match_snapshots():
    litmus = get_program("lock")
    machine, _built, _histories, _syms = _build(
        litmus, litmus.config(Protocol.WI), 50_000)
    machine.prepare()
    for _ in range(40):
        machine.sim.step()
    snap = machine.snapshot()
    csnap = snap[1][0]
    assert len(csnap) == len(CONTROLLER)
    assert len(csnap[0]) == len(CACHE)
    assert all(len(rec) == len(LINE) for rec in csnap[0][1] if rec)
    assert len(csnap[1]) == len(WRITE_BUFFER)
    assert len(csnap[2]) == len(MEMORY)
    assert csnap[3] and all(len(rec) == len(DIR_ENTRY)
                            for rec in csnap[3].values())
    assert len(snap[2]) == len(NETWORK)
    assert all(len(rec) == len(PROCESSOR) for rec in snap[7])


def test_allow_list_names_real_fields():
    assert set(ALLOWED) <= FIELDS
    assert SUBCOMPONENTS <= FIELDS


def test_every_snapshot_field_reaches_the_key(unkeyed):
    missing, seen = unkeyed
    assert seen == FIELDS - set(ALLOWED) - SUBCOMPONENTS
    assert not missing, (
        f"snapshot fields that never change the canonical key: "
        f"{sorted(missing)}; encode them in repro/modelcheck/state.py "
        f"or add them to ALLOWED with a reason")
