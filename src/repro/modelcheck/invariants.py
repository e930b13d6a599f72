"""Per-state protocol invariants, checked between every two events.

These are deliberately *stable-state* invariants: a directory-based
protocol is allowed to be temporarily incoherent while a transaction is
in flight, so every rule that could fire transiently is gated on "the
block has no busy directory entry and no message in flight".  What must
hold in **every** state, transient or not:

* ``swmr``         -- at most one dirty (M/R) copy of a block, ever;
* ``cu-counter``   -- a resident line managed by competitive update
                      never reaches the drop threshold (it must have
                      been dropped by the update that got it there).

What must hold whenever the block is *quiet* (no busy entry, no
in-flight message):

* ``stale-copy``   -- a dirty copy excludes any other cached copy;
* ``dir-agreement``-- a dirty copy is known to the home directory as
                      DIRTY with the right owner.

Deadlock, quiescence, golden-value consistency and the final
directory/cache agreement are checked at end of run by the explorer
(via ``machine.finish()`` / the PR-1 sanitizer / the litmus program's
own final check), not here.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.config import Protocol
from repro.memsys.cache import CacheLine, CacheState
from repro.memsys.directory import DirState

#: states that make a cached copy "dirty" (exclusive ownership).
#: MESI's E counts: the copy is clean but the directory records its
#: holder as owner, and it may go dirty with no further traffic.
DIRTY_STATES = (CacheState.MODIFIED, CacheState.RETAINED,
                CacheState.EXCLUSIVE)


class InvariantViolation(AssertionError):
    """A per-state invariant does not hold.  ``rule`` is the short id
    the explorer reports as ``invariant:<rule>``."""

    def __init__(self, rule: str, detail: str) -> None:
        super().__init__(f"{rule}: {detail}")
        self.rule = rule
        self.detail = detail


def _block_in_flight(machine, block: int) -> bool:
    """Any undelivered network message for ``block``?"""
    deliver = machine.net._deliver
    for (_when, _pos, fn, args) in machine.sim.iter_pending():
        if fn == deliver and args and args[0].block == block:
            return True
    return False


def _cu_managed(machine, block: int) -> bool:
    proto = machine.config.protocol
    if proto is Protocol.CU:
        return True
    if proto is Protocol.HYBRID:
        return machine.memmap.protocol_of_block(block) is Protocol.CU
    return False


def check_state_invariants(machine) -> None:
    """Raise :class:`InvariantViolation` if any per-state rule fails."""
    cfg = machine.config
    ctrls = machine.controllers

    holders: Dict[int, List[Tuple[int, CacheLine]]] = {}
    for ctrl in ctrls:
        for line in ctrl.cache.iter_lines():
            holders.setdefault(line.block, []).append(
                (ctrl.node, line))
            if (_cu_managed(machine, line.block)
                    and line.update_count >= cfg.update_threshold):
                raise InvariantViolation(
                    "cu-counter",
                    f"node {ctrl.node} blk {line.block}: update "
                    f"counter {line.update_count} reached the drop "
                    f"threshold {cfg.update_threshold} while the "
                    f"line is still resident")

    for block, copies in holders.items():
        dirty = [(n, ln) for n, ln in copies
                 if ln.state in DIRTY_STATES]
        if len(dirty) > 1:
            raise InvariantViolation(
                "swmr",
                f"blk {block}: dirty copies at nodes "
                f"{sorted(n for n, _ in dirty)}")
        if not dirty:
            continue
        owner_node = dirty[0][0]
        home = cfg.home_of_block(block)
        ent = ctrls[home].directory.peek(block)
        if (ent is not None and ent.busy) \
                or _block_in_flight(machine, block):
            continue  # a transaction is still resolving this block
        if len(copies) > 1:
            others = sorted(n for n, _ in copies if n != owner_node)
            raise InvariantViolation(
                "stale-copy",
                f"blk {block}: dirty at node {owner_node} while nodes "
                f"{others} still hold copies, with no transaction or "
                f"message in flight")
        if ent is None or ent.state is not DirState.DIRTY \
                or ent.owner != owner_node:
            where = ("no directory entry" if ent is None else
                     f"state={ent.state.value} owner={ent.owner}")
            raise InvariantViolation(
                "dir-agreement",
                f"blk {block}: dirty at node {owner_node} but the home "
                f"directory says {where}")
