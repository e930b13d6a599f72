"""Unit tests for the canonical state encoder: determinism, state
sensitivity, and node/word symmetry merging."""

from __future__ import annotations

import pytest

from repro.config import Protocol
from repro.modelcheck import canonical_key, get_program
from repro.modelcheck.explorer import _build
from repro.modelcheck.state import _NS, _Emitter


def _machine(name: str = "sb", protocol: Protocol = Protocol.WI):
    litmus = get_program(name)
    config = litmus.config(protocol)
    return _build(litmus, config, max_events=50_000)


def _advance(machine, histories, first_choice: int, steps: int):
    """Prepare the machine and take ``steps`` events, using
    ``first_choice`` at the first same-cycle tie and 0 afterwards."""
    taken = {"n": 0}

    def chooser(batch):
        taken["n"] += 1
        return first_choice if taken["n"] == 1 else 0

    machine.sim.chooser = chooser
    machine.prepare()
    for _ in range(steps):
        machine.sim.step()


def test_key_is_deterministic():
    machine, built, histories, syms = _machine()
    machine.prepare()
    pending = list(machine.sim.iter_pending())
    k1 = canonical_key(machine, pending, syms, histories)
    k2 = canonical_key(machine, pending, syms, histories)
    assert k1 is not None
    assert k1 == k2


def test_identical_runs_share_a_key():
    keys = []
    for _ in range(2):
        machine, built, histories, syms = _machine()
        _advance(machine, histories, first_choice=0, steps=2)
        keys.append(canonical_key(machine, list(machine.sim.iter_pending()),
                                  syms, histories))
    assert keys[0] is not None
    assert keys[0] == keys[1]


def test_key_tracks_machine_state():
    machine, built, histories, syms = _machine()
    machine.prepare()
    before = canonical_key(machine, list(machine.sim.iter_pending()), syms,
                           histories)
    machine.sim.step()
    after = canonical_key(machine, list(machine.sim.iter_pending()), syms,
                          histories)
    assert before != after


def test_symmetry_merges_mirror_states():
    """sb is symmetric under swapping the two nodes together with the
    two variables: executing node 0 first and node 1 first yields
    mirror-image states with the same canonical key -- but different
    keys when no symmetry is applied."""
    encodings, keys = [], []
    for first in (0, 1):
        machine, built, histories, syms = _machine()
        _advance(machine, histories, first_choice=first, steps=1)
        pending = list(machine.sim.iter_pending())
        encodings.append(canonical_key(machine, pending, (), histories))
        keys.append(canonical_key(machine, pending, syms, histories))
    assert encodings[0] != encodings[1]
    assert keys[0] == keys[1]


def test_without_symmetry_mirror_states_stay_distinct():
    keys = []
    for first in (0, 1):
        machine, built, histories, syms = _machine()
        _advance(machine, histories, first_choice=first, steps=1)
        keys.append(canonical_key(machine, list(machine.sim.iter_pending()),
                                  (), histories))
    assert keys[0] != keys[1]


class _Stop(Exception):
    pass


def _key_after(name: str, protocol: Protocol, prefix: tuple):
    """``(now, key)`` at the first choice point past a forced-choice
    prefix, the key taken with symmetries off."""
    machine, built, histories, syms = _machine(name, protocol)
    sim = machine.sim
    found = []

    def chooser(batch):
        pos = len(sim.choice_log)
        if pos < len(prefix):
            return prefix[pos]
        found.append((sim.now, canonical_key(
            machine, batch + list(sim.iter_pending()), (), histories)))
        raise _Stop

    sim.chooser = chooser
    machine.prepare()
    with pytest.raises(_Stop):
        while sim.step():
            pass
    return found[0]


def test_time_shifted_copies_share_a_key():
    """barrier/wi reaches one state at two clock values one cycle
    apart: everything timed -- the clock, the event queue, the memory's
    busy-until time and the pending ``_rdex_txn`` finish closure's
    ``t`` and ``issue_done`` -- is shifted by one.  Every time renders
    relative to the clock, so the two copies get one key."""
    now_a, key_a = _key_after("barrier", Protocol.WI,
                              (0, 0, 0, 0, 0, 0, 0, 2, 0))
    now_b, key_b = _key_after("barrier", Protocol.WI,
                              (0, 0, 1, 0, 0, 1, 2, 0))
    assert now_b == now_a + 1
    assert "_rdex_txn.<locals>.finish" in key_a
    assert "'issue_done':" in key_a and "'t':" in key_a
    assert key_a == key_b


def test_key_merges_only_cross_cycle_scheduling_orders():
    """Pending events key by cycle and position.  Two events for two
    different cycles fire in the same order whichever was scheduled
    first, so both scheduling orders give one key; two events of one
    cycle fire in scheduling order, so the two orders keep two keys."""
    machine, built, histories, syms = _machine()
    machine.prepare()
    sim = machine.sim
    snap = machine.snapshot()
    first = machine.processors[0]._continue_none
    second = machine.processors[1]._continue_none
    t = sim.now + 40

    def key_after(*events):
        machine.restore(snap)
        for when, fn in events:
            sim.at(when, fn)
        return canonical_key(machine, list(sim.iter_pending()), (),
                             histories)

    assert (key_after((t, first), (t + 1, second))
            == key_after((t + 1, second), (t, first)))
    assert (key_after((t, first), (t, second))
            != key_after((t, second), (t, first)))


@pytest.mark.parametrize("name, mask, nodes", [
    ("sharers", 0b101, (0, 2)),     # WI's _home_sharing_wb finish
    ("src_bit", 0b1000, (3,)),      # PU/CU's _home_recall_reply finish
])
def test_node_bitmasks_render_as_node_sets(name, mask, nodes):
    """A closure's node bitmask keys as the node set it holds, which a
    node relabelling maps, so it leaves symmetry on."""
    em = _Emitter()
    out: list = []
    em.hint(out, mask, name)
    assert not em.ambiguous
    assert out == [(_NS, nodes), ","]
