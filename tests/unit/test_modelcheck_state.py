"""Unit tests for the canonical state encoder: determinism, state
sensitivity, and node/word symmetry merging."""

from __future__ import annotations

from repro.config import Protocol
from repro.modelcheck import canonical_key, get_program
from repro.modelcheck.explorer import _build


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
    pending = machine.sim.pending_snapshot()
    k1 = canonical_key(machine, pending, syms, histories)
    k2 = canonical_key(machine, pending, syms, histories)
    assert k1 is not None
    assert k1 == k2


def test_identical_runs_share_a_key():
    keys = []
    for _ in range(2):
        machine, built, histories, syms = _machine()
        _advance(machine, histories, first_choice=0, steps=2)
        keys.append(canonical_key(machine, machine.sim.pending_snapshot(),
                                  syms, histories))
    assert keys[0] is not None
    assert keys[0] == keys[1]


def test_key_tracks_machine_state():
    machine, built, histories, syms = _machine()
    machine.prepare()
    before = canonical_key(machine, machine.sim.pending_snapshot(), syms,
                           histories)
    machine.sim.step()
    after = canonical_key(machine, machine.sim.pending_snapshot(), syms,
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
        pending = machine.sim.pending_snapshot()
        encodings.append(canonical_key(machine, pending, (), histories))
        keys.append(canonical_key(machine, pending, syms, histories))
    assert encodings[0] != encodings[1]
    assert keys[0] == keys[1]


def test_without_symmetry_mirror_states_stay_distinct():
    keys = []
    for first in (0, 1):
        machine, built, histories, syms = _machine()
        _advance(machine, histories, first_choice=first, steps=1)
        keys.append(canonical_key(machine, machine.sim.pending_snapshot(),
                                  (), histories))
    assert keys[0] != keys[1]
