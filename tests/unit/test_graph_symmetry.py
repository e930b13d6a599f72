"""The agent mirror the spec-graph explorer reduces by.

``SpecGraphExplorer`` visits one state per orbit of the swap of agents
0 and 1.  That is sound only if the swap maps the successors of every
reachable state onto the successors of its mirror.
:func:`check_mirror` builds the unreduced graph by a plain BFS over
``_successors`` (which come frozen), checks that premise at every
state, and checks that the explorer visits exactly one state per
orbit.  MESI and the ``wi-skip-invalidation`` mutant run here (about
3 s together); the staticcheck job in ``.github/workflows/ci.yml``
calls the same helper on both runs of PU and of CU, whose unreduced
graphs take minutes.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, FrozenSet, Optional, Tuple

import pytest

from repro.protospec import get_spec
from repro.staticcheck import apply_spec_mutation, explore_spec
from repro.staticcheck.graph import (
    HOME, Mirror, Msg, SpecGraphExplorer, World, _Stuck,
)


def unreduced_graph(ex: SpecGraphExplorer
                    ) -> Dict[tuple, Optional[FrozenSet[tuple]]]:
    """Every reachable frozen state -> its frozen successors (``None``
    where a delivery hit a pair without a row)."""
    start = ex._initial()
    start_frozen = start.freeze()
    # interned, so successor sets share the key tuples
    seen = {start_frozen: start_frozen}
    graph: Dict[tuple, Optional[FrozenSet[tuple]]] = {}
    pending = deque([(start, start_frozen)])
    while pending:
        world, frozen = pending.popleft()
        try:
            succs = ex._successors(world, frozen)
        except _Stuck:
            graph[frozen] = None
            continue
        kids = set()
        for sf, _, _ in succs:
            known = seen.setdefault(sf, sf)
            if known is sf:
                pending.append((World.thaw(sf), sf))
            kids.add(known)
        graph[frozen] = frozenset(kids)
    return graph


def check_mirror(spec, **params) -> Tuple[int, int]:
    """Assert that the agent swap is an automorphism of ``spec``'s
    unreduced graph and that the explorer (same ``params``) visits one
    state per orbit; return (unreduced states, orbits)."""
    graph = unreduced_graph(SpecGraphExplorer(spec, **params))
    mirror = Mirror({})
    fixed = 0
    for frozen, kids in graph.items():
        image = mirror(frozen)
        fixed += image == frozen
        assert image in graph, f"mirror of a reachable state is not " \
                               f"reachable: {frozen}"
        want = None if kids is None else frozenset(map(mirror, kids))
        assert graph[image] == want, (
            f"successors do not commute with the mirror at {frozen}")
    orbits = (len(graph) + fixed) // 2
    ex = explore_spec(spec, **params)
    assert not ex.truncated
    assert len(ex.parent) == orbits
    return len(graph), orbits


def test_mirror_swaps_every_agent_field():
    world = World(
        cstate=["IS_D", "M"], copy=[None, ("F", 1)], acks=[1, 0],
        budget=[2, 3], poisoned=[True, False], home="BUSY_X", owner=1,
        sharers=frozenset((0,)), mem="S",
        open_txn=Msg("RDEX_REQ", 0, HOME, 0),
        queue=(Msg("READ_REQ", 1, HOME, 1),),
        chans=[(Msg("READ_REQ", 0, HOME, 0),), (),
               (Msg("INV", HOME, 1, 0, stale_epoch=True),), (),
               (Msg("OWNER_DATA", 0, 1, 1, tag="S"),), ()],
        early_wb=frozenset((1,)))
    image = World(
        cstate=["M", "IS_D"], copy=[("F", 1), None], acks=[0, 1],
        budget=[3, 2], poisoned=[False, True], home="BUSY_X", owner=0,
        sharers=frozenset((1,)), mem="S",
        open_txn=Msg("RDEX_REQ", 1, HOME, 1),
        queue=(Msg("READ_REQ", 0, HOME, 0),),
        chans=[(), (Msg("READ_REQ", 1, HOME, 1),), (),
               (Msg("INV", HOME, 0, 1, stale_epoch=True),), (),
               (Msg("OWNER_DATA", 1, 0, 0, tag="S"),)],
        early_wb=frozenset((0,)))
    mirror = Mirror({})
    assert mirror(world.freeze()) == image.freeze()
    assert mirror(image.freeze()) == world.freeze()


@pytest.mark.parametrize("item", ["mesi", "wi-skip-invalidation"])
def test_successors_commute_with_the_mirror(item):
    """The explorer's state count is the unreduced graph's orbit
    count, about half its state count."""
    if item == "mesi":
        spec = get_spec("mesi")
    else:
        spec = apply_spec_mutation(get_spec("wi"), item)
    states, orbits = check_mirror(spec)
    assert states / 2 <= orbits < states
