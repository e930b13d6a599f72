"""Property tests for the transient-state synthesizer.

The author of a stable-state spec lists transactions, local rules,
reactions, serves, forwards and home rules in whatever order reads
best; nothing about that order is semantic.  So for every shuffled
presentation of the WI, MESI, PU and CU stable specs the synthesizer
must emit the same transition *relation*, and the result must pass every
existing staticcheck pass: structural validation and the analyzer
(completeness, contradiction, reachability, progress, vocabulary,
routing)."""

from __future__ import annotations

import dataclasses

from hypothesis import given, settings, strategies as st

from repro.protospec import mesi_stable, pu_stable, synthesize, wi_stable
from repro.staticcheck import analyze_spec

_STABLE = {"wi": wi_stable(), "mesi": mesi_stable(), "pu": pu_stable(),
           "cu": pu_stable(competitive=True)}
_BASELINE = {name: synthesize(stable) for name, stable in _STABLE.items()}
# impossible-entry *reasons* are generated prose that enumerates the
# author's transients in authoring order, so compare pairs, not text
_BASE_ROWS = {
    name: {side.name: (set(side.rows),
                       {(i.state, i.event) for i in side.impossible})
           for side in spec.sides}
    for name, spec in _BASELINE.items()
}


def _shuffled_stable(draw):
    name = draw(st.sampled_from(sorted(_STABLE)))
    stable = _STABLE[name]
    cache = stable.cache
    home = stable.home
    cache = dataclasses.replace(
        cache,
        local_rules=tuple(draw(st.permutations(cache.local_rules))),
        transactions=tuple(draw(st.permutations(cache.transactions))),
        reactions=tuple(draw(st.permutations(cache.reactions))),
        holder_reactions=tuple(
            draw(st.permutations(cache.holder_reactions))),
    )
    home = dataclasses.replace(
        home,
        serves=tuple(draw(st.permutations(home.serves))),
        forwards=tuple(draw(st.permutations(home.forwards))),
        rules=tuple(draw(st.permutations(home.rules))),
    )
    return name, dataclasses.replace(stable, cache=cache, home=home)


shuffled = st.composite(_shuffled_stable)()


class TestSynthesisIsOrderIndependent:

    @settings(deadline=None, max_examples=30)
    @given(shuffled)
    def test_same_transition_relation(self, drawn):
        name, stable = drawn
        spec = synthesize(stable)
        spec.validate()
        for side in spec.sides:
            rows, impossible = _BASE_ROWS[name][side.name]
            assert set(side.rows) == rows
            assert {(i.state, i.event)
                    for i in side.impossible} == impossible
            assert set(side.states) == set(
                getattr(_BASELINE[name], side.name).states)

    @settings(deadline=None, max_examples=15)
    @given(shuffled)
    def test_synthesized_spec_passes_the_analyzer(self, drawn):
        _, stable = drawn
        assert analyze_spec(synthesize(stable)) == []
