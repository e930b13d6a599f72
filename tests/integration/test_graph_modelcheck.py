"""Cross-validation: the static spec-graph explorer and the dynamic
modelcheck DFS must agree on all four seeded protocol mutations.

The dynamic checker runs the mutation's witness litmus program on the
real simulator; the graph explorer sees only the mutated tables.  Both
must flag every mutation, and the explorer must localize it to the
violation kind the mutation was seeded to produce, with a spec-level
counterexample path.  The mutated PU and CU product graphs take about
40 s and 60 s of CPU to exhaust (2-vCPU Intel Xeon VM, Python 3.11),
hence the ``slow`` marks.  Each mutant's graph record must also equal
the one pinned in ``tests/data/staticcheck/graph-golden.json``."""

from __future__ import annotations

import pytest

from repro.modelcheck import explore, get_mutation, get_program
from repro.protospec import get_spec
from repro.staticcheck import (
    SPEC_MUTATIONS, apply_spec_mutation, check_spec_graph,
)
from tests.unit.test_graph_golden import assert_matches_golden

_SLOW = {"pu-upd-prop-overwrite", "cu-counter-stuck"}

CASES = [
    pytest.param(name, marks=pytest.mark.slow) if name in _SLOW
    else pytest.param(name)
    for name in sorted(SPEC_MUTATIONS)
]


def test_spec_and_runtime_mutation_registries_mirror_each_other():
    """Every seeded runtime mutation has a table-level twin targeting
    the same protocol, so the two checkers examine the same bug."""
    for name, spec_mut in SPEC_MUTATIONS.items():
        runtime_mut = get_mutation(name)
        assert runtime_mut.protocol.value == spec_mut.protocol


@pytest.mark.parametrize("name", CASES)
def test_both_checkers_flag_the_mutation(name):
    spec_mut = SPEC_MUTATIONS[name]
    runtime_mut = get_mutation(name)

    # dynamic: the witness litmus program trips a violation
    res = explore(get_program(runtime_mut.program),
                  protocol=runtime_mut.protocol, mutation=name)
    assert res.violation is not None, (
        f"{name} survived {res.schedules} dynamic schedules")

    # static: the product graph flags the mutated tables, no simulator
    mutated = apply_spec_mutation(get_spec(spec_mut.protocol), name)
    findings, graph = check_spec_graph(spec_mut.protocol, mutated)
    errors = [f for f in findings if f.severity == "error"]
    assert errors, f"{name} escaped the spec-graph explorer"
    kinds = {f.ident.split("/")[1][len("graph-"):] for f in errors}
    assert kinds & set(spec_mut.expect), (
        f"{name}: got kinds {kinds}, expected one of "
        f"{set(spec_mut.expect)}")
    assert graph["counterexamples"], (
        f"{name}: no spec-level counterexample path emitted")
    # and exactly the record pinned in the graph golden
    assert_matches_golden(name, graph)
