"""Cross-validation: the static spec-graph explorer and the dynamic
modelcheck DFS must agree on all four seeded protocol mutations.

The dynamic checker runs the mutation's witness litmus program on the
real simulator; the graph explorer sees only the mutated tables.  Both
must flag every mutation, and the explorer must localize it to the
violation kind the mutation was seeded to produce, with a spec-level
counterexample path, and every such path must replay on the tables to
a state that shows its finding.  The mutated PU and CU product graphs
take about 17 s and 23 s of CPU to exhaust (2-vCPU Intel Xeon VM,
Python 3.11), hence the ``slow`` marks.  Each mutant's graph record
must also equal the one pinned in
``tests/data/staticcheck/graph-golden.json``."""

from __future__ import annotations

from collections import deque

import pytest

from repro.modelcheck import explore, get_mutation, get_program
from repro.protospec import get_spec
from repro.staticcheck import (
    SPEC_MUTATIONS, apply_spec_mutation, check_spec_graph,
)
from repro.staticcheck.graph import (
    SpecGraphExplorer, World, _runs_for, _Stuck,
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
    # every counterexample replays on the tables to its finding
    assert_counterexamples_replay(spec_mut.protocol, mutated, findings,
                                  graph)
    # and exactly the record pinned in the graph golden
    assert_matches_golden(name, graph)


def _step_key(side_rows) -> list:
    return [(side, row.state, row.event, tuple(row.actions))
            for side, row in side_rows]


def _can_rest(ex: SpecGraphExplorer, world) -> bool:
    """Some quiescent state is reachable from ``world``."""
    seen = {world.freeze()}
    pending = deque([world])
    while pending:
        world = pending.popleft()
        if ex._is_quiescent(world):
            return True
        try:
            succs = ex._successors(world, world.freeze())
        except _Stuck:
            continue
        for sf, _, _ in succs:
            if sf not in seen:
                seen.add(sf)
                pending.append(World.thaw(sf))
    return False


def _shows(ex: SpecGraphExplorer, world, kind: str, detail: str) -> bool:
    """``world`` exhibits the violation ``(kind, detail)``."""
    if kind == "livelock":
        return not _can_rest(ex, world)
    frozen = world.freeze()
    try:
        succs = ex._successors(world, frozen)
    except _Stuck as stuck:
        return (stuck.finding_kind, stuck.detail) == (kind, detail)
    quiescent = ex._is_quiescent(world)
    if kind == "deadlock":
        return (not succs and not quiescent
                and ex._deadlock_detail(frozen) == detail)
    ex._data_violations(world, 0, quiescent)
    return (kind, detail) in {(v.kind, v.detail) for v in ex.violations}


def assert_counterexamples_replay(proto, spec, findings, graph) -> None:
    """Follow every counterexample label by label through
    ``_successors`` from the initial world; its last world must show
    the finding.  A step that fires several rows (or redispatches a
    queued request) branches, so the replay tracks every world the
    labels allow."""
    runs = {run["label"]: run for run in _runs_for(
        proto, spec, graph["threshold"])}
    details = {f.ident: f.detail for f in findings}
    for ce in graph["counterexamples"]:
        run = runs[ce["run"]]
        params = dict(retain=run["retain"], threshold=graph["threshold"],
                      max_ops=graph["max_ops"],
                      row_filter=run.get("row_filter"))
        ex = SpecGraphExplorer(spec, **params)
        worlds = [ex._initial()]
        for step in ce["steps"][1:]:
            want = [(r["side"], r["state"], r["event"],
                     tuple(r["actions"])) for r in step.get("rows", ())]
            worlds = [World.thaw(sf) for world in worlds
                      for sf, label, rows in ex._successors(
                          world, world.freeze())
                      if label == step["label"]
                      and _step_key(rows) == want]
            assert worlds, f"{ce['ident']}: no successor {step}"
        # the finding's detail, without the run label and the trace
        detail = details[ce["ident"]].split("] ", 1)[1].rsplit(
            "; shortest trace: ", 1)[0]
        assert any(_shows(SpecGraphExplorer(spec, **params), world,
                          ce["kind"], detail) for world in worlds), (
            f"{ce['ident']}: the replayed path does not show {detail}")
