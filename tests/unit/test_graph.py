"""The spec-graph explorer: exhaustive product-graph exploration on
the tables alone.  WI and MESI explore in about 0.9 s and 0.4 s of CPU
(2-vCPU Intel Xeon VM, Python 3.11), so they anchor the unit suite;
the slower PU/CU/hybrid runs and the full four-mutation
cross-validation live in ``tests/integration/test_graph_modelcheck.py``."""

from __future__ import annotations

import gc
import json
import re
import tracemalloc
from pathlib import Path

import pytest

from repro.protospec import get_spec
from repro.staticcheck import (
    DEFAULT_SUPPRESSIONS, SPEC_MUTATIONS, apply_spec_mutation,
    check_spec_graph, explore_spec, load_suppressions,
)
from repro.staticcheck.graph import (
    SpecGraphExplorer, World, _interned, _Stuck, origin_of,
)
from tests.unit.test_graph_symmetry import unreduced_graph

ROOT = Path(__file__).resolve().parents[2]


@pytest.fixture(scope="module")
def wi_result():
    return check_spec_graph("wi")


@pytest.fixture(scope="module")
def mesi_result():
    return check_spec_graph("mesi")


@pytest.fixture(scope="module")
def mutated_wi_result():
    spec = apply_spec_mutation(get_spec("wi"),
                               "wi-skip-invalidation")
    return check_spec_graph("wi", spec)


def _errors(findings):
    return [f for f in findings if f.severity == "error"]


def _warns(findings):
    return [f for f in findings if f.severity == "warn"]


@pytest.mark.parametrize("fixture", ["wi_result", "mesi_result"])
def test_pristine_graph_has_no_errors(fixture, request):
    findings, graph = request.getfixturevalue(fixture)
    assert _errors(findings) == []
    assert graph["counterexamples"] == []
    assert not any(run["truncated"] for run in graph["runs"])


@pytest.mark.parametrize("fixture", ["wi_result", "mesi_result"])
def test_residual_warns_are_all_suppressed_by_the_manifest(
        fixture, request):
    """Every dead-row warning the explorer leaves behind must carry a
    written justification in the shipped suppression manifest."""
    findings, _ = request.getfixturevalue(fixture)
    manifest = load_suppressions(DEFAULT_SUPPRESSIONS)
    for f in _warns(findings):
        assert f.ident in manifest, (
            f"unsuppressed graph warning: {f.ident}: {f.detail}")


def test_full_state_and_row_coverage_on_wi(wi_result):
    """Modulo the manifest's defensive rows, exploration visits every
    state on both sides."""
    _, graph = wi_result
    spec = get_spec("wi")
    for side in spec.sides:
        visited = set(graph["coverage"][side.name]["states_visited"])
        assert visited == set(side.states)


def test_mutated_wi_yields_staleness_counterexample(mutated_wi_result):
    findings, graph = mutated_wi_result
    errors = _errors(findings)
    assert errors, "wi-skip-invalidation escaped the explorer"
    expect = SPEC_MUTATIONS["wi-skip-invalidation"].expect
    kinds = {f.ident.split("/")[1][len("graph-"):] for f in errors}
    assert kinds & set(expect)
    assert graph["counterexamples"]


def test_counterexample_paths_carry_file_line_attribution(
        mutated_wi_result):
    """Each counterexample step names the table row that fired, down to
    the file:line of its definition, and the whole report is JSON."""
    _, graph = mutated_wi_result
    json.dumps(graph)
    ce = graph["counterexamples"][0]
    assert ce["kind"] and ce["run"] and ce["steps"]
    located = 0
    for step in ce["steps"]:
        for row in step.get("rows", ()):
            assert row["side"] in ("cache", "home")
            assert row["state"] and row["event"]
            if row.get("file"):
                assert row["line"] > 0
                assert row["file"].endswith(".py")
                located += 1
    assert located, "no step row located back to its table source"


#: the calls that declare rows of a side: the stable-spec declarations
#: (a side's own declaration implies its invalidation and ack rows) and
#: the hand-written tables' ``_row``
_DECLARING = {
    "cache": {"LocalRule", "CacheTxn", "LostCopy", "Reaction",
              "StableCacheSide", "_row"},
    "home": {"HomeServe", "HomeForward", "HomeRule", "_row"},
}
_CALL = re.compile(r"\b(\w+)\(")


def _attributed_rows(graph):
    """(side, file, line) of every row the record attributes, and of
    every row of its protocol's spec."""
    for f in graph["findings"]:
        if f.get("file"):
            yield f["side"], f["file"], f["line"]
    for ce in graph["counterexamples"]:
        for step in ce["steps"]:
            for row in step.get("rows", ()):
                if row.get("file"):
                    yield row["side"], row["file"], row["line"]
    for side in get_spec(graph["protocol"]).sides:
        for row in side.rows:
            yield (side.name,) + origin_of(row)


@pytest.mark.parametrize("fixture", ["wi_result", "mesi_result",
                                     "mutated_wi_result"])
def test_rows_point_at_a_declaration_on_their_own_side(fixture, request):
    """Every row's origin line opens a call that declares rows of the
    row's own side: its own call, or for a synthesized row the
    declaration that introduced its state."""
    _, graph = request.getfixturevalue(fixture)
    attributed = list(_attributed_rows(graph))
    assert attributed
    for side, path, line in attributed:
        text = (ROOT / path).read_text().splitlines()[line - 1]
        assert set(_CALL.findall(text)) & _DECLARING[side], (
            side, path, line, text)


@pytest.mark.parametrize("proto", ["wi", "pu", "cu", "hybrid", "mesi"])
def test_every_row_has_an_origin_in_the_spec_builders(proto):
    """Every row of every shipped spec records where it was declared,
    in :mod:`repro.protospec`, without the spec's JSON form (and so
    its hash) carrying it."""
    spec = get_spec(proto)
    for side in spec.sides:
        for row in side.rows:
            path, line = origin_of(row)
            assert path.startswith("src/repro/protospec/") and line > 0
    assert "origin" not in spec.dumps()


def test_a_row_origin_is_the_declaring_call_line():
    """A multi-line declaration is attributed to the line of its call;
    ``replace`` carries an origin through (the hybrid merge relabels
    rows with it)."""
    wi, hybrid = get_spec("wi"), get_spec("hybrid")
    fill = next(r for r in wi.cache.rows
                if (r.state, r.event) == ("IS_D", "READ_REPLY"))
    path, line = origin_of(fill)
    assert (ROOT / path).read_text().splitlines()[line - 1].strip() \
        == "CacheTxn("
    serve = next(r for r in wi.home.rows
                 if (r.state, r.event) == ("U", "READ_REQ"))
    merged = next(r for r in hybrid.home.rows
                  if (r.state, r.event) == ("U", "READ_REQ"))
    assert merged.guard == "WI-managed block" and serve.guard is None
    assert origin_of(merged) == origin_of(serve)


def test_counterexample_files_do_not_depend_on_the_working_directory(
        monkeypatch, tmp_path):
    """Rows are located relative to the checkout root, not the cwd, so
    ``--graph-json`` artifacts read the same wherever the CLI ran."""
    monkeypatch.chdir(tmp_path)
    spec = apply_spec_mutation(get_spec("wi"), "wi-skip-invalidation")
    findings, graph = check_spec_graph("wi", spec)
    files = {row["file"] for ce in graph["counterexamples"]
             for step in ce["steps"] for row in step.get("rows", ())}
    files |= {f.file for f in findings if f.file}
    assert files == {"src/repro/protospec/wi.py"}


def test_truncation_is_reported_not_silent():
    ex = explore_spec(get_spec("wi"), max_states=50)
    assert ex.truncated
    assert len(ex.parent) == len(ex.succs) == 50
    assert "livelock" not in {v.kind for v in ex.violations}


def test_truncated_graph_reports_an_error():
    findings, graph = check_spec_graph("wi", max_states=50)
    truncated = [f for f in findings if "/graph-truncated/" in f.ident]
    assert [(f.ident, f.severity) for f in truncated] == [
        ("wi/graph-truncated/wi", "error")]
    assert [(run["states"], run["truncated"])
            for run in graph["runs"]] == [(50, True)]


def test_every_state_has_a_bfs_path_from_the_start():
    """State ids are BFS order: each state's parent has a smaller id,
    and every path back ends at the start state."""
    ex = explore_spec(get_spec("mesi"))
    assert not ex.truncated
    for sid in range(len(ex.parent)):
        chain = [sid]
        while ex.parent[chain[-1]][0] is not None:
            chain.append(ex.parent[chain[-1]][0])
        assert all(a > b for a, b in zip(chain, chain[1:]))
        assert chain[-1] == 0
        steps = ex.path_to(sid)
        assert steps[0].label == "start"
        assert len(steps) == len(chain)


def test_unknown_protocol_raises():
    with pytest.raises((KeyError, ValueError)):
        check_spec_graph("dragon")


def test_unknown_mutation_raises():
    with pytest.raises(KeyError):
        apply_spec_mutation(get_spec("wi"), "no-such-mutation")


def test_mutations_target_existing_rows():
    """Every registered mutation changes the spec it claims to target
    (an apply that returns the spec unchanged tests nothing)."""
    for name, mut in SPEC_MUTATIONS.items():
        spec = get_spec(mut.protocol)
        assert apply_spec_mutation(spec, name).dumps() != spec.dumps()
        assert mut.expect


@pytest.mark.parametrize("enabled", [True, False])
def test_run_pauses_the_collector_and_restores_it(enabled):
    """The collector is off while the graph is explored and back in its
    entry state afterwards, also when the exploration raises."""
    ex = SpecGraphExplorer(get_spec("wi"))
    during = []

    def explore():
        during.append(gc.isenabled())
        raise RuntimeError("stop")

    ex._explore = explore
    was = gc.isenabled()
    try:
        (gc.enable if enabled else gc.disable)()
        with pytest.raises(RuntimeError):
            ex.run()
        after = gc.isenabled()
    finally:
        (gc.enable if was else gc.disable)()
    assert during == [False]
    assert after is enabled


def test_a_key_thaws_into_the_world_it_was_frozen_from():
    """The frontier holds keys only, so a world thawed from its key
    must freeze back to that key and have the same successors, at
    every state of the unreduced MESI graph.  The key is the interned
    one the explorer stores, equal to the frozen tuple and of the same
    types all the way down (a bool pair never becomes an int pair)."""
    ex = SpecGraphExplorer(get_spec("mesi"))
    graph = unreduced_graph(ex)
    parts: dict = {}
    for frozen, kids in graph.items():
        key = _interned(frozen, parts)
        assert repr(key) == repr(frozen)
        world = World.thaw(key)
        assert world.freeze() == key
        try:
            succs = ex._successors(world, key)
        except _Stuck:
            assert kids is None
            continue
        assert frozenset(sf for sf, _, _ in succs) == kids


def test_states_reached_over_one_edge_share_one_step():
    ex = explore_spec(get_spec("mesi"))
    steps = [ex.parent[sid][1] for sid in range(len(ex.parent))]
    edges = {(step.label, step.rows) for step in steps}
    assert len({id(step) for step in steps}) == len(edges)
    assert len(edges) < len(steps) / 10


#: tracemalloc peak bytes per state of the MESI exploration: 1,993
#: with a world on the frontier and a key, a Step and a successor list
#: per state, 572 with the interned store (Python 3.11); the ceiling
#: sits midway
PEAK_BYTES_PER_STATE = 1_280


def test_the_state_store_stays_compact():
    gc.collect()
    tracemalloc.start()
    try:
        ex = explore_spec(get_spec("mesi"))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak / len(ex.parent) < PEAK_BYTES_PER_STATE
