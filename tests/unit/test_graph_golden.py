"""The spec-graph explorer's output, pinned record for record.

``tests/data/staticcheck/graph-golden.json`` holds one entry per
pristine protocol (wi, mesi, pu, cu, hybrid) and per seeded table
mutation in ``SPEC_MUTATIONS``.  Each entry has a readable summary of
the ``check_spec_graph`` record -- per-run state, quiescent and
truncation counts, coverage counts, finding idents with severity, and
each counterexample's ident, kind, run and step count -- and the
sha256 of the record in canonical form (sorted keys, compact
separators) with every ``file``/``line`` attribution removed.  A
change to the explorer that reorders the BFS, merges or splits
states, or moves a counterexample changes the summary or the digest;
an edit that only moves lines in a spec module changes neither
(``tests/unit/test_graph.py`` checks where the attributions
point).

This module checks wi, mesi and the two WI mutants (about 4 s);
``tests/integration/test_graph_modelcheck.py`` checks the PU and CU
mutants, whose records it computes anyway; CI checks the pristine
records that ``staticcheck --graph --graph-json DIR`` writes.

Regenerate from the repository root (only when a change to the
explorer's output is intended and explained; it takes minutes)::

    PYTHONPATH=src python tests/unit/test_graph_golden.py \\
        > tests/data/staticcheck/graph-golden.json
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import pytest

from repro.protospec import get_spec
from repro.staticcheck import (
    SPEC_MUTATIONS, apply_spec_mutation, check_spec_graph,
)

GOLDEN = (Path(__file__).resolve().parents[1] / "data" / "staticcheck"
          / "graph-golden.json")
ITEMS = ("wi", "mesi", "pu", "cu", "hybrid", *sorted(SPEC_MUTATIONS))
FAST = ("wi", "mesi", "wi-drop-inv-ack", "wi-skip-invalidation")


def graph_record(item: str) -> dict:
    """The ``check_spec_graph`` record of a protocol or a mutant."""
    if item in SPEC_MUTATIONS:
        proto = SPEC_MUTATIONS[item].protocol
        return check_spec_graph(
            proto, apply_spec_mutation(get_spec(proto), item))[1]
    return check_spec_graph(item)[1]


def _without_lines(value):
    """``value`` with every ``file``/``line`` key dropped, at any depth."""
    if isinstance(value, dict):
        return {key: _without_lines(item) for key, item in value.items()
                if key not in ("file", "line")}
    if isinstance(value, list):
        return [_without_lines(item) for item in value]
    return value


def digest(record: dict) -> str:
    """The sha256 of ``record`` without its source-line attributions."""
    text = json.dumps(_without_lines(record), sort_keys=True,
                      separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def summary(record: dict) -> dict:
    return {
        "runs": [{key: run[key] for key in
                  ("label", "states", "quiescent", "truncated")}
                 for run in record["runs"]],
        "coverage": {side: {"states_visited": len(cov["states_visited"]),
                            "rows_visited": cov["rows_visited"],
                            "rows_total": cov["rows_total"]}
                     for side, cov in record["coverage"].items()},
        "findings": [f"{f['severity']} {f['id']}"
                     for f in record["findings"]],
        "counterexamples": [{"ident": ce["ident"], "kind": ce["kind"],
                             "run": ce["run"], "steps": len(ce["steps"])}
                            for ce in record["counterexamples"]],
    }


def assert_matches_golden(item: str, record: dict) -> None:
    """The summary first, for a readable diff; then the whole record."""
    want = json.loads(GOLDEN.read_text())[item]
    assert summary(record) == want["summary"]
    assert digest(record) == want["sha256"]


def test_golden_covers_every_item():
    assert sorted(json.loads(GOLDEN.read_text())) == sorted(ITEMS)


@pytest.mark.parametrize("item", FAST)
def test_graph_record_matches_golden(item):
    assert_matches_golden(item, graph_record(item))


if __name__ == "__main__":
    golden = {}
    for item in ITEMS:
        record = graph_record(item)
        golden[item] = {"summary": summary(record),
                        "sha256": digest(record)}
    json.dump(golden, sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")
