"""The litmus sweep and the seeded mutants, pinned count for count.

``tests/data/modelcheck/sweep-golden.json`` records, for every bundled
litmus program under WI/PU/CU/HYBRID/MESI (the CLI's default sweep,
``MODEL_CHECK_PROTOCOLS``), the explorer's schedule, state, dedup-hit,
choice-point and event counts and whether the search completed; and,
for every seeded mutation, the violation kind and the minimized
schedule.  A change to the state encoder, the explorer or the
protocols that merges or splits states shows up here as a changed
count.  The refinement check's recorder must move none of them: the
rows of under 200 events are checked with it on here, and CI checks
every row with :func:`recorded_row`.

Regenerate (only when a count change is intended and explained)::

    PYTHONPATH=src python tests/integration/test_modelcheck_sweep_golden.py \\
        > tests/data/modelcheck/sweep-golden.json
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

from repro.config import Protocol
from repro.modelcheck import (
    MODEL_CHECK_PROTOCOLS, MUTATIONS, PROGRAMS, explore, get_program,
)
from repro.staticcheck import RefinementCheck

GOLDEN = (Path(__file__).resolve().parents[1] / "data" / "modelcheck"
          / "sweep-golden.json")
ROWS = [f"{name}/{proto.value}" for name in PROGRAMS
        for proto in MODEL_CHECK_PROTOCOLS]


def litmus_row(row: str) -> dict:
    name, proto = row.split("/")
    res = explore(get_program(name), protocol=Protocol(proto))
    return {"schedules": res.schedules, "states": res.states,
            "dedup_hits": res.dedup_hits,
            "choice_points": res.choice_points, "events": res.events,
            "complete": res.complete}


def mutant_row(name: str) -> dict:
    mut = MUTATIONS[name]
    res = explore(get_program(mut.program), protocol=mut.protocol,
                  mutation=name)
    return {"violation": res.violation.kind if res.violation else None,
            "choices": (list(res.choices) if res.choices is not None
                        else None)}


def _golden() -> dict:
    return json.loads(GOLDEN.read_text())


def test_golden_covers_every_row():
    golden = _golden()
    assert sorted(golden["litmus"]) == sorted(ROWS)
    assert sorted(golden["mutants"]) == sorted(MUTATIONS)


@pytest.mark.parametrize("row", ROWS)
def test_litmus_row_matches_golden(row):
    assert litmus_row(row) == _golden()["litmus"][row]


@pytest.mark.parametrize("name", sorted(MUTATIONS))
def test_mutant_matches_golden(name):
    assert mutant_row(name) == _golden()["mutants"][name]


def recorded_row(row: str) -> dict:
    """``litmus_row`` with the refinement check recording, which must
    not move a count (and must find nothing)."""
    check = RefinementCheck()
    with check.recording():
        got = litmus_row(row)
    assert not check.findings, list(check.findings)
    return got


#: the rows checked recorded here
CHEAP = [row for row in ROWS if _golden()["litmus"][row]["events"] < 200]


@pytest.mark.parametrize("row", CHEAP)
def test_litmus_row_matches_golden_while_recorded(row):
    assert recorded_row(row) == _golden()["litmus"][row]


if __name__ == "__main__":
    json.dump({"litmus": {row: litmus_row(row) for row in ROWS},
               "mutants": {name: mutant_row(name)
                           for name in sorted(MUTATIONS)}},
              sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")
