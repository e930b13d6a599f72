"""The explorer loses no state.

With symmetries off, the set of canonical keys the explorer records at
its free choice points must equal the set of keys met at every choice
point of the full schedule tree (the tree ``dedup=False`` walks).  The
explorer stops a run at any key it has already visited, a branch run's
first free choice point included.  That is sound only when equal keys
have equal successor keys, which is why the encoder renders every time,
closure times included, relative to the clock (``docs/modelcheck.md``).

Tier-1 checks the rows whose full tree takes under a second.  CI checks
every row whose full tree completes within ``FULL_TREE_SCHEDULES``
schedules (``FULL_TREE_ROWS``, 28 rows, about 2½ minutes)::

    PYTHONPATH=src:tests/integration python -c "
    from test_modelcheck_full_tree import FULL_TREE_ROWS, check_row
    for row in FULL_TREE_ROWS: print(check_row(row), flush=True)"
"""

from __future__ import annotations

import pytest

import repro.modelcheck.explorer as explorer
from repro.config import Protocol
from repro.modelcheck import MODEL_CHECK_PROTOCOLS, PROGRAMS, get_program

#: the schedule budget a full tree must complete within
FULL_TREE_SCHEDULES = 200_000
#: the sweep's rows (all five protocols) whose full tree fits the
#: budget; subword/cu and subword/hybrid exceed it
FULL_TREE_ROWS = tuple(
    f"{name}/{proto.value}" for name in PROGRAMS
    for proto in MODEL_CHECK_PROTOCOLS
    if f"{name}/{proto.value}" not in ("subword/cu", "subword/hybrid"))
CHEAP_ROWS = ("mp/pu", "mp/cu", "lock/pu", "lock/cu", "lock/mesi",
              "subword/wi", "evict/wi", "evict/pu", "evict/cu",
              "evict/hybrid", "evict/mesi")


def recorded_keys(row: str, full_tree: bool):
    """Explore ``row`` with symmetries off; returns the result and the
    set of keys computed at its free choice points.  With ``full_tree``
    the explorer is handed None for every key, which it neither looks
    up nor inserts, so it walks the whole tree as ``dedup=False`` does
    while every key is still computed."""
    keys = set()
    real = explorer.canonical_key

    def canonical_key(machine, pending, symmetries=(), histories=None):
        key = real(machine, pending, (), histories)
        keys.add(key)
        return None if full_tree else key

    name, proto = row.split("/")
    explorer.canonical_key = canonical_key
    try:
        res = explorer.explore(get_program(name), protocol=Protocol(proto),
                               max_schedules=FULL_TREE_SCHEDULES,
                               minimize=False)
    finally:
        explorer.canonical_key = real
    assert res.violation is None and res.complete, (row, res)
    return res, keys


def check_row(row: str) -> str:
    """Assert that the explorer visits exactly the full tree's keys on
    ``row``; returns a one-line summary."""
    reduced, seen = recorded_keys(row, full_tree=False)
    full, every = recorded_keys(row, full_tree=True)
    assert seen == every, (
        f"{row}: the explorer met {len(seen & every)} of the full "
        f"tree's {len(every)} keys, and {len(seen - every)} others")
    return (f"{row:<16} {len(every):>3} keys, {reduced.schedules:>3} "
            f"schedules (full tree {full.schedules})")


@pytest.mark.parametrize("row", CHEAP_ROWS)
def test_explorer_meets_every_key_of_the_full_tree(row):
    check_row(row)


def test_full_tree_walk_is_the_undeduplicated_walk():
    """Withholding every key walks the same tree as ``dedup=False``."""
    full, _keys = recorded_keys("mp/pu", full_tree=True)
    plain = explorer.explore(get_program("mp"), protocol=Protocol.PU,
                             dedup=False)
    assert (full.schedules, full.events, full.choice_points) == (
        plain.schedules, plain.events, plain.choice_points)
