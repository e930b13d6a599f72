"""Each protocol's transition relation, pinned by digest.

A spec's rows carry prose (notes, guards, Impossible reasons) and an
order that the machine never acts on.  What the controllers, the
static passes and the spec-graph explorer act on is the *relation*:
the row tuples (state, event, actions, next state, ``when``,
``retry``), the impossible pairs, the state and event sets, and the
message types a node can receive.  This test pins that relation for
all five protocols, so a change in how a table is written (WI and
MESI are synthesized from one stable-state description) must leave
what it says unchanged.

Regenerate (only when a protocol change is intended and explained)::

    PYTHONPATH=src python tests/unit/test_protocol_relation.py
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.protospec import get_spec

#: protocol -> (cache rows, home rows, cache impossible, home
#: impossible, sha256 of the relation)
RELATIONS = {
    "wi": (55, 25, 37, 13,
           "392cfd7234b3ad9317be4df44ad7ac59537447b8a5f66a51488b12a340baed10"),
    "pu": (37, 24, 30, 9,
           "cf2d89e43a38d7689087f25decf19c7ec5f3a23aa4feaf2af1e88d271f90c2ca"),
    "cu": (40, 24, 30, 9,
           "e19a628a956ec6cad8209b8b762e4af8356b6f3e8f596c05df355644f0d711b3"),
    "hybrid": (95, 49, 165, 29,
           "5b32afbf1300ea28fcb7560e90d364c14486bf8a384fe8368c306a63bf9dad96"),
    "mesi": (62, 25, 53, 13,
           "b2b9c962b8f95dd38da805ff0fbdf687185076c51d1bd63cefea465aa93ebdd4"),
}


def relation(spec) -> dict:
    """The order- and prose-free content of ``spec``."""
    out = {"receivable": sorted(m.name for m in spec.receivable())}
    for side in spec.sides:
        out[side.name] = {
            "initial": side.initial,
            "states": sorted(side.states),
            "stable": sorted(side.stable),
            "events": sorted(side.events),
            "rows": sorted(json.dumps([r.state, r.event, list(r.actions),
                                       r.next_state, r.when, r.retry])
                           for r in side.rows),
            "impossible": sorted(f"{i.state} {i.event}"
                                 for i in side.impossible),
        }
    return out


def pinned(spec) -> tuple:
    text = json.dumps(relation(spec), sort_keys=True,
                      separators=(",", ":"))
    return (len(spec.cache.rows), len(spec.home.rows),
            len(spec.cache.impossible), len(spec.home.impossible),
            hashlib.sha256(text.encode()).hexdigest())


@pytest.mark.parametrize("protocol", ["wi", "pu", "cu", "hybrid", "mesi"])
def test_transition_relation_is_unchanged(protocol):
    assert pinned(get_spec(protocol)) == RELATIONS[protocol]


if __name__ == "__main__":
    for name in ("wi", "pu", "cu", "hybrid", "mesi"):
        *counts, digest = pinned(get_spec(name))
        print(f'    "{name}": ({", ".join(map(str, counts))},\n'
              f'           "{digest}"),')
