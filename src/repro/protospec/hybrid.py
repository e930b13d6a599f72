"""HYBRID: the per-block WI/CU hybrid (paper section 5), built by
merging the synthesized WI table (:mod:`repro.protospec.wi`) and the
synthesized CU table (:mod:`repro.protospec.update`).

Each block is managed by exactly one base protocol, so the machine is
the disjoint union of the two machines over a shared state/event
namespace: colliding ``(state, event)`` pairs get mutually exclusive
"WI-managed block" / "update-managed block" guards, and cross-protocol
pairs (a WI-only state meeting an update-only message, or vice versa)
are declared impossible with the per-block separation as the reason.
"""

from __future__ import annotations

from dataclasses import replace
from typing import List

from repro.protospec.model import (
    ANY_STATE, LOCAL_PREFIX, Impossible, ProtocolSpec, SideSpec,
    SpecError, TransitionRow, covered_pairs,
)
from repro.protospec.update import cu_spec
from repro.protospec.wi import wi_spec

_WI_GUARD = "WI-managed block"
_UPD_GUARD = "update-managed block"

_SEPARATION = ("per-block protocol separation: a block is managed by "
               "exactly one base protocol, and neither the "
               "write-invalidate nor the update machine pairs this "
               "state with this event")


def _merge_sides(a: SideSpec, b: SideSpec) -> SideSpec:
    """Merge the WI side ``a`` and the update side ``b`` into one
    hybrid side.  Rows whose (state, event) exists in both sources get
    mutually exclusive per-block guards; uncovered pairs inherit the
    sources' impossible entries or an auto-generated cross-protocol
    separation entry."""
    if a.initial != b.initial:
        raise SpecError(
            f"cannot merge sides {a.name!r}: initial states differ "
            f"({a.initial!r} vs {b.initial!r})")
    states = a.states + tuple(s for s in b.states if s not in a.states)
    stable = a.stable + tuple(s for s in b.stable if s not in a.stable)
    events = a.events + tuple(e for e in b.events if e not in a.events)
    collide = (covered_pairs(a.rows, a.states)
               & covered_pairs(b.rows, b.states))

    def reguard(row: TransitionRow, label: str) -> TransitionRow:
        if (row.state, row.event) not in collide:
            if row.state == ANY_STATE and any(
                    (s, row.event) in collide for s in states):
                raise SpecError(
                    f"merge of {a.name!r}: wildcard row for "
                    f"{row.event} collides; split it per state first")
            return row
        return replace(row, guard=label if row.guard is None
                       else f"{label}; {row.guard}")

    rows = tuple([reguard(r, _WI_GUARD) for r in a.rows]
                 + [reguard(r, _UPD_GUARD) for r in b.rows])

    covered = covered_pairs(rows, states)
    imp_a = {(i.state, i.event): i for i in a.impossible}
    imp_b = {(i.state, i.event): i for i in b.impossible}
    impossible: List[Impossible] = []
    for ev in events:
        if ev.startswith(LOCAL_PREFIX):
            continue
        for s in states:
            if (s, ev) in covered:
                continue
            reasons = []
            for table in (imp_a, imp_b):
                entry = table.get((s, ev))
                if entry is not None and entry.reason not in reasons:
                    reasons.append(entry.reason)
            impossible.append(Impossible(
                s, ev, " / ".join(reasons) if reasons else _SEPARATION))
    return SideSpec(name=a.name, initial=a.initial, states=states,
                    stable=stable, events=events, rows=rows,
                    impossible=tuple(impossible))


def hybrid_spec() -> ProtocolSpec:
    """Per-block WI/CU hybrid: the merge of the two synthesized
    tables."""
    wi, cu = wi_spec(), cu_spec()
    spec = ProtocolSpec(
        protocol="hybrid",
        description="per-block hybrid: write-invalidate or competitive "
                    "update chosen per block (paper section 5)",
        cache=_merge_sides(wi.cache, cu.cache),
        home=_merge_sides(wi.home, cu.home),
        unused_messages=(
            ("REPL_HINT", "replacement hints are defined but never "
                          "sent by any protocol"),
            ("EXCL_REPLY", "MESI-family message; neither hybrid base "
                           "protocol has a clean-exclusive state"),
        ))
    spec.validate()
    return spec
