"""Declarative, JSON-serializable protocol transition tables.

``get_spec("wi" | "pu" | "cu" | "hybrid" | "mesi")`` (or a
:class:`repro.config.Protocol` member) returns the validated
:class:`ProtocolSpec` for that protocol.  The write-invalidate family
is authored once, at the *stable-state* level: WI in
:mod:`repro.protospec.wi`, MESI as its clean-exclusive deltas in
:mod:`repro.protospec.mesi`, and :mod:`repro.protospec.synth`
generates both tables' transient states.  PU and CU are hand-written
transcriptions of the update controllers in :mod:`repro.protocols`
(:mod:`repro.protospec.tables`), and HYBRID merges the WI and CU
tables.  :mod:`repro.staticcheck` keeps specs and controllers from
drifting apart.
"""

from __future__ import annotations

from typing import Dict

from repro.protospec.model import (
    ACTION_VOCABULARY, ANY_STATE, LOCAL_EVENTS, LOCAL_PREFIX,
    WHEN_VOCABULARY, Impossible, ProtocolSpec, SideSpec, SpecError,
    TransitionRow,
)
from repro.protospec.mesi import mesi_spec, mesi_stable
from repro.protospec.synth import StableSpec, synthesize
from repro.protospec.tables import cu_spec, hybrid_spec, pu_spec
from repro.protospec.wi import wi_spec, wi_stable

#: protocol value -> spec builder (the order matches Protocol)
SPEC_BUILDERS = {
    "wi": wi_spec,
    "pu": pu_spec,
    "cu": cu_spec,
    "hybrid": hybrid_spec,
    "mesi": mesi_spec,
}

_cache: Dict[str, "ProtocolSpec"] = {}


def get_spec(protocol) -> ProtocolSpec:
    """Return the (cached, validated) spec for a protocol, given either
    a :class:`repro.config.Protocol` member or its string value."""
    key = getattr(protocol, "value", protocol)
    if key not in SPEC_BUILDERS:
        raise KeyError(
            f"no protocol spec for {key!r}; known: "
            f"{', '.join(sorted(SPEC_BUILDERS))}")
    if key not in _cache:
        _cache[key] = SPEC_BUILDERS[key]()
    return _cache[key]


__all__ = [
    "ACTION_VOCABULARY", "ANY_STATE", "LOCAL_EVENTS", "LOCAL_PREFIX",
    "WHEN_VOCABULARY", "Impossible", "ProtocolSpec", "SideSpec",
    "SpecError", "TransitionRow", "SPEC_BUILDERS", "StableSpec",
    "get_spec", "synthesize",
    "wi_spec", "pu_spec", "cu_spec", "hybrid_spec", "mesi_spec",
    "mesi_stable", "wi_stable",
]
