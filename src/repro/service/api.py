"""Request validation: JSON bodies -> canonical :class:`RunSpec` lists.

Every spec the service runs is built here, through the same
``RunSpec.make`` / ``figure_points`` paths the CLI uses -- so a served
result is keyed, salted, and simulated exactly like a direct
``CampaignRunner`` run, and bit-identity between the two is a matter
of construction rather than luck.

Validation errors raise :class:`~repro.service.httpio.HttpError` with
status 400 and a "did you mean" suggestion where a name was close.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Optional, Tuple

from repro.campaign import RunSpec
from repro.campaign.workloads import known_workloads, suggest_names
from repro.config import (
    ExperimentScale, MachineConfig, PAPER_MACHINE_SIZES, Protocol,
)
from repro.service.httpio import HttpError

#: top-level keys accepted by POST /v1/run
RUN_KEYS = frozenset({"workload", "config", "params", "code_version",
                      "spec_hash", "label", "deadline_s"})

#: top-level keys accepted by POST /v1/sweep ("full_records" asks for
#: complete RunRecord payloads in spec events -- the cluster router
#: needs them to rebuild figure tables from per-shard streams)
SWEEP_KEYS = frozenset({"figure", "scale", "sizes", "procs", "sanitize",
                        "specs", "deadline_s", "full_records"})

#: hard ceiling on specs per sweep request, counted before any is
#: built: a raw ``specs`` list, or the points a figure's ``sizes`` yield
MAX_SWEEP_SPECS = 4096

#: the largest machine a request may ask for: a worker builds per-pair
#: tables (num_procs²) and per-node tag arrays (num_procs × cache
#: lines) before it simulates anything; 128× the paper's 32 × 1024
MAX_PROCS = 1024
MAX_CACHE_LINES = 1 << 22

#: MachineConfig fields that hold a Protocol
_PROTOCOL_FIELDS = ("protocol", "hybrid_default")


@dataclass(frozen=True)
class SweepPoint:
    """One spec of a sweep, tagged like a figure point."""

    label: str
    x: Optional[int]
    spec: RunSpec


def _bad(message: str) -> HttpError:
    return HttpError(400, message)


def _check_keys(data: Mapping[str, Any], allowed: frozenset,
                what: str) -> None:
    if not isinstance(data, Mapping):
        raise _bad(f"{what} body must be a JSON object")
    for key in data:
        if key not in allowed:
            raise _bad(f"unknown {what} field {key!r}"
                       f"{suggest_names(str(key), allowed)}")


def machine_config_from_request(data: Any) -> MachineConfig:
    """A (possibly partial) config object -> :class:`MachineConfig`."""
    if data is None:
        data = {}
    if not isinstance(data, Mapping):
        raise _bad("'config' must be a JSON object of MachineConfig "
                   "fields")
    valid = {f.name for f in dataclasses.fields(MachineConfig)}
    kwargs: Dict[str, Any] = {}
    for key, value in data.items():
        if key not in valid:
            raise _bad(f"unknown config field {key!r}"
                       f"{suggest_names(str(key), valid)}")
        if key in _PROTOCOL_FIELDS:
            names = "/".join(p.value for p in Protocol)
            if not isinstance(value, str):
                raise _bad(f"config field {key!r} must be a protocol "
                           f"name ({names})")
            try:
                value = Protocol.parse(value)
            except ValueError as exc:
                raise _bad(f"{exc} ({names})") from None
        kwargs[key] = value
    try:
        config = MachineConfig(**kwargs)
    except (TypeError, ValueError) as exc:
        raise _bad(f"bad config: {exc}") from None
    _check_size(config)
    return config


def _check_size(config: MachineConfig) -> None:
    """A 400 for a machine over :data:`MAX_PROCS` nodes or
    :data:`MAX_CACHE_LINES` cache lines in all."""
    if config.num_procs > MAX_PROCS:
        raise _bad(f"num_procs {config.num_procs} exceeds the service's "
                   f"limit of {MAX_PROCS}")
    lines = config.num_procs * config.num_cache_lines
    if lines > MAX_CACHE_LINES:
        raise _bad(f"num_procs x cache lines = {lines} exceeds the "
                   f"service's limit of {MAX_CACHE_LINES}")


def _deadline_from(data: Mapping[str, Any],
                   default: Optional[float]) -> Optional[float]:
    if "deadline_s" not in data:
        return default
    value = data["deadline_s"]
    if value is None:
        return None
    if not isinstance(value, (int, float)) or isinstance(value, bool) \
            or value <= 0:
        raise _bad("'deadline_s' must be a positive number or null")
    return float(value)


def spec_from_request(data: Any) -> SweepPoint:
    """POST /v1/run body (or one entry of a raw sweep) -> spec."""
    _check_keys(data, RUN_KEYS, "run")
    workload = data.get("workload")
    if not isinstance(workload, str) or not workload:
        raise _bad("'workload' is required and must be a string")
    names = known_workloads()
    if workload not in names:
        raise _bad(f"unknown workload {workload!r}"
                   f"{suggest_names(workload, names)}")
    config = machine_config_from_request(data.get("config"))
    params = data.get("params", {})
    if not isinstance(params, Mapping):
        raise _bad("'params' must be a JSON object of scalars")
    code_version = data.get("code_version")
    if code_version is not None and not isinstance(code_version, str):
        raise _bad("'code_version' must be a string")
    # "spec_hash" (present in RunSpec.to_jsonable bodies) is derived
    # from the server's own protocol tables, never trusted from the
    # wire -- accept and ignore it
    spec_hash = data.get("spec_hash")
    if spec_hash is not None and not isinstance(spec_hash, str):
        raise _bad("'spec_hash' must be a string")
    try:
        spec = RunSpec.make(workload, config,
                            code_version_salt=code_version, **params)
    except TypeError as exc:
        raise _bad(str(exc)) from None
    label = data.get("label")
    if label is not None and not isinstance(label, str):
        raise _bad("'label' must be a string")
    return SweepPoint(label or spec.describe(), None, spec)


def run_from_request(data: Any, default_deadline: Optional[float]
                     ) -> Tuple[SweepPoint, Optional[float]]:
    point = spec_from_request(data)
    return point, _deadline_from(data, default_deadline)


def _scale_from(data: Mapping[str, Any]) -> ExperimentScale:
    scale = data.get("scale", 0.1)
    if scale == "paper":
        return ExperimentScale.paper()
    if not isinstance(scale, (int, float)) or isinstance(scale, bool) \
            or scale <= 0:
        raise _bad("'scale' must be a positive number or \"paper\"")
    return ExperimentScale.scaled(float(scale))


def sweep_from_request(data: Any, default_deadline: Optional[float]
                       ) -> Tuple[Optional[str], List[SweepPoint],
                                  Optional[float]]:
    """POST /v1/sweep body -> (figure id or None, points, deadline)."""
    _check_keys(data, SWEEP_KEYS, "sweep")
    deadline = _deadline_from(data, default_deadline)
    if not isinstance(data.get("full_records", False), bool):
        raise _bad("'full_records' must be a boolean")

    if "specs" in data:
        if "figure" in data:
            raise _bad("pass either 'figure' or 'specs', not both")
        raw = data["specs"]
        if not isinstance(raw, list) or not raw:
            raise _bad("'specs' must be a non-empty JSON array")
        if len(raw) > MAX_SWEEP_SPECS:
            raise _bad(f"sweep exceeds {MAX_SWEEP_SPECS} specs")
        # each spec is validated as a /v1/run body, its deadline_s
        # included; only the sweep-level deadline_s is applied
        return None, [run_from_request(item, None)[0] for item in raw], \
            deadline

    fid = data.get("figure")
    if not isinstance(fid, str) or not fid:
        raise _bad("sweep body must contain 'figure' or 'specs'")
    # imported here to keep service import time light and avoid cycles
    from repro.experiments.figures import (
        FIGURE_DEFS, FIGURES, figure_points,
    )

    if fid not in FIGURES:
        raise _bad(f"unknown figure {fid!r}"
                   f"{suggest_names(fid, FIGURES)}; choose from "
                   f"{', '.join(FIGURES)}")
    sizes = data.get("sizes", list(PAPER_MACHINE_SIZES))
    if (not isinstance(sizes, list) or not sizes
            or not all(isinstance(s, int) and not isinstance(s, bool)
                       and s >= 1 for s in sizes)):
        raise _bad("'sizes' must be a non-empty array of positive "
                   "integers")
    count = FIGURE_DEFS[fid].point_count(len(sizes))
    if count > MAX_SWEEP_SPECS:
        raise _bad(f"sweep exceeds {MAX_SWEEP_SPECS} specs: {fid} over "
                   f"{len(sizes)} sizes yields {count} points")
    procs = data.get("procs", 32)
    if not isinstance(procs, int) or isinstance(procs, bool) \
            or procs < 1:
        raise _bad("'procs' must be a positive integer")
    sanitize = data.get("sanitize", False)
    if not isinstance(sanitize, bool):
        raise _bad("'sanitize' must be a boolean")
    try:
        points = figure_points(fid, scale=_scale_from(data),
                               sizes=tuple(sizes), P=procs,
                               sanitize=sanitize)
    except (TypeError, ValueError) as exc:
        raise _bad(f"bad sweep parameters: {exc}") from None
    for pt in points:
        _check_size(pt.spec.config)
    return fid, [SweepPoint(pt.label, pt.x, pt.spec)
                 for pt in points], deadline
