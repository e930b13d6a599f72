"""Canonically-hashable run specifications.

A :class:`RunSpec` pins down one simulation completely: the
:class:`~repro.config.MachineConfig`, the workload id (a name in the
campaign workload registry), the workload parameters, and a
code-version salt.  Two specs that would produce different results must
hash differently; two specs that describe the same simulation must hash
identically *across processes and interpreter invocations* -- the hash
is the key of the on-disk result cache.

Canonical form is sorted-key JSON with scalar-only parameter values, so
the hash never depends on dict insertion order or ``PYTHONHASHSEED``.
The code-version salt defaults to a digest of every ``repro`` source
file, so any code change invalidates the cache wholesale (set
``REPRO_CODE_VERSION`` to pin it, e.g. for cross-checkout comparisons).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
from dataclasses import dataclass, field
from typing import Any, Dict, Mapping, Tuple

from repro.config import MachineConfig, Protocol

#: parameter / config values that survive a JSON round trip unchanged
_SCALAR_TYPES = (str, int, float, bool, type(None))

#: MachineConfig fields holding a Protocol (serialized by enum value)
_PROTOCOL_FIELDS = frozenset({"protocol", "hybrid_default"})

#: mixed into the source digest; bump on changes that the digest alone
#: would miss (behaviour-preserving rewrites whose cached results should
#: still be retired, e.g. the PR-3 hot-path overhaul, the PR-7
#: array-native core, the PR-8 calendar queue + message pool, or the
#: PR-9 spec-synthesized transients + graph-verified protocol fixes)
CODE_VERSION_EPOCH = 5

_code_version_cache: str = ""

_spec_hash_cache: Dict[str, str] = {}


def spec_hash(protocol: Any) -> str:
    """Digest of a protocol's declarative transition tables.

    Folded into every :meth:`RunSpec.to_jsonable` (and hence the cache
    key) so editing a protocol's spec tables retires exactly that
    protocol's cached results while the source digest catches everything
    else.  Accepts a :class:`~repro.config.Protocol` member or its
    string value; returns ``""`` for protocols without a spec.
    """
    key = getattr(protocol, "value", protocol)
    if key not in _spec_hash_cache:
        from repro.protospec import SPEC_BUILDERS, get_spec
        if key in SPEC_BUILDERS:
            text = get_spec(key).dumps()
            _spec_hash_cache[key] = hashlib.sha256(
                text.encode()).hexdigest()[:16]
        else:
            _spec_hash_cache[key] = ""
    return _spec_hash_cache[key]


def canonical_json(obj: Any) -> str:
    """Deterministic JSON text: sorted keys, no whitespace drift."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def code_version(refresh: bool = False) -> str:
    """Digest of the installed ``repro`` sources (the cache salt).

    ``REPRO_CODE_VERSION`` overrides the computed digest.  The scan
    walks every ``*.py`` file under the package directory in sorted
    relative-path order, so it is stable across machines for identical
    sources.
    """
    env = os.environ.get("REPRO_CODE_VERSION")
    if env:
        return env
    global _code_version_cache
    if _code_version_cache and not refresh:
        return _code_version_cache
    import repro

    root = os.path.dirname(os.path.abspath(repro.__file__))
    digest = hashlib.sha256()
    digest.update(f"epoch:{CODE_VERSION_EPOCH}".encode())
    digest.update(b"\0")
    paths = []
    for dirpath, _dirnames, filenames in os.walk(root):
        for name in filenames:
            if name.endswith(".py"):
                paths.append(os.path.join(dirpath, name))
    for path in sorted(paths, key=lambda p: os.path.relpath(p, root)):
        digest.update(os.path.relpath(path, root).encode())
        digest.update(b"\0")
        with open(path, "rb") as fh:
            digest.update(fh.read())
        digest.update(b"\0")
    _code_version_cache = digest.hexdigest()[:16]
    return _code_version_cache


def config_to_jsonable(config: MachineConfig) -> Dict[str, Any]:
    """``MachineConfig`` -> plain JSON-ready dict (enums by value)."""
    out: Dict[str, Any] = {}
    for f in dataclasses.fields(config):
        value = getattr(config, f.name)
        if isinstance(value, Protocol):
            value = value.value
        out[f.name] = value
    return out


def config_from_jsonable(data: Mapping[str, Any]) -> MachineConfig:
    """Inverse of :func:`config_to_jsonable`."""
    kwargs = dict(data)
    for name in _PROTOCOL_FIELDS & kwargs.keys():
        kwargs[name] = Protocol(kwargs[name])
    return MachineConfig(**kwargs)


def _canonical_params(params: Mapping[str, Any]
                      ) -> Tuple[Tuple[str, Any], ...]:
    for key, value in params.items():
        if not isinstance(key, str):
            raise TypeError(f"param name {key!r} is not a string")
        if not isinstance(value, _SCALAR_TYPES):
            raise TypeError(
                f"param {key}={value!r} is not a JSON scalar; specs must "
                "be fully serializable (pass ids/kinds, not objects)")
    return tuple(sorted(params.items()))


@dataclass(frozen=True)
class RunSpec:
    """One simulation, pinned down completely and hashably.

    ``params`` is stored as a sorted tuple of (name, scalar) pairs so
    the spec is hashable and its canonical form is order-independent;
    build specs with :meth:`make` and read parameters back through
    :attr:`params_dict`.
    """

    workload: str
    config: MachineConfig
    params: Tuple[Tuple[str, Any], ...] = ()
    code_version: str = field(default_factory=code_version)

    #: :attr:`key`, once computed.  Not a field, so it stays out of
    #: equality, hashing, repr and ``dataclasses.replace``; set through
    #: ``object.__setattr__`` like ``MachineConfig._block_shift``.
    _key = None

    @classmethod
    def make(cls, workload: str, config: MachineConfig,
             code_version_salt: str = None, **params: Any) -> "RunSpec":
        canon = _canonical_params(params)
        if code_version_salt is None:
            return cls(workload, config, canon)
        return cls(workload, config, canon, code_version_salt)

    def __post_init__(self) -> None:
        object.__setattr__(self, "params",
                           _canonical_params(dict(self.params)))

    # ------------------------------------------------------------------

    @property
    def params_dict(self) -> Dict[str, Any]:
        return dict(self.params)

    def to_jsonable(self) -> Dict[str, Any]:
        return {
            "workload": self.workload,
            "config": config_to_jsonable(self.config),
            "params": self.params_dict,
            "code_version": self.code_version,
            "spec_hash": spec_hash(self.config.protocol),
        }

    @classmethod
    def from_jsonable(cls, data: Mapping[str, Any]) -> "RunSpec":
        # "spec_hash" is derived from the protocol tables, not stored:
        # round-tripping recomputes it, so a stored spec written against
        # older tables hashes to a different key, as intended.
        return cls(
            workload=data["workload"],
            config=config_from_jsonable(data["config"]),
            params=tuple(sorted(data["params"].items())),
            code_version=data["code_version"],
        )

    @property
    def key(self) -> str:
        """Content hash of the spec (the result-cache key).

        Computed on first use and kept: every field is immutable, and
        ``spec_hash`` is fixed for the life of the process.
        """
        key = self._key
        if key is None:
            text = canonical_json(self.to_jsonable())
            key = hashlib.sha256(text.encode()).hexdigest()
            object.__setattr__(self, "_key", key)
        return key

    def __getstate__(self) -> Dict[str, Any]:
        # the memo is per process, like spec_hash's: a pickled spec is
        # keyed again against the receiving process's protocol tables
        state = dict(self.__dict__)
        state.pop("_key", None)
        return state

    def describe(self) -> str:
        """Short human label: workload, machine point, parameters."""
        parts = [self.workload,
                 f"P={self.config.num_procs}",
                 f"[{self.config.protocol.short}]"]
        parts.extend(f"{k}={v}" for k, v in self.params)
        return " ".join(parts)
