"""The declarative transition tables: structural validation, JSON
round-trips, and agreement with the controllers' HANDLERS tables."""

from __future__ import annotations

import copy
import dataclasses
import pickle

import pytest

from repro.config import Protocol
from repro.network.messages import MsgType
from repro.protocols import _CTRL_CLASSES
from repro.protospec import (
    Impossible, ProtocolSpec, SideSpec, SpecError, SPEC_BUILDERS,
    TransitionRow, get_spec,
)

ALL = ("wi", "pu", "cu", "hybrid", "mesi")


# --- the shipped tables -----------------------------------------------

@pytest.mark.parametrize("name", ALL)
def test_builders_produce_valid_specs(name):
    spec = SPEC_BUILDERS[name]()
    spec.validate()              # raises SpecError on any problem
    assert spec.protocol == name
    assert spec.cache.name == "cache" and spec.home.name == "home"
    assert spec.cache.initial in spec.cache.stable
    assert spec.home.initial in spec.home.stable


@pytest.mark.parametrize("name", ALL)
def test_receivable_matches_controller_handlers(name):
    """The fail-fast validation in protocols.base depends on this: the
    spec's receivable set IS the controller's HANDLERS key set."""
    spec = get_spec(name)
    cls = _CTRL_CLASSES[Protocol.parse(name)]
    assert spec.receivable() == frozenset(cls.HANDLERS)


@pytest.mark.parametrize("name", ALL)
def test_spec_json_round_trip(name):
    spec = SPEC_BUILDERS[name]()
    again = ProtocolSpec.loads(spec.dumps())
    assert again == spec
    again.validate()


@pytest.mark.parametrize("name", ALL)
def test_every_msgtype_is_accounted_for(name):
    spec = get_spec(name)
    used = spec.used_messages()
    unused = {n for n, _ in spec.unused_messages}
    assert used | unused == set(MsgType.__members__)
    assert not used & unused


def test_get_spec_accepts_enum_and_string_and_caches():
    assert get_spec(Protocol.WI) is get_spec("wi")
    assert get_spec(Protocol.MESI) is get_spec("mesi")
    with pytest.raises(KeyError):
        get_spec("dragon")


def test_hybrid_guards_separate_the_merged_sides():
    """Colliding (state, event) pairs in the merged hybrid table must
    be disambiguated by the block-management guard."""
    hybrid = get_spec("hybrid")
    for side in hybrid.sides:
        seen = {}
        for row in side.rows:
            key = (row.state, row.event, row.guard or "")
            assert key not in seen, (
                f"hybrid/{side.name}: duplicate {key}")
            seen[key] = row


# --- validation errors ------------------------------------------------

def _side(**kw) -> SideSpec:
    base = dict(name="cache", initial="I", states=("I", "V"),
                stable=("I", "V"), events=("READ_REPLY",),
                rows=(TransitionRow("I", "READ_REPLY", ("install",),
                                    "V"),),
                impossible=(Impossible("V", "READ_REPLY", "only one"),))
    base.update(kw)
    return SideSpec(**base)


def _spec(cache=None, home=None, unused=()) -> ProtocolSpec:
    return ProtocolSpec(
        protocol="toy", description="test spec",
        cache=cache if cache is not None else _side(),
        home=home if home is not None else _side(
            name="home", initial="U", states=("U",), stable=("U",),
            events=("READ_REQ",),
            rows=(TransitionRow("U", "READ_REQ",
                                ("send:READ_REPLY",)),),
            impossible=()),
        unused_messages=tuple(unused))


def test_validate_accepts_the_toy_spec():
    _spec().validate()


@pytest.mark.parametrize("broken, match", [
    (dict(initial="X"), "initial state"),
    (dict(states=("I", "I", "V")), "duplicate state"),
    (dict(stable=("I", "Z")), "stable states"),
    (dict(events=("NOT_A_MSG",)), "not a MsgType"),
    (dict(events=("local:nonsense",)), "unknown local event"),
])
def test_validate_rejects_bad_side_structure(broken, match):
    with pytest.raises(SpecError, match=match):
        _spec(cache=_side(**broken)).validate()


@pytest.mark.parametrize("row, match", [
    (TransitionRow("Z", "READ_REPLY", ()), "unknown state"),
    (TransitionRow("I", "INV", ()), "not in the side's alphabet"),
    (TransitionRow("I", "READ_REPLY", (), next_state="Z"),
     "unknown next_state"),
    (TransitionRow("I", "READ_REPLY", ("frobnicate",)),
     "unknown action"),
    (TransitionRow("I", "READ_REPLY", ("send:NOPE",)),
     "unknown action"),
])
def test_validate_rejects_bad_rows(row, match):
    side = _side(rows=(row,), impossible=())
    with pytest.raises(SpecError, match=match):
        _spec(cache=side).validate()


def test_validate_rejects_empty_impossible_reason():
    side = _side(impossible=(Impossible("V", "READ_REPLY", "  "),))
    with pytest.raises(SpecError, match="empty reason"):
        _spec(cache=side).validate()


def test_validate_rejects_bad_unused_messages():
    with pytest.raises(SpecError, match="not a MsgType"):
        _spec(unused=(("NOPE", "because"),)).validate()
    with pytest.raises(SpecError, match="needs a"):
        _spec(unused=(("INV", ""),)).validate()


def test_row_round_trip_drops_no_field():
    row = TransitionRow("SM_W", "INV", ("invalidate", "ack"),
                        next_state="IM_AD", guard="conflict",
                        retry=True, fairness="FIFO", note="race")
    assert TransitionRow.from_json(row.to_json()) == row
    bare = TransitionRow("I", "INV", ())
    assert TransitionRow.from_json(bare.to_json()) == bare


# --- the row hash memo --------------------------------------------------

def _generated_hash(row: TransitionRow) -> int:
    """What ``@dataclass(frozen=True)`` generates: the hash of the
    compare fields' tuple."""
    return hash(tuple(getattr(row, f.name) for f in dataclasses.fields(row)
                      if f.compare))


@pytest.mark.parametrize("name", ALL)
def test_row_hash_memo_equals_the_generated_hash(name):
    for side in get_spec(name).sides:
        for row in side.rows:
            assert hash(row) == _generated_hash(row)
            assert hash(row) == row._hash       # now memoized


def test_replace_recomputes_the_row_hash():
    row = get_spec("wi").cache.rows[0]
    hash(row)
    other = dataclasses.replace(row, note="changed")
    assert other._hash is None
    assert hash(other) == _generated_hash(other) != hash(row)


@pytest.mark.parametrize("clone", [
    lambda row: pickle.loads(pickle.dumps(row)), copy.copy, copy.deepcopy,
])
def test_pickled_and_copied_rows_carry_no_memo(clone):
    row = get_spec("mesi").cache.rows[0]
    hash(row)
    twin = clone(row)
    assert "_hash" not in vars(twin)
    assert twin == row and twin.origin == row.origin
    assert hash(twin) == hash(row)
