"""Protocol construction must fail fast -- with an error naming the
protocol, side and message -- when a MsgType the spec routes to a node
has no HANDLERS entry, instead of a dispatch error mid-simulation."""

from __future__ import annotations

import pytest

from repro.config import MachineConfig, Protocol
from repro.network.messages import MsgType
from repro.protocols.base import HandlerTableError
from repro.protocols.wi import WINodeCtrl
from repro.protocols.update import PUNodeCtrl
from repro.runtime import Machine


def _machine(protocol: Protocol) -> Machine:
    return Machine(MachineConfig(num_procs=2, protocol=protocol))


@pytest.mark.parametrize("protocol", list(Protocol))
def test_all_stock_controllers_construct(protocol):
    machine = _machine(protocol)
    assert len(machine.controllers) == 2


def test_missing_handler_fails_at_construction():
    class Broken(WINodeCtrl):
        HANDLERS = {k: v for k, v in WINodeCtrl.HANDLERS.items()
                    if k is not MsgType.INV}

    machine = _machine(Protocol.WI)
    with pytest.raises(HandlerTableError) as exc:
        Broken(machine, 0)
    text = str(exc.value)
    assert "wi" in text
    assert "INV" in text
    assert "cache" in text  # names the side that receives the message


def test_error_lists_every_missing_message():
    class VeryBroken(PUNodeCtrl):
        HANDLERS = {k: v for k, v in PUNodeCtrl.HANDLERS.items()
                    if k not in (MsgType.UPD_PROP, MsgType.RECALL_REPLY)}

    machine = _machine(Protocol.PU)
    with pytest.raises(HandlerTableError) as exc:
        VeryBroken(machine, 0)
    text = str(exc.value)
    assert "UPD_PROP" in text and "RECALL_REPLY" in text


def test_handler_naming_a_missing_method_fails_at_construction():
    class Misnamed(WINodeCtrl):
        HANDLERS = {**WINodeCtrl.HANDLERS, MsgType.INV: "_cache_inv_typo"}

    machine = _machine(Protocol.WI)
    with pytest.raises(HandlerTableError) as exc:
        Misnamed(machine, 0)
    assert "INV -> _cache_inv_typo" in str(exc.value)


def test_validation_is_memoized_per_class():
    # constructing a second node of an already-validated class must not
    # re-walk the spec; the cache keys on (class, protocol)
    from repro.protocols import base

    machine = _machine(Protocol.CU)
    key_count = len(base._DISPATCH_TABLES)
    _machine(Protocol.CU)
    assert len(base._DISPATCH_TABLES) == key_count
