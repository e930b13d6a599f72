"""A coherence message is written once, by ``Network.post``, and never
again: every delivery hands the handler a distinct object, and its
fields still hold what they held at delivery when the run is over.
``Machine.snapshot()`` and the model checker share messages by
reference and rely on exactly this."""

import inspect

import pytest

from repro.config import MachineConfig, Protocol
from repro.isa.ops import Compute
from repro.network import Message, Network
from repro.protocols.base import NodeCtrl
from repro.runtime import Machine
from repro.sync.locks import make_lock

#: the fields ``post`` writes: every Message slot but the wire size
PAYLOAD_FIELDS = tuple(inspect.signature(Network.post).parameters)[1:]


def _fields(msg):
    return tuple(getattr(msg, f) for f in PAYLOAD_FIELDS)


def _run_recording(protocol, monkeypatch):
    """An MCS lock run whose every direct delivery is recorded as
    ``(message, its fields at delivery)``."""
    delivered = []
    register = Network.register

    def recording_register(self, node, handler, dispatch=None):
        assert dispatch is not None, "direct dispatch is off"

        def record(h):
            def deliver(msg):
                delivered.append((msg, _fields(msg)))
                h(msg)
            return deliver

        table = [None if h is None else record(h) for h in dispatch]
        return register(self, node, handler, table)

    monkeypatch.setattr(Network, "register", recording_register)
    machine = Machine(MachineConfig(num_procs=4, protocol=protocol))
    lock = make_lock("MCS", machine, home=0)

    def program(node):
        for _ in range(20):
            token = yield from lock.acquire(node)
            yield Compute(10)
            yield from lock.release(node, token)

    machine.spawn_all(program)
    machine.run()
    return delivered


def test_post_writes_every_payload_field_in_init_order():
    # post and _send pass every field on positionally, so the three
    # signatures must list the same fields in the same order
    init = tuple(inspect.signature(Message.__init__).parameters)[1:]
    send = tuple(inspect.signature(NodeCtrl._send).parameters)[1:]
    assert len(PAYLOAD_FIELDS) == 16
    assert set(Message.__slots__) - set(PAYLOAD_FIELDS) == {"size"}
    assert init == PAYLOAD_FIELDS[:4] + ("size",) + PAYLOAD_FIELDS[4:]
    assert send == tuple(f for f in PAYLOAD_FIELDS if f != "src")


@pytest.mark.parametrize("protocol", [Protocol.WI, Protocol.PU],
                         ids=lambda p: p.value)
def test_delivered_messages_are_distinct_and_unchanged(protocol,
                                                       monkeypatch):
    delivered = _run_recording(protocol, monkeypatch)
    assert len(delivered) > 500
    assert len({id(msg) for msg, _ in delivered}) == len(delivered), \
        "a message object was delivered twice"
    for msg, at_delivery in delivered:
        changed = [f for f, was, now in zip(PAYLOAD_FIELDS, at_delivery,
                                            _fields(msg))
                   if was is not now]
        assert not changed, f"{msg!r}: {changed} rewritten after delivery"
