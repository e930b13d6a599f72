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
from repro.runtime import Machine
from repro.staticcheck.refinement import RefinementCheck
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
    # post takes the source first, so that a controller binds it once,
    # and passes every field on to Message positionally: past the
    # source and type, the two signatures list the same fields in the
    # same order
    init = tuple(inspect.signature(Message.__init__).parameters)[1:]
    assert len(PAYLOAD_FIELDS) == 16
    assert set(Message.__slots__) - set(PAYLOAD_FIELDS) == {"size"}
    assert PAYLOAD_FIELDS[:2] == ("src", "mtype")
    assert init == (("mtype", "src") + PAYLOAD_FIELDS[2:4] + ("size",)
                    + PAYLOAD_FIELDS[4:])


def test_a_controller_sends_through_post_with_its_node_bound():
    machine = Machine(MachineConfig(num_procs=3))
    for ctrl in machine.controllers:
        send = ctrl._send
        assert send.func == machine.net.post
        assert send.args == (ctrl.node,) and not send.keywords


@pytest.mark.parametrize("protocol", list(Protocol), ids=lambda p: p.value)
def test_a_controller_has_at_most_29_attributes(protocol):
    # on CPython 3.11 a 30th instance attribute slows every attribute
    # access on the controller (NodeCtrl.__init__), also while the
    # refinement check records it
    machine = Machine(MachineConfig(num_procs=2, protocol=protocol))
    assert len(vars(machine.controllers[0])) <= 29
    with RefinementCheck().recording():
        recorded = Machine(MachineConfig(num_procs=2, protocol=protocol))
    assert len(vars(recorded.controllers[0])) <= 29


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
