"""The map from machine state to spec state, and the refinement check.

Hand-driven two-node machines walk each protocol family through a few
transient states, which ``NodeCtrl.abstract_state`` must name; a
handler patched to drift from its table must be flagged with both
``file:line``s.  ``test_pristine_controllers_conform`` and the seeded
mutants in ``test_staticcheck.py`` run the check over the litmus sweep;
``test_modelcheck_sweep_golden.py`` pins that recording moves no count.
"""

from __future__ import annotations

import pytest

from repro.config import MachineConfig, Protocol
from repro.modelcheck import explore, get_program
from repro.network.messages import MsgType
from repro.protocols.update import PUNodeCtrl
from repro.protocols.wi import WINodeCtrl
from repro.runtime import Machine
from repro.staticcheck import RefinementCheck


def _machine(protocol, **kw):
    """Two nodes; a fresh word homed at node 1, and its block."""
    m = Machine(MachineConfig(num_procs=2, protocol=protocol, **kw))
    addr = m.memmap.alloc_word(home=1)
    return m, addr, m.config.block_of(addr)


def _step_until(m, done) -> None:
    while not done():
        assert m.sim.step(), "the queue drained first"


@pytest.mark.parametrize("protocol", [Protocol.WI, Protocol.MESI],
                         ids=lambda p: p.value)
def test_the_invalidate_map_names_a_miss_an_upgrade_and_a_forward(
        protocol):
    m, addr, block = _machine(protocol)
    node, home = m.controllers
    node.read(addr, lambda _: None)
    assert node.abstract_state("cache", block) == "IS_D"
    m.sim.run()
    exclusive = "E" if protocol is Protocol.MESI else "S"
    assert node.abstract_state("cache", block) == exclusive
    node.write(addr, 7, lambda _: None)
    if protocol is Protocol.WI:
        # an upgrade in flight, or an M hit whose _retire_done is due
        assert node.abstract_state("cache", block) == \
            frozenset(("SM_W", "S"))
    m.sim.run()
    assert node.abstract_state("cache", block) == "M"
    assert home.abstract_state("home", block) == "D"
    home.read(addr, lambda _: None)   # the home forwards to the owner
    _step_until(m, lambda: block in home._txn)
    assert home.abstract_state("home", block) == "BUSY_R"
    m.sim.run()
    assert home.abstract_state("home", block) == "S"
    assert node.abstract_state("cache", block) == "S"


def test_a_write_miss_is_ambiguous_between_rdex_and_a_lost_upgrade():
    """The runtime does not record which request a retiring write sent,
    or whether an atomic's is an RDEX_REQ or a demoted upgrade."""
    m, addr, block = _machine(Protocol.WI)
    node = m.controllers[0]
    node.write(addr, 1, lambda _: None)
    assert node.abstract_state("cache", block) == \
        frozenset(("IM_D", "I_W", "I"))
    m.sim.run()
    assert node.abstract_state("cache", block) == "M"
    other = m.memmap.alloc_word(home=1)
    node.atomic("faa", other, 1, lambda _: None)
    assert node.abstract_state("cache", m.config.block_of(other)) == \
        frozenset(("IM_AD", "I_AW"))


def test_the_update_map_names_a_fill_an_atomic_a_retain_and_a_recall():
    m, addr, block = _machine(Protocol.PU)
    node, home = m.controllers
    node.read(addr, lambda _: None)
    assert node.abstract_state("cache", block) == "IV_D"
    m.sim.run()
    node.atomic("faa", addr, 1, lambda _: None)
    assert node.abstract_state("cache", block) == "AV_W"
    m.sim.run()
    node.write(addr, 5, lambda _: None)
    assert node.abstract_state("cache", block) == frozenset(("VW_A", "V"))
    m.sim.run()
    # the sole sharer's write-through is told to retain
    assert node.abstract_state("cache", block) == "R"
    assert home.abstract_state("home", block) == "D"
    home.read(addr, lambda _: None)
    _step_until(m, lambda: block in home._txn)
    assert home.abstract_state("home", block) == "D_R"
    m.sim.run()
    assert home.abstract_state("home", block) == "S"
    assert node.abstract_state("cache", block) == "V"


def test_the_hybrid_map_follows_each_block_protocol():
    m = Machine(MachineConfig(num_procs=2, protocol=Protocol.HYBRID))
    with m.memmap.use_protocol(Protocol.WI):
        wi_addr = m.memmap.alloc_word(home=1)
    with m.memmap.use_protocol(Protocol.CU):
        cu_addr = m.memmap.alloc_word(home=1)
    node = m.controllers[0]
    for addr, pending in ((wi_addr, "IS_D"), (cu_addr, "IV_D")):
        node.read(addr, lambda _: None)
        assert node.abstract_state(
            "cache", m.config.block_of(addr)) == pending
        m.sim.run()


def _litmus_findings(program, protocol):
    check = RefinementCheck()
    with check.recording():
        explore(get_program(program), protocol=protocol)
    return list(check.findings.values())


def test_a_handler_that_skips_a_send_is_flagged_with_both_lines(
        monkeypatch):
    def no_ack(self, msg):
        # drift: the invalidation is taken but never acknowledged
        self.cache.invalidate(msg.block)

    monkeypatch.setattr(WINodeCtrl, "_cache_inv", no_ack)
    findings = _litmus_findings("mp", Protocol.WI)
    assert findings
    for f in findings:
        assert (f.file, f.line) == (
            "tests/unit/test_refinement.py",
            no_ack.__code__.co_firstlineno)
        assert f.event == "INV"
        assert "(row at src/repro/protospec/wi.py:" in f.detail


def test_a_handler_that_adds_a_send_is_flagged(monkeypatch):
    original = PUNodeCtrl._cache_upd_ack

    def extra_notice(self, msg):
        original(self, msg)
        # drift: a DROP_NOTICE no UPD_ACK row declares
        self._send(MsgType.DROP_NOTICE, self.home_of(msg.block),
                   msg.block)

    monkeypatch.setattr(PUNodeCtrl, "_cache_upd_ack", extra_notice)
    findings = _litmus_findings("mp", Protocol.PU)
    assert {(f.event, f.line) for f in findings} == {
        ("UPD_ACK", extra_notice.__code__.co_firstlineno)}
    assert "DROP_NOTICE" in findings[0].detail


def test_recording_restores_the_machine_class():
    init = Machine.__init__
    with RefinementCheck().recording():
        assert Machine.__init__ is not init
    assert Machine.__init__ is init
