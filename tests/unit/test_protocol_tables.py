"""Static sanity checks on the protocol controllers' handler tables and
the line-state sets compiled from the protocol tables."""

from dataclasses import replace

import pytest

from repro.config import MachineConfig, Protocol
from repro.memsys.cache import CACHE_STATES, CacheState
from repro.network.messages import MsgType
from repro.protocols import (
    CUNodeCtrl, HybridNodeCtrl, MESINodeCtrl, PUNodeCtrl, WINodeCtrl,
    make_controller,
)
from repro.protocols.base import LineSets, compile_line_sets
from repro.protospec import SpecError, get_spec, mesi_stable, synthesize
from repro.runtime import Machine

WI_SENDS = {
    MsgType.READ_REQ, MsgType.READ_REPLY, MsgType.FETCH_FWD,
    MsgType.OWNER_DATA, MsgType.SHARING_WB, MsgType.RDEX_REQ,
    MsgType.RDEX_REPLY, MsgType.UPGRADE_REQ, MsgType.UPGRADE_REPLY,
    MsgType.INV, MsgType.INV_ACK, MsgType.FETCH_INV_FWD,
    MsgType.OWNER_DATA_EX, MsgType.DIRTY_TRANSFER, MsgType.WRITEBACK,
    MsgType.FWD_NACK,
}
PU_SENDS = {
    MsgType.READ_REQ, MsgType.READ_REPLY, MsgType.UPDATE,
    MsgType.UPD_PROP, MsgType.UPD_ACK, MsgType.WRITER_ACK,
    MsgType.RECALL, MsgType.RECALL_REPLY, MsgType.ATOMIC_REQ,
    MsgType.ATOMIC_REPLY, MsgType.DROP_NOTICE, MsgType.WRITEBACK,
    MsgType.FWD_NACK,
}


class TestHandlerTables:
    def test_wi_handles_everything_it_can_receive(self):
        assert WI_SENDS <= set(WINodeCtrl.HANDLERS)

    def test_pu_handles_everything_it_can_receive(self):
        assert PU_SENDS <= set(PUNodeCtrl.HANDLERS)

    def test_cu_inherits_pu_table(self):
        assert CUNodeCtrl.HANDLERS == PUNodeCtrl.HANDLERS

    def test_hybrid_handles_union(self):
        assert (WI_SENDS | PU_SENDS) <= set(HybridNodeCtrl.HANDLERS)

    def test_handler_methods_exist(self):
        for cls in (WINodeCtrl, PUNodeCtrl, CUNodeCtrl, HybridNodeCtrl):
            for mtype, name in cls.HANDLERS.items():
                assert callable(getattr(cls, name)), (cls, mtype, name)

    def test_hybrid_collisions_are_dispatchers(self):
        collisions = set(WINodeCtrl.HANDLERS) & set(PUNodeCtrl.HANDLERS)
        for mtype in collisions:
            name = HybridNodeCtrl.HANDLERS[mtype]
            # FWD_NACK shares the base implementation; the other
            # colliding types must route through a hybrid dispatcher
            if mtype is MsgType.FWD_NACK:
                assert name == "on_fwd_nack"
            else:
                assert name.endswith("_hybrid"), (mtype, name)

    def test_mesi_adds_only_the_exclusive_fill(self):
        # every other MESI delta is a line set WI's handlers read
        assert MsgType.EXCL_REPLY not in WINodeCtrl.HANDLERS
        assert MESINodeCtrl.HANDLERS == {
            **WINodeCtrl.HANDLERS,
            MsgType.EXCL_REPLY: "_cache_fill_exclusive_clean"}
        assert {name for name in vars(MESINodeCtrl)
                if not name.startswith("__")} == {
            "HANDLERS", "_cache_fill_exclusive_clean"}

    @pytest.mark.parametrize("protocol", list(Protocol))
    def test_factory_builds_each_protocol(self, protocol):
        m = Machine(MachineConfig(num_procs=2, protocol=protocol))
        ctrl = m.controllers[0]
        assert ctrl.node == 0
        assert ctrl._read_hit == compile_line_sets(protocol).read_hit != 0

    def test_readable_states_disjoint_roles(self):
        wi, pu, hybrid = (compile_line_sets(p).read_hit for p in (
            Protocol.WI, Protocol.PU, Protocol.HYBRID))
        modified = 1 << CacheState.MODIFIED.code
        assert wi & modified
        assert not pu & modified
        assert hybrid == wi | pu


def _names(mask: int) -> str:
    return "".join(s.value for s in CACHE_STATES if mask >> s.code & 1)


#: read hit, store local, atomic local, serves forward, evict writes
#: back (line states, in CACHE_STATES order), grants E
LINE_SETS = {
    Protocol.WI: ("SM", "M", "M", "M", "M", False),
    Protocol.MESI: ("SME", "ME", "ME", "ME", "ME", True),
    Protocol.PU: ("VR", "R", "", "", "R", False),
    Protocol.CU: ("VR", "R", "", "", "R", False),
    Protocol.HYBRID: ("SMVR", "MR", "M", "M", "MR", False),
}


class TestLineSets:
    """The line states each handler branch applies in, compiled from
    the protocol tables."""

    @pytest.mark.parametrize("protocol", list(Protocol))
    def test_sets_are_pinned(self, protocol):
        sets = compile_line_sets(protocol)
        assert tuple(map(_names, sets[:5])) + (sets.grants_e,) == \
            LINE_SETS[protocol]

    def test_sets_are_compiled_once_per_protocol(self):
        assert compile_line_sets(Protocol.MESI) is \
            compile_line_sets("mesi")

    def test_sets_follow_the_table(self):
        # a MESI whose E eviction is silent writes back only from M
        stable = mesi_stable()
        rules = tuple(
            replace(r, actions="") if (r.state, r.stimulus) == (
                "E", "local:evict") else r
            for r in stable.cache.local_rules)
        spec = synthesize(replace(stable, cache=replace(
            stable.cache, local_rules=rules)))
        sets = LineSets.from_spec(spec)
        assert _names(sets.evict_wb) == "M"
        assert sets._replace(evict_wb=0) == \
            compile_line_sets(Protocol.MESI)._replace(evict_wb=0)

    def test_forward_rows_must_agree(self):
        spec = get_spec(Protocol.MESI)
        rows = tuple(r for r in spec.cache.rows if (r.state, r.event) != (
            "E", "FETCH_INV_FWD"))
        broken = replace(spec, cache=replace(spec.cache, rows=rows))
        with pytest.raises(SpecError, match="FETCH_INV_FWD"):
            LineSets.from_spec(broken)
