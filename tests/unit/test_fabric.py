"""Unit tests for the network fabric (latency model + contention)."""

import pytest

from repro.config import MachineConfig
from repro.engine import Simulator
from repro.network import Message, MsgType, Network


def make_net(num_procs=8, **kw):
    sim = Simulator()
    cfg = MachineConfig(num_procs=num_procs, **kw)
    return sim, cfg, Network(sim, cfg)


def sink(log):
    return lambda msg: log.append(msg)


class TestSizes:
    def test_ctrl_message_size(self):
        _, cfg, net = make_net()
        msg = Message(MsgType.READ_REQ, 0, 1, 0)
        assert net.size_of(msg) == cfg.ctrl_msg_bytes

    def test_block_data_message_size(self):
        _, cfg, net = make_net()
        msg = Message(MsgType.READ_REPLY, 0, 1, 0)
        assert net.size_of(msg) == cfg.header_bytes + cfg.block_size_bytes

    def test_word_message_size(self):
        _, cfg, net = make_net()
        msg = Message(MsgType.UPD_PROP, 0, 1, 0)
        assert net.size_of(msg) == cfg.header_bytes + cfg.word_size_bytes

    def test_flit_count_rounds_up(self):
        _, _, net = make_net()
        assert net.flits_of(3) == 2
        assert net.flits_of(4) == 2
        assert net.flits_of(5) == 3


class TestLatency:
    def test_uncontended_remote_latency(self):
        sim, cfg, net = make_net()
        log = []
        for n in range(8):
            net.register(n, sink(log))
        # 0 -> 1 in a 4x2 mesh: 1 hop
        msg = Message(MsgType.READ_REQ, 0, 1, 0)
        net.send(msg)
        sim.run()
        flits = net.flits_of(cfg.ctrl_msg_bytes)
        expected = flits + cfg.switch_delay_cycles * 1 + flits
        assert sim.now == expected
        assert [(m.mtype, m.src, m.dst, m.block) for m in log] == [
            (MsgType.READ_REQ, 0, 1, 0)]

    def test_latency_grows_with_distance(self):
        _, _, net = make_net(num_procs=32)
        near = net.latency(0, 1, 8)
        far = net.latency(0, 31, 8)
        assert far > near

    def test_local_message_cheaper_than_remote(self):
        sim, cfg, net = make_net()
        log = []
        for n in range(8):
            net.register(n, sink(log))
        net.send(Message(MsgType.READ_REQ, 2, 2, 0))
        sim.run()
        local_time = sim.now
        assert local_time < net.latency(0, 7, cfg.ctrl_msg_bytes)

    def test_bigger_messages_take_longer(self):
        _, cfg, net = make_net()
        small = net.latency(0, 5, cfg.ctrl_msg_bytes)
        big = net.latency(0, 5, cfg.data_msg_bytes)
        assert big > small


class TestOrderingAndContention:
    def test_fifo_per_destination_same_source(self):
        sim, _, net = make_net()
        log = []
        for n in range(8):
            net.register(n, sink(log))
        m1 = Message(MsgType.READ_REPLY, 0, 5, 0)   # big, slow
        m2 = Message(MsgType.READ_REQ, 0, 5, 1)     # small, fast
        net.send(m1)
        net.send(m2)
        sim.run()
        assert [m.block for m in log] == [0, 1]

    def test_remote_deliveries_ordered_by_send_order(self):
        """Two remote senders to one destination: the earlier send
        arrives first (FIFO NIC sink)."""
        sim, _, net = make_net()
        log = []
        for n in range(8):
            net.register(n, sink(log))
        far = Message(MsgType.READ_REPLY, 7, 4, 0)   # sent first
        near = Message(MsgType.READ_REQ, 5, 4, 1)    # sent second
        net.send(far)
        net.send(near)
        sim.run()
        assert [m.block for m in log] == [0, 1]

    def test_source_serialization_delays_second_message(self):
        sim, cfg, net = make_net()
        log = []
        for n in range(8):
            net.register(n, sink(log))
        # two messages from node 0 to different destinations: the second
        # waits for the first to clear the egress NIC
        t_single = net.latency(0, 3, cfg.ctrl_msg_bytes)
        net.send(Message(MsgType.READ_REQ, 0, 1, 0))
        net.send(Message(MsgType.READ_REQ, 0, 3, 1))
        sim.run()
        assert sim.now > t_single

    def test_local_message_queues_behind_egress_burst(self):
        """A node-local message still serializes through the NIC/bus
        behind earlier outgoing messages (update fan-out effect)."""
        sim, cfg, net = make_net()
        times = {}
        for n in range(8):
            net.register(n, lambda m, n=n: times.setdefault(m.block, sim.now))
        for i in range(5):
            net.send(Message(MsgType.UPD_PROP, 0, i + 1, i))
        net.send(Message(MsgType.UPD_PROP, 0, 0, 99))
        sim.run()
        flits = net.flits_of(cfg.word_msg_bytes)
        # sent at cycle 0, it departs only after the 5 earlier messages
        # cleared the egress
        assert times[99] >= 5 * flits + flits + cfg.local_hop_cycles

    def test_local_message_alone_is_fast(self):
        sim, cfg, net = make_net()
        times = {}
        for n in range(8):
            net.register(n, lambda m: times.setdefault(m.block, sim.now))
        net.send(Message(MsgType.UPD_PROP, 0, 0, 7))
        sim.run()
        flits = net.flits_of(cfg.word_msg_bytes)
        assert times[7] == flits + cfg.local_hop_cycles

    def test_uncontended_remote_message_counts_no_contention(self):
        """Regression: dst-side queuing must be computed against the
        destination NIC's busy-until time *before* the message occupies
        it.  The old code updated ``_dst_free`` first and then compared
        the head arrival against its own delivery time, so the dst-side
        branch was always taken; a single uncontended remote message
        must record zero contention cycles."""
        sim, _, net = make_net()
        log = []
        for n in range(8):
            net.register(n, sink(log))
        net.send(Message(MsgType.READ_REQ, 0, 1, 0))
        sim.run()
        assert net.stats.contention_cycles == 0

    def test_dst_contention_counts_queue_wait(self):
        """Two equidistant senders to one destination: the second
        message queues behind the first for exactly its serialization
        time."""
        sim, cfg, net = make_net()
        log = []
        for n in range(8):
            net.register(n, sink(log))
        # nodes 1 and 4 are both one hop from node 0 in the 4x2 mesh
        net.send(Message(MsgType.READ_REQ, 1, 0, 0))
        net.send(Message(MsgType.READ_REQ, 4, 0, 1))
        sim.run()
        flits = net.flits_of(cfg.ctrl_msg_bytes)
        # both heads arrive at flits + switch_delay; the second streams
        # in only after the first clears the ingress NIC (flits cycles)
        assert net.stats.contention_cycles == flits

    def test_src_contention_counts_egress_wait(self):
        """Back-to-back sends from one node: the second waits for the
        egress NIC for the first's serialization time."""
        sim, cfg, net = make_net()
        log = []
        for n in range(8):
            net.register(n, sink(log))
        net.send(Message(MsgType.READ_REQ, 0, 1, 0))
        net.send(Message(MsgType.READ_REQ, 0, 2, 1))
        sim.run()
        flits = net.flits_of(cfg.ctrl_msg_bytes)
        # second message: src-side wait == flits; its head then arrives
        # at a different destination, so no dst-side queuing
        assert net.stats.contention_cycles == flits

    def test_stats_counting(self):
        sim, cfg, net = make_net()
        for n in range(8):
            net.register(n, sink([]))
        net.send(Message(MsgType.READ_REQ, 0, 1, 0))
        net.send(Message(MsgType.READ_REPLY, 1, 1, 0))
        sim.run()
        assert net.stats.messages == 2
        assert net.stats.local_messages == 1
        assert net.stats.by_type[MsgType.READ_REQ] == 1
        assert net.stats.bytes == (cfg.ctrl_msg_bytes
                                   + cfg.data_msg_bytes)


class TestRegistration:
    def test_double_registration_rejected(self):
        _, _, net = make_net()
        net.register(0, lambda m: None)
        with pytest.raises(ValueError):
            net.register(0, lambda m: None)

    def test_unregistered_destination_raises(self):
        sim, _, net = make_net()
        net.send(Message(MsgType.READ_REQ, 0, 1, 0))
        with pytest.raises(RuntimeError):
            sim.run()
