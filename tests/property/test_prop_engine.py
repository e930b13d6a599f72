"""Property-based tests for the simulation kernel and network."""

from hypothesis import given, settings, strategies as st

from repro.config import MachineConfig
from repro.engine import Simulator
from repro.network import Message, MsgType, Network
from repro.network.topology import MeshTopology


class TestSimulatorProperties:
    @given(st.lists(st.integers(min_value=0, max_value=1000),
                    min_size=1, max_size=200))
    def test_events_fire_in_nondecreasing_time_order(self, delays):
        sim = Simulator()
        fired = []
        for d in delays:
            sim.schedule(d, lambda d=d: fired.append(sim.now))
        sim.run()
        assert fired == sorted(fired)
        assert len(fired) == len(delays)
        assert sim.now == max(delays)

    @given(st.lists(st.integers(min_value=0, max_value=100),
                    min_size=1, max_size=100),
           st.integers(min_value=0, max_value=120))
    def test_run_until_is_prefix_of_full_run(self, delays, horizon):
        def trace(until):
            sim = Simulator()
            log = []
            for i, d in enumerate(delays):
                sim.schedule(d, log.append, i)
            sim.run(until=until)
            sim.run()
            return log

        full = trace(None)
        split = trace(horizon)
        assert split == full

    @given(st.lists(st.tuples(st.integers(0, 50), st.integers(0, 50)),
                    min_size=1, max_size=50))
    def test_nested_schedules_preserve_order(self, pairs):
        sim = Simulator()
        log = []

        def outer(i, inner_delay):
            sim.schedule(inner_delay, log.append, i)

        for i, (d, inner) in enumerate(pairs):
            sim.schedule(d, outer, i, inner)
        sim.run()
        assert len(log) == len(pairs)


class TestTopologyProperties:
    @given(st.integers(min_value=1, max_value=64))
    def test_hops_metric_axioms(self, n):
        topo = MeshTopology(n)
        for a in range(0, n, max(1, n // 5)):
            for b in range(0, n, max(1, n // 5)):
                h = topo.hops(a, b)
                assert h >= 0
                assert (h == 0) == (a == b)
                assert h == topo.hops(b, a)
                assert h <= topo.diameter

    @given(st.integers(min_value=2, max_value=64),
           st.data())
    def test_route_is_shortest_path(self, n, data):
        topo = MeshTopology(n)
        a = data.draw(st.integers(0, n - 1))
        b = data.draw(st.integers(0, n - 1))
        route = topo.route(a, b)
        assert len(route) == topo.hops(a, b) + 1
        assert len(set(route)) == len(route)  # no loops


class TestNetworkProperties:
    @settings(deadline=None, max_examples=30)
    @given(st.lists(st.tuples(st.integers(0, 7), st.integers(0, 7),
                              st.sampled_from([MsgType.READ_REQ,
                                               MsgType.READ_REPLY,
                                               MsgType.UPD_PROP])),
                    min_size=1, max_size=60))
    def test_per_destination_fifo_for_remote_messages(self, sends):
        sim = Simulator()
        cfg = MachineConfig(num_procs=8)
        net = Network(sim, cfg)
        # each message carries its send index in ``block``
        deliveries = {n: [] for n in range(8)}
        for n in range(8):
            net.register(n, lambda m, n=n: deliveries[n].append(m.block))
        remote_order = {n: [] for n in range(8)}
        for i, (src, dst, mtype) in enumerate(sends):
            if src != dst:
                remote_order[dst].append(i)
            net.send(Message(mtype, src, dst, i))
        sim.run()
        for n in range(8):
            got_remote = [i for i in deliveries[n]
                          if i in set(remote_order[n])]
            assert got_remote == remote_order[n]

    @settings(deadline=None, max_examples=30)
    @given(st.lists(st.tuples(st.integers(0, 7), st.integers(0, 7)),
                    min_size=1, max_size=60))
    def test_all_messages_delivered_exactly_once(self, pairs):
        sim = Simulator()
        cfg = MachineConfig(num_procs=8)
        net = Network(sim, cfg)
        seen = []
        for n in range(8):
            net.register(n, lambda m: seen.append(m.block))
        for i, (src, dst) in enumerate(pairs):
            net.send(Message(MsgType.READ_REQ, src, dst, i))
        sim.run()
        assert sorted(seen) == list(range(len(pairs)))
        assert net.stats.messages == len(pairs)

    @settings(deadline=None, max_examples=30)
    @given(st.lists(st.tuples(st.integers(0, 7), st.integers(0, 7)),
                    min_size=1, max_size=40))
    def test_delivery_never_before_contention_free_latency(self, pairs):
        sim = Simulator()
        cfg = MachineConfig(num_procs=8)
        net = Network(sim, cfg)
        arrivals = {}
        for n in range(8):
            net.register(n, lambda m: arrivals.setdefault(m.block, sim.now))
        floor = {}
        for i, (src, dst) in enumerate(pairs):
            floor[i] = net.latency(src, dst, cfg.ctrl_msg_bytes)
            net.send(Message(MsgType.READ_REQ, src, dst, i))
        sim.run()
        assert sorted(arrivals) == sorted(floor)
        for i, t in arrivals.items():
            assert t >= floor[i]
