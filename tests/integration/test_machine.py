"""Integration tests for the Machine runtime."""

import pytest

from repro.config import MachineConfig, Protocol
from repro.engine import DeadlockError
from repro.isa.ops import Compute, Fence, Read, SpinUntil, Write, CallHook
from repro.network.messages import MsgType
from repro.runtime import Machine

from tests.conftest import make_machine, run_programs


class TestSpawning:
    def test_spawn_rejects_bad_node(self, protocol):
        m = make_machine(2, protocol)
        with pytest.raises(ValueError):
            m.spawn(2, (x for x in ()))

    def test_spawn_rejects_duplicate_node(self, protocol):
        m = make_machine(2, protocol)
        m.spawn(0, (yield_ for yield_ in ()))
        with pytest.raises(ValueError):
            m.spawn(0, (yield_ for yield_ in ()))

    def test_run_without_threads_raises(self, protocol):
        m = make_machine(2, protocol)
        with pytest.raises(RuntimeError):
            m.run()

    def test_machine_single_use(self, protocol):
        m = make_machine(1, protocol)

        def prog():
            yield Compute(1)

        m.spawn(0, prog())
        m.run()
        with pytest.raises(RuntimeError):
            m.run()

    def test_spawn_all(self, protocol):
        m = make_machine(3, protocol)
        seen = []

        def factory(node):
            def prog():
                seen.append(node)
                yield Compute(1)
            return prog()

        m.spawn_all(factory)
        m.run()
        assert sorted(seen) == [0, 1, 2]


class TestDeadlockDetection:
    def test_spin_on_never_written_word_deadlocks(self, protocol):
        m = make_machine(2, protocol)
        addr = m.memmap.alloc_word(0)

        def spinner():
            yield SpinUntil(addr, lambda v: v == 1)

        def other():
            yield Compute(5)

        m.spawn(0, spinner())
        m.spawn(1, other())
        with pytest.raises(DeadlockError):
            m.run()

    def test_hook_never_resumed_deadlocks(self, protocol):
        m = make_machine(1, protocol)

        def prog():
            yield CallHook(lambda proc, resume: None)

        m.spawn(0, prog())
        with pytest.raises(DeadlockError):
            m.run()


class TestResults:
    def test_initial_values_installed(self, protocol):
        m = make_machine(4, protocol)
        addr = m.memmap.alloc_word(2, init=77)

        def prog():
            v = yield Read(addr)
            assert v == 77

        m.spawn(0, prog())
        m.run()

    def test_run_result_fields(self, protocol):
        m = make_machine(2, protocol)
        addr = m.memmap.alloc_word(1)

        def prog(node):
            yield Write(addr, node)
            yield Fence()
            yield Read(addr)

        r = run_programs(m, prog(0), prog(1))
        assert r.total_cycles > 0
        assert r.events > 0
        assert len(r.proc_done_times) == 2
        assert all(t <= r.total_cycles for t in r.proc_done_times)
        assert r.misses["total"] >= 1
        assert r.shared_refs >= 4

    def test_program_exception_propagates(self, protocol):
        m = make_machine(1, protocol)

        def prog():
            yield Compute(1)
            raise ValueError("program bug")

        m.spawn(0, prog())
        with pytest.raises(ValueError, match="program bug"):
            m.run()

    def test_determinism_same_seeded_run(self, protocol):
        def once():
            m = make_machine(4, protocol)
            addr = m.memmap.alloc_word(0)

            def prog(node):
                for i in range(10):
                    yield Write(addr, node * 100 + i)
                    yield Compute(node * 3 + 1)
                yield Fence()

            m.spawn_all(lambda n: prog(n))
            return m.run()

        a, b = once(), once()
        assert a.total_cycles == b.total_cycles
        assert a.events == b.events
        assert a.misses == b.misses
        assert a.updates == b.updates

    def test_quiesced_after_run(self, protocol):
        m = make_machine(3, protocol)
        addr = m.memmap.alloc_word(0)

        def prog(node):
            yield Write(addr, node)
            yield Fence()

        m.spawn_all(lambda n: prog(n))
        m.run()
        assert m.quiesced()
        m.check_coherence_invariants()

    def test_a_remote_read_miss_is_one_request_and_one_reply(
            self, protocol):
        cfg = MachineConfig(num_procs=2, protocol=protocol)
        m = Machine(cfg, max_events=100_000)
        addr = m.memmap.alloc_word(1)

        def prog():
            yield Read(addr)

        m.spawn(0, prog())
        by_type = m.run().network.by_type
        assert by_type.get(MsgType.READ_REQ, 0) == 1
        assert by_type.get(MsgType.READ_REPLY, 0) == 1
