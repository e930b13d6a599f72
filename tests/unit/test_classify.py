"""Unit tests for the miss and update classifiers.

Each paper category is exercised by a minimal hand-built scenario.
"""

from repro.classify import (
    MissClass, MissClassifier, UpdateClass, UpdateClassifier,
)
from repro.memsys.cache import EvictReason


class TestMissClassifier:
    def test_first_access_is_cold(self):
        mc = MissClassifier()
        mc.record_miss(0, 1, 64)
        assert mc.counts[MissClass.COLD] == 1

    def test_second_node_also_cold(self):
        mc = MissClassifier()
        mc.record_miss(0, 1, 64)
        mc.record_miss(1, 1, 64)
        assert mc.counts[MissClass.COLD] == 2

    def test_true_sharing_immediate(self):
        mc = MissClassifier()
        mc.record_miss(0, 1, 64)                     # cold fill
        mc.record_leave(0, 1, EvictReason.INVALIDATION)
        mc.record_write(1, 64, writer=1)             # remote write, same word
        mc.record_miss(0, 1, 64)                     # re-reference that word
        assert mc.counts[MissClass.TRUE_SHARING] == 1

    def test_false_sharing_resolved_at_next_leave(self):
        mc = MissClassifier()
        mc.record_miss(0, 1, 64)
        mc.record_leave(0, 1, EvictReason.INVALIDATION)
        mc.record_write(1, 68, writer=1)             # remote write, OTHER word
        mc.record_miss(0, 1, 64)                     # miss on word 64
        # still pending; leaves again without touching word 68
        mc.record_leave(0, 1, EvictReason.INVALIDATION)
        assert mc.counts[MissClass.FALSE_SHARING] == 1

    def test_false_sharing_resolved_at_finalize(self):
        mc = MissClassifier()
        mc.record_miss(0, 1, 64)
        mc.record_leave(0, 1, EvictReason.INVALIDATION)
        mc.record_write(1, 68, writer=1)
        mc.record_miss(0, 1, 64)
        mc.finalize()
        assert mc.counts[MissClass.FALSE_SHARING] == 1

    def test_pending_upgraded_to_true_by_later_reference(self):
        mc = MissClassifier()
        mc.record_miss(0, 1, 64)
        mc.record_leave(0, 1, EvictReason.INVALIDATION)
        mc.record_write(1, 68, writer=1)
        mc.record_miss(0, 1, 64)                     # pending (word 64)
        mc.record_reference(0, 1, 68)                # touches remote word
        assert mc.counts[MissClass.TRUE_SHARING] == 1
        assert mc.counts[MissClass.FALSE_SHARING] == 0

    def test_own_write_does_not_make_true_sharing(self):
        mc = MissClassifier()
        mc.record_miss(0, 1, 64)
        mc.record_leave(0, 1, EvictReason.INVALIDATION)
        mc.record_write(1, 64, writer=0)             # our own write
        mc.record_miss(0, 1, 64)
        mc.finalize()
        assert mc.counts[MissClass.TRUE_SHARING] == 0
        assert mc.counts[MissClass.FALSE_SHARING] == 1

    def test_eviction_miss(self):
        mc = MissClassifier()
        mc.record_miss(0, 1, 64)
        mc.record_leave(0, 1, EvictReason.REPLACEMENT)
        mc.record_miss(0, 1, 64)
        assert mc.counts[MissClass.EVICTION] == 1

    def test_flush_counts_as_eviction(self):
        mc = MissClassifier()
        mc.record_miss(0, 1, 64)
        mc.record_leave(0, 1, EvictReason.FLUSH)
        mc.record_miss(0, 1, 64)
        assert mc.counts[MissClass.EVICTION] == 1

    def test_drop_miss(self):
        mc = MissClassifier()
        mc.record_miss(0, 1, 64)
        mc.record_leave(0, 1, EvictReason.DROP)
        mc.record_miss(0, 1, 64)
        assert mc.counts[MissClass.DROP] == 1

    def test_exclusive_requests_separate(self):
        mc = MissClassifier()
        mc.record_upgrade(0, 1)
        assert mc.exclusive_requests == 1
        assert mc.total_misses == 0

    def test_usefulness_partition(self):
        assert MissClass.COLD.useful
        assert MissClass.TRUE_SHARING.useful
        assert not MissClass.FALSE_SHARING.useful
        assert not MissClass.EVICTION.useful
        assert not MissClass.DROP.useful

    def test_miss_rate(self):
        mc = MissClassifier()
        for _ in range(9):
            mc.record_reference(0, 1, 64)
        mc.record_reference(0, 1, 64)
        mc.record_miss(0, 1, 64)
        assert mc.miss_rate() == 0.1
        assert mc.shared_refs == 10

    def test_uncounted_reference(self):
        mc = MissClassifier()
        mc.record_reference(0, 1, 64, count=False)
        assert mc.shared_refs == 0

    def test_as_dict_totals(self):
        mc = MissClassifier()
        mc.record_miss(0, 1, 64)
        mc.record_upgrade(0, 1)
        d = mc.as_dict()
        assert d["cold"] == 1
        assert d["exclusive_requests"] == 1
        assert d["total"] == 1


class TestUpdateClassifier:
    def test_useful_update(self):
        uc = UpdateClassifier()
        uc.record_update(0, 1, 64)
        uc.record_reference(0, 1, 64)
        uc.record_update(0, 1, 64)      # overwrite closes the first
        uc.finalize()
        assert uc.counts[UpdateClass.USEFUL] == 1

    def test_proliferation(self):
        uc = UpdateClassifier()
        uc.record_update(0, 1, 64)
        uc.record_update(0, 1, 64)      # overwritten, never referenced
        uc.finalize()
        assert uc.counts[UpdateClass.PROLIFERATION] == 1
        assert uc.counts[UpdateClass.TERMINATION] == 1  # the second one

    def test_false_sharing_needs_concurrent_other_word_activity(self):
        uc = UpdateClassifier()
        uc.record_update(0, 1, 64)
        uc.record_reference(0, 1, 68)   # other word of same block
        uc.record_update(0, 1, 64)
        uc.finalize()
        assert uc.counts[UpdateClass.FALSE_SHARING] == 1

    def test_termination(self):
        uc = UpdateClassifier()
        uc.record_update(0, 1, 64)
        uc.finalize()
        assert uc.counts[UpdateClass.TERMINATION] == 1

    def test_referenced_then_program_end_is_useful(self):
        uc = UpdateClassifier()
        uc.record_update(0, 1, 64)
        uc.record_reference(0, 1, 64)
        uc.finalize()
        assert uc.counts[UpdateClass.USEFUL] == 1
        assert uc.counts[UpdateClass.TERMINATION] == 0

    def test_replacement(self):
        uc = UpdateClassifier()
        uc.record_update(0, 1, 64)
        uc.record_block_gone(0, 1)      # replaced, unreferenced
        uc.finalize()
        assert uc.counts[UpdateClass.REPLACEMENT] == 1

    def test_referenced_before_replacement_is_useful(self):
        uc = UpdateClassifier()
        uc.record_update(0, 1, 64)
        uc.record_reference(0, 1, 64)
        uc.record_block_gone(0, 1)
        uc.finalize()
        assert uc.counts[UpdateClass.USEFUL] == 1
        assert uc.counts[UpdateClass.REPLACEMENT] == 0

    def test_drop_update_closes_block(self):
        uc = UpdateClassifier()
        uc.record_update(0, 1, 64)      # earlier, unreferenced
        uc.record_drop_update(0, 1, 68)
        uc.finalize()
        assert uc.counts[UpdateClass.DROP] == 1
        assert uc.counts[UpdateClass.REPLACEMENT] == 1

    def test_stale_delivery_is_proliferation(self):
        uc = UpdateClassifier()
        uc.record_stale_update(0, 1)
        assert uc.counts[UpdateClass.PROLIFERATION] == 1
        assert uc.stale_deliveries == 1

    def test_per_node_independence(self):
        uc = UpdateClassifier()
        uc.record_update(0, 1, 64)
        uc.record_update(1, 1, 64)
        uc.record_reference(0, 1, 64)
        uc.finalize()
        assert uc.counts[UpdateClass.USEFUL] == 1
        assert uc.counts[UpdateClass.TERMINATION] == 1

    def test_usefulness_totals(self):
        uc = UpdateClassifier()
        uc.record_update(0, 1, 64)
        uc.record_reference(0, 1, 64)
        uc.record_update(0, 1, 64)
        uc.finalize()
        assert uc.useful_updates() == 1
        assert uc.useless_updates() == 1
        assert uc.total_updates == 2


class TestSnapshotRestore:
    """The classifiers count in lists indexed by class; a snapshot must
    copy those lists, or a run after the snapshot would leak into it."""

    @staticmethod
    def _machine():
        from repro.config import MachineConfig, Protocol
        from repro.runtime import Machine
        from repro.sync.locks import make_lock
        from repro.isa.ops import Compute

        machine = Machine(MachineConfig(num_procs=4, protocol=Protocol.CU))
        lock = make_lock("MCS", machine, home=0)

        def program(node):
            for _ in range(12):
                token = yield from lock.acquire(node)
                yield Compute(5)
                yield from lock.release(node, token)

        for node in range(4):
            machine.spawn(node, program(node),
                          factory=lambda node=node: program(node))
        machine.record_histories()
        return machine

    @staticmethod
    def _counts(machine):
        mc, uc = machine.miss_classifier, machine.update_classifier
        return mc.counts, mc.as_dict(), uc.counts, uc.as_dict()

    def test_counts_survive_snapshot_restore_and_run_on(self):
        from repro.campaign.result import run_result_to_jsonable

        ref = run_result_to_jsonable(self._machine().run())
        machine = self._machine()
        machine.prepare()
        machine.sim.run(until=1500)
        # mid-run: some counts taken, some updates still open
        assert machine.update_classifier._open
        at_snapshot = self._counts(machine)
        assert at_snapshot[3]["total"] and at_snapshot[1]["total"]
        snap = machine.snapshot()

        machine.sim.run()
        first = run_result_to_jsonable(machine.finish())
        assert first == ref
        final = self._counts(machine)
        assert final != at_snapshot

        machine.restore(snap)
        assert self._counts(machine) == at_snapshot
        machine.sim.run()
        assert run_result_to_jsonable(machine.finish()) == ref
        assert self._counts(machine) == final
