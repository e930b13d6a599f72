"""Integration tests for the application kernels (self-checking)."""

import pytest

from repro.config import MachineConfig, Protocol
from repro.apps import run_histogram, run_jacobi, run_workqueue
from repro.apps.stencil import _oracle, SCALE
from repro.apps.workqueue import item_cost


def cfg(P, protocol, **kw):
    return MachineConfig(num_procs=P, protocol=protocol, **kw)


class TestJacobi:
    def test_oracle_is_a_fixed_boundary_sweep(self):
        grid = [0, 3 * SCALE, 0, 0]
        out = _oracle(grid, 1)
        assert out[0] == 0 and out[-1] == 0
        assert out[1] == SCALE

    @pytest.mark.parametrize("P", [2, 4, 8])
    def test_jacobi_matches_oracle(self, protocol, P):
        res = run_jacobi(cfg(P, protocol), iters=6, cells_per_proc=6)
        assert res.verified
        assert res.result.total_cycles > 0

    def test_jacobi_all_barrier_kinds(self, protocol):
        for kind in ("cb", "db", "tb"):
            res = run_jacobi(cfg(4, protocol), iters=4,
                             cells_per_proc=4, barrier_kind=kind)
            assert res.verified

    def test_update_protocols_reduce_jacobi_misses(self):
        wi = run_jacobi(cfg(8, Protocol.WI), iters=8)
        pu = run_jacobi(cfg(8, Protocol.PU), iters=8)
        # halo reads under PU hit refreshed copies after warm-up
        assert pu.result.misses["total"] < wi.result.misses["total"]

    def test_jacobi_on_hybrid_machine(self):
        res = run_jacobi(cfg(4, Protocol.HYBRID), iters=4)
        assert res.verified


class TestHistogram:
    @pytest.mark.parametrize("P", [2, 4, 8])
    def test_counts_exact(self, protocol, P):
        res = run_histogram(cfg(P, protocol), items_per_proc=24)
        assert sum(res.counts) == P * 24

    def test_single_bin_maximal_contention(self, protocol):
        res = run_histogram(cfg(4, protocol), items_per_proc=16,
                            num_bins=1)
        assert res.counts == [64]

    def test_more_bins_less_contention(self, protocol):
        hot = run_histogram(cfg(8, protocol), items_per_proc=24,
                            num_bins=1)
        cool = run_histogram(cfg(8, protocol), items_per_proc=24,
                             num_bins=16)
        assert cool.result.total_cycles < hot.result.total_cycles


class TestWorkQueue:
    def test_item_costs_deterministic_and_uneven(self):
        costs = [item_cost(i) for i in range(50)]
        assert costs == [item_cost(i) for i in range(50)]
        assert len(set(costs)) > 10

    @pytest.mark.parametrize("P", [2, 4, 8])
    def test_every_item_exactly_once(self, protocol, P):
        res = run_workqueue(cfg(P, protocol), total_items=40)
        assert sum(res.per_node) == 40

    @pytest.mark.parametrize("lock_kind", ["tk", "MCS", "uc", None])
    def test_all_dispatch_mechanisms(self, protocol, lock_kind):
        res = run_workqueue(cfg(4, protocol), total_items=24,
                            lock_kind=lock_kind)
        assert sum(res.per_node) == 24

    def test_dynamic_scheduling_balances_uneven_work(self, protocol):
        res = run_workqueue(cfg(4, protocol), total_items=64)
        # every processor got a meaningful share
        assert min(res.per_node) >= 4
        assert res.balance < 2.0

    def test_lock_free_dispatch_cheaper_under_update(self):
        locked = run_workqueue(cfg(8, Protocol.PU), total_items=48,
                               lock_kind="MCS")
        lockfree = run_workqueue(cfg(8, Protocol.PU), total_items=48,
                                 lock_kind=None)
        # one memory-side fetch_and_add beats a full lock round trip
        assert (lockfree.result.total_cycles
                < locked.result.total_cycles)
