"""Unit/integration tests for the post-run analysis module."""

from repro.config import MachineConfig, Protocol
from repro.isa.ops import Compute, Fence, Read, Write
from repro.metrics import (
    compare_runs, render_traffic_matrix, summarize, traffic_matrix,
)
from repro.runtime import Machine


def run_small(protocol=Protocol.PU):
    cfg = MachineConfig(num_procs=4, protocol=protocol)
    m = Machine(cfg, max_events=500_000)
    a = m.memmap.alloc_word(1, "a")
    b = m.memmap.alloc_word(2, "b")

    def prog(node):
        for i in range(4):
            yield Write(a, node * 10 + i)
            yield Read(b)
            yield Compute(5)
        yield Fence()

    m.spawn_all(lambda n: prog(n))
    return m, m.run()


class TestTrafficMatrix:
    def test_matrix_totals_match(self):
        m, r = run_small()
        mat = traffic_matrix(r, 4)
        assert sum(sum(row) for row in mat) == r.network.messages

    def test_render_contains_all_rows(self):
        m, r = run_small()
        text = render_traffic_matrix(r, 4)
        lines = text.splitlines()
        assert len(lines) == 2 + 4  # title + header + 4 rows


class TestSummaries:
    def test_summarize_fields(self):
        m, r = run_small()
        s = summarize(r)
        assert s.total_cycles == r.total_cycles
        assert 0.0 <= s.useful_miss_fraction <= 1.0
        assert 0.0 <= s.useful_update_fraction <= 1.0
        assert s.bytes_per_ref > 0

    def test_wi_summary_has_no_updates(self):
        m, r = run_small(Protocol.WI)
        s = summarize(r)
        assert s.updates["total"] == 0
        assert s.useful_update_fraction == 1.0  # vacuous

    def test_compare_runs_table(self):
        _, r1 = run_small(Protocol.WI)
        _, r2 = run_small(Protocol.PU)
        text = compare_runs({"wi": r1, "pu": r2})
        assert "wi" in text and "pu" in text
        assert "cycles" in text
