"""Post-run analysis: traffic breakdowns and comparisons.

Everything here is computed from a finished :class:`RunResult` -- no
instrumentation overhead during the simulation itself.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro.metrics.tables import format_table


def traffic_matrix(result, num_procs: int) -> List[List[int]]:
    """Message counts as a (src x dst) matrix."""
    mat = [[0] * num_procs for _ in range(num_procs)]
    for (src, dst), n in result.network.by_pair.items():
        mat[src][dst] = n
    return mat


def render_traffic_matrix(result, num_procs: int,
                          cell_width: int = 5) -> str:
    """ASCII traffic matrix (rows = senders, columns = receivers)."""
    mat = traffic_matrix(result, num_procs)
    header = " " * 4 + "".join(f"{d:>{cell_width}}"
                               for d in range(num_procs))
    lines = ["traffic matrix (messages, src rows -> dst cols)", header]
    for src in range(num_procs):
        row = "".join(f"{mat[src][dst]:>{cell_width}}"
                      for dst in range(num_procs))
        lines.append(f"{src:>3} {row}")
    return "\n".join(lines)


@dataclass
class TrafficSummary:
    """The paper's two traffic lenses plus raw volume, in one record."""

    total_cycles: int
    misses: Dict[str, int]
    updates: Dict[str, int]
    messages: int
    bytes: int
    shared_refs: int

    @property
    def useful_miss_fraction(self) -> float:
        total = self.misses.get("total", 0)
        if not total:
            return 1.0
        return (self.misses.get("cold", 0)
                + self.misses.get("true", 0)) / total

    @property
    def useful_update_fraction(self) -> float:
        total = self.updates.get("total", 0)
        if not total:
            return 1.0
        return self.updates.get("useful", 0) / total

    @property
    def bytes_per_ref(self) -> float:
        return self.bytes / max(1, self.shared_refs)


def summarize(result) -> TrafficSummary:
    return TrafficSummary(
        total_cycles=result.total_cycles,
        misses=dict(result.misses),
        updates=dict(result.updates),
        messages=result.network.messages,
        bytes=result.network.bytes,
        shared_refs=result.shared_refs,
    )


def compare_runs(named_results: Dict[str, "RunResult"],
                 title: str = "protocol comparison") -> str:
    """Side-by-side table of runs (e.g. one per protocol)."""
    rows = []
    for name, result in named_results.items():
        s = summarize(result)
        rows.append([
            name,
            s.total_cycles,
            s.misses.get("total", 0),
            f"{s.useful_miss_fraction:.0%}",
            s.updates.get("total", 0),
            f"{s.useful_update_fraction:.0%}",
            s.messages,
            s.bytes,
        ])
    return format_table(
        ["run", "cycles", "misses", "useful", "updates", "useful",
         "msgs", "bytes"],
        rows, title=title)
