"""Result aggregation and presentation for the experiment harness."""

from repro.metrics.tables import (
    format_table, format_series, format_stacked, Series, StackedBars,
)
from repro.metrics.analysis import (
    TrafficSummary, compare_runs, render_traffic_matrix, summarize,
    traffic_matrix,
)

__all__ = [
    "format_table", "format_series", "format_stacked",
    "Series", "StackedBars",
    "TrafficSummary", "compare_runs", "render_traffic_matrix",
    "summarize", "traffic_matrix",
]
