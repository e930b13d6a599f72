"""Per-figure experiment runners, expressed as campaign spec lists.

Figure -> experiment mapping (paper section 4):

* Fig 8  -- lock acquire/release latency vs P, tk/MCS/uc x i/u/c
* Fig 9  -- lock miss traffic at 32p, stacked by category
* Fig 10 -- lock update traffic at 32p (PU/CU), stacked by category
* Fig 11 -- barrier episode latency vs P, cb/db/tb x i/u/c
* Fig 12 -- barrier miss traffic at 32p
* Fig 13 -- barrier update traffic at 32p
* Fig 14 -- reduction latency vs P, sr/pr x i/u/c (ideal sync)
* Fig 15 -- reduction miss traffic at 32p
* Fig 16 -- reduction update traffic at 32p

All latency figures sweep the paper's machine sizes (1..32); traffic
figures run the 32-processor point.  ``scale`` uniformly shrinks the
iteration counts (latencies are per-iteration averages, so the series
keep their shape; traffic counts scale linearly and the *distribution*
across categories is what the paper's bar charts show).

Every figure is split into a **spec generator** (``figure_points``:
the list of :class:`~repro.campaign.RunSpec` values the figure needs,
each tagged with its bar/line label) and a **table builder**
(``figure_table``: fold the campaign records back into a
:class:`~repro.metrics.tables.Series` or
:class:`~repro.metrics.tables.StackedBars`).  The ``fig8..fig16``
entry points wire the two through a :class:`~repro.campaign.
CampaignRunner`, so the same figure can run serially, in parallel
(``--jobs``), or entirely from a warm result cache.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.campaign import CampaignRunner, RunRecord, RunSpec
from repro.config import (
    ALL_PROTOCOLS, MachineConfig, PAPER_MACHINE_SIZES, Protocol,
    ExperimentScale,
)
from repro.metrics.tables import Series, StackedBars
from repro.sync.barriers import BARRIER_KINDS
from repro.sync.locks import LOCK_KINDS
from repro.sync.reductions import REDUCTION_KINDS

#: categories of the miss bar charts (figures 9, 12, 15), in the
#: paper's stacking order; "upgrade" is the exclusive-request class
MISS_CATEGORIES = ["cold", "true", "false", "eviction", "drop", "upgrade"]

#: categories of the update bar charts (figures 10, 13, 16); the
#: replacement class is included even though (as in the paper) it is
#: essentially never observed
UPDATE_CATEGORIES = ["useful", "false", "proliferation", "replacement",
                     "termination", "drop"]

UPDATE_PROTOCOLS = (Protocol.PU, Protocol.CU)


def combo_label(alg: str, protocol: Protocol) -> str:
    """The paper's bar labels: e.g. 'tk-i', 'MCS-u', 'db-c'."""
    return f"{alg}-{protocol.short}"


def _miss_counts(record: RunRecord) -> Dict[str, int]:
    counts = dict(record.sim.misses)
    counts["upgrade"] = counts.pop("exclusive_requests", 0)
    return counts


# ----------------------------------------------------------------------
# figure definitions
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class FigureDef:
    """Shape of one figure: workload, algorithm kinds, table style."""

    fid: str
    workload: str              # campaign workload id
    kinds: Tuple[str, ...]     # algorithm kinds (the bar/line groups)
    style: str                 # "latency" | "miss" | "update"
    title: str
    ylabel: str = ""

    @property
    def protocols(self) -> Tuple[Protocol, ...]:
        return (UPDATE_PROTOCOLS if self.style == "update"
                else ALL_PROTOCOLS)

    def point_count(self, num_sizes: int) -> int:
        """How many points :func:`figure_points` yields for
        ``num_sizes`` machine sizes (only a latency figure sweeps
        them), without building any."""
        per_combo = num_sizes if self.style == "latency" else 1
        return len(self.kinds) * len(self.protocols) * per_combo


FIGURE_DEFS: Dict[str, FigureDef] = {d.fid: d for d in (
    FigureDef("fig8", "lock", LOCK_KINDS, "latency",
              "Figure 8: performance of spin locks in synthetic program",
              "avg acquire-release latency (cycles)"),
    FigureDef("fig9", "lock", LOCK_KINDS, "miss",
              "Figure 9: miss traffic of spin locks"),
    FigureDef("fig10", "lock", LOCK_KINDS, "update",
              "Figure 10: update traffic of spin locks"),
    FigureDef("fig11", "barrier", BARRIER_KINDS, "latency",
              "Figure 11: performance of barriers in synthetic program",
              "avg barrier episode latency (cycles)"),
    FigureDef("fig12", "barrier", BARRIER_KINDS, "miss",
              "Figure 12: miss traffic of barriers"),
    FigureDef("fig13", "barrier", BARRIER_KINDS, "update",
              "Figure 13: update traffic of barriers"),
    FigureDef("fig14", "reduction", REDUCTION_KINDS, "latency",
              "Figure 14: performance of reductions in synthetic program",
              "avg reduction latency (cycles)"),
    FigureDef("fig15", "reduction", REDUCTION_KINDS, "miss",
              "Figure 15: miss traffic of reductions"),
    FigureDef("fig16", "reduction", REDUCTION_KINDS, "update",
              "Figure 16: update traffic of reductions"),
)}


@dataclass(frozen=True)
class FigurePoint:
    """One spec of a figure, tagged with where it lands in the table."""

    label: str                 # bar / line label ("tk-i", "db-u", ...)
    x: Optional[int]           # machine size for latency figures
    spec: RunSpec


# ----------------------------------------------------------------------
# spec generation
# ----------------------------------------------------------------------

def _checked_config(protocol: Protocol, P: int,
                    sanitize: bool) -> MachineConfig:
    return MachineConfig(num_procs=P, protocol=protocol,
                         enable_sanitizer=sanitize,
                         enable_race_detector=sanitize)


def _workload_params(workload: str, scale: ExperimentScale,
                     **kw) -> Dict[str, object]:
    if workload == "lock":
        return {"total_acquires": scale.lock_total_acquires, **kw}
    if workload == "barrier":
        return {"episodes": scale.barrier_episodes, **kw}
    if workload == "reduction":
        return {"iterations": scale.reduction_iters, **kw}
    raise ValueError(f"unknown figure workload {workload!r}")


def figure_points(fid: str,
                  scale: ExperimentScale = None,
                  sizes: Tuple[int, ...] = PAPER_MACHINE_SIZES,
                  P: int = 32,
                  sanitize: bool = False,
                  **kw) -> List[FigurePoint]:
    """The figure's campaign: every (label, machine size, spec)."""
    fdef = FIGURE_DEFS[fid]
    if scale is None:
        scale = ExperimentScale.paper()
    params = _workload_params(fdef.workload, scale, **kw)
    xs = sizes if fdef.style == "latency" else (P,)
    points = []
    for kind in fdef.kinds:
        for proto in fdef.protocols:
            label = combo_label(kind, proto)
            for x in xs:
                spec = RunSpec.make(
                    fdef.workload, _checked_config(proto, x, sanitize),
                    kind=kind, **params)
                points.append(FigurePoint(
                    label, x if fdef.style == "latency" else None, spec))
    return points


# ----------------------------------------------------------------------
# table building
# ----------------------------------------------------------------------

def figure_table(fid: str, points: List[FigurePoint],
                 records: List[RunRecord]):
    """Fold campaign records back into the figure's dataset."""
    fdef = FIGURE_DEFS[fid]
    if fdef.style == "latency":
        series = Series(title=fdef.title, xlabel="procs",
                        ylabel=fdef.ylabel)
        for point, record in zip(points, records):
            series.add(point.label, point.x,
                       record.metrics["avg_latency"])
        return series
    P = points[0].spec.config.num_procs if points else 0
    title = f"{fdef.title} ({P} processors)"
    categories = (MISS_CATEGORIES if fdef.style == "miss"
                  else UPDATE_CATEGORIES)
    bars = StackedBars(title=title, categories=categories)
    for point, record in zip(points, records):
        counts = (_miss_counts(record) if fdef.style == "miss"
                  else dict(record.sim.updates))
        bars.add(point.label, counts)
    return bars


# ----------------------------------------------------------------------
# entry points
# ----------------------------------------------------------------------

def run_figure(fid: str,
               scale: ExperimentScale = None,
               sizes: Tuple[int, ...] = PAPER_MACHINE_SIZES,
               P: int = 32,
               progress: Optional[Callable[[str], None]] = None,
               runner: Optional[CampaignRunner] = None,
               **kw):
    """Generate the figure's specs, run them, build its table.

    ``runner`` supplies parallelism and the result cache; by default a
    serial uncached runner is used, reproducing the original one-shot
    behaviour.  Failed specs raise :class:`~repro.campaign.
    CampaignError` with the captured per-spec tracebacks.
    """
    points = figure_points(fid, scale=scale, sizes=sizes, P=P, **kw)
    if runner is None:
        runner = CampaignRunner()
    hook = None
    if progress is not None:
        def hook(i: int, spec: RunSpec, record: RunRecord) -> None:
            point = points[i]
            at = f" P={point.x}" if point.x is not None else ""
            state = "" if record.ok else " FAILED"
            cached = " (cached)" if record.cached else ""
            progress(f"{fid} {point.label}{at}{cached}{state}")
    report = runner.run([pt.spec for pt in points], progress=hook)
    report.raise_on_failure()
    return figure_table(fid, points, report.records)


def _figure_entry(fid: str) -> Callable:
    fdef = FIGURE_DEFS[fid]

    if fdef.style == "latency":
        def entry(scale: ExperimentScale = None,
                  sizes: Tuple[int, ...] = PAPER_MACHINE_SIZES,
                  progress: Optional[Callable[[str], None]] = None,
                  runner: Optional[CampaignRunner] = None,
                  **kw) -> Series:
            return run_figure(fid, scale=scale, sizes=sizes,
                              progress=progress, runner=runner, **kw)
    else:
        def entry(scale: ExperimentScale = None,
                  P: int = 32,
                  progress: Optional[Callable[[str], None]] = None,
                  runner: Optional[CampaignRunner] = None,
                  **kw) -> StackedBars:
            return run_figure(fid, scale=scale, P=P,
                              progress=progress, runner=runner, **kw)

    entry.__name__ = fid
    entry.__qualname__ = fid
    entry.__doc__ = f"{fdef.title} (see module docstring)."
    return entry


fig8_lock_latency = _figure_entry("fig8")
fig9_lock_misses = _figure_entry("fig9")
fig10_lock_updates = _figure_entry("fig10")
fig11_barrier_latency = _figure_entry("fig11")
fig12_barrier_misses = _figure_entry("fig12")
fig13_barrier_updates = _figure_entry("fig13")
fig14_reduction_latency = _figure_entry("fig14")
fig15_reduction_misses = _figure_entry("fig15")
fig16_reduction_updates = _figure_entry("fig16")

#: figure id -> runner entry point for the CLI
FIGURES: Dict[str, Callable] = {
    "fig8": fig8_lock_latency,
    "fig9": fig9_lock_misses,
    "fig10": fig10_lock_updates,
    "fig11": fig11_barrier_latency,
    "fig12": fig12_barrier_misses,
    "fig13": fig13_barrier_updates,
    "fig14": fig14_reduction_latency,
    "fig15": fig15_reduction_misses,
    "fig16": fig16_reduction_updates,
}
