"""The ``figsweep`` workload: the paper's figure sweep, run cold.

Every unique RunSpec of figures 8-16 (all machine sizes 1-32, WI/PU/CU)
executes in this one process, with no result cache, in an order the
seed sets.  Each spec builds a fresh machine, so the modelled caches
start empty, as the figures do.  Set-up (imports, spec generation,
protocol synthesis, dispatch compilation, spec hashing) finishes before
the first timed operation.

Run by ``run.py``; prints one tagged result line.
"""

from __future__ import annotations

import cProfile
import gc
import hashlib
import json
import os
import pstats
import sys
import time

import common
from probes import (
    SIM_LAYERS, campaign_key_us, dump_totals, layer_self_ns, setup_metrics,
    sim_layer_metrics, uncovered_ns, uncovered_share,
)
from reference import Pacer

#: iteration scale of the sweep: 128 lock acquisitions, 20 barrier
#: episodes, 20 reductions per point (the paper's counts x 0.004)
SCALE = 0.004

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                      "golden_figsweep.json")

#: shares (percentage points) within which the wrapper split and the
#: cProfile split count as agreeing
AGREEMENT_MARGIN_PP = 5.0


def spec_label(spec) -> str:
    """A name for a spec that, unlike its key, does not change when
    the program's sources do."""
    params = spec.params_dict
    return (f"{spec.workload}/{params['kind']}/"
            f"{spec.config.protocol.value}/P{spec.config.num_procs}")


def digest(record) -> str:
    """Digest of the canonical RunResult JSON of a record."""
    from repro.campaign import canonical_json, run_result_to_jsonable

    text = canonical_json(run_result_to_jsonable(record.sim))
    return hashlib.sha256(text.encode()).hexdigest()


class Sweep:
    """Set-up state: the specs, their figure points, golden digests."""

    def __init__(self) -> None:
        import repro.experiments.figures as figures
        from repro.config import ExperimentScale, MachineConfig, Protocol
        from repro.runtime.machine import Machine
        import repro.campaign.spec as spec_mod

        scale = ExperimentScale.scaled(SCALE)
        self.points = {fid: figures.figure_points(fid, scale=scale)
                       for fid in figures.FIGURE_DEFS}
        unique = {}
        for pts in self.points.values():
            for pt in pts:
                unique.setdefault(pt.spec.key, pt.spec)
        self.specs = list(unique.values())
        self.labels = {spec.key: spec_label(spec) for spec in self.specs}
        # lazily built per protocol on first use: synthesis of the
        # transient states, the compiled dispatch tables, the spec hash
        for proto in (Protocol.WI, Protocol.PU, Protocol.CU):
            Machine(MachineConfig(num_procs=2, protocol=proto))
            spec_mod.spec_hash(proto)
        with open(GOLDEN, encoding="utf-8") as fh:
            self.golden = json.load(fh)["digests"]

    def run_pass(self, rng, keep_records: bool = False, pacer=None):
        """Execute every spec once, in a seeded order.  Each spec is
        timed in host CPU seconds of this process (wall time on a
        shared VM also counts time the host gave to its neighbours);
        ``seconds`` is the pass's wall time.  A ``reference.Pacer``
        times the reference between specs (``refs``)."""
        import repro.campaign.runner as runner

        order = list(self.specs)
        rng.shuffle(order)
        records = {}
        seconds = {}
        failed = 0
        events = 0
        gc.collect()
        t0 = time.perf_counter()
        for spec in order:
            t = time.process_time()
            record = runner.execute_spec(spec)
            # the spec's cyclic garbage (its machine graph) is freed
            # here and charged to it, so every spec pays for its own
            # garbage and the next one starts from a collected heap
            gc.collect()
            seconds[self.labels[spec.key]] = time.process_time() - t
            if pacer is not None:
                pacer.after(seconds[self.labels[spec.key]])
            if keep_records:
                records[spec.key] = record
            if not record.ok or digest(record) != self.golden.get(
                    self.labels[spec.key]):
                failed += 1
                continue
            events += record.sim.events
        elapsed = time.perf_counter() - t0
        return {"seconds": elapsed, "events": events, "failed": failed,
                "attempted": len(order), "records": records,
                "spec_seconds": seconds,
                "refs": pacer.take() if pacer is not None else []}

    def build_tables(self, records) -> None:
        import repro.experiments.figures as figures

        for fid, pts in self.points.items():
            figures.figure_table(fid, pts,
                                 [records[pt.spec.key] for pt in pts])


# ----------------------------------------------------------------------
# traced run: per-layer split, overhead, cProfile cross-check
# ----------------------------------------------------------------------

def sweep_metrics(table_totals, totals, traced_s: float,
                  untraced_s: float) -> dict:
    return {
        "experiments.table_s": sum(
            t.total_ns for t in table_totals
            if t.name == "experiments.figure_table") / 1e9,
        "campaign.key_us": campaign_key_us(totals),
        "trace.overhead_ratio": traced_s / untraced_s if untraced_s else 0.0,
    }


def wrapper_shares(totals) -> dict:
    selfs = layer_self_ns(totals)
    total = sum(selfs.get(layer, 0) for layer in SIM_LAYERS)
    return {layer: 100.0 * selfs.get(layer, 0) / total
            for layer in SIM_LAYERS}


def _layer_of_file(path: str) -> str:
    parts = path.replace("\\", "/").split("/")
    if "repro" in parts:
        i = len(parts) - 1 - parts[::-1].index("repro")
        if i + 1 < len(parts) - 1:
            return common.layer_of_module("repro." + parts[i + 1])
        return "other"
    return "stdlib"


def cprofile_split(stats: pstats.Stats):
    """Self time grouped by ``repro.<subpackage>`` (everything outside
    the package, builtins included, is ``stdlib``), plus every call
    edge with the callee's cumulative time on that edge."""
    by_layer = {}
    edges = []
    for func, (_cc, _nc, tt, _ct, callers) in stats.stats.items():
        layer = _layer_of_file(func[0])
        by_layer[layer] = by_layer.get(layer, 0.0) + tt
        for caller, row in callers.items():
            edges.append((_layer_of_file(caller[0]), layer, func, row[3]))
    return by_layer, edges


def missed_boundaries(layer: str, inward: bool, edges, wrapped_code,
                      total: float, top: int = 3):
    """The unwrapped call edges that best explain a disagreement:
    calls into ``layer`` from another layer (``inward``: the layer's
    code ran under another layer's span) or out of it (other code ran
    inside this layer's spans), ranked by the callee's cumulative
    profile time on the edge."""
    merged = {}
    for src, dst, func, ct in edges:
        if func in wrapped_code or src == dst:
            continue
        if (dst if inward else src) != layer:
            continue
        where = f"{os.path.basename(func[0])}:{func[1]}"
        name = f"{src} -> {dst} {func[2]} ({where})"
        merged[name] = merged.get(name, 0.0) + ct
    best = sorted(merged.items(), key=lambda kv: -kv[1])[:top]
    return [f"{name}: {100.0 * ct / total:.1f}% of profile"
            for name, ct in best]


def cross_check(totals, stats, wrapped_code) -> dict:
    """Wrapper shares next to cProfile shares (both over the seven
    simulator layers) and, where they disagree by more than the
    margin, the unwrapped call edges that explain it."""
    wrap = wrapper_shares(totals)
    by_layer, edges = cprofile_split(stats)
    sim_total = sum(by_layer.get(layer, 0.0) for layer in SIM_LAYERS)
    prof = {layer: 100.0 * by_layer.get(layer, 0.0) / sim_total
            for layer in SIM_LAYERS}
    all_total = sum(by_layer.values())
    rows = []
    for layer in SIM_LAYERS:
        diff = wrap[layer] - prof[layer]
        row = {"layer": layer, "wrapper_pct": round(wrap[layer], 1),
               "cprofile_pct": round(prof[layer], 1),
               "diff_pp": round(diff, 1)}
        if abs(diff) > AGREEMENT_MARGIN_PP:
            row["missed_boundaries"] = missed_boundaries(
                layer, diff < 0, edges, wrapped_code, all_total)
        rows.append(row)
    return {"margin_pp": AGREEMENT_MARGIN_PP, "rows": rows,
            "cprofile_all_pct": {
                layer: round(100.0 * t / all_total, 1)
                for layer, t in sorted(by_layer.items(),
                                       key=lambda kv: -kv[1])},
            "wrapper_rank": sorted(SIM_LAYERS, key=lambda l: -wrap[l]),
            "cprofile_rank": sorted(SIM_LAYERS, key=lambda l: -prof[l]),
            "spearman_rho": spearman(wrap, prof)}


def spearman(a: dict, b: dict) -> float:
    """Rank correlation of two splits over the same keys (no ties)."""
    rank_a = {k: i for i, k in enumerate(sorted(a, key=lambda k: -a[k]))}
    rank_b = {k: i for i, k in enumerate(sorted(b, key=lambda k: -b[k]))}
    n = len(a)
    d2 = sum((rank_a[k] - rank_b[k]) ** 2 for k in a)
    return 1.0 - 6.0 * d2 / (n * (n * n - 1))


def traced_run(sweep: Sweep, rng, setup_totals) -> dict:
    from probes import install_sim_probes
    from tracing import Aggregate, Patcher, calibrate, corrected

    baseline = sweep.run_pass(rng)
    agg = Aggregate()
    patcher = Patcher()
    install_sim_probes(patcher, agg)
    try:
        traced = sweep.run_pass(rng, keep_records=True)
        mark = agg.mark()
        sweep.build_tables(traced["records"])
    finally:
        patcher.restore()
    unrestored = patcher.unrestored()
    table_totals = agg.totals(since=mark)
    cost = calibrate()
    totals = corrected(agg.totals(), cost)
    dump_totals(os.path.join(common.WORK_DIR, "figsweep", "spans.jsonl"),
                agg.totals())
    wrapped_code = {(c.co_filename, c.co_firstlineno, c.co_name)
                    for c in agg.code_objects()}
    # thread programs are resumed through a traced generator proxy
    wrapped_code.add(("~", 0, "<method 'send' of 'generator' objects>"))

    profiler = cProfile.Profile()
    profiler.enable()
    profiled = sweep.run_pass(rng)
    profiler.disable()
    stats = pstats.Stats(profiler)

    other_ns = uncovered_ns(agg, totals, cost,
                            int(traced["seconds"] * 1e9))
    layer_rows = sim_layer_metrics(totals, traced["events"], other_ns,
                                   baseline["seconds"])
    layer_rows.update(setup_metrics(setup_totals))
    layer_rows.update(sweep_metrics(table_totals, totals,
                                    traced["seconds"], baseline["seconds"]))
    return {
        "layers": layer_rows,
        "attempted": (baseline["attempted"] + traced["attempted"]
                      + profiled["attempted"]),
        "failed": (baseline["failed"] + traced["failed"]
                   + profiled["failed"]),
        "unrestored": unrestored,
        "patched": patcher.count,
        "wrapper_cost_ns": {"inner": cost.inner, "outer": cost.outer},
        "uncovered_share": uncovered_share(totals, other_ns),
        "cross_check": cross_check(totals, stats, wrapped_code),
    }


def measure(sweep: Sweep, rng, seconds: float) -> dict:
    pacer = Pacer()
    passes = common.repeat_passes(
        lambda: sweep.run_pass(rng, pacer=pacer), seconds)
    result = {
        "attempted": sum(p["attempted"] for p in passes),
        "failed": sum(p["failed"] for p in passes),
        "events": passes[0]["events"],
        **common.op_samples([p["spec_seconds"] for p in passes],
                            [p["refs"] for p in passes]),
    }
    if any(p["events"] != result["events"] for p in passes):
        result["failed"] += 1
    return result


if __name__ == "__main__":
    sys.exit(common.child_main(sys.argv[1:], Sweep, measure, traced_run))
