"""The ``verify`` workload: what protocol authors wait on.

Three parts, run in an order the seed sets:

* the model checker's litmus sweep: 6 programs x WI/PU/CU/HYBRID, each
  explored exhaustively (must be clean and complete);
* the four seeded protocol mutations, each of which must be caught and
  whose saved counterexample must reproduce under replay;
* the cache x home product-graph exploration of the WI and MESI specs
  (must report no error-severity finding).

It drives the simulator very differently from ``figsweep``: a
controlled simulator, snapshot/restore at every branch point, canonical
state hashing and thousands of tiny machines.

Run by ``run.py``; prints one tagged result line.
"""

from __future__ import annotations

import gc
import os
import sys
import time

import common
from common import WORK_DIR
from reference import Pacer

GRAPH_PROTOCOLS = ("wi", "mesi")


class Verify:
    """Set-up state: the items of one pass."""

    def __init__(self, out_dir: str) -> None:
        from repro.config import MachineConfig, Protocol
        from repro.modelcheck import MUTATIONS, PROGRAMS
        from repro.protospec import get_spec
        from repro.runtime.machine import Machine

        self.out_dir = out_dir
        os.makedirs(out_dir, exist_ok=True)
        protocols = (Protocol.WI, Protocol.PU, Protocol.CU,
                     Protocol.HYBRID)
        self.items = [("litmus", name, proto.value)
                      for name in PROGRAMS for proto in protocols]
        self.items += [("mutant", name, None) for name in MUTATIONS]
        self.items += [("graph", proto, None) for proto in GRAPH_PROTOCOLS]
        # lazily built per protocol on first use: spec synthesis and
        # the compiled dispatch tables
        for proto in protocols + (Protocol.MESI,):
            get_spec(proto)
            Machine(MachineConfig(num_procs=2, protocol=proto))

    def run_item(self, kind: str, name: str, proto):
        """One item; returns (ok, counts)."""
        import repro.modelcheck.explorer as explorer
        import repro.staticcheck as staticcheck
        from repro.config import Protocol
        from repro.modelcheck import (
            get_mutation, get_program, replay_file, save_counterexample,
        )

        if kind == "litmus":
            res = explorer.explore(get_program(name),
                                   protocol=Protocol(proto))
            ok = res.violation is None and res.complete
            return ok, {"schedules": res.schedules, "states": res.states,
                        "dedup_hits": res.dedup_hits,
                        "events": res.events}
        if kind == "mutant":
            mut = get_mutation(name)
            res = explorer.explore(get_program(mut.program),
                                   protocol=mut.protocol, mutation=name)
            if res.violation is None:
                return False, {"schedules": res.schedules,
                               "events": res.events}
            path = os.path.join(self.out_dir, f"mutant-{name}.json")
            save_counterexample(path, res)
            ok = replay_file(path, quiet=True) == 0
            return ok, {"schedules": res.schedules, "events": res.events,
                        "violation": res.violation.kind}
        findings, record = staticcheck.check_spec_graph(name)
        errors = [f for f in findings if f.severity == "error"]
        return not errors, {"graph_states": sum(
            run["states"] for run in record["runs"])}

    def run_pass(self, rng, pacer=None):
        """Every item once, in a seeded order, each timed in host CPU
        seconds; a ``reference.Pacer`` times the reference between
        items (``refs``)."""
        order = list(self.items)
        rng.shuffle(order)
        out = {}
        failed = 0
        gc.collect()
        for item in order:
            t0 = time.process_time()
            ok, counts = self.run_item(*item)
            # the item's cyclic garbage (machines, snapshots) is freed
            # here and charged to it, so every item pays for its own
            # garbage and the next one starts from a collected heap
            gc.collect()
            counts["seconds"] = time.process_time() - t0
            if pacer is not None:
                pacer.after(counts["seconds"])
            counts["ok"] = ok
            out["/".join(str(x) for x in item if x)] = counts
            failed += not ok
        return {"items": out, "failed": failed, "attempted": len(order),
                "refs": pacer.take() if pacer is not None else []}


def counts_of(result) -> dict:
    """Everything a pass reports but its timings: verdicts and counts,
    which every pass, traced or not, must reproduce."""
    return {name: {k: v for k, v in item.items() if k != "seconds"}
            for name, item in result["items"].items()}


def verifier_metrics(items, totals, traced_s: float,
                     untraced_s: float) -> dict:
    """The model checker's and the graph explorer's per-layer rows."""
    from probes import campaign_key_us

    by = {t.name: t for t in totals}

    def secs(name):
        return by[name].total_ns / 1e9 if name in by else 0.0

    litmus = [v for k, v in items.items() if k.startswith("litmus/")]
    states = sum(v["states"] for v in litmus)
    dedup = sum(v["dedup_hits"] for v in litmus)
    graph_states = sum(v.get("graph_states", 0) for v in items.values())
    return {
        "modelcheck.schedules": sum(v["schedules"] for v in litmus),
        "modelcheck.states": states,
        "modelcheck.new_state_ratio": (states / (states + dedup)
                                       if states else 0.0),
        "modelcheck.encode_s": secs("modelcheck.canonical_key"),
        "modelcheck.invariants_s": secs("modelcheck.check_state_invariants"),
        "modelcheck.snapshot_s": secs("Machine.snapshot"),
        "modelcheck.restore_s": secs("Machine.restore"),
        "staticcheck.graph_states": graph_states,
        "staticcheck.us_per_state": (
            secs("staticcheck.check_spec_graph") * 1e6 / graph_states
            if graph_states else 0.0),
        "campaign.key_us": campaign_key_us(totals),
        "trace.overhead_ratio": traced_s / untraced_s if untraced_s else 0.0,
    }


def traced_run(verify: Verify, rng, setup_totals) -> dict:
    from probes import (
        dump_totals, install_sim_probes, setup_metrics, sim_layer_metrics,
        uncovered_ns, uncovered_share,
    )
    from tracing import Aggregate, Patcher, calibrate, corrected

    t0 = time.perf_counter()
    baseline = verify.run_pass(rng)
    untraced_s = time.perf_counter() - t0
    agg = Aggregate()
    patcher = Patcher()
    install_sim_probes(patcher, agg)
    t0 = time.perf_counter()
    try:
        traced = verify.run_pass(rng)
    finally:
        patcher.restore()
    wall_ns = int((time.perf_counter() - t0) * 1e9)
    unrestored = patcher.unrestored()
    cost = calibrate()
    totals = corrected(agg.totals(), cost)
    dump_totals(os.path.join(verify.out_dir, "spans.jsonl"), agg.totals())
    events = sum(v.get("events", 0) for v in traced["items"].values())
    other_ns = uncovered_ns(agg, totals, cost, wall_ns)
    layers = sim_layer_metrics(totals, events, other_ns, untraced_s)
    layers.update(setup_metrics(setup_totals))
    layers.update(verifier_metrics(traced["items"], totals, wall_ns / 1e9,
                                   untraced_s))
    reproduced = counts_of(traced) == counts_of(baseline)
    return {
        "layers": layers,
        "attempted": baseline["attempted"] + traced["attempted"],
        "failed": (baseline["failed"] + traced["failed"]
                   + (0 if reproduced else 1)),
        "reproduced": reproduced,
        "unrestored": unrestored,
        "patched": patcher.count,
        "wrapper_cost_ns": {"inner": cost.inner, "outer": cost.outer},
        "uncovered_share": uncovered_share(totals, other_ns),
        "counts": counts_of(baseline),
    }


def measure(verify: Verify, rng, seconds: float) -> dict:
    pacer = Pacer()
    passes = common.repeat_passes(
        lambda: verify.run_pass(rng, pacer=pacer), seconds)
    result = {
        "attempted": sum(p["attempted"] for p in passes),
        "failed": sum(p["failed"] for p in passes),
        "counts": counts_of(passes[0]),
        **common.op_samples(
            [{k: v["seconds"] for k, v in p["items"].items()}
             for p in passes],
            [p["refs"] for p in passes]),
    }
    if any(counts_of(p) != result["counts"] for p in passes[1:]):
        result["failed"] += 1
    return result


if __name__ == "__main__":
    sys.exit(common.child_main(
        sys.argv[1:], lambda: Verify(os.path.join(WORK_DIR, "verify")),
        measure, traced_run))
