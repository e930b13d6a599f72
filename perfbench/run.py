"""One benchmark for the simulator, the verifiers and the service.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload figsweep --seed 1 --seconds 30 \\
        --trace 0

Workloads (see README.md for why each was chosen):

* ``figsweep`` -- the unique specs of figures 8-16, run cold;
* ``verify``   -- litmus sweep, seeded mutants, product-graph checks;
* ``serve``    -- an open loop against a router and two shards.

With ``--trace 0`` the last line of stdout is a JSON object with the
end-to-end metrics; with ``--trace 1`` it holds the per-layer metrics
of a separate traced run.  Lines before it describe the run: machine
fingerprint, the workload's own named figures, and (traced) the
tracing overhead, uncovered residual and the cProfile cross-check.
Exits non-zero, printing no result, when the program is not there to
run or a run cannot complete.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

import common
from common import READY_TAG, RESULT_TAG, metric

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("figsweep", "verify", "serve")

#: program processes set up per run; ``setup_s`` is the median of
#: their set-up times
SETUPS = 7
#: a run must end well inside the 180 s a run may take
CHILD_TIMEOUT_S = 170.0


def load_spec() -> dict:
    """``BENCHMARK.json``: the metrics every run must print."""
    with open(os.path.join(HERE, "..", "BENCHMARK.json"),
              encoding="utf-8") as fh:
        return json.load(fh)


def say(line: str) -> None:
    print(line, flush=True)


# ----------------------------------------------------------------------
# figsweep and verify: one program process per set-up
# ----------------------------------------------------------------------

def run_child(root: str, workload: str, argv, deadline: float):
    """Start a program process; returns (the host CPU seconds it used
    up to its ready line, at the reference's nominal speed; its result
    object or None for a set-up-only process)."""
    proc = subprocess.Popen(
        [sys.executable, os.path.join(HERE, f"{workload}.py")] + argv,
        stdout=subprocess.PIPE, text=True, cwd=root,
        env=common.child_env(root))
    ready = None
    result = None
    with common.watchdog(deadline - time.perf_counter(), proc.kill):
        for line in proc.stdout:
            line = line.rstrip("\n")
            found = common.parse_tagged(line, READY_TAG)
            if ready is None and found is not None:
                ready = found["cpu_s"] / found["speed"]
                continue
            found = common.parse_tagged(line, RESULT_TAG)
            if found is not None:
                result = found
        proc.wait()
    if proc.returncode != 0 or ready is None:
        raise RuntimeError(f"{workload} process failed "
                           f"(exit {proc.returncode})")
    return ready, result


def op_latencies(op_seconds) -> list:
    """Each operation's median host time over the passes (ms)."""
    return [statistics.median(v) * 1e3 for v in op_seconds.values()]


def sim_workload(root: str, workload: str, args, deadline: float):
    base = ["--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace)]
    extra = 0 if args.trace else SETUPS - 1      # traced: no setup_s

    def setups(n):
        return [run_child(root, workload, base + ["--setup-only"],
                          deadline)[0] for _ in range(n)]
    # half the extra set-ups run before the measured process and half
    # after it, so their median does not rest on one stretch of the
    # host's speed, which drifts over seconds on a shared VM
    before = setups(extra // 2)
    ready, result = run_child(root, workload, base, deadline)
    return before + [ready] + setups(extra - extra // 2), result


def end_to_end_sim(workload: str, setups, result) -> dict:
    ops = op_latencies(result["op_seconds"])
    work_s = sum(ops) / 1e3
    metrics = {
        "setup_s": metric(statistics.median(setups), "s"),
        "peak_rss_mb": metric(result["rss_mb"], "MB"),
        "work_s": metric(work_s, "s"),
    }
    passes = len(next(iter(result["op_seconds"].values())))
    raw = op_latencies(result["raw_op_seconds"])
    say(f"host speed: {sum(raw) / 1e3:.6g} CPU s as measured, "
        f"{work_s:.6g} s at the reference's nominal speed; reference "
        f"time over nominal per pass: "
        + ", ".join(f"{f:.4f}" for f in result["speed_factors"]))
    tail_pct = common.supported_percentile(len(ops))
    say(f"operations: {len(ops)}, each timed on {passes} passes; host "
        f"CPU ms per operation p50 {common.percentile(ops, 50):.4g}, "
        f"p{tail_pct:.1f} {common.percentile(ops, tail_pct):.4g} (the "
        f"highest percentile with >= 10 operations beyond it)")
    if workload == "figsweep":
        say(f"sim_events_per_s = {result['events'] / work_s:.6g} events/s"
            f" ({result['events']} simulated events per sweep)")
    else:
        def part(prefix):
            return sum(statistics.median(v) for k, v in
                       result["op_seconds"].items() if k.startswith(prefix))
        say(f"mc_sweep_s = {part('litmus/'):.6g} s")
        say(f"graph_s = {part('graph/'):.6g} s")
        graphs = {k: v["graph_states"] for k, v in result["counts"].items()
                  if k.startswith("graph/")}
        litmus = [v for k, v in result["counts"].items()
                  if k.startswith("litmus/")]
        say(f"counts: schedules={sum(v['schedules'] for v in litmus)} "
            f"states={sum(v['states'] for v in litmus)} graph_states="
            + json.dumps(graphs, sort_keys=True))
    return metrics


# ----------------------------------------------------------------------
# serve: this process is the load client
# ----------------------------------------------------------------------

def serve_workload(root: str, args):
    import serve

    out = serve.run(root, args.seed, args.seconds, bool(args.trace))
    steps = out["steps"]
    attempted = sum(len(s.outcomes) for s in steps)
    failed = sum(1 for s in steps for o in s.outcomes if not o.ok)
    gen = serve.generator_summary(steps)
    say("generator: " + json.dumps(gen, sort_keys=True))
    if not gen["valid"]:
        # the offered load was not the one asked for: the run fails
        say("generator fell behind its schedule: this run is INVALID")
        failed += 1
    for step in steps:
        lat = serve.latency_summary(step)
        name = step.label
        named = [f"latency_{p}_ms.{name} = {lat['ms'][p]:.6g} ms"
                 for p in ("p50", "p99") if p in lat["ms"]]
        if "p99" not in lat["ms"]:
            named.append(f"latency_p99_ms.{name} not supported by "
                         f"n={lat['n']}")
        others = ", ".join(f"{p} {v:.4g}" for p, v in lat["ms"].items()
                           if p not in ("p50", "p99"))
        say("  ".join(named) + f"  ({others} ms; rate {step.rate:g}/s, "
            f"n={lat['n']}, highest supported percentile "
            f"{lat['max_supported_pct']:.3f})")
        kinds = {}
        for o in step.outcomes:
            kinds.setdefault(o.kind, []).append(o.latency * 1e3)
        say("  by kind: " + ", ".join(
            f"{k} n={len(v)} p50={common.percentile(v, 50):.3g}"
            for k, v in sorted(kinds.items())))
    return out, attempted, failed


def end_to_end_serve(out) -> dict:
    steps = out["steps"]
    requests = sum(len(s.outcomes) for s in steps)
    raw = sum(s.server["cpu_s"] for s in steps)
    cpu = sum(s.server["cpu_s"] / s.server["speed"] for s in steps)
    say(f"host speed: {raw * 1000.0 / requests:.6g} CPU s per 1000 "
        f"requests as measured, {cpu * 1000.0 / requests:.6g} s at the "
        f"reference's nominal speed; reference time over nominal per "
        f"step: " + ", ".join(f"{s.server['speed']:.4f}" for s in steps))
    return {
        "setup_s": metric(statistics.median(out["setups"]), "s"),
        "peak_rss_mb": metric(max(s.server["rss_mb"] for s in steps),
                              "MB"),
        "work_s": metric(cpu * 1000.0 / requests, "s"),
    }


def per_layer_serve(out) -> dict:
    """Merge the traced steps' accumulators into means; the overhead is
    server CPU per request, traced over untraced, at the low rate."""
    untraced, traced_low = out["steps"][0], out["steps"][1]
    sums = {}
    for step in out["steps"][1:]:
        for name, (total, n) in step.server["layers"].items():
            acc = sums.setdefault(name, [0.0, 0])
            acc[0] += total
            acc[1] += n
    layers = {name: (total / n if n else 0.0)
              for name, (total, n) in sums.items()}

    def per_request(step):
        return step.server["cpu_s"] / len(step.outcomes)
    layers["trace.overhead_ratio"] = (per_request(traced_low)
                                      / per_request(untraced))
    return layers


# ----------------------------------------------------------------------

def report_traced(layers: dict, details: list) -> int:
    """Print the tracing summary; returns the number of failures it
    found (patched attributes that did not come back)."""
    unrestored = sorted({n for d in details
                         for n in d.get("unrestored", [])})
    say("tracing: " + json.dumps({
        "patched_attributes": details[0]["patched"],
        "overhead_ratio": layers["trace.overhead_ratio"],
        "uncovered_share": statistics.median(
            [d["uncovered_share"] for d in details]),
        **{k: details[0][k] for k in ("wrapper_cost_ns", "reproduced")
           if k in details[0]}}, sort_keys=True))
    if "cross_check" in details[0]:
        say("cProfile cross-check: " + json.dumps(
            details[0]["cross_check"], sort_keys=True))
    if unrestored:
        say(f"patched attributes not restored: {unrestored}")
    return len(unrestored)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "repro",
                                       "__init__.py")):
        print("perfbench: run from the root of a checkout that holds "
              "src/repro", file=sys.stderr)
        return 2
    spec = load_spec()
    deadline = time.perf_counter() + CHILD_TIMEOUT_S
    say("fingerprint: " + json.dumps(
        {"workload": args.workload, "trace": args.trace,
         **common.fingerprint(args.seed)}, sort_keys=True))

    try:
        if args.workload == "serve":
            out, attempted, failed = serve_workload(root, args)
        else:
            setups, result = sim_workload(root, args.workload, args,
                                          deadline)
            attempted, failed = result["attempted"], result["failed"]
    except (RuntimeError, OSError, subprocess.SubprocessError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    if args.trace:
        wanted = spec["per_layer"]
        if args.workload == "serve":
            layers = per_layer_serve(out)
            details = [s.server for s in out["steps"]
                       if "layers" in s.server]
        else:
            layers, details = result["layers"], [result]
        failed += report_traced(layers, details)
        # a layer that does no work on this workload reports zero; a
        # name BENCHMARK.json does not list is a bug
        metrics = {m["name"]: metric(layers.get(m["name"], 0.0), m["unit"])
                   for m in wanted}
        extra = set(layers) - set(metrics)
    else:
        wanted = spec["end_to_end"]
        metrics = (end_to_end_serve(out) if args.workload == "serve"
                   else end_to_end_sim(args.workload, setups, result))
        extra = set()
    say(f"error_rate = {failed / attempted:.6g} ratio "
        f"(failed {failed} of {attempted} attempted)")
    mismatch = (set(metrics) ^ {m["name"] for m in wanted}) | extra
    if mismatch:
        print(f"perfbench: metrics do not match BENCHMARK.json: "
              f"{sorted(mismatch)}", file=sys.stderr)
        return 1
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics},
                     sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
