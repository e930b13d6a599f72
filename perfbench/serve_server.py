"""The server process of the ``serve`` workload.

One process holds a router in front of two gateway shards, each with
one simulation worker, all on one event loop (built the way the cluster
integration tests build them), so on a small machine the numbers
measure the program rather than the OS scheduler.

Set-up: generate the spec catalog, execute every spec once to get the
record each later response must equal, fork the workers, fill both
shard caches with the catalog's cached pool, start the shards and the
router.  Then print a ready line, serve until a line arrives on stdin,
shut down, and print the counters, the peak memory and (traced) the
per-layer accumulators.

Run by ``run.py``; not meant to be started by hand.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import multiprocessing
import os
import resource
import sys

import common
import reference
from common import READY_TAG, RESULT_TAG, emit_tagged
from tracing import union_length

SHARDS = ("shard-0", "shard-1")
#: seconds between reference samples while an untraced server serves
SPEED_EVERY_S = 1.0

#: the arguments the repo's CI passes to ``repro.service.loadgen`` (the
#: service-smoke and cluster-smoke jobs); every request of the mix has
#: the shape that caller gives it
LOADGEN_FIGURE = "fig9"
LOADGEN_SCALE = 0.01
LOADGEN_PROCS = 4

#: the never-cached specs: the same figure at scales no other request
#: uses (a client passing a new ``--scale``), each spec small enough to
#: execute in 10-25 ms; six scales of the figure's nine specs
COLD_SCALES = tuple(round(0.001 + 0.0001 * i, 4) for i in range(6))


def loadgen_points(scale: float):
    """The figure points loadgen sends for ``--scale scale``."""
    from repro.config import ExperimentScale
    from repro.experiments.figures import figure_points

    return figure_points(LOADGEN_FIGURE,
                         scale=ExperimentScale.scaled(scale),
                         P=LOADGEN_PROCS)


def run_body(point) -> dict:
    """A ``POST /v1/run`` body, as loadgen's ``run`` mode builds it."""
    body = point.spec.to_jsonable()
    body["label"] = point.label
    return body


def canonical_record(record_json: dict) -> str:
    """A served record as compared: its JSON minus ``elapsed_s``, the
    one field that describes this materialization, not the result."""
    body = {k: v for k, v in record_json.items() if k != "elapsed_s"}
    return json.dumps(body, sort_keys=True, separators=(",", ":"))


def build_catalog():
    """Every request's body and the answer it must get, the same on
    every run; returns (catalog, records of the cached pool)."""
    from repro.campaign import execute_spec
    from repro.experiments.figures import figure_table

    pool = loadgen_points(LOADGEN_SCALE)
    cold = [pt for scale in COLD_SCALES for pt in loadgen_points(scale)]
    records = {pt.spec.key: execute_spec(pt.spec) for pt in pool + cold}
    table = figure_table(LOADGEN_FIGURE, pool,
                         [records[pt.spec.key] for pt in pool])
    catalog = {
        "pool": [{"key": pt.spec.key, "body": run_body(pt)}
                 for pt in pool],
        "cold": [{"key": pt.spec.key, "body": run_body(pt)}
                 for pt in cold],
        # loadgen's ``sweep`` mode body, asking for full records so
        # that every served record can be checked
        "sweep": {"body": {"figure": LOADGEN_FIGURE,
                           "scale": LOADGEN_SCALE,
                           "procs": LOADGEN_PROCS, "full_records": True},
                  "keys": [pt.spec.key for pt in pool],
                  "table": table.render()},
        "expected": {k: canonical_record(r.to_jsonable())
                     for k, r in records.items()},
    }
    return catalog, [records[pt.spec.key] for pt in pool]


def status_mb(field: str, pid="self") -> float:
    """A memory field of ``/proc/<pid>/status`` (``VmRSS``: resident
    now, ``VmHWM``: peak resident) in MB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith(field + ":"):
                return int(line.split()[1]) * 1024 / 1e6
    raise RuntimeError(f"no {field} in /proc/{pid}/status")


def layer_accumulators(log, gateways, router, setup_totals) -> dict:
    """name -> [sum, count] for every serving per-layer metric, so
    steps can be merged before the means are taken.  ``setup_totals``
    are the protocol-synthesis spans of the server's set-up."""
    from probes import spans_named
    from tracing import self_times

    spans = log.spans
    selfs = self_times(spans)

    def durations(name, layer=None):
        return [s.duration for s in spans
                if s.name == name and (layer is None or s.layer == layer)]

    def acc(values, scale=1.0):
        return [sum(values) * scale, len(values)]

    # validation and response serialization, per gateway request: the
    # spans the request handler makes directly (cache writes serialize
    # records too, but under ResultCache.put, not here)
    gw_dispatch = spans_named(spans, "Gateway._dispatch")
    gw_ids = {s.sid for s in gw_dispatch}
    validate, serialize = {}, {}
    for s in spans:
        if s.parent in gw_ids:
            if s.name.startswith("api."):
                validate[s.parent] = validate.get(s.parent, 0) + s.duration
            elif s.name in ("json_response", "ndjson_line",
                            "RunRecord.to_jsonable"):
                serialize[s.parent] = (serialize.get(s.parent, 0)
                                       + s.duration)

    run_one = {s.sid: s for s in spans_named(spans, "SimScheduler._run_one")}
    queue_wait = [s.start - run_one[s.parent].start
                  for s in spans_named(spans, "SimScheduler._execute")
                  if s.parent in run_one]
    exec_s = log.values.get("exec_s", [])
    execute = durations("SimScheduler._execute")
    ipc = [d / 1e9 - e for d, e in zip(execute, exec_s)]

    # router -> shard hop: the shard call minus the part of it the
    # gateway spent on the same request
    gw_by_rid = {}
    for s in spans:
        if s.layer == "service" and s.rid is not None and s.name in (
                "read_request", "Gateway._dispatch"):
            gw_by_rid.setdefault(s.rid, []).append((s.start, s.end))
    hops = []
    for s in spans_named(spans, "HttpPool.request"):
        if s.rid is None:
            continue            # health probes
        inside = [(max(a, s.start), min(b, s.end))
                  for a, b in gw_by_rid.get(s.rid, ())]
        hops.append(s.duration - union_length(inside))

    hits = log.values.get("cache_hit", [])
    regs = [gw.registry for gw in gateways]

    def counter(registry, name):
        return registry.get(name).total()

    return {
        "campaign.key_us": acc(durations("RunSpec.key"), 1e-3),
        "campaign.cache_get_us": acc(durations("ResultCache.get"), 1e-3),
        "campaign.cache_put_ms": acc(durations("ResultCache.put"), 1e-6),
        "campaign.cache_hit_ratio": [sum(hits), len(hits)],
        "service.parse_us": acc(durations("read_request", "service"), 1e-3),
        "service.validate_us": acc(list(validate.values()), 1e-3),
        "service.admit_us": acc(durations("SimScheduler.admit_many"), 1e-3),
        "service.serialize_us": acc(list(serialize.values()), 1e-3),
        "service.self_us": acc([selfs[s.sid] for s in gw_dispatch], 1e-3),
        "service.queue_wait_ms": acc(queue_wait, 1e-6),
        "service.exec_ms": acc(exec_s, 1e3),
        "service.ipc_ms": acc(ipc, 1e3),
        "service.singleflight_joins": [sum(
            counter(r, "repro_singleflight_dedup_total") for r in regs), 1],
        "service.rejected": [sum(
            counter(r, "repro_admission_rejected_total") for r in regs), 1],
        "cluster.self_us": acc([selfs[s.sid] for s in spans_named(
            spans, "Router._dispatch")], 1e-3),
        "cluster.hop_us": acc(hops, 1e-3),
        "cluster.plan_us": acc(durations("plan_sweep"), 1e-3),
        "cluster.merge_us": acc(durations("OrderedMerge.put"), 1e-3),
        "cluster.retries": [counter(router.registry,
                                    "repro_router_retries_total"), 1],
        "cluster.sweep_dedup": [counter(router.registry,
                                        "repro_router_sweep_dedup_total"),
                                1],
        "protospec.setup_s": [sum(t.self_ns for t in setup_totals) / 1e9,
                              1],
        "experiments.points_s": acc(
            durations("experiments.figure_points"), 1e-9),
        "experiments.table_s": acc(
            durations("experiments.figure_table"), 1e-9),
    }


async def serve(args) -> dict:
    clock = common.SetupClock()
    from repro.campaign import ResultCache
    from repro.cluster import Router, RouterConfig, ShardEndpoint
    from repro.service import Gateway, ServiceConfig
    from repro.service.metrics import MetricsRegistry
    from repro.service.scheduler import SimScheduler

    setup_probes = None
    if args.trace:
        from probes import install_protospec_probes
        from tracing import Aggregate, Patcher

        setup_agg = Aggregate()
        setup_probes = Patcher()
        install_protospec_probes(setup_probes, setup_agg)
    try:
        catalog, cached = build_catalog()
    finally:
        if setup_probes is not None:
            setup_probes.restore()
    catalog_path = os.path.join(args.dir, "catalog.json")
    with open(catalog_path, "w", encoding="utf-8") as fh:
        json.dump(catalog, fh)

    # fork the workers before the probes exist (they run untraced) and
    # before any socket exists (see SimScheduler.warm); a worker starts
    # out resident in the pages it shares with this process
    at_fork_mb = status_mb("VmRSS")
    schedulers = {}
    for sid in SHARDS:
        schedulers[sid] = SimScheduler(
            jobs=1, cache=ResultCache(os.path.join(args.dir, sid)),
            registry=MetricsRegistry(const_labels={"shard_id": sid}))
        schedulers[sid].warm()

    log = patcher = None
    if args.trace:
        from probes import install_serve_probes
        from tracing import Patcher, SpanLog

        log = SpanLog()
        patcher = Patcher()
        install_serve_probes(patcher, log)

    for sched in schedulers.values():
        for record in cached:
            sched.cache.put(record)
    gateways = {sid: Gateway(ServiceConfig(
        port=0, jobs=1, quiet=True, cache_dir=sched.cache.root,
        shard_id=sid, shard_peers=SHARDS), scheduler=sched)
        for sid, sched in schedulers.items()}
    for gw in gateways.values():
        await gw.start()
    router = Router(RouterConfig(
        shards=tuple(ShardEndpoint(sid, "127.0.0.1", gw.port)
                     for sid, gw in gateways.items()),
        port=0, quiet=True))
    await router.start()
    ready = clock.ready()
    emit_tagged(READY_TAG, {"port": router.port, "catalog": catalog_path,
                            **ready})

    # the host's speed while it serves: the reference, timed between
    # callbacks once a second (it holds the loop for about 10 ms, so a
    # traced server, whose spans would show that, takes no samples);
    # its own CPU time is not serving time
    loop = asyncio.get_running_loop()
    samples = []
    timer = None

    def sample():
        nonlocal timer
        samples.append(reference.timed())
        timer = loop.call_later(SPEED_EVERY_S, sample)
    if not args.trace:
        timer = loop.call_later(SPEED_EVERY_S, sample)
    at_load = common.cpu_seconds()
    await loop.run_in_executor(None, sys.stdin.readline)
    if timer is not None:
        timer.cancel()
    serving_cpu = common.cpu_seconds() - at_load - sum(samples)

    await router.stop()
    # each worker counts only what it grew past the pages it shared
    # with this process when it was forked
    worker_growth_mb = sum(
        max(0.0, status_mb("VmHWM", proc.pid) - at_fork_mb)
        for proc in multiprocessing.active_children())
    for gw in gateways.values():
        await gw.stop()
    # the workers have been joined: their whole CPU time is in here
    result = {"cpu_s": serving_cpu + common.cpu_seconds(children=True),
              "speed": (reference.speed_factor(samples) if samples
                        else ready["speed"])}
    if log is not None:
        patcher.restore()
        result["unrestored"] = (setup_probes.unrestored()
                                + patcher.unrestored())
        result["patched"] = setup_probes.count + patcher.count
        result["layers"] = layer_accumulators(
            log, gateways.values(), router, setup_agg.totals())
        # span time is wall time and includes waits, so this is a lower
        # bound on the serving CPU time no span accounts for
        covered = union_length([(sp.start, sp.end)
                                for sp in log.spans]) / 1e9
        result["uncovered_share"] = max(0.0, serving_cpu - covered) \
            / serving_cpu
        with open(os.path.join(args.dir, "spans.jsonl"), "w",
                  encoding="utf-8") as fh:
            for s in log.spans:
                fh.write(json.dumps(s.__dict__) + "\n")
    result["rss_mb"] = (
        common.peak_rss_mb(resource.getrusage(resource.RUSAGE_SELF))
        + worker_growth_mb)
    return result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--dir", required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    os.makedirs(args.dir, exist_ok=True)
    emit_tagged(RESULT_TAG, asyncio.run(serve(args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
