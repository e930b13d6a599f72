"""Where the benchmark's wrappers go in the ``repro`` package.

Each probe names a public entry point, the span it records and the
layer (``repro`` subpackage) that owns it.  Probes are installed by
the benchmark's own files around calls into the program; nothing in
``src/`` knows about them.  Install them before the program objects
are built: several components cache bound methods at construction.
"""

from __future__ import annotations

import functools
from typing import Callable, Dict, Iterable, List

from tracing import Aggregate, Patcher, SpanLog, TRACED, public_functions

#: NodeCtrl entry points a processor calls (one per memory operation)
PROC_OPS = ("read", "write", "fence", "atomic", "flush_block",
            "flush_all")

#: Processor methods that advance a thread (events of the runtime)
PROCESSOR_METHODS = ("start", "_resume", "_continue_none",
                     "_spin_attempt", "_spin_check", "_spin_wake")

MACHINE_METHODS = ("__init__", "run", "prepare", "finish", "fork",
                   "snapshot", "restore")


def wrap_attr(patcher: Patcher, recorder, owner, attr: str, name: str,
              layer: str) -> None:
    """Replace ``owner.attr`` by a span wrapper, whatever kind of
    attribute it is (function, property, classmethod)."""
    old = vars(owner)[attr]
    if isinstance(old, property):
        new = property(recorder.wrap(old.fget, name, layer), old.fset,
                       old.fdel, old.__doc__)
    elif isinstance(old, classmethod):
        new = classmethod(recorder.wrap(old.__func__, name, layer))
    else:
        new = recorder.wrap(old, name, layer)
    patcher.patch(owner, attr, new)


def _wrap_all(patcher, recorder, owner, attrs: Iterable[str], layer: str,
              prefix: str) -> None:
    for attr in attrs:
        wrap_attr(patcher, recorder, owner, attr, f"{prefix}.{attr}",
                  layer)


# ----------------------------------------------------------------------
# simulator, verifiers, set-up (strictly nested: Aggregate)
# ----------------------------------------------------------------------

def install_sim_probes(patcher: Patcher, agg: Aggregate) -> None:
    """Spans for every simulator layer, the verifiers and set-up."""
    import gc

    import repro.campaign.runner as runner_mod
    import repro.experiments.figures as figures_mod
    import repro.modelcheck.explorer as explorer_mod
    import repro.staticcheck as staticcheck_mod
    import repro.staticcheck.graph as graph_mod
    from repro.campaign import RunSpec
    from repro.classify.misses import MissClassifier
    from repro.classify.updates import UpdateClassifier
    from repro.engine.simulator import ControlledSimulator, Simulator
    from repro.memsys.cache import Cache
    from repro.memsys.directory import Directory
    from repro.memsys.memory import MemoryModule
    from repro.memsys.writebuffer import WriteBuffer
    from repro.network.fabric import Network
    from repro.protocols.base import NodeCtrl
    from repro.runtime.machine import Machine
    from repro.runtime.processor import Processor

    # -- engine: the run loops, scheduling, and attribution of every
    # -- scheduled callback to the layer that owns it
    _wrap_all(patcher, agg, Simulator, ("run",), "engine", "Simulator")
    _wrap_all(patcher, agg, ControlledSimulator, ("run", "step"),
              "engine", "ControlledSimulator")

    def attributing(attr: str) -> Callable:
        fn = vars(Simulator)[attr]
        traced = agg.wrap(fn, f"Simulator.{attr}", "engine")

        @functools.wraps(fn)
        def schedule(self, when, callback, *args):
            callback = agg.bookkeeping(agg.callback, callback)
            return traced(self, when, callback, *args)
        setattr(schedule, TRACED, True)
        return schedule

    for attr in ("schedule", "at"):
        patcher.patch(Simulator, attr, attributing(attr))
    # the workloads free each spec's or item's cyclic garbage right
    # after it; a layer of its own keeps that out of the residual
    patcher.patch(gc, "collect", agg.wrap(gc.collect, "gc.collect", "gc"))
    # the controlled simulator's queue is snapshotted and structurally
    # encoded by the model checker, so its events stay untouched; the
    # callback is attributed when it is popped for execution instead
    _wrap_all(patcher, agg, ControlledSimulator, ("schedule", "at"),
              "engine", "ControlledSimulator")
    pop = vars(ControlledSimulator)["_pop_controlled"]

    traced_pop = agg.wrap(pop, "ControlledSimulator._pop_controlled",
                          "engine")

    @functools.wraps(pop)
    def pop_controlled(self):
        when, seq, fn, args = traced_pop(self)
        return when, seq, agg.bookkeeping(agg.callback, fn), args
    setattr(pop_controlled, TRACED, True)
    patcher.patch(ControlledSimulator, "_pop_controlled", pop_controlled)

    # -- runtime: machines and processors
    _wrap_all(patcher, agg, Processor, PROCESSOR_METHODS, "runtime",
              "Processor")
    _wrap_all(patcher, agg, Machine, MACHINE_METHODS, "runtime", "Machine")
    spawn = vars(Machine)["spawn"]

    @functools.wraps(spawn)
    def traced_spawn(self, node, program, factory=None):
        program = agg.generator(program, "thread.resume", "sync")
        if factory is not None:
            inner = factory

            def factory():
                return agg.generator(inner(), "thread.resume", "sync")
        return spawn(self, node, program, factory)
    patcher.patch(Machine, "spawn",
                  agg.wrap(traced_spawn, "Machine.spawn", "runtime"))

    # -- protocols: processor-side entry points and message deliveries
    _wrap_all(patcher, agg, NodeCtrl, public_functions(NodeCtrl),
              "protocols", "NodeCtrl")
    register = vars(Network)["register"]

    @functools.wraps(register)
    def traced_register(self, node, handler, dispatch=None):
        handler = agg.wrap(handler, "deliver", "protocols")
        if dispatch is not None:
            for i, h in enumerate(dispatch):
                if h is not None:
                    dispatch[i] = agg.wrap(h, "deliver", "protocols")
        return register(self, node, handler, dispatch)
    patcher.patch(Network, "register", traced_register)

    # -- memsys, network, classify
    for cls in (Cache, WriteBuffer, MemoryModule):
        _wrap_all(patcher, agg, cls, public_functions(cls), "memsys",
                  cls.__name__)
    _wrap_all(patcher, agg, Directory,
              [n for n in public_functions(Directory)
               if n not in ("acquire", "release")], "memsys", "Directory")
    _wrap_directory_handoffs(patcher, agg, Directory)
    _wrap_all(patcher, agg, Network, ("post", "send"), "network",
              "Network")
    for cls in (MissClassifier, UpdateClassifier):
        _wrap_all(patcher, agg, cls,
                  [n for n in public_functions(cls)
                   if n.startswith("record_")], "classify", cls.__name__)

    # -- verifiers
    _wrap_all(patcher, agg, explorer_mod,
              ("canonical_key", "check_state_invariants", "explore"),
              "modelcheck", "modelcheck")
    wrap_attr(patcher, agg, graph_mod, "check_spec_graph",
              "staticcheck.check_spec_graph", "staticcheck")
    wrap_attr(patcher, agg, staticcheck_mod, "check_spec_graph",
              "staticcheck.check_spec_graph", "staticcheck")

    install_protospec_probes(patcher, agg)

    # -- experiments and campaign
    _wrap_all(patcher, agg, figures_mod, ("figure_points", "figure_table"),
              "experiments", "experiments")
    wrap_attr(patcher, agg, RunSpec, "key", "RunSpec.key", "campaign")
    wrap_attr(patcher, agg, runner_mod, "execute_spec",
              "campaign.execute_spec", "campaign")


def _wrap_directory_handoffs(patcher: Patcher, agg: Aggregate,
                             Directory) -> None:
    """``Directory.acquire/release`` run a transaction body as soon as
    its entry is free.  The body is protocol code, so it runs as a span
    of the layer that defines it, like a scheduled callback.  A queued
    ``(fn, args)`` pair stays untouched (the model checker encodes it);
    a body is wrapped only on its way to run."""
    acquire = agg.wrap(vars(Directory)["acquire"], "Directory.acquire",
                       "memsys")
    release = agg.wrap(vars(Directory)["release"], "Directory.release",
                       "memsys")

    @functools.wraps(acquire)
    def traced_acquire(self, block, fn, *args):
        ent = self._entries.get(block)
        if ent is None or not ent.busy:
            fn = agg.bookkeeping(agg.callback, fn)
        return acquire(self, block, fn, *args)

    @functools.wraps(release)
    def traced_release(self, block):
        ent = self._entries.get(block)
        if ent is not None and ent.queue:
            fn, args = ent.queue[0]
            ent.queue[0] = (agg.bookkeeping(agg.callback, fn), args)
        return release(self, block)

    for attr, new in (("acquire", traced_acquire),
                      ("release", traced_release)):
        setattr(new, TRACED, True)
        patcher.patch(Directory, attr, new)


def install_protospec_probes(patcher: Patcher, agg: Aggregate) -> None:
    """Set-up paid once per process: protocol synthesis, dispatch
    compilation, spec hashing."""
    import repro.campaign.spec as spec_mod
    import repro.protocols.base as base_mod
    import repro.protospec as protospec_mod

    wrap_attr(patcher, agg, protospec_mod, "get_spec",
              "protospec.get_spec", "protospec")
    wrap_attr(patcher, agg, base_mod, "compile_dispatch",
              "protospec.compile_dispatch", "protospec")
    wrap_attr(patcher, agg, spec_mod, "spec_hash", "protospec.spec_hash",
              "protospec")


def dump_totals(path: str, totals) -> None:
    """Write the aggregated spans out (one JSON object per span name)."""
    import json
    import os

    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        for t in totals:
            fh.write(json.dumps(t.__dict__, sort_keys=True) + "\n")


def count(totals, *names: str) -> int:
    wanted = set(names)
    return sum(t.calls for t in totals if t.name in wanted)


def layer_self_ns(totals) -> Dict[str, int]:
    out: Dict[str, int] = {}
    for t in totals:
        out[t.layer] = out.get(t.layer, 0) + t.self_ns
    return out


# ----------------------------------------------------------------------
# serving (overlapping async spans: SpanLog)
# ----------------------------------------------------------------------

#: header carrying the request ID from the router to a gateway
REQUEST_HEADER = "X-Perfbench-Request"


class _FirstLine:
    """Stream reader proxy noting when a request's first line arrived,
    so a keep-alive connection's idle wait is not counted as parsing."""

    __slots__ = ("reader", "at", "clock")

    def __init__(self, reader, clock) -> None:
        self.reader = reader
        self.clock = clock
        self.at = None

    async def readline(self):
        line = await self.reader.readline()
        if self.at is None:
            self.at = self.clock()
        return line

    def __getattr__(self, name):
        return getattr(self.reader, name)


def install_serve_probes(patcher: Patcher, log: SpanLog) -> None:
    """Spans for the router, the gateways, their scheduler and the
    campaign calls they make.  Worker processes are not traced: their
    compute is the record's ``elapsed_s``."""
    import repro.campaign.spec as spec_mod  # noqa: F401 (spec_hash)
    import repro.cluster.router as router_mod
    import repro.experiments.figures as figures_mod
    import repro.service.api as api_mod
    import repro.service.gateway as gateway_mod
    from repro.campaign import ResultCache, RunRecord, RunSpec
    from repro.cluster.client import HttpPool
    from repro.cluster.planner import OrderedMerge
    from repro.service.scheduler import SimScheduler

    # request parsing; the router mints the request ID, a gateway
    # adopts the one the router's shard call carries
    for module, layer, mint in ((router_mod, "cluster", True),
                                (gateway_mod, "service", False)):
        original = vars(module)["read_request"]

        def make(original=original, layer=layer, mint=mint):
            @functools.wraps(original)
            async def read_request(reader, *args, **kwargs):
                proxy = _FirstLine(reader, log.clock)
                req = await original(proxy, *args, **kwargs)
                if req is None or proxy.at is None:
                    return req
                rid = (log.new_request_id() if mint else
                       req.headers.get(REQUEST_HEADER.lower()))
                log.request.set(rid)
                log.record("read_request", layer, proxy.at, log.clock(),
                           parent=None, rid=rid)
                return req
            setattr(read_request, TRACED, True)
            return read_request
        patcher.patch(module, "read_request", make())

    for fname in ("run_from_request", "sweep_from_request",
                  "spec_from_request"):
        wrap_attr(patcher, log, api_mod, fname, f"api.{fname}", "service")
    for module, layer in ((gateway_mod, "service"),
                          (router_mod, "cluster")):
        for fname in ("json_response", "ndjson_line"):
            wrap_attr(patcher, log, module, fname, fname, layer)
    wrap_attr(patcher, log, gateway_mod.Gateway, "_dispatch",
              "Gateway._dispatch", "service")
    wrap_attr(patcher, log, router_mod.Router, "_dispatch",
              "Router._dispatch", "cluster")
    for attr in ("admit_many", "result", "_run_one"):
        wrap_attr(patcher, log, SimScheduler, attr,
                  f"SimScheduler.{attr}", "service")
    execute = vars(SimScheduler)["_execute"]

    @functools.wraps(execute)
    async def traced_execute(self, spec):
        record = await execute(self, spec)
        log.values.setdefault("exec_s", []).append(record.elapsed_s)
        return record
    patcher.patch(SimScheduler, "_execute", log.wrap(
        traced_execute, "SimScheduler._execute", "service"))

    # shard calls carry the request ID
    def with_request_header(fn, name):
        @functools.wraps(fn)
        async def call(*args, headers=None, **kwargs):
            rid = log.request.get()
            if rid is not None:
                headers = dict(headers or {})
                headers[REQUEST_HEADER] = rid
            return await fn(*args, headers=headers, **kwargs)
        return log.wrap(call, name, "cluster")
    patcher.patch(HttpPool, "request", with_request_header(
        vars(HttpPool)["request"], "HttpPool.request"))
    patcher.patch(router_mod, "open_stream", with_request_header(
        vars(router_mod)["open_stream"], "open_stream"))
    wrap_attr(patcher, log, router_mod, "plan_sweep", "plan_sweep",
              "cluster")
    wrap_attr(patcher, log, OrderedMerge, "put", "OrderedMerge.put",
              "cluster")

    # a figure sweep's points and table, which the router builds
    for fname in ("figure_points", "figure_table"):
        wrap_attr(patcher, log, figures_mod, fname, f"experiments.{fname}",
                  "experiments")

    # campaign keying and caching, as the serving layers call them
    wrap_attr(patcher, log, RunSpec, "key", "RunSpec.key", "campaign")
    cache_get = vars(ResultCache)["get"]

    @functools.wraps(cache_get)
    def traced_get(self, spec_or_key):
        record = cache_get(self, spec_or_key)
        log.values.setdefault("cache_hit", []).append(record is not None)
        return record
    patcher.patch(ResultCache, "get", log.wrap(
        traced_get, "ResultCache.get", "campaign"))
    wrap_attr(patcher, log, ResultCache, "put", "ResultCache.put",
              "campaign")
    for attr in ("to_jsonable", "from_jsonable"):
        wrap_attr(patcher, log, RunRecord, attr, f"RunRecord.{attr}",
                  "campaign")


def spans_named(spans, *names: str) -> List:
    wanted = set(names)
    return [s for s in spans if s.name in wanted]


# ----------------------------------------------------------------------
# simulator-layer metrics from aggregated spans
# ----------------------------------------------------------------------

SIM_LAYERS = ("engine", "runtime", "protocols", "memsys", "network",
              "classify", "sync")


def uncovered_ns(agg, totals, cost, wall_ns: int) -> int:
    """Traced time no layer's span accounts for: time outside every
    span, less the wrappers' own cost there, plus the self time of the
    campaign envelope around each spec (workload glue that no finer
    span covers)."""
    outside = wall_ns - agg.covered_ns - agg.top_calls * cost.outer
    envelope = sum(t.self_ns for t in totals
                   if t.name == "campaign.execute_spec")
    return max(0, int(outside)) + envelope


def attributed_ns(totals) -> int:
    """Self time the spans attribute to a layer (all but the campaign
    envelope, whose self time counts as uncovered)."""
    return sum(t.self_ns for t in totals
               if t.name != "campaign.execute_spec")


def uncovered_share(totals, other_ns: int) -> float:
    attributed = attributed_ns(totals)
    return other_ns / (attributed + other_ns)


def sim_layer_metrics(totals, events: int, other_ns: int,
                      untraced_s: float) -> dict:
    """The simulator-layer rows shared by figsweep and verify.

    The split comes from the traced run; the total from the untraced
    one: even with the calibrated wrapper cost taken out, traced self
    times add up to more than the untraced run took (a wrapper costs
    more in a real run than in the calibration loop), so every layer's
    time is scaled by the same factor to add up to the untraced time."""
    selfs = layer_self_ns(totals)
    attributed = attributed_ns(totals) + other_ns
    scale = untraced_s * 1e9 / attributed if attributed else 0.0
    per = ((lambda ns: ns * scale / events) if events
           else (lambda ns: 0.0))
    out = {f"{layer}.ns_per_event": per(selfs.get(layer, 0))
           for layer in SIM_LAYERS}
    out["gc.ns_per_event"] = per(selfs.get("gc", 0))
    out["other.ns_per_event"] = per(other_ns)
    memsys = sum(t.calls for t in totals if t.layer == "memsys")
    classify = sum(t.calls for t in totals if t.layer == "classify")
    out.update({
        "engine.events": events,
        "runtime.ops": count(totals, "Processor._resume"),
        "protocols.deliveries": count(totals, "deliver"),
        "protocols.proc_ops": count(totals,
                                    *(f"NodeCtrl.{op}" for op in PROC_OPS)),
        "memsys.calls": memsys,
        "network.messages": count(totals, "Network.post", "Network.send"),
        "classify.calls": classify,
        "sync.resumes": count(totals, "thread.resume"),
    })
    return out


def setup_metrics(totals) -> dict:
    return {
        "protospec.setup_s": sum(t.self_ns for t in totals
                                 if t.layer == "protospec") / 1e9,
        "experiments.points_s": sum(
            t.total_ns for t in totals
            if t.name == "experiments.figure_points") / 1e9,
    }


def campaign_key_us(totals) -> float:
    keys = [t for t in totals if t.name == "RunSpec.key"]
    calls = sum(t.calls for t in keys)
    return sum(t.total_ns for t in keys) / calls / 1e3 if calls else 0.0
