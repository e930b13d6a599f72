"""Self-tests for the benchmark's own code.

Run from the checkout root::

    PYTHONPATH=src python3 -m pytest perfbench/test_perfbench.py -q
"""

import asyncio
import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import common  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402
import serve  # noqa: E402
from tracing import (  # noqa: E402
    Aggregate, Overhead, Patcher, Span, SpanLog, corrected, self_times,
    union_length,
)


def benchmark_spec():
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as fh:
        return json.load(fh)


# ----------------------------------------------------------------------
# the percentile rule
# ----------------------------------------------------------------------

def test_supported_percentile_leaves_ten_samples_beyond():
    assert common.supported_percentile(1000) == 99.0
    assert common.supported_percentile(10) == 0.0
    assert common.supported_percentile(0) == 0.0
    n = 144
    pct = common.supported_percentile(n)
    samples = list(range(1, n + 1))
    beyond = [x for x in samples if x > common.percentile(samples, pct)]
    assert len(beyond) == 10


def test_percentile_is_nearest_rank():
    samples = [5, 1, 4, 2, 3]
    assert common.percentile(samples, 50) == 3
    assert common.percentile(samples, 100) == 5
    assert common.percentile(samples, 1) == 1
    assert common.percentile(list(range(1, 1001)), 99) == 990


def test_latency_summary_reports_count_and_supported_percentile():
    def step(n):
        s = serve.Step("x", 60, 1.0)
        s.outcomes = [serve.Outcome("run", i / 1000, True)
                      for i in range(1, n + 1)]
        return s
    few = serve.latency_summary(step(500))
    assert few["n"] == 500 and few["max_supported_pct"] == 98.0
    assert sorted(few["ms"]) == ["p50", "p90", "p95", "p98"]
    assert few["ms"]["p98"] == 490.0
    odd = serve.latency_summary(step(600))
    assert "p99" not in odd["ms"] and odd["ms"]["p98.33"] == 590.0
    enough = serve.latency_summary(step(1000))
    assert enough["max_supported_pct"] == 99.0
    assert sorted(enough["ms"]) == ["p50", "p90", "p95", "p99"]
    assert enough["ms"]["p99"] == 990.0 and enough["ms"]["p50"] == 500.0


# ----------------------------------------------------------------------
# self time
# ----------------------------------------------------------------------

def span(sid, start, end, parent=None, name="s"):
    return Span(sid, name, "x", start, end, parent, None)


def test_union_length_merges_overlaps():
    assert union_length([(0, 10), (5, 15), (20, 25)]) == 20
    assert union_length([(0, 10), (2, 3)]) == 10
    assert union_length([]) == 0
    assert union_length([(5, 5)]) == 0


def test_self_time_of_overlapping_and_outliving_children():
    spans = [
        span(1, 0, 100),
        span(2, 10, 30, parent=1),    # overlaps the next child
        span(3, 20, 50, parent=1),
        span(4, 90, 120, parent=1),   # a task that outlives its parent
        span(5, 25, 45, parent=3),    # grandchild: not the parent's
    ]
    got = self_times(spans)
    assert got[1] == 100 - 40 - 10
    assert got[3] == 30 - 20
    assert got[2] == 20 and got[4] == 30 and got[5] == 20


def test_span_log_tracks_parents_across_concurrent_tasks():
    ticks = iter(range(0, 10_000, 10))
    log = SpanLog(clock=lambda: next(ticks))

    async def leaf():
        await asyncio.sleep(0)

    async def parent():
        await asyncio.gather(log_leaf(), log_leaf())

    log_leaf = log.wrap(leaf, "leaf", "x")
    asyncio.run(log.wrap(parent, "parent", "x")())
    by_name = {}
    for s in log.spans:
        by_name.setdefault(s.name, []).append(s)
    (top,) = by_name["parent"]
    assert top.parent is None
    assert [s.parent for s in by_name["leaf"]] == [top.sid, top.sid]
    # the two leaves overlap in time; the parent's self time subtracts
    # their union, not their sum
    selfs = self_times(log.spans)
    covered = union_length([(s.start, s.end) for s in by_name["leaf"]])
    assert selfs[top.sid] == top.duration - covered


def test_aggregate_self_time_and_overhead_correction():
    ticks = iter(range(0, 10_000, 10))
    agg = Aggregate(clock=lambda: next(ticks))

    def child():
        return 1

    traced_child = agg.wrap(child, "child", "a")

    def parent():
        return traced_child() + traced_child()

    assert agg.wrap(parent, "parent", "b")() == 2
    by = {t.name: t for t in agg.totals()}
    # each span reads the clock twice; a child's window is one tick
    assert by["child"].calls == 2 and by["child"].self_ns == 20
    assert by["parent"].kids == 2 and by["parent"].descendants == 2
    assert by["parent"].self_ns == by["parent"].total_ns - 20
    fixed = {t.name: t for t in corrected(agg.totals(), Overhead(5, 10))}
    assert fixed["child"].self_ns == 20 - 2 * 5
    assert fixed["parent"].self_ns == by["parent"].self_ns - 5 - 2 * 10
    assert fixed["parent"].total_ns == by["parent"].total_ns - 5 - 2 * 15


def test_patcher_restores_and_reports():
    class Target:
        def method(self):
            return "original"

    original = vars(Target)["method"]
    patcher = Patcher()
    patcher.patch(Target, "method", lambda self: "patched")
    assert Target().method() == "patched"
    assert patcher.unrestored() == ["Target.method"]
    patcher.restore()
    assert vars(Target)["method"] is original
    assert patcher.unrestored() == []
    Target.method = lambda self: "changed behind its back"
    assert patcher.unrestored() == ["Target.method"]


# ----------------------------------------------------------------------
# open-loop due-time accounting
# ----------------------------------------------------------------------

def test_latency_counts_from_the_due_time_not_the_send_time():
    """One connection, a first response that stalls 200 ms: requests
    due behind it wait for the connection, and their latency includes
    that wait (coordinated omission would hide it)."""
    async def scenario():
        stalled = []

        async def handle(reader, writer):
            while True:
                line = await reader.readline()
                if not line:
                    break
                while (await reader.readline()) not in (b"\r\n", b""):
                    pass
                if not stalled:
                    stalled.append(True)
                    await asyncio.sleep(0.2)
                writer.write(b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n"
                             b"\r\n{}")
                await writer.drain()
            writer.close()

        server = await asyncio.start_server(handle, "127.0.0.1", 0)
        port = server.sockets[0].getsockname()[1]
        schedule = [serve.Request(i * 0.01, "result", (f"k{i}",))
                    for i in range(5)]
        try:
            return await serve.open_loop(port, schedule, {}, {}, limit=1)
        finally:
            server.close()
            await server.wait_closed()

    responses, lateness = asyncio.run(scenario())
    latency = {req.keys[0]: lat for req, lat, status, _ in responses}
    assert all(status == 200 for _, _, status, _ in responses)
    assert latency["k0"] >= 0.2
    # k4 was due 40 ms in; it could only be sent after k0 finished
    assert latency["k4"] >= 0.2 - 0.04 - 0.01
    assert len(lateness) == 5 and max(lateness) < 0.15


def test_client_never_opens_more_connections_than_its_limit():
    class Counting(serve.Client):
        peak = 0

        @property
        def open(self):
            return self._open

        @open.setter
        def open(self, value):
            self._open = value
            Counting.peak = max(Counting.peak, value)

    async def scenario():
        async def handle(reader, writer):
            while True:
                line = await reader.readline()
                if not line:
                    break
                while (await reader.readline()) not in (b"\r\n", b""):
                    pass
                await asyncio.sleep(0.01)
                if line.startswith(b"POST"):        # close-delimited
                    writer.write(b"HTTP/1.1 200 OK\r\n\r\n{}")
                    break
                writer.write(b"HTTP/1.1 200 OK\r\nContent-Length: 2"
                             b"\r\n\r\n{}")
                await writer.drain()
            writer.close()

        server = await asyncio.start_server(handle, "127.0.0.1", 0)
        client = Counting(server.sockets[0].getsockname()[1], 2)
        calls = [client.call("GET", "/a") for _ in range(6)]
        calls += [client.call("POST", "/b", b"{}", stream=True)
                  for _ in range(4)]
        results = await asyncio.gather(*calls)
        await client.close()
        server.close()
        await server.wait_closed()
        return results

    results = asyncio.run(scenario())
    assert [status for status, _ in results] == [200] * 10
    assert Counting.peak == 2


def test_schedule_is_seeded_and_evenly_spaced():
    import random
    pool = [f"p{i}" for i in range(20)]
    cold = [f"c{i}" for i in range(5)]
    sweep = pool[:9]
    a = serve.make_schedule(random.Random(7), pool, cold, sweep, 100.0, 300)
    b = serve.make_schedule(random.Random(7), pool, cold, sweep, 100.0, 300)
    assert a == b
    assert {r.keys for r in a if r.kind == "sweep"} == {tuple(sweep)}
    main = [r for r in a if round(r.due * 100, 6) == round(r.due * 100)]
    assert len(main) == 300
    # every seed offers each kind in the same, exact share
    c = serve.make_schedule(random.Random(8), pool, cold, sweep, 100.0, 300)
    assert a != c
    for sched in (a, c):
        kinds = [r.kind for r in sched]
        assert kinds.count("sweep") == round(300 * serve.SHARE_SWEEP)
        assert kinds.count("result") == round(300 * serve.SHARE_RESULT)
        assert sum(r.keys[0].startswith("c") for r in sched) == 2 * 5
    # every cold spec is sent twice, the duplicate right behind it
    cold_runs = [r for r in a if r.keys[0].startswith("c")]
    assert len(cold_runs) % 2 == 0
    for key in {r.keys[0] for r in cold_runs}:
        first, dup = [r for r in cold_runs if r.keys[0] == key]
        assert abs(dup.due - first.due - serve.DUPLICATE_DELAY_S) < 1e-9


def test_sweep_response_needs_every_record_the_table_and_done():
    import serve_server

    records = {k: {"key": k, "sim": {"events": i}, "elapsed_s": 0.1}
               for i, k in enumerate(("a", "b"))}
    catalog = {"expected": {k: serve_server.canonical_record(r)
                            for k, r in records.items()},
               "sweep": {"keys": ["a", "b"], "table": "T"}}
    req = serve.Request(0.0, "sweep", ("a", "b"))

    def stream(table="T", done=True, events_of_b=1):
        served = {"a": dict(records["a"], elapsed_s=0.2),
                  "b": dict(records["b"], sim={"events": events_of_b})}
        events = [{"event": "start"}]
        events += [{"event": "spec", "index": i, "key": k, "ok": True,
                    "record": served[k]} for i, k in enumerate("ab")]
        if table is not None:
            events.append({"event": "table", "text": table})
        if done:
            events.append({"event": "done", "ok": True})
        return "\n".join(json.dumps(e) for e in events).encode()

    # elapsed_s describes the materialization, not the result
    assert serve.check_response(req, 200, stream(), catalog)
    assert not serve.check_response(req, 200, stream(table="U"), catalog)
    assert not serve.check_response(req, 200, stream(table=None), catalog)
    assert not serve.check_response(req, 200, stream(done=False), catalog)
    assert not serve.check_response(req, 200, stream(events_of_b=2),
                                    catalog)
    assert not serve.check_response(req, 500, stream(), catalog)


# ----------------------------------------------------------------------
# host-speed reference
# ----------------------------------------------------------------------

def test_reference_work_is_fixed():
    assert reference.reference() == reference.EXPECTED


def test_pacer_samples_in_proportion_to_operation_time(monkeypatch):
    monkeypatch.setattr(reference, "timed", lambda: 0.01)
    pacer = reference.Pacer(every_s=0.2)
    pacer.after(0.5)                        # two samples, 0.1 s owed
    pacer.after(0.15)                       # the owed 0.1 makes a third
    assert pacer.take() == [(0.5, 0.01), (0.5, 0.01), (0.65, 0.01)]
    pacer.after(0.05)                       # stamps restart each pass
    assert pacer.take() == [(0.05, 0.01)]   # a pass gets at least one


def test_operations_take_the_speed_of_the_samples_around_them():
    nominal = reference.NOMINAL_S
    # the host runs at nominal speed for the first 3 s of the pass and
    # twice as slow after; "d" has no sample within the window
    samples = [(0.5, nominal), (1.0, nominal), (3.5, 2 * nominal),
               (4.0, 2 * nominal)]
    out = reference.at_nominal_speed(
        {"a": 1.0, "b": 3.0, "c": 1.0, "d": 2.0}, samples, window_s=0.4)
    assert out["a"] == pytest.approx(1.0)       # samples at 0.5, 1.0
    assert out["b"] == pytest.approx(1.8)       # at 1.0, 3.5, 4.0
    assert out["c"] == pytest.approx(0.5)       # at 4.0
    assert out["d"] == pytest.approx(1.0)       # none; nearest 4.0


def test_setup_clock_brackets_the_setup_and_leaves_out_its_samples(
        monkeypatch):
    cpu = iter([0.5, 0.6, 2.6])     # start, after sampling, at ready
    speeds = iter([0.8, 1.2])       # before and after the set-up
    monkeypatch.setattr(common, "cpu_seconds", lambda: next(cpu))
    monkeypatch.setattr(common, "host_speed", lambda: next(speeds))
    clock = common.SetupClock()
    assert clock.ready() == pytest.approx({"cpu_s": 2.5, "speed": 1.0})


def test_op_samples_divide_each_pass_by_its_own_speed():
    nominal = reference.NOMINAL_S
    out = common.op_samples(
        [{"a": 1.0, "b": 3.0}, {"a": 2.0, "b": 6.0}],
        [[(1.0, nominal)], [(1.0, 1.5 * nominal), (8.0, 2.5 * nominal)]])
    assert out["speed_factors"] == pytest.approx([1.0, 2.0])
    assert out["raw_op_seconds"] == {"a": [1.0, 2.0], "b": [3.0, 6.0]}
    assert out["op_seconds"]["a"] == pytest.approx([1.0, 2.0 / 1.5])
    assert out["op_seconds"]["b"] == pytest.approx([3.0, 3.0])


# ----------------------------------------------------------------------
# metric names match BENCHMARK.json
# ----------------------------------------------------------------------

def test_end_to_end_names_match_benchmark_json():
    names = {m["name"] for m in benchmark_spec()["end_to_end"]}
    nominal = [(0.0, reference.NOMINAL_S)]
    sim = run.end_to_end_sim(
        "figsweep", [0.5, 0.6, 0.7],
        {**common.op_samples([{f"op{i}": 0.01 * (i + 1)
                               for i in range(20)}], [nominal]),
         "rss_mb": 40.0, "events": 1000})
    assert set(sim) == names
    verify = run.end_to_end_sim(
        "verify", [0.5],
        {**common.op_samples([{"litmus/a/wi": 1.0, "graph/wi": 2.0}],
                             [nominal]),
         "rss_mb": 40.0,
         "counts": {"litmus/a/wi": {"schedules": 1, "states": 1},
                    "graph/wi": {"graph_states": 3}}})
    assert set(verify) == names

    def step(rate, latencies):
        s = serve.Step("x", rate, 1.0)
        s.outcomes = [serve.Outcome("run", x, True) for x in latencies]
        s.server = {"cpu_s": 1.0, "speed": 1.0, "rss_mb": 80.0}
        return s
    served = run.end_to_end_serve(
        {"steps": [step(60, [0.01] * 20), step(120, [0.02] * 20)],
         "setups": [2.0, 2.1, 2.2]})
    assert set(served) == names
    for metrics in (sim, verify, served):
        assert all(m["unit"] for m in metrics.values())


def test_per_layer_names_match_benchmark_json():
    import figsweep
    import probes
    import serve_server
    import verify
    from repro.service.metrics import MetricsRegistry

    names = {m["name"] for m in benchmark_spec()["per_layer"]}
    produced = set(probes.sim_layer_metrics([], 0, 0, 0.0))
    produced |= set(probes.setup_metrics([]))
    produced |= set(figsweep.sweep_metrics([], [], 0.0, 0.0))
    produced |= set(verify.verifier_metrics({}, [], 0.0, 0.0))

    class Owner:
        def __init__(self):
            self.registry = MetricsRegistry()
            for name in ("repro_singleflight_dedup_total",
                         "repro_admission_rejected_total",
                         "repro_router_retries_total",
                         "repro_router_sweep_dedup_total"):
                self.registry.counter(name, "")

    def step(layers):
        s = serve.Step("x", 60, 1.0)
        s.outcomes = [serve.Outcome("run", 0.01, True)]
        s.server = {"cpu_s": 1.0, "layers": layers}
        return s

    served = serve_server.layer_accumulators(SpanLog(), [Owner()],
                                             Owner(), [])
    produced |= set(run.per_layer_serve(
        {"steps": [step({}), step(served), step(served)]}))
    assert produced <= names, sorted(produced - names)
    assert names <= produced, sorted(names - produced)
