"""Core hot-path microbenchmarks: events/sec, with a regression floor.

Three kernels cover the layers the hot-path work targets:

* **churn** -- a bare :class:`~repro.engine.Simulator` running
  self-rescheduling callback chains: the event core alone, no machine.
* **lock** -- the MCS lock synthetic program per protocol: the
  spin/park/wake path, write buffer, fabric and directory together.
* **barrier** -- the dissemination barrier per protocol: fan-out heavy
  traffic through the fabric accumulators.

Each kernel reports **events per second of wall clock** (simulator
events processed / elapsed), the package's headline throughput number.
Results are written to the JSON file named by ``REPRO_BENCH_CORE_JSON``
(the CI artifact next to ``BENCH_figures*.json``).

Every rate is also checked against ``benchmarks/baselines/
core_floor.json``.  The floors are deliberately conservative (a few
times below the development-machine rates) so slow CI runners pass;
the test fails when a rate drops below ``0.7 * floor`` -- a >30%
regression against a bound that is already generous.  If you make the
core *faster*, ratchet the floors up with the measured rates printed
in the bench JSON.

These tests live under ``benchmarks/`` and are NOT part of the tier-1
suite (``testpaths = tests``); CI runs them in the ``perf-smoke`` job:

    PYTHONPATH=src REPRO_BENCH_CORE_JSON=BENCH_core.json \
        python -m pytest benchmarks/test_core_microbench.py -q
"""

import json
import os
import time

import pytest

from repro.config import MachineConfig, Protocol
from repro.engine import Simulator
from repro.workloads import run_barrier_workload, run_lock_workload

FLOOR_FILE = os.path.join(os.path.dirname(__file__), "baselines",
                          "core_floor.json")
#: fail when a measured rate is more than 30% below its floor
REGRESSION_TOLERANCE = 0.7

_RESULTS = {}


def _floors():
    with open(FLOOR_FILE, encoding="utf-8") as fh:
        return json.load(fh)["events_per_sec_floor"]


def _record(name: str, events: int, elapsed: float) -> float:
    rate = events / elapsed
    _RESULTS[name] = {"events": events, "elapsed_s": round(elapsed, 4),
                      "events_per_sec": round(rate)}
    floors = _floors()
    assert name in floors, f"no floor for {name}; add it to {FLOOR_FILE}"
    floor = floors[name]
    assert rate >= floor * REGRESSION_TOLERANCE, (
        f"{name}: {rate:,.0f} events/sec is >30% below the checked-in "
        f"floor of {floor:,} (tolerance {REGRESSION_TOLERANCE})")
    return rate


def teardown_module(module) -> None:
    out = os.environ.get("REPRO_BENCH_CORE_JSON")
    if out and _RESULTS:
        with open(out, "w", encoding="utf-8") as fh:
            json.dump({"benchmarks": _RESULTS}, fh, indent=2,
                      sort_keys=True)


# ----------------------------------------------------------------------
# kernels
# ----------------------------------------------------------------------

def test_scheduler_churn():
    """Pure event-core throughput: no machine, just schedule/dispatch."""
    sim = Simulator()
    remaining = 200_000
    chains = 32

    def tick():
        nonlocal remaining
        remaining -= 1
        if remaining > 0:
            sim.schedule(1 + (remaining & 7), tick)

    for i in range(chains):
        sim.schedule(i & 3, tick)
    t0 = time.perf_counter()
    sim.run()
    elapsed = time.perf_counter() - t0
    _record("churn", sim.events_processed, elapsed)


@pytest.mark.parametrize("proto", [Protocol.WI, Protocol.PU, Protocol.CU])
def test_lock_contention_kernel(proto):
    cfg = MachineConfig(num_procs=8, protocol=proto)
    t0 = time.perf_counter()
    res = run_lock_workload(cfg, "MCS", total_acquires=800)
    elapsed = time.perf_counter() - t0
    _record(f"lock-{proto.value}", res.result.events, elapsed)


@pytest.mark.parametrize("proto", [Protocol.WI, Protocol.PU, Protocol.CU])
def test_barrier_kernel(proto):
    cfg = MachineConfig(num_procs=8, protocol=proto)
    t0 = time.perf_counter()
    res = run_barrier_workload(cfg, "db", episodes=40)
    elapsed = time.perf_counter() - t0
    _record(f"barrier-{proto.value}", res.result.events, elapsed)


# ----------------------------------------------------------------------
# allocation regression
# ----------------------------------------------------------------------

@pytest.mark.parametrize("proto", [Protocol.WI, Protocol.PU, Protocol.CU])
def test_steady_state_allocations(proto):
    """The hot path retains nothing in steady state.

    After a warm-up run (caches filled, directory entries built), net
    tracemalloc growth across the rest of an MCS lock kernel must stay
    under a per-event byte budget from ``core_floor.json``.  Each
    message and event is freed once delivered, so the growth is < 1
    byte per event (0.38-0.77 for WI/PU/CU; ~27 before the calendar
    queue).  The budget (8 B/event) leaves headroom for counters and
    classifier tables that legitimately grow with new blocks.
    """
    import tracemalloc

    from repro.isa.ops import Compute
    from repro.runtime import Machine
    from repro.sync.locks import make_lock

    with open(FLOOR_FILE, encoding="utf-8") as fh:
        budget = json.load(fh)["steady_state_alloc_bytes_per_event"]

    cfg = MachineConfig(num_procs=4, protocol=proto)
    machine = Machine(cfg)
    lock = make_lock("MCS", machine, home=0)

    def program(node):
        for _ in range(80):
            token = yield from lock.acquire(node)
            yield Compute(10)
            yield from lock.release(node, token)

    machine.spawn_all(program)
    machine.prepare()
    machine.sim.run(until=3000)          # warm-up: fills the caches
    e0 = machine.sim.events_processed
    tracemalloc.start()
    try:
        machine.sim.run()
    finally:
        net_growth, _peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
    events = machine.sim.events_processed - e0
    assert events > 5000, "kernel too small to measure steady state"
    per_event = net_growth / events
    _RESULTS[f"alloc-{proto.value}"] = {
        "events": events, "net_growth_bytes": net_growth,
        "bytes_per_event": round(per_event, 3)}
    assert per_event <= budget, (
        f"steady-state allocations regressed: {per_event:.2f} B/event "
        f"net growth exceeds the {budget} B/event budget "
        f"(is something keeping messages or events past delivery?)")
    machine.finish()
