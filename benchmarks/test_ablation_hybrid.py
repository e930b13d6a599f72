"""Ablation A7: per-block protocol selection (the HYBRID machine).

The paper's conclusion -- "for multiprocessors that can support more
than one coherence protocol both the protocol and implementation should
be taken into account" -- quantified: a workload mixing a streaming
producer-consumer phase (WI's strength: whole-block transfers) with a
contended ticket lock (the update protocols' strength) runs under each
fixed protocol and under a per-construct assignment.
"""

from repro.config import MachineConfig, Protocol
from repro.isa.ops import Compute, Fence, Read, Write
from repro.metrics import format_table
from repro.runtime import Machine
from repro.sync import IdealBarrier, TicketLock

from conftest import run_once

P = 16
WORDS = 16


def run_kernel(protocol, episodes):
    """The A7 kernel's RunResult; under HYBRID the lock's blocks run CU
    and every other block WI."""
    m = Machine(MachineConfig(num_procs=P, protocol=protocol),
                max_events=50_000_000)
    stream = [m.memmap.alloc_words(i, WORDS, f"out{i}") for i in range(P)]
    if protocol is Protocol.HYBRID:
        with m.memmap.use_protocol(Protocol.CU):
            lock = TicketLock(m)
    else:
        lock = TicketLock(m)
    bar = IdealBarrier(m)

    def prog(node):
        left = (node - 1) % P
        for ep in range(episodes):
            for i, addr in enumerate(stream[node]):
                yield Write(addr, ep * 100 + i)
            yield Fence()
            yield from bar.wait(node)
            for addr in stream[left]:
                yield Read(addr)
            tok = yield from lock.acquire(node)
            yield Compute(25)
            yield from lock.release(node, tok)
            yield from bar.wait(node)

    m.spawn_all(prog)
    return m.run()


def _run(protocol, episodes):
    r = run_kernel(protocol, episodes)
    return [r.total_cycles / episodes, r.misses["total"],
            r.updates["total"], r.network.bytes // episodes]


def _sweep(scale):
    episodes = max(4, scale.barrier_episodes // 4)
    rows = []
    for proto, label in ((Protocol.WI, "fixed WI"),
                         (Protocol.PU, "fixed PU"),
                         (Protocol.CU, "fixed CU"),
                         (Protocol.HYBRID,
                          "hybrid (stream=WI, lock=CU)")):
        rows.append([label] + _run(proto, episodes))
    return rows


def test_ablation_hybrid_protocol_selection(benchmark, scale):
    rows = run_once(benchmark, _sweep, scale)
    print()
    print(format_table(
        ["assignment", "cycles/episode", "misses", "updates",
         "bytes/episode"],
        rows,
        title=f"Ablation: per-block protocol selection ({P} processors)"))
    cycles = {r[0]: r[1] for r in rows}
    hybrid = cycles["hybrid (stream=WI, lock=CU)"]
    assert hybrid <= min(cycles[k] for k in cycles
                         if k.startswith("fixed")) * 1.02
