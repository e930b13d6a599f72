"""Shared helpers: statistics, run metadata, child-process plumbing.

Everything here is stdlib-only so ``run.py`` can start (and fail
cleanly) in a directory that holds no ``src/repro``.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import platform
import sys
import threading
import time
from typing import Dict, List, Optional, Sequence

import reference

#: where runs keep their scratch state (cache dirs, span dumps); the
#: benchmark runs from the checkout root, so this stays inside it
WORK_DIR = ".perfbench"

#: prefix of the one line a child prints when its set-up is done
READY_TAG = "PERFBENCH-READY"
#: prefix of the one line a child prints with its result object
RESULT_TAG = "PERFBENCH-RESULT"

#: minimum samples beyond a percentile before it may be reported
TAIL_SAMPLES = 10

#: reference samples a program process times before its set-up, and
#: again after it
SETUP_REFS = 6


def supported_percentile(n: int, tail: int = TAIL_SAMPLES) -> float:
    """The highest percentile (0-100) with at least ``tail`` of ``n``
    samples beyond it (0.0 when ``n`` is at most ``tail``)."""
    if n <= 0:
        return 0.0
    return max(0.0, 100.0 * (n - tail) / n)


def percentile(samples: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least
    ``pct`` percent of the samples at or below it."""
    if not samples:
        raise ValueError("percentile of no samples")
    ordered = sorted(samples)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[min(rank, len(ordered)) - 1]


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def fingerprint(seed: int) -> Dict[str, object]:
    """Run metadata recorded next to every result."""
    try:
        load = [round(x, 2) for x in os.getloadavg()]
    except OSError:
        load = []
    return {"seed": seed,
            "python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "nproc": os.cpu_count(),
            "cpu_model": cpu_model(),
            "loadavg_at_start": load}


def peak_rss_mb(usage) -> float:
    """``resource.getrusage(...).ru_maxrss`` (KiB on Linux) in MB."""
    return usage.ru_maxrss * 1024 / 1e6


def cpu_seconds(children: bool = False) -> float:
    """Host CPU seconds (user + system) this process has used since it
    started, interpreter start-up included; with ``children``, those of
    its children that have been waited for."""
    import resource

    usage = resource.getrusage(resource.RUSAGE_CHILDREN if children
                               else resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def host_speed() -> float:
    """The host's speed factor now (see ``reference.py``): the mean of
    ``SETUP_REFS`` timed references after an untimed warm-up one."""
    reference.timed()
    return reference.speed_factor(
        [reference.timed() for _ in range(SETUP_REFS)])


class SetupClock:
    """Host CPU seconds of a process's set-up at the reference's speed.

    Made first thing, it times the reference; ``ready()`` times it
    again and returns the CPU seconds the process has used (interpreter
    start-up included, the reference's own time not) and the mean of
    the two speed factors, which bracket the set-up."""

    def __init__(self) -> None:
        t0 = cpu_seconds()
        self.before = host_speed()
        self.sampling = cpu_seconds() - t0

    def ready(self) -> Dict[str, float]:
        cpu_s = cpu_seconds() - self.sampling
        return {"cpu_s": cpu_s, "speed": (self.before + host_speed()) / 2}


def metric(value: float, unit: str) -> Dict[str, object]:
    return {"value": value, "unit": unit}


def emit_tagged(tag: str, obj) -> None:
    sys.stdout.write(f"{tag} {json.dumps(obj, sort_keys=True)}\n")
    sys.stdout.flush()


def parse_tagged(line: str, tag: str) -> Optional[dict]:
    if line.startswith(tag + " "):
        return json.loads(line[len(tag) + 1:])
    return None


def child_env(root: str) -> Dict[str, str]:
    """Environment for program processes: ``src`` on the path, scratch
    files kept inside the checkout."""
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    tmp = os.path.join(root, WORK_DIR, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env["TMPDIR"] = tmp
    env["PYTHONHASHSEED"] = "0"
    return env


def layer_of_module(module: Optional[str]) -> str:
    """``repro.<subpackage>...`` -> the layer that owns it.

    The thread programs (``workloads``, ``isa``) count with ``sync``:
    they are the code a simulated processor runs."""
    if not module or not module.startswith("repro."):
        return "other"
    sub = module.split(".")[1]
    if sub in ("workloads", "isa"):
        return "sync"
    return sub


def repeat_passes(run_pass, seconds: float) -> list:
    """Run whole passes while the next one is predicted to end within
    half a pass of ``seconds`` (always at least one)."""
    passes = []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        passes.append(run_pass())
        last = time.perf_counter() - t0
        if time.perf_counter() - start + last / 2 > seconds:
            return passes


def merge_samples(per_pass: Sequence[Dict[str, float]]
                  ) -> Dict[str, List[float]]:
    """[{op: seconds}] per pass -> {op: [seconds per pass]}."""
    out: Dict[str, List[float]] = {}
    for sample in per_pass:
        for name, value in sample.items():
            out.setdefault(name, []).append(value)
    return out


def op_samples(per_pass: Sequence[Dict[str, float]],
               refs: Sequence[Sequence]) -> Dict[str, object]:
    """The result fields of timed passes: ``op_seconds``, each
    operation's CPU seconds per pass at the reference's nominal speed
    (``reference.at_nominal_speed`` with that pass's samples);
    ``raw_op_seconds``, as measured; ``speed_factors``, one per pass
    over all its samples."""
    return {"op_seconds": merge_samples(
                [reference.at_nominal_speed(p, r)
                 for p, r in zip(per_pass, refs)]),
            "raw_op_seconds": merge_samples(per_pass),
            "speed_factors": [reference.speed_factor([s for _, s in r])
                              for r in refs]}


def child_main(argv, build, measure, traced) -> int:
    """The shared flow of a workload's program process.

    ``build()`` does the set-up and returns the workload state;
    ``measure(state, rng, seconds)`` and ``traced(state, rng,
    setup_totals)`` return the result object.  With ``--trace 1`` the
    set-up itself runs under the probes, so the per-layer split covers
    protocol synthesis and spec generation too."""
    import argparse
    import random
    import resource

    ap = argparse.ArgumentParser()
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)
    rng = random.Random(args.seed)
    clock = SetupClock()

    if args.trace:
        from probes import install_sim_probes
        from tracing import Aggregate, Patcher

        agg = Aggregate()
        patcher = Patcher()
        install_sim_probes(patcher, agg)
        try:
            state = build()
        finally:
            patcher.restore()
        setup_unrestored = patcher.unrestored()
    else:
        state = build()
    # set-up time is CPU time: on a shared VM wall time also counts the
    # time the host gives to other tenants
    emit_tagged(READY_TAG, clock.ready())
    if args.setup_only:
        return 0
    if args.trace:
        result = traced(state, rng, agg.totals())
        result["unrestored"] = setup_unrestored + result["unrestored"]
    else:
        result = measure(state, rng, args.seconds)
    result["rss_mb"] = peak_rss_mb(resource.getrusage(resource.RUSAGE_SELF))
    emit_tagged(RESULT_TAG, result)
    return 0


@contextlib.contextmanager
def watchdog(seconds: float, kill):
    """Call ``kill()`` if the block is still running after ``seconds``
    (a blocked read of a hung child's output then sees end-of-file)."""
    timer = threading.Timer(max(0.0, seconds), kill)
    timer.daemon = True
    timer.start()
    try:
        yield
    finally:
        timer.cancel()
