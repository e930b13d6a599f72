"""Campaign execution: cache lookup, fan-out, deterministic collection.

``CampaignRunner.run`` takes a list of specs and returns one
:class:`RunRecord` per spec, **in spec order**, no matter how many
worker processes executed them or in which order they finished --
parallel campaigns are bit-identical to serial ones because the
simulator itself is deterministic and the collection step only fills a
pre-sized slot table.

Duplicate specs (same hash) are executed once and fanned back to every
position.  A spec whose workload raises is captured as a failed record
(traceback text, exception type) instead of aborting the campaign;
failures are never written to the cache.
"""

from __future__ import annotations

import multiprocessing
import signal
import threading
import time
import traceback
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

from repro.campaign.cache import ResultCache
from repro.campaign.result import RunRecord
from repro.campaign.spec import RunSpec

#: progress callback: (spec index, spec, its record)
ProgressFn = Callable[[int, RunSpec, RunRecord], None]


class SpecTimeoutError(RuntimeError):
    """A spec exceeded its per-spec wall-clock timeout."""


def _call_with_timeout(fn: Callable, timeout_s: Optional[float]):
    """Run ``fn()`` under a wall-clock alarm.

    Enforcement uses ``SIGALRM``, which only works on the main thread
    of a process (true both for in-process ``jobs=1`` execution and
    for pool / executor worker processes); where unavailable the call
    runs unguarded rather than failing.
    """
    if (not timeout_s or timeout_s <= 0
            or not hasattr(signal, "SIGALRM")
            or threading.current_thread() is not threading.main_thread()):
        return fn()

    def _on_alarm(signum, frame):
        raise SpecTimeoutError(
            f"exceeded per-spec wall-clock timeout of {timeout_s:g}s")

    old_handler = signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, timeout_s)
    try:
        return fn()
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old_handler)


class CampaignError(RuntimeError):
    """One or more specs of a campaign failed.

    ``failures`` holds the failed records (with captured tracebacks).
    """

    def __init__(self, failures: Sequence[RunRecord]) -> None:
        lines = [f"{len(failures)} campaign run(s) failed:"]
        for rec in failures:
            head = (rec.error or "").strip().rsplit("\n", 1)[-1]
            lines.append(f"  {rec.workload} [{rec.key[:12]}]: {head}")
        super().__init__("\n".join(lines))
        self.failures: List[RunRecord] = list(failures)


def execute_spec(spec: RunSpec,
                 timeout_s: Optional[float] = None) -> RunRecord:
    """Run one spec to a record, capturing any failure in-band.

    ``timeout_s`` bounds the wall-clock time of the simulation; a spec
    that exceeds it is captured as a failed record with
    ``error_type == "SpecTimeoutError"`` instead of hanging the caller.
    """
    from repro.campaign.workloads import run_workload

    t0 = time.perf_counter()
    try:
        sim, metrics = _call_with_timeout(
            lambda: run_workload(spec), timeout_s)
    except Exception as exc:
        return RunRecord(
            key=spec.key, workload=spec.workload, ok=False,
            error=traceback.format_exc(), error_type=type(exc).__name__,
            elapsed_s=time.perf_counter() - t0)
    return RunRecord(
        key=spec.key, workload=spec.workload, ok=True, metrics=metrics,
        sim=sim, elapsed_s=time.perf_counter() - t0)


def _pool_execute(item):
    index, spec = item
    return index, execute_spec(spec)


def _warm_worker() -> None:
    """Worker-pool initializer: pay the workload-provider import cost
    once per worker process instead of once per executed spec (matters
    under the ``spawn`` start method, where workers begin with a bare
    interpreter)."""
    import repro.campaign.workloads  # noqa: F401


@dataclass
class CampaignReport:
    """What a campaign did: records in spec order, plus the tallies."""

    records: List[RunRecord] = field(default_factory=list)
    executed: int = 0          # simulations actually run (unique specs)
    cached: int = 0            # spec positions served from the cache
    failed: int = 0            # spec positions whose record is not ok
    elapsed_s: float = 0.0

    @property
    def ok(self) -> bool:
        return self.failed == 0

    def failures(self) -> List[RunRecord]:
        seen = set()
        out = []
        for rec in self.records:
            if not rec.ok and rec.key not in seen:
                seen.add(rec.key)
                out.append(rec)
        return out

    def raise_on_failure(self) -> None:
        if not self.ok:
            raise CampaignError(self.failures())


class CampaignRunner:
    """Runs spec lists through the cache and a worker pool.

    ``jobs=1`` executes in-process; ``jobs>1`` fans cache misses out
    over a ``multiprocessing`` pool (fork where available, spawn
    otherwise -- workload lookup re-imports provider modules, so both
    start methods see the full registry).

    The worker pool is *warm*: it is created on the first parallel
    :meth:`run` (each worker importing the workload providers once, via
    the pool initializer) and then reused by every later ``run`` call,
    so a multi-figure sweep pays the fork/spawn + import cost once
    rather than once per figure.  Call :meth:`close` (or use the runner
    as a context manager) to release the workers explicitly.
    """

    def __init__(self, jobs: int = 1,
                 cache: Optional[ResultCache] = None) -> None:
        if jobs < 1:
            raise ValueError("jobs must be >= 1")
        self.jobs = jobs
        self.cache = cache
        self._pool = None

    # ------------------------------------------------------------------
    # warm worker pool lifecycle
    # ------------------------------------------------------------------

    def _get_pool(self):
        """The persistent worker pool, creating it on first use."""
        if self._pool is None:
            methods = multiprocessing.get_all_start_methods()
            ctx = multiprocessing.get_context(
                "fork" if "fork" in methods else "spawn")
            self._pool = ctx.Pool(processes=self.jobs,
                                  initializer=_warm_worker)
        return self._pool

    def close(self) -> None:
        """Shut down the warm worker pool (idempotent).  Still-running
        workers are terminated, not awaited."""
        pool, self._pool = self._pool, None
        if pool is not None:
            pool.terminate()
            pool.join()

    def __enter__(self) -> "CampaignRunner":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __del__(self) -> None:  # best-effort cleanup
        try:
            self.close()
        except Exception:
            pass

    # ------------------------------------------------------------------

    def run(self, specs: Sequence[RunSpec],
            progress: Optional[ProgressFn] = None) -> CampaignReport:
        t0 = time.perf_counter()
        report = CampaignReport(records=[None] * len(specs))
        keys = [spec.key for spec in specs]

        # cache pass; group the misses by key so duplicates run once
        pending: Dict[str, List[int]] = {}
        for i, (spec, key) in enumerate(zip(specs, keys)):
            hit = self.cache.get(key) if self.cache is not None else None
            if hit is not None:
                report.records[i] = hit
                report.cached += 1
                if progress is not None:
                    progress(i, spec, hit)
            else:
                pending.setdefault(key, []).append(i)

        todo = [(indices[0], specs[indices[0]])
                for indices in pending.values()]

        def land(first_index: int, record: RunRecord) -> None:
            report.executed += 1
            if self.cache is not None:
                self.cache.put(record)
            for i in pending[keys[first_index]]:
                report.records[i] = record
                if progress is not None:
                    progress(i, specs[i], record)

        if self.jobs > 1 and len(todo) > 1:
            pool = self._get_pool()
            # chunked dispatch: amortize one IPC round-trip over
            # several specs while keeping enough chunks in flight to
            # load every worker
            chunk = max(1, len(todo) // (self.jobs * 4))
            try:
                for index, record in pool.imap_unordered(
                        _pool_execute, todo, chunksize=chunk):
                    land(index, record)
            except BaseException:
                self.close()
                raise
        else:
            for index, spec in todo:
                land(index, execute_spec(spec))

        report.failed = sum(1 for rec in report.records if not rec.ok)
        report.elapsed_s = time.perf_counter() - t0
        return report
