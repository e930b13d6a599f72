"""Admission control, single-flight dedupe, and pooled execution.

The :class:`SimScheduler` is the heart of the gateway: every request
path funnels its specs through :meth:`admit_many`, which is fully
synchronous (no awaits between the admission check and task creation,
so admission is atomic under the single event loop):

* a spec already in flight joins the existing task (single-flight --
  concurrent requests for the same spec never simulate twice);
* a spec in the :class:`~repro.campaign.ResultCache` is served
  immediately as a record;
* otherwise the spec is admitted against the bounded queue
  (``max_queue`` pending specs) or the whole batch is rejected with
  :class:`QueueFull` carrying a Retry-After estimate.

Admitted specs execute on a shared ``ProcessPoolExecutor`` (``jobs``
workers) through :func:`repro.campaign.execute_spec` -- the same
function ``CampaignRunner`` workers run, so served results are
bit-identical to direct campaign runs.  A broken pool (killed worker)
is rebuilt once per affected spec and counted in
``repro_worker_restarts_total``.

Waiters attach with :meth:`result`, optionally under a deadline; the
deadline cancels the *wait*, never the simulation (the result still
lands in the cache for the next request).
"""

from __future__ import annotations

import asyncio
import functools
import math
import multiprocessing
import time
from collections import deque
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Deque, Dict, List, Optional, Sequence, Union

from repro.campaign import ResultCache, RunRecord, RunSpec, execute_spec
from repro.service.metrics import MetricsRegistry

#: what admit()/admit_many() hand back per spec: a finished record
#: (cache hit) or the in-flight task computing one
Handle = Union[RunRecord, "asyncio.Task[RunRecord]"]


class QueueFull(Exception):
    """Admission rejected: the pending queue is at capacity."""

    def __init__(self, retry_after_s: int) -> None:
        super().__init__(
            f"queue full; retry after {retry_after_s}s")
        self.retry_after_s = retry_after_s


class Draining(Exception):
    """Admission rejected: the service is shutting down."""


class DeadlineExceeded(Exception):
    """A waiter's deadline expired (the simulation keeps running)."""


class SimScheduler:
    def __init__(self, jobs: int = 2,
                 cache: Optional[ResultCache] = None,
                 max_queue: int = 64,
                 registry: Optional[MetricsRegistry] = None,
                 spec_timeout_s: Optional[float] = None,
                 cache_max_bytes: Optional[int] = None) -> None:
        if jobs < 1:
            raise ValueError("jobs must be >= 1")
        if max_queue < 1:
            raise ValueError("max_queue must be >= 1")
        self.jobs = jobs
        self.cache = cache
        self.max_queue = max_queue
        self.spec_timeout_s = spec_timeout_s
        self.cache_max_bytes = cache_max_bytes

        self._executor: Optional[ProcessPoolExecutor] = None
        self._slots: Optional[asyncio.Semaphore] = None
        self._inflight: Dict[str, asyncio.Task] = {}
        self._pending = 0            # admitted, not yet finished
        self._running = 0            # currently occupying a worker
        self._draining = False
        self._recent_s: Deque[float] = deque(maxlen=64)

        registry = registry if registry is not None else MetricsRegistry()
        self.registry = registry
        self.m_cache = registry.counter(
            "repro_cache_lookups_total",
            "Result-cache lookups by outcome", ("result",))
        self.m_dedup = registry.counter(
            "repro_singleflight_dedup_total",
            "Requests that joined an already-in-flight simulation")
        self.m_specs = registry.counter(
            "repro_specs_total",
            "Specs resolved, by how (executed/cached/failed/timeout)",
            ("status",))
        self.m_rejected = registry.counter(
            "repro_admission_rejected_total",
            "Admissions rejected because the queue was full")
        self.m_restarts = registry.counter(
            "repro_worker_restarts_total",
            "Process-pool rebuilds after a broken worker")
        self.m_queue = registry.gauge(
            "repro_queue_depth",
            "Admitted specs waiting for a worker slot")
        self.m_inflight = registry.gauge(
            "repro_inflight_sims",
            "Simulations currently occupying a worker")
        self.m_latency = registry.histogram(
            "repro_sim_latency_seconds",
            "Wall-clock seconds per executed simulation")

    # -- introspection --------------------------------------------------

    @property
    def pending(self) -> int:
        return self._pending

    @property
    def running(self) -> int:
        return self._running

    @property
    def draining(self) -> bool:
        return self._draining

    def inflight_key(self, key: str) -> Optional["asyncio.Task"]:
        return self._inflight.get(key)

    def lookup(self, key: str) -> Optional[RunRecord]:
        """The cached record for ``key``, or None; counted as a cache
        hit or miss (no cache, no lookup)."""
        if self.cache is None:
            return None
        record = self.cache.get(key)
        self.m_cache.inc(result="miss" if record is None else "hit")
        return record

    def _update_gauges(self) -> None:
        self.m_queue.set(max(0, self._pending - self._running))
        self.m_inflight.set(self._running)

    def estimate_retry_after(self, extra: int = 1) -> int:
        """Seconds until ``extra`` more specs likely fit the queue."""
        if self._recent_s:
            avg = sum(self._recent_s) / len(self._recent_s)
        else:
            avg = 1.0
        waves = math.ceil((self._pending + extra) / self.jobs)
        return max(1, min(120, math.ceil(avg * waves)))

    # -- admission (synchronous: atomic under the event loop) -----------

    def admit(self, spec: RunSpec) -> Handle:
        return self.admit_many([spec])[0]

    def admit_many(self, specs: Sequence[RunSpec]) -> List[Handle]:
        """Admit a batch atomically: all specs or :class:`QueueFull`.

        Cache hits and single-flight joins never count against the
        queue, so overlapping sweeps from many clients are cheap.
        """
        if self._draining:
            raise Draining()
        out: List[Optional[Handle]] = [None] * len(specs)
        new_specs: Dict[str, RunSpec] = {}
        for i, spec in enumerate(specs):
            key = spec.key
            task = self._inflight.get(key)
            if task is not None:
                self.m_dedup.inc()
                out[i] = task
                continue
            if key in new_specs:
                self.m_dedup.inc()
                continue                  # resolved with the batch below
            record = self.lookup(key)
            if record is not None:
                self.m_specs.inc(status="cached")
                out[i] = record
                continue
            new_specs[key] = spec

        if new_specs:
            if self._pending + len(new_specs) > self.max_queue:
                self.m_rejected.inc()
                raise QueueFull(self.estimate_retry_after(len(new_specs)))
            loop = asyncio.get_running_loop()
            for key, spec in new_specs.items():
                self._pending += 1
                task = loop.create_task(self._run_one(spec))
                self._inflight[key] = task
                task.add_done_callback(
                    functools.partial(self._task_done, key))
            self._update_gauges()

        for i, spec in enumerate(specs):
            if out[i] is None:
                out[i] = self._inflight[spec.key]
        return out            # type: ignore[return-value]

    def _task_done(self, key: str, _task: "asyncio.Task") -> None:
        self._pending -= 1
        self._inflight.pop(key, None)
        self._update_gauges()

    # -- waiting --------------------------------------------------------

    async def result(self, handle: Handle,
                     deadline_s: Optional[float] = None) -> RunRecord:
        """Await a handle; the deadline aborts the wait, not the sim."""
        if isinstance(handle, RunRecord):
            return handle
        if deadline_s is None:
            return await asyncio.shield(handle)
        try:
            return await asyncio.wait_for(asyncio.shield(handle),
                                          deadline_s)
        except asyncio.TimeoutError:
            raise DeadlineExceeded(
                f"result not ready within {deadline_s:g}s "
                "(simulation continues; poll /v1/result)") from None

    # -- execution ------------------------------------------------------

    def _ensure_executor(self) -> ProcessPoolExecutor:
        if self._executor is None:
            methods = multiprocessing.get_all_start_methods()
            ctx = multiprocessing.get_context(
                "fork" if "fork" in methods else "spawn")
            self._executor = ProcessPoolExecutor(
                max_workers=self.jobs, mp_context=ctx)
        return self._executor

    def warm(self) -> None:
        """Fork the worker pool now, before any client sockets exist.

        The pool uses the fork start method and spawns workers lazily;
        a worker forked during a request inherits a duplicate of the
        accepted connection's fd, and the kernel only sends FIN once
        the last duplicate closes -- close-delimited responses would
        never reach EOF.  (The gateway also shuts sockets down
        explicitly as a belt-and-braces for pool rebuilds.)
        """
        ex = self._ensure_executor()
        for fut in [ex.submit(int) for _ in range(self.jobs)]:
            fut.result()

    async def _execute(self, spec: RunSpec) -> RunRecord:
        """One spec on the pool; override point for tests."""
        loop = asyncio.get_running_loop()
        call = functools.partial(execute_spec, spec,
                                 self.spec_timeout_s)
        try:
            return await loop.run_in_executor(
                self._ensure_executor(), call)
        except BrokenProcessPool:
            # a worker died (OOM-kill, segfault); rebuild and retry once
            self.m_restarts.inc()
            self._executor = None
            return await loop.run_in_executor(
                self._ensure_executor(), call)

    async def _run_one(self, spec: RunSpec) -> RunRecord:
        if self._slots is None:
            self._slots = asyncio.Semaphore(self.jobs)
        async with self._slots:
            self._running += 1
            self._update_gauges()
            t0 = time.monotonic()
            try:
                record = await self._execute(spec)
            except Exception as exc:
                # infrastructure failure (pickling, repeated pool
                # death): land it as a failed record so waiters see a
                # result instead of a raw exception
                record = RunRecord(
                    key=spec.key, workload=spec.workload, ok=False,
                    error=f"executor failure: {exc!r}",
                    error_type=type(exc).__name__)
            finally:
                self._running -= 1
                self._update_gauges()
            elapsed = time.monotonic() - t0
            self._recent_s.append(elapsed)
            self.m_latency.observe(elapsed)
        if record.ok:
            self.m_specs.inc(status="executed")
            if self.cache is not None:
                self.cache.put(record)
                if self.cache_max_bytes is not None:
                    self.cache.prune(self.cache_max_bytes)
        elif record.error_type == "SpecTimeoutError":
            self.m_specs.inc(status="timeout")
        else:
            self.m_specs.inc(status="failed")
        return record

    # -- shutdown -------------------------------------------------------

    async def drain(self, grace_s: float = 30.0) -> bool:
        """Stop admitting, wait for in-flight work; True if all done."""
        self._draining = True
        tasks = [t for t in self._inflight.values() if not t.done()]
        clean = True
        if tasks:
            done, pending = await asyncio.wait(tasks, timeout=grace_s)
            clean = not pending
        self.shutdown(wait=clean)
        return clean

    def shutdown(self, wait: bool = True) -> None:
        if self._executor is not None:
            self._executor.shutdown(wait=wait, cancel_futures=True)
            self._executor = None
