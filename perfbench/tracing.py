"""Span recording from outside the program.

Two recorders share one :class:`Patcher`:

* :class:`Aggregate` -- for the simulator and the verifiers, which are
  single-threaded and make millions of calls.  Spans nest strictly, so
  self time is computed online with a stack of child-time
  accumulators, and only per-span-name totals are kept in memory.
* :class:`SpanLog` -- for the asyncio server, whose spans of one
  request can overlap (a sweep fans out to both shards) and whose
  tasks interleave.  Every span is kept as a record with its parent
  and request ID (both carried in context variables); self time is
  computed afterwards by :func:`self_times`.

Wrappers copy the wrapped function's name and qualified name
(``functools.wraps``), so code that identifies callbacks by name --
the model checker's structural state encoding, its replay traces --
sees the same names with tracing on.  Every patched attribute is
recorded and :meth:`Patcher.restore` puts the original back;
:meth:`Patcher.unrestored` lists any that did not come back.
"""

from __future__ import annotations

import contextvars
import functools
import inspect
import itertools
import statistics
import time
import types
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from common import layer_of_module

_MISSING = object()

#: marks a callable as a span wrapper, so it is never wrapped twice
TRACED = "__perfbench_span__"


def is_traced(fn) -> bool:
    if getattr(fn, TRACED, False):
        return True
    inner = getattr(fn, "__func__", None)
    return inner is not None and getattr(inner, TRACED, False)


class Patcher:
    """Replaces attributes and remembers the originals."""

    def __init__(self) -> None:
        self._saved: List[Tuple[object, str, object]] = []
        self._restored: List[Tuple[object, str, object]] = []

    def patch(self, owner, name: str, new) -> None:
        old = vars(owner).get(name, _MISSING)
        if old is _MISSING:
            raise AttributeError(f"{owner!r} has no own attribute {name}")
        self._saved.append((owner, name, old))
        setattr(owner, name, new)

    @property
    def count(self) -> int:
        return len(self._saved) + len(self._restored)

    def restore(self) -> None:
        while self._saved:
            owner, name, old = self._saved.pop()
            setattr(owner, name, old)
            self._restored.append((owner, name, old))

    def unrestored(self) -> List[str]:
        """Every patched attribute that is not its original again
        (including any still patched)."""
        bad = []
        for owner, name, old in self._saved + self._restored:
            if vars(owner).get(name, _MISSING) is not old:
                bad.append(f"{getattr(owner, '__name__', owner)}.{name}")
        return bad


# ----------------------------------------------------------------------
# strictly nested spans, aggregated online
# ----------------------------------------------------------------------

@dataclass
class SpanTotals:
    name: str
    layer: str
    calls: int = 0
    self_ns: int = 0
    total_ns: int = 0
    #: direct child spans, and all spans nested inside
    kids: int = 0
    descendants: int = 0


class Aggregate:
    """Per-span-name call counts, self time and inclusive time.

    ``covered_ns`` is the time inside any outermost span (``top_calls``
    of them); the caller compares it with the wall time of the traced
    region to get the uncovered residual.  Each span also counts its
    children, so :func:`corrected` can take the wrappers' own cost out
    of the self and inclusive times (see :func:`calibrate`).
    """

    def __init__(self, clock: Callable[[], int] = time.perf_counter_ns
                 ) -> None:
        self.clock = clock
        self.spans: List[SpanTotals] = []
        self._ids: Dict[Tuple[str, str], int] = {}
        self._calls: List[int] = []
        self._self: List[int] = []
        self._total: List[int] = []
        self._kids: List[int] = []
        self._desc: List[int] = []
        #: per open span: time, direct children and all nested spans
        #: so far
        self._child_ns: List[int] = []
        self._child_n: List[int] = []
        self._child_d: List[int] = []
        self._codes: set = set()
        self._callback_ids: Dict[object, int] = {}
        self.covered_ns = 0
        #: spans entered with no span open
        self.top_calls = 0

    def span_id(self, name: str, layer: str) -> int:
        key = (name, layer)
        sid = self._ids.get(key)
        if sid is None:
            sid = self._ids[key] = len(self._calls)
            self.spans.append(SpanTotals(name, layer))
            for counters in (self._calls, self._self, self._total,
                             self._kids, self._desc):
                counters.append(0)
        return sid

    # -- wrappers -------------------------------------------------------

    def _span_fn(self, sid: int, fn: Callable) -> Callable:
        """A closure running ``fn`` as one span of ``sid``.  Everything
        it needs is bound to locals: it runs millions of times."""
        clock = self.clock
        child_ns, child_n, child_d = (self._child_ns, self._child_n,
                                      self._child_d)
        calls, selfs, totals, kids, desc = (self._calls, self._self,
                                            self._total, self._kids,
                                            self._desc)
        agg = self

        def span(*args, **kwargs):
            child_ns.append(0)
            child_n.append(0)
            child_d.append(0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                calls[sid] += 1
                selfs[sid] += dt - child_ns.pop()
                totals[sid] += dt
                kids[sid] += child_n.pop()
                d = child_d.pop()
                desc[sid] += d
                if child_ns:
                    child_ns[-1] += dt
                    child_n[-1] += 1
                    child_d[-1] += 1 + d
                else:
                    agg.covered_ns += dt
                    agg.top_calls += 1
        return span

    def wrap(self, fn: Callable, name: str, layer: str) -> Callable:
        sid = self.span_id(name, layer)
        code = getattr(getattr(fn, "__func__", fn), "__code__", None)
        if code is not None:
            self._codes.add(code)
        span = functools.wraps(fn)(self._span_fn(sid, fn))
        setattr(span, TRACED, True)
        return span

    def callback(self, fn: Callable) -> Callable:
        """``fn`` as a span of the layer whose module defines it,
        unless it already is a span.  Cheap enough to run once per
        scheduled event."""
        if is_traced(fn):
            return fn
        func = getattr(fn, "__func__", fn)
        code = getattr(func, "__code__", func)
        sid = self._callback_ids.get(code)
        if sid is None:
            layer = layer_of_module(getattr(fn, "__module__", None))
            sid = self._callback_ids[code] = self.span_id(
                f"{layer}.callback", layer)
            if isinstance(code, types.CodeType):
                self._codes.add(code)
        return self._span_fn(sid, fn)

    def bookkeeping(self, fn: Callable, *args):
        """Run tracer work inside a span without charging it to that
        span: its time is taken out now, and the wrapper level it adds
        counts as one child, so :func:`corrected` takes out its call
        overhead too."""
        t0 = self.clock()
        try:
            return fn(*args)
        finally:
            if self._child_ns:
                self._child_ns[-1] += self.clock() - t0
                self._child_n[-1] += 1
                self._child_d[-1] += 1

    def code_objects(self) -> set:
        """Code of every function wrapped so far."""
        return set(self._codes)

    def generator(self, gen, name: str, layer: str) -> "TracedGenerator":
        return TracedGenerator(self, gen, self.span_id(name, layer))

    # -- results --------------------------------------------------------

    def mark(self) -> Dict[str, List[int]]:
        """A copy of the counters, to subtract one phase from another."""
        return {"calls": list(self._calls), "self": list(self._self),
                "total": list(self._total), "kids": list(self._kids),
                "desc": list(self._desc)}

    def totals(self, since: Optional[Dict[str, List[int]]] = None
               ) -> List[SpanTotals]:
        out = []
        for sid, s in enumerate(self.spans):
            def delta(name, now):
                base = since[name] if since else ()
                return now[sid] - (base[sid] if sid < len(base) else 0)
            out.append(SpanTotals(s.name, s.layer,
                                  delta("calls", self._calls),
                                  delta("self", self._self),
                                  delta("total", self._total),
                                  delta("kids", self._kids),
                                  delta("desc", self._desc)))
        return out


@dataclass
class Overhead:
    """Wrapper cost: inside a span's own window per call (``inner``)
    and in its parent's self time per child span (``outer``), in ns."""

    inner: float
    outer: float


def calibrate(clock: Callable[[], int] = time.perf_counter_ns,
              n: int = 10_000, repeats: int = 41) -> Overhead:
    """Measure the wrappers around a three-argument no-op (the typical
    traced call), taking the median of many short repeats so the
    correction matches the conditions a traced run meets on average
    (on a shared VM single repeats vary by 2x)."""
    def noop(a, b, c):
        return None

    def loop(fn):
        for _ in range(n):
            fn(1, 2, 3)

    inner, outer = [], []
    for _ in range(repeats):
        t0 = clock()
        for _ in range(n):
            pass
        empty = (clock() - t0) / n
        t0 = clock()
        loop(noop)
        bare = (clock() - t0) / n
        agg = Aggregate(clock)
        child = agg.wrap(noop, "child", "x")
        agg.wrap(loop, "parent", "x")(child)
        by = {t.name: t for t in agg.totals()}
        inner.append(by["child"].self_ns / n - (bare - empty))
        outer.append(by["parent"].self_ns / n - empty)
    return Overhead(max(0.0, statistics.median(inner)),
                    max(0.0, statistics.median(outer)))


def corrected(totals: List[SpanTotals], cost: Overhead
              ) -> List[SpanTotals]:
    """Self and inclusive times with the wrappers' own cost taken out:
    each span's cost inside its window, each direct child's cost in
    its parent's self time, and both for every nested span."""
    out = []
    for t in totals:
        own = t.self_ns - t.calls * cost.inner - t.kids * cost.outer
        total = (t.total_ns - t.calls * cost.inner
                 - t.descendants * (cost.inner + cost.outer))
        out.append(SpanTotals(t.name, t.layer, t.calls,
                              int(max(0.0, own)), int(max(0.0, total)),
                              t.kids, t.descendants))
    return out


class TracedGenerator:
    """A thread program whose every resumption is a span."""

    __slots__ = ("_gen", "send")

    def __init__(self, agg: Aggregate, gen, sid: int) -> None:
        self._gen = gen
        self.send = agg._span_fn(sid, gen.send)

    def close(self) -> None:
        self._gen.close()


def public_functions(cls) -> List[str]:
    """Names of the plain (non-generator) public functions ``cls``
    defines itself."""
    out = []
    for name, value in vars(cls).items():
        if (not name.startswith("_")
                and isinstance(value, types.FunctionType)
                and not inspect.isgeneratorfunction(value)):
            out.append(name)
    return sorted(out)


# ----------------------------------------------------------------------
# overlapping async spans, kept as records
# ----------------------------------------------------------------------

@dataclass
class Span:
    sid: int
    name: str
    layer: str
    start: int
    end: int
    parent: Optional[int]
    rid: Optional[str]

    @property
    def duration(self) -> int:
        return self.end - self.start


class SpanLog:
    """Every span of an asyncio program, with parent and request ID."""

    def __init__(self, clock: Callable[[], int] = time.perf_counter_ns
                 ) -> None:
        self.clock = clock
        self.spans: List[Span] = []
        self.current: contextvars.ContextVar = contextvars.ContextVar(
            "perfbench_span", default=None)
        self.request: contextvars.ContextVar = contextvars.ContextVar(
            "perfbench_request", default=None)
        #: numbers a wrapper captured from return values
        self.values: Dict[str, list] = {}
        self._ids = itertools.count(1)
        self._rids = itertools.count(1)

    def new_request_id(self) -> str:
        return f"r{next(self._rids)}"

    def record(self, name: str, layer: str, start: int, end: int,
               parent: Optional[int] = None,
               rid: Optional[str] = None) -> Span:
        span = Span(next(self._ids), name, layer, start, end, parent,
                    rid if rid is not None else self.request.get())
        self.spans.append(span)
        return span

    def wrap(self, fn: Callable, name: str, layer: str) -> Callable:
        log = self
        if inspect.iscoroutinefunction(fn):
            @functools.wraps(fn)
            async def aspan(*args, **kwargs):
                sid = next(log._ids)
                token = log.current.set(sid)
                t0 = log.clock()
                try:
                    return await fn(*args, **kwargs)
                finally:
                    log.current.reset(token)
                    log.spans.append(Span(sid, name, layer, t0,
                                          log.clock(), log.current.get(),
                                          log.request.get()))
            setattr(aspan, TRACED, True)
            return aspan

        @functools.wraps(fn)
        def span(*args, **kwargs):
            sid = next(log._ids)
            token = log.current.set(sid)
            t0 = log.clock()
            try:
                return fn(*args, **kwargs)
            finally:
                log.current.reset(token)
                log.spans.append(Span(sid, name, layer, t0, log.clock(),
                                      log.current.get(),
                                      log.request.get()))
        setattr(span, TRACED, True)
        return span


def union_length(intervals: Sequence[Tuple[int, int]]) -> int:
    """Total length covered by possibly overlapping half-open
    intervals."""
    total = 0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if end <= start:
            continue
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: Sequence[Span]) -> Dict[int, int]:
    """Span id -> its duration minus the part of its interval that its
    child spans cover.  Children may overlap each other (concurrent
    tasks) and may outlive the parent (a task it started); only the
    covered part inside the parent's interval is subtracted."""
    children: Dict[int, List[Tuple[int, int]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    out = {}
    for s in spans:
        clipped = [(max(a, s.start), min(b, s.end))
                   for a, b in children.get(s.sid, ())]
        out[s.sid] = s.duration - union_length(clipped)
    return out
