"""The processor front-end: drives one thread generator per node.

A *thread program* is a Python generator that yields
:mod:`repro.isa.ops` operations; the processor executes each against the
node's cache controller and resumes the generator with the result.  The
processor is blocking (single outstanding read, as in the paper) and
charges 1 cycle per instruction.

The spin-wait fast path lives here: a :class:`~repro.isa.ops.SpinUntil`
issues a fully-modeled (classified, possibly missing) read per re-check,
but between re-checks the processor parks on the cache's block-watcher
instead of burning simulated cycles on local hits that can generate no
traffic and no state change.
"""

from __future__ import annotations

from typing import Any, Callable, Generator, Optional

from repro.isa.ops import (
    CallHook, Compute, CompareSwap, Fence, FetchAdd, FetchStore, Flush,
    FlushCache, Fork, Join, Op, Read, SpinUntil, Write, _AtomicOp,
)

#: A thread program: generator yielding Ops, resumed with each result.
ThreadProgram = Generator[Op, Any, None]


class Processor:
    """Executes one thread program on one node."""

    __slots__ = ("sim", "node", "ctrl", "machine", "_gen", "done",
                 "done_time", "instructions", "spin_wakeups", "started",
                 "failure", "_current_op", "_done_callbacks", "_race",
                 "_cont", "_cont_none", "_spin_attempt_cb", "_spin_check_cb",
                 "_spin_wake_cb", "_spin_addr", "_spin_word",
                 "_spin_block", "_spin_pred")

    def __init__(self, sim, node: int, ctrl, program: ThreadProgram,
                 machine=None) -> None:
        self.sim = sim
        self.node = node
        self.ctrl = ctrl
        #: back-reference for dynamic thread creation (Fork)
        self.machine = machine
        #: happens-before race detector, or None (cached: one attribute
        #: test per dispatched op)
        self._race = getattr(machine, "race_detector", None)
        self._gen = program
        self.done = False
        self.done_time: Optional[int] = None
        self.instructions = 0
        self.spin_wakeups = 0
        self.started = False
        self.failure: Optional[BaseException] = None
        self._current_op: Optional[Op] = None
        self._done_callbacks: list = []
        # continuations bound once per processor, not once per
        # instruction: the processor is blocking (single outstanding
        # op), so one resume, one zero-arg resume and one set of
        # spin-loop callbacks can be reused for the thread's whole life
        self._cont = self._resume
        self._cont_none = self._continue_none
        self._spin_attempt_cb = self._spin_attempt
        self._spin_check_cb = self._spin_check
        self._spin_wake_cb = self._spin_wake
        self._spin_addr = 0
        self._spin_word = 0
        self._spin_block = 0
        self._spin_pred: Optional[Callable[[Any], bool]] = None

    @property
    def current_op(self) -> Optional[Op]:
        """The operation the thread last dispatched (None before the
        first instruction).  While the thread is blocked this is the
        operation it is blocked on -- deadlock reports attribute stuck
        threads with it."""
        return self._current_op

    def on_done(self, cb) -> None:
        """Run ``cb()`` when this thread finishes (Join support)."""
        if self.done:
            cb()
        else:
            self._done_callbacks.append(cb)

    # ------------------------------------------------------------------

    def start(self) -> None:
        if self.started:
            raise RuntimeError("processor already started")
        self.started = True
        self.sim.schedule(0, self._cont, None)

    def _finish(self) -> None:
        self.done = True
        self.done_time = self.sim.now
        self._gen = None
        callbacks, self._done_callbacks = self._done_callbacks, []
        for cb in callbacks:
            cb()

    def _resume(self, value: Any) -> None:
        """Advance the thread program and dispatch its next operation."""
        try:
            op = self._gen.send(value)
        except StopIteration:
            self._finish()
            return
        except BaseException as exc:  # surface program bugs loudly
            self.failure = exc
            self._finish()
            raise
        self._current_op = op
        self.instructions += 1
        self._dispatch(op)

    def _continue_none(self) -> None:
        """Zero-arg continuation (Fence / Flush / Join completions)."""
        self._resume(None)

    # ------------------------------------------------------------------

    def _dispatch(self, op: Op) -> None:
        cls = op.__class__
        race = self._race
        if cls is Read:
            if race is not None:
                race.on_read(self.node, op.addr)
            self.ctrl.read(op.addr, self._cont)
        elif cls is Write:
            if race is not None:
                race.on_write(self.node, op.addr, op.value, op.mask)
            self.ctrl.write(op.addr, op.value, self._cont, mask=op.mask)
        elif cls is Compute:
            self.sim.schedule(op.cycles, self._cont, None)
        elif cls is SpinUntil:
            if race is not None:
                race.on_spin_start(self.node, op.addr)
            self._spin(op.addr, op.predicate)
        elif isinstance(op, _AtomicOp):
            if race is not None:
                addr = op.addr
                race.on_atomic_issue(self.node, addr)

                def atomic_done(result) -> None:
                    race.on_atomic_complete(self.node, addr)
                    self._resume(result)

                self.ctrl.atomic(op.opname, addr, op.operand, atomic_done)
            else:
                self.ctrl.atomic(op.opname, op.addr, op.operand,
                                 self._cont)
        elif cls is Fence:
            if race is not None:
                race.on_fence(self.node)
            self.ctrl.fence(self._cont_none)
        elif cls is CallHook:
            op.fn(self, self._cont)
        elif cls is Fork:
            if self.machine is None:
                raise RuntimeError("Fork requires a machine-backed "
                                   "processor")
            self.machine.fork(self, op.node, op.program, self._cont)
        elif cls is Join:
            if race is not None:
                handle = op.handle

                def joined() -> None:
                    race.on_join(self.node, handle.node)
                    self._resume(None)

                handle.on_done(joined)
            else:
                op.handle.on_done(self._cont_none)
        elif cls is Flush:
            self.ctrl.flush_block(op.addr, self._cont_none)
        elif cls is FlushCache:
            self.ctrl.flush_all(self._cont_none)
        else:
            raise TypeError(f"thread yielded a non-Op: {op!r}")

    # ------------------------------------------------------------------
    # spin-wait fast path
    # ------------------------------------------------------------------

    def _spin(self, addr: int, pred: Callable[[Any], bool]) -> None:
        # the processor is blocking, so at most one spin is active and
        # its state can live on pre-bound slots instead of per-op
        # closures (this loop runs once per lock hand-off / barrier
        # episode re-check -- the hottest control path in the package)
        cfg = self.ctrl.config
        self._spin_addr = addr
        self._spin_pred = pred
        self._spin_word = cfg.word_of(addr)
        self._spin_block = cfg.block_of(addr)
        self._spin_attempt()

    def _spin_attempt(self) -> None:
        # a fully modeled read: classification, CU counter reset,
        # possible miss + fill
        self.ctrl.read(self._spin_addr, self._spin_check_cb)

    def _spin_check(self, value: Any) -> None:
        # Re-sample the freshest locally visible value: the read's
        # return value was captured at issue time and an update may
        # have landed during the 1-cycle hit latency.
        ctrl = self.ctrl
        block = self._spin_block
        line = ctrl.cache.lookup(block)
        if ctrl.wb.empty:
            # no store of ours to compose: the local view is the copy
            if line is not None and ctrl._read_hit >> line.state_code & 1:
                value = line.data.get(self._spin_word, 0)
        else:
            hit, fresh = ctrl.local_view(block, self._spin_word)
            if hit:
                value = fresh
        if self._spin_pred(value):
            if self._race is not None:
                # a successful spin is an acquire on the word
                self._race.on_spin_success(self.node, self._spin_word)
            self._spin_pred = None
            self._resume(value)
            return
        if line is not None:
            # park until the local copy changes (update arrives,
            # invalidation, or a new fill)
            ctrl.cache.watch(block, self._spin_wake_cb)
        else:
            # copy vanished between fill and check; re-read (miss)
            self.sim.schedule(1, self._spin_attempt_cb)

    def _spin_wake(self) -> None:
        self.spin_wakeups += 1
        # one spin-loop iteration to notice the change
        self.sim.schedule(1, self._spin_attempt_cb)
