"""The simulated multiprocessor: nodes + network + classifiers.

Typical use::

    from repro.config import MachineConfig, Protocol
    from repro.runtime import Machine

    machine = Machine(MachineConfig(num_procs=8, protocol=Protocol.CU))
    flag = machine.memmap.alloc_word(home=0, label="flag")

    def writer(node):
        yield Write(flag, 1)
        yield Fence()

    def reader(node):
        yield SpinUntil(flag, lambda v: v == 1)

    machine.spawn(0, writer(0))
    machine.spawn(1, reader(1))
    result = machine.run()
    print(result.total_cycles, result.misses, result.updates)
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.classify import MissClassifier, UpdateClassifier
from repro.config import MachineConfig
from repro.engine import DeadlockError, Simulator, StuckThread
from repro.network import Network, NetworkStats
from repro.runtime.memory_map import MemoryMap
from repro.runtime.processor import Processor, ThreadProgram


class _RecordingGen:
    """Wraps a thread generator, recording every value sent into it.

    Python generators cannot be copied, so :meth:`Machine.snapshot`
    instead saves the *history* of values a generator has consumed;
    :meth:`Machine.restore` rebuilds a fresh generator from the
    program's factory and replays the history into it (thread programs
    are deterministic functions of the values they receive, so replay
    reconstructs the generator's hidden state exactly).
    """

    __slots__ = ("gen", "history")

    def __init__(self, gen, history) -> None:
        self.gen = gen
        self.history = history

    def send(self, value):
        self.history.append(value)
        return self.gen.send(value)

    def close(self) -> None:
        self.gen.close()


@dataclass
class RunResult:
    """Everything the experiment harness needs from one simulation."""

    total_cycles: int
    events: int
    misses: Dict[str, int]
    updates: Dict[str, int]
    shared_refs: int
    network: NetworkStats
    proc_done_times: List[int] = field(default_factory=list)
    proc_instructions: List[int] = field(default_factory=list)
    proc_spin_wakeups: List[int] = field(default_factory=list)

    @property
    def total_misses(self) -> int:
        return self.misses.get("total", 0)

    @property
    def total_update_messages(self) -> int:
        return self.updates.get("total", 0)


class Machine:
    """A P-node DASH-like multiprocessor running one coherence protocol."""

    def __init__(self, config: MachineConfig,
                 max_events: Optional[int] = None,
                 sim: Optional[Simulator] = None) -> None:
        # local import to avoid a cycle (protocols build on runtime types)
        from repro.protocols import make_controller

        self.config = config
        # an injected simulator (e.g. the model checker's
        # ControlledSimulator) carries its own max_events budget
        self.sim = sim if sim is not None else Simulator(
            max_events=max_events)
        self.miss_classifier = MissClassifier()
        self.update_classifier = UpdateClassifier()
        self.net = Network(self.sim, config)
        self.memmap = MemoryMap(config)
        # checkers must exist before the controllers, which cache a
        # reference to the sanitizer at construction time
        self.checker_report = None
        self.sanitizer = None
        self.race_detector = None
        if config.enable_sanitizer or config.enable_race_detector:
            from repro.checkers import (
                CheckerReport, CoherenceSanitizer, RaceDetector,
            )
            self.checker_report = CheckerReport()
            if config.enable_sanitizer:
                self.sanitizer = CoherenceSanitizer(self,
                                                    self.checker_report)
            if config.enable_race_detector:
                self.race_detector = RaceDetector(config, self.memmap,
                                                  self.checker_report)
        self.controllers = [make_controller(self, n)
                            for n in range(config.num_procs)]
        self.processors: List[Processor] = []
        #: per-processor program factories (parallel to ``processors``);
        #: required to rebuild generators on :meth:`restore`
        self._factories: List[Any] = []
        #: node -> recorded send-history (see :meth:`record_histories`)
        self._histories: Dict[int, list] = {}
        #: mutable containers (dicts/lists) captured by thread programs
        #: that snapshot/restore must save alongside generator state
        self.snapshot_containers: List[Any] = []
        self._ran = False

    # ------------------------------------------------------------------

    def spawn(self, node: int, program: ThreadProgram,
              factory=None) -> Processor:
        """Create the thread that will run on ``node``.

        ``factory`` (a zero-argument callable returning a fresh,
        equivalent generator) enables :meth:`snapshot` /
        :meth:`restore` for this thread; without it the machine can
        still snapshot, but only while the thread is finished.
        """
        if not 0 <= node < self.config.num_procs:
            raise ValueError(f"node {node} out of range")
        if any(p.node == node and not p.done for p in self.processors):
            raise ValueError(f"node {node} already has a thread")
        proc = Processor(self.sim, node, self.controllers[node], program,
                         machine=self)
        self.processors.append(proc)
        self._factories.append(factory)
        return proc

    def fork(self, parent: Processor, node: int, program: ThreadProgram,
             resume) -> None:
        """Start ``program`` on ``node`` mid-run (the Fork op).

        Under the update-based protocols the parent's cache is flushed
        first (the paper's PU optimization 2), removing the parent from
        the sharer lists of everything it touched pre-fork; the parent
        resumes -- with the child's join handle -- once the flush
        completes.
        """
        child = self.spawn(node, program)
        if self.race_detector is not None:
            self.race_detector.on_fork(parent.node, node)

        def start() -> None:
            child.start()
            resume(child)

        if (self.config.protocol.is_update_based
                or self.config.protocol.value == "hybrid") \
                and self.config.fork_flush:
            parent.ctrl.flush_all(start)
        else:
            self.sim.schedule(1, start)

    def spawn_all(self, program_factory) -> None:
        """``program_factory(node) -> generator`` for every node."""
        for node in range(self.config.num_procs):
            self.spawn(node, program_factory(node))

    # ------------------------------------------------------------------

    def _install_initial_values(self) -> None:
        for addr, value in self.memmap.initial_values.items():
            home = self.memmap.home_of(addr)
            self.controllers[home].mem.write_word(
                self.config.word_of(addr), value)

    def prepare(self) -> None:
        """First half of :meth:`run`: install initial memory values and
        start every thread, without draining the event queue.  Callers
        that drive the simulator manually (the model checker steps one
        event at a time, checking invariants between events) use
        ``prepare()`` / ``finish()`` around their own event loop."""
        if self._ran:
            raise RuntimeError("machine already ran; build a fresh one")
        self._ran = True
        if not self.processors:
            raise RuntimeError("no threads spawned")
        self._install_initial_values()
        for proc in self.processors:
            proc.start()

    def run(self, until: Optional[int] = None) -> RunResult:
        """Run the simulation to completion and collect the results."""
        self.prepare()
        self.sim.run(until=until)
        return self.finish(until=until)

    def finish(self, until: Optional[int] = None) -> RunResult:
        """Second half of :meth:`run`: deadlock attribution, checker
        finalization and result collection, after the caller has drained
        the event queue (directly or via ``self.sim.run``)."""
        stuck = [p for p in self.processors if not p.done]
        if stuck and until is None:
            attribution = [StuckThread(p.node, repr(p.current_op))
                           for p in stuck]
            details = ", ".join(str(s) for s in attribution)
            raise DeadlockError(
                f"{len(stuck)} thread(s) never finished: {details}",
                stuck=attribution)

        if self.sanitizer is not None and until is None:
            self.sanitizer.finalize()
        if (self.checker_report is not None
                and not self.checker_report.clean
                and self.config.checkers_strict):
            from repro.checkers import CheckerError
            raise CheckerError(self.checker_report)

        self.miss_classifier.finalize()
        self.update_classifier.finalize()
        return RunResult(
            total_cycles=self.sim.now,
            events=self.sim.events_processed,
            misses=self.miss_classifier.as_dict(),
            updates=self.update_classifier.as_dict(),
            shared_refs=self.miss_classifier.shared_refs,
            network=self.net.stats,
            proc_done_times=[p.done_time or self.sim.now
                             for p in self.processors],
            proc_instructions=[p.instructions for p in self.processors],
            proc_spin_wakeups=[p.spin_wakeups for p in self.processors],
        )

    # ------------------------------------------------------------------
    # snapshot / restore
    # ------------------------------------------------------------------

    def record_histories(self) -> Dict[int, list]:
        """Wrap every spawned generator in a :class:`_RecordingGen`.

        Must be called after spawning and before :meth:`prepare` for
        :meth:`snapshot` to capture live threads.  Returns the
        ``node -> history`` map (also kept on the machine); the lists
        are live -- they grow as the simulation resumes threads -- and
        :meth:`restore` rewinds them in place, so references held by
        callers (e.g. the model checker's canonical encoder) stay
        valid across restores.
        """
        for proc in self.processors:
            if isinstance(proc._gen, _RecordingGen):
                continue
            hist: list = []
            self._histories[proc.node] = hist
            proc._gen = _RecordingGen(proc._gen, hist)
        return self._histories

    def snapshot(self):
        """O(state) copy of the entire machine mid-run.

        Event tuples, messages, pending writes and thread ops are
        immutable after creation, so the snapshot shares them by
        reference; everything mutable is copied.  Global id counters
        (write ids, message ids, event seq) are deliberately *not*
        rewound -- consumers that need canonical state (the model
        checker) rank-compress them.
        """
        procs = []
        for p in self.processors:
            gen = p._gen
            hist = (list(gen.history)
                    if isinstance(gen, _RecordingGen) else None)
            procs.append((p.started, p.done, p.done_time,
                          p.instructions, p.spin_wakeups, p.failure,
                          p._current_op, tuple(p._done_callbacks),
                          p._spin_addr, p._spin_word, p._spin_block,
                          p._spin_pred, hist))
        return (
            self.sim.snapshot(),
            [c.snapshot_state() for c in self.controllers],
            self.net.snapshot_state(),
            self.miss_classifier.snapshot_state(),
            self.update_classifier.snapshot_state(),
            (self.sanitizer.snapshot_state()
             if self.sanitizer is not None else None),
            (self.checker_report.snapshot_state()
             if self.checker_report is not None else None),
            procs,
            [dict(c) if isinstance(c, dict) else list(c)
             for c in self.snapshot_containers],
            self._ran,
        )

    def restore(self, snap) -> None:
        """Rewind the machine to a :meth:`snapshot`, in place.

        Components are restored into the *existing* objects so that
        callbacks and closures captured before the snapshot (pending
        fills, spin watchers, scheduled events) remain valid.  Live
        generators are rebuilt from their spawn factory by replaying
        the recorded send-history (programs must be deterministic).
        The snapshot itself is never mutated, so one snapshot can seed
        any number of restores.
        """
        (sim_snap, ctrl_snaps, net_snap, miss_snap, upd_snap, san_snap,
         report_snap, procs, containers, ran) = snap
        self.sim.restore(sim_snap)
        for ctrl, csnap in zip(self.controllers, ctrl_snaps):
            ctrl.restore_state(csnap)
        self.net.restore_state(net_snap)
        self.miss_classifier.restore_state(miss_snap)
        self.update_classifier.restore_state(upd_snap)
        if san_snap is not None:
            self.sanitizer.restore_state(san_snap)
        if report_snap is not None:
            self.checker_report.restore_state(report_snap)

        # drop processors forked after the snapshot
        del self.processors[len(procs):]
        del self._factories[len(procs):]
        for idx, (p, fields) in enumerate(zip(self.processors, procs)):
            (p.started, p.done, p.done_time, p.instructions,
             p.spin_wakeups, p.failure, p._current_op, done_cbs,
             p._spin_addr, p._spin_word, p._spin_block, p._spin_pred,
             hist) = fields
            p._done_callbacks = list(done_cbs)
            if p.done:
                p._gen = None
                continue
            if hist is None:
                raise RuntimeError(
                    f"cannot restore node {p.node}: generator history "
                    f"was not recorded (call record_histories() before "
                    f"snapshot())")
            factory = self._factories[idx]
            if factory is None:
                raise RuntimeError(
                    f"cannot restore node {p.node}: no program factory "
                    f"(pass factory= to spawn())")
            gen = factory()
            for value in hist:
                gen.send(value)
            hist_list = self._histories.get(p.node)
            if hist_list is None:
                hist_list = self._histories[p.node] = []
            hist_list[:] = hist
            p._gen = _RecordingGen(gen, hist_list)
        # containers last: generator replay re-executes their writes,
        # which the saved copies then overwrite with snapshot values
        for cont, saved in zip(self.snapshot_containers, containers):
            if isinstance(cont, dict):
                cont.clear()
                cont.update(saved)
            else:
                cont[:] = saved
        self._ran = ran

    # ------------------------------------------------------------------
    # debugging / invariants (used heavily by the test suite)
    # ------------------------------------------------------------------

    def quiesced(self) -> bool:
        return all(c.quiesced() for c in self.controllers)

    def check_coherence_invariants(self) -> None:
        """Assert directory/cache agreement (call when quiesced)."""
        from repro.memsys.cache import CacheState
        from repro.memsys.directory import DirState

        for ctrl in self.controllers:
            for block, ent in ctrl.directory.entries().items():
                holders = [c.node for c in self.controllers
                           if c.cache.contains(block)]
                dirty = [c.node for c in self.controllers
                         if (ln := c.cache.lookup(block)) is not None
                         and ln.state in (CacheState.MODIFIED,
                                          CacheState.RETAINED,
                                          CacheState.EXCLUSIVE)]
                if len(dirty) > 1:
                    raise AssertionError(
                        f"blk {block}: multiple dirty copies at {dirty}")
                if ent.state is DirState.DIRTY:
                    if dirty != [ent.owner]:
                        raise AssertionError(
                            f"blk {block}: directory says dirty at "
                            f"{ent.owner}, caches say {dirty}")
                else:
                    if dirty:
                        raise AssertionError(
                            f"blk {block}: directory {ent.state} but "
                            f"dirty copy at {dirty}")
                    # every holder must be a known sharer (the reverse
                    # need not hold under WI's silent S-evictions)
                    missing = set(holders) - ent.sharers
                    if missing:
                        raise AssertionError(
                            f"blk {block}: cached at {sorted(missing)} "
                            f"unknown to the directory "
                            f"(sharers={sorted(ent.sharers)})")
