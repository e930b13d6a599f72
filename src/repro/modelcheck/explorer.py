"""Snapshot-branching exploration of all reachable interleavings.

The explorer walks the schedule tree of a litmus program depth-first,
driven by a :class:`~repro.engine.ControlledSimulator` whose chooser
defaults to candidate 0.  At every choice point with ``n > 1``
candidates it takes one O(state) :meth:`Machine.snapshot` and pushes
``n - 1`` branch records -- ``(snapshot, batch, forced pick)`` -- on
the DFS stack; a branch later *restores* the snapshot, re-queues the
batch, takes its forced pick and continues with default choices.  The
schedule space of a terminating litmus program is a finite tree, so
this enumerates every reachable interleaving even with no pruning at
all -- without ever re-executing a shared schedule prefix (the
historical replay-based explorer re-ran every prefix from cycle 0; the
replay machinery survives in :func:`run_schedule`, which the ``--replay``
CLI and schedule minimization still use).

Generators are the one piece of machine state that cannot be copied;
:meth:`Machine.record_histories` + per-thread spawn factories let
``restore`` rebuild them by replaying their recorded resume values
(thread programs are deterministic functions of the values they
receive).

Two reductions keep it tractable:

* **visited-state dedup** -- at every free choice point (every one but
  a branch run's forced pick) the canonical state key (see
  :mod:`repro.modelcheck.state`) is looked up in a visited set; a hit
  abandons the run there, a miss inserts the key.  This loses no state:
  the run that inserts a key pushes a branch for every other candidate
  and continues with candidate 0, so every successor of that state is
  explored from its first visit, and any later run that reaches the key
  -- a branch right after its forced pick included -- may stop.  A
  branch takes its forced pick without computing a key, so its first
  free choice point is always a successor of the branch state, never
  the branch state itself.  The argument needs equal keys to have
  equal successor keys, which is why the key renders every time
  relative to the clock.
* **symmetry reduction** -- the canonical key is minimized over the
  litmus program's declared node/word relabellings, merging
  mirror-image states.

Between every two events the per-state invariants run and the PR-1
checker report is polled; at end of run ``machine.finish()`` (deadlock
attribution + sanitizer finalization), quiescence, the global
directory/cache agreement check and the program's own final assertion
all fire.  Any failure is classified into a :class:`Violation` and the
triggering schedule is greedily minimized (each forced choice is
re-tried as 0; re-runs that still produce the same violation kind keep
the simplification).
"""

from __future__ import annotations


from contextlib import nullcontext
from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

from repro.engine import ControlledSimulator, DeadlockError, SimulationError
from repro.modelcheck.invariants import (
    InvariantViolation, check_state_invariants,
)
from repro.modelcheck.litmus import LitmusProgram
from repro.modelcheck.state import Symmetry, canonical_key


class _Pruned(Exception):
    """Internal: the run reached an already-visited state."""


class ScheduleDivergence(Exception):
    """A forced choice was out of range for the candidate batch -- the
    schedule does not belong to this program/config/code version."""


@dataclass(frozen=True)
class Violation:
    kind: str      # "deadlock" | "assertion" | "invariant:<rule>" | ...
    detail: str


@dataclass
class ExploreResult:
    program: str
    protocol: str
    mutation: Optional[str]
    schedules: int           # full run attempts (incl. pruned)
    states: int              # distinct canonical states seen
    choice_points: int       # longest choice sequence observed
    events: int              # total simulated events across all runs
    dedup_hits: int
    unhashed: int            # states the encoder could not fingerprint
    violation: Optional[Violation]
    choices: Optional[Tuple[int, ...]]   # minimized counterexample
    complete: bool           # exhausted the schedule tree within budget

    @property
    def clean(self) -> bool:
        return self.violation is None


def _build(litmus: LitmusProgram, config, max_events: int):
    from repro.runtime.machine import Machine

    sim = ControlledSimulator(max_events=max_events)
    machine = Machine(config, sim=sim)
    built = litmus.build(machine)
    histories = machine.record_histories()
    syms = [Symmetry(config, nm, wm) for nm, wm in built.symmetries]
    return machine, built, histories, syms


def _run(machine, built, start: bool,
         on_event: Optional[Callable] = None) -> Optional[Violation]:
    """Run the machine to the end of the current schedule (from cycle 0
    when ``start``), checking between every two events and at the end;
    returns the violation, or None for a clean or pruned run."""
    from repro.checkers import CheckerError

    sim: ControlledSimulator = machine.sim
    try:
        if start:
            machine.prepare()
        while sim.step(on_event):
            report = machine.checker_report
            if report is not None and report.violations:
                v = report.violations[0]
                return Violation(f"checker:{v.rule}", str(v))
            check_state_invariants(machine)
        machine.finish()
        if not machine.quiesced():
            return Violation(
                "quiescence",
                "event queue drained with in-flight work "
                "(buffered writes, uncollected acks, or open "
                "transactions) still outstanding")
        machine.check_coherence_invariants()
        built.final_check(machine)
    except _Pruned:
        pass
    except DeadlockError as exc:
        return Violation("deadlock", str(exc))
    except CheckerError as exc:
        rule = (exc.report.violations[0].rule
                if exc.report.violations else "unknown")
        return Violation(f"checker:{rule}", str(exc))
    except InvariantViolation as exc:
        return Violation(f"invariant:{exc.rule}", exc.detail)
    except AssertionError as exc:
        return Violation("assertion", str(exc))
    except SimulationError as exc:
        return Violation("livelock", str(exc))
    except RuntimeError as exc:
        return Violation("protocol-error", str(exc))
    return None


def run_schedule(litmus: LitmusProgram, config,
                 choices: Tuple[int, ...], max_events: int = 50_000,
                 on_event: Optional[Callable] = None,
                 on_choice: Optional[Callable] = None):
    """Run one explicit schedule (no dedup).  Returns (machine,
    violation)."""
    machine, built, _histories, _syms = _build(litmus, config, max_events)
    sim: ControlledSimulator = machine.sim
    prefix = tuple(choices)

    def chooser(batch):
        pos = len(sim.choice_log)
        choice = prefix[pos] if pos < len(prefix) else 0
        if not 0 <= choice < len(batch):
            raise ScheduleDivergence(
                f"choice point {pos}: schedule says {choice} but "
                f"only {len(batch)} events are ready")
        if on_choice is not None:
            on_choice(pos, len(batch), choice)
        return choice

    sim.chooser = chooser
    return machine, _run(machine, built, True, on_event)


def _minimize(litmus: LitmusProgram, config,
              choices: Tuple[int, ...], kind: str,
              max_events: int, budget: int = 400) -> Tuple[int, ...]:
    """Greedy schedule minimization: flip forced choices back to the
    default 0 wherever the same violation kind still reproduces."""
    best = list(choices)
    while best and best[-1] == 0:
        best.pop()
    tries = 0
    improved = True
    while improved and tries < budget:
        improved = False
        for i in range(len(best)):
            if best[i] == 0:
                continue
            cand = best[:i] + [0] + best[i + 1:]
            while cand and cand[-1] == 0:
                cand.pop()
            tries += 1
            try:
                _m, viol = run_schedule(litmus, config, tuple(cand),
                                        max_events)
            except ScheduleDivergence:
                viol = None
            if viol is not None and viol.kind == kind:
                best = cand
                improved = True
                break
            if tries >= budget:
                break
    return tuple(best)


def explore(litmus: LitmusProgram,
            protocol=None, config=None,
            mutation: Optional[str] = None,
            max_schedules: int = 20_000,
            max_events: int = 50_000,
            dedup: bool = True,
            minimize: bool = True) -> ExploreResult:
    """Exhaustively explore one (program, protocol) pair.

    One machine is built; every other schedule starts from a snapshot
    taken at its branch point, so shared prefixes execute exactly once.
    Stops at the first violation (returning its minimized schedule, via
    the replay path) or when the schedule tree is exhausted;
    ``complete`` is False when the ``max_schedules`` budget ran out
    first.
    """
    from repro.modelcheck.mutations import get_mutation

    if config is None:
        if protocol is None:
            raise ValueError("need protocol or config")
        config = litmus.config(protocol)
    mut_ctx = (get_mutation(mutation).activate()
               if mutation else nullcontext())

    visited: Optional[set] = set() if dedup else None
    dedup_hits = unhashed = 0
    schedules = 0
    events_total = 0
    choice_points = 0
    complete = True

    def result(violation, found):
        return ExploreResult(
            program=litmus.name, protocol=config.protocol.value,
            mutation=mutation, schedules=schedules,
            states=len(visited) if visited is not None else 0,
            choice_points=choice_points, events=events_total,
            dedup_hits=dedup_hits, unhashed=unhashed,
            violation=violation, choices=found, complete=complete)

    with mut_ctx:
        machine, built, histories, syms = _build(litmus, config,
                                                 max_events)
        sim: ControlledSimulator = machine.sim

        # DFS stack of untaken branches.  Each record is
        # ((snapshot, batch), picks): `snapshot` is the machine at the
        # branch point with `batch` (the ready candidates) popped off
        # the queue, shared by every sibling; `picks` is the choice
        # sequence up to and including the forced sibling index.
        branches: List[Tuple[tuple, Tuple[int, ...]]] = []
        # the run in progress: its choices so far, its pending forced
        # pick (branch runs only) and its choice-point count
        choices: List[int] = []
        forced: Optional[int] = None
        npoints = 0

        def chooser(batch):
            nonlocal forced, npoints, dedup_hits, unhashed
            # counted at entry so a run pruned *at* this position still
            # counts it toward the choice-point depth
            npoints += 1
            if forced is not None:
                pick, forced = forced, None
                choices.append(pick)
                return pick
            if visited is not None:
                key = canonical_key(
                    machine, batch + list(sim.iter_pending()), syms,
                    histories)
                if key is None:
                    unhashed += 1
                elif key in visited:
                    dedup_hits += 1
                    raise _Pruned
                else:
                    visited.add(key)
            rec = (machine.snapshot(), tuple(batch))
            base = tuple(choices)
            for j in range(1, len(batch)):
                branches.append((rec, base + (j,)))
            choices.append(0)
            return 0

        sim.chooser = chooser
        branch = None  # sentinel: first iteration runs the root
        while True:
            if schedules >= max_schedules:
                complete = False
                break
            if branch is not None:
                (snap, batch), picks = branch
                machine.restore(snap)
                sim.push_events(batch)
                choices, forced = list(picks[:-1]), picks[-1]
                npoints = len(picks) - 1
            start = sim.events_processed
            violation = _run(machine, built, branch is None)
            schedules += 1
            events_total += sim.events_processed - start
            choice_points = max(choice_points, npoints)
            if violation is not None:
                complete = False
                found = tuple(choices)
                if minimize:
                    found = _minimize(litmus, config, found,
                                      violation.kind, max_events)
                return result(violation, found)
            if not branches:
                break
            branch = branches.pop()
    return result(None, None)
