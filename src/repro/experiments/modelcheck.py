"""``python -m repro.experiments modelcheck``: the exhaustive checker.

Three modes:

* default sweep -- explore every bundled litmus program under WI, PU,
  CU and HYBRID, reporting explored-state counts; any violation writes
  a replayable counterexample JSON and fails the run;
* ``--mutants`` -- activate each seeded protocol mutation on its target
  program/protocol, demand that the checker finds a violation, save the
  minimized counterexample and verify it reproduces under replay;
* ``--replay FILE`` -- re-execute a saved counterexample with a
  human-readable transition trace (exit 0 iff the recorded violation
  reproduces).

Each litmus program is also registered as a campaign workload,
``modelcheck-<program>``, so that one exploration can be requested as
a :class:`~repro.campaign.RunSpec` -- a ``/v1/run`` body names it, and
the service resolves it through ``known_workloads()``.  Its record
holds one stock run of the program and the explorer's counts as
metrics.  The CLI sweep below calls :func:`explore` directly.
"""

from __future__ import annotations

import argparse
import difflib
import json
import os
import sys
import time
from typing import Iterable, List, Optional

from repro.campaign import RunSpec, register_workload
from repro.config import Protocol
from repro.modelcheck import (
    MODEL_CHECK_PROTOCOLS, MUTATIONS, PROGRAMS, explore, get_mutation,
    get_program, replay_file, save_counterexample,
)


# ----------------------------------------------------------------------
# campaign workloads: exploration as cacheable specs
# ----------------------------------------------------------------------

def _deterministic_result(litmus, config):
    """One stock (uncontrolled, deterministic) run for the RunResult
    the campaign layer stores."""
    from repro.runtime.machine import Machine

    machine = Machine(config)
    litmus.build(machine)
    return machine.run()


def _make_workload(name: str):
    def _workload(spec: RunSpec):
        litmus = get_program(name)
        res = explore(litmus, config=spec.config)
        if res.violation is not None:
            raise AssertionError(
                f"modelcheck-{name}: {res.violation.kind}: "
                f"{res.violation.detail}")
        metrics = {"mc_states": res.states,
                   "mc_schedules": res.schedules,
                   "mc_choice_points": res.choice_points,
                   "mc_complete": int(res.complete)}
        return _deterministic_result(litmus, spec.config), metrics
    _workload.__name__ = f"_wl_modelcheck_{name}"
    return _workload


for _name in PROGRAMS:
    register_workload(f"modelcheck-{_name}")(_make_workload(_name))


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    protocols = [proto.value for proto in MODEL_CHECK_PROTOCOLS]
    p = argparse.ArgumentParser(
        prog="repro-experiments modelcheck",
        description="Exhaustively explore litmus-program interleavings "
                    f"under {'/'.join(protocols).upper()} with "
                    "per-state invariant checking.")
    p.add_argument("--program", action="append", metavar="NAME",
                   help="litmus program(s) to explore (default: all); "
                        f"choose from {', '.join(PROGRAMS)}")
    p.add_argument("--protocol", action="append", metavar="PROTO",
                   help="protocol(s) to explore (default: "
                        f"{','.join(protocols)})")
    p.add_argument("--mutants", action="store_true",
                   help="validate the checker against the seeded "
                        "protocol mutations instead of sweeping")
    p.add_argument("--mutant", action="append", metavar="NAME",
                   help="with --mutants: restrict to these mutations; "
                        f"choose from {', '.join(MUTATIONS)}")
    p.add_argument("--replay", metavar="FILE",
                   help="re-execute a saved counterexample schedule")
    p.add_argument("--max-schedules", type=int, default=20_000,
                   help="schedule budget per (program, protocol) "
                        "(default 20000)")
    p.add_argument("--max-events", type=int, default=50_000,
                   help="per-run event budget / livelock valve "
                        "(default 50000)")
    p.add_argument("--no-dedup", action="store_true",
                   help="disable visited-state pruning (debugging)")
    p.add_argument("--out", default="modelcheck-ce", metavar="DIR",
                   help="directory for counterexample files "
                        "(default modelcheck-ce)")
    p.add_argument("--bench-json", metavar="FILE", default=None,
                   help="write sweep timings (per program x protocol "
                        "and total wall-clock) as JSON for CI "
                        "artifacts")
    p.add_argument("--list", action="store_true",
                   help="list litmus programs and mutations, then exit")
    p.add_argument("--quiet", action="store_true")
    return p


def _parse_protocols(names: Optional[List[str]]) -> List[Protocol]:
    if not names:
        return list(MODEL_CHECK_PROTOCOLS)
    known = [p.value for p in MODEL_CHECK_PROTOCOLS]
    if _reject_unknown("protocol", [n.lower() for n in names], known):
        return []
    return [Protocol.parse(n) for n in names]


def _reject_unknown(kind: str, names: Iterable[str],
                    known: Iterable[str]) -> bool:
    """Print a did-you-mean line per unknown name; True if any."""
    known = list(known)
    bad = [n for n in names if n not in known]
    for name in bad:
        close = difflib.get_close_matches(name, known, n=3, cutoff=0.4)
        hint = f"; did you mean {', '.join(close)}?" if close else ""
        print(f"unknown {kind} {name!r}{hint}", file=sys.stderr)
    if bad:
        print(f"choose from: {', '.join(known)}", file=sys.stderr)
    return bool(bad)


def _save_ce(out_dir: str, filename: str, result, quiet: bool) -> str:
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, filename)
    save_counterexample(path, result)
    if not quiet:
        print(f"  counterexample -> {path}")
        print(f"  replay with: python -m repro.experiments modelcheck "
              f"--replay {path}")
    return path


def _sweep(args) -> int:
    programs = args.program or list(PROGRAMS)
    if _reject_unknown("program", programs, PROGRAMS):
        return 2
    protocols = _parse_protocols(args.protocol)
    if not protocols:
        return 2
    failed = 0
    incomplete = 0
    timings = {}
    sweep_start = time.perf_counter()
    for name in programs:
        litmus = get_program(name)
        for proto in protocols:
            t0 = time.perf_counter()
            res = explore(litmus, protocol=proto,
                          max_schedules=args.max_schedules,
                          max_events=args.max_events,
                          dedup=not args.no_dedup)
            elapsed = time.perf_counter() - t0
            timings[f"{name}[{proto.short}]"] = {
                "elapsed_s": round(elapsed, 4),
                "schedules": res.schedules,
                "states": res.states,
                "choice_points": res.choice_points,
                "pruned": res.dedup_hits,
            }
            status = "ok"
            if res.violation is not None:
                status = f"VIOLATION {res.violation.kind}"
                failed += 1
            elif not res.complete:
                status = "INCOMPLETE (schedule budget exhausted)"
                incomplete += 1
            if not args.quiet or status != "ok":
                print(f"{name:<8} [{proto.short}] "
                      f"schedules={res.schedules:<6} "
                      f"states={res.states:<7} "
                      f"choice-pts={res.choice_points:<3} "
                      f"pruned={res.dedup_hits:<6} {status}")
            if res.violation is not None:
                print(f"  {res.violation.detail}")
                _save_ce(args.out, f"{name}-{proto.short}.json", res,
                         args.quiet)
    if args.bench_json:
        payload = {
            "elapsed_s": round(time.perf_counter() - sweep_start, 4),
            "explorations": timings,
            "violations": failed,
            "incomplete": incomplete,
        }
        with open(args.bench_json, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
        if not args.quiet:
            print(f"  [wrote {args.bench_json}]", file=sys.stderr)
    if failed or incomplete:
        print(f"modelcheck: {failed} violation(s), "
              f"{incomplete} incomplete exploration(s)")
        return 1
    if not args.quiet:
        print("modelcheck: all explorations exhaustive, no violations")
    return 0


def _mutants(args) -> int:
    names = args.mutant or list(MUTATIONS)
    if _reject_unknown("mutation", names, MUTATIONS):
        return 2
    all_ok = True
    for name in names:
        mut = get_mutation(name)
        litmus = get_program(mut.program)
        res = explore(litmus, protocol=mut.protocol, mutation=name,
                      max_schedules=args.max_schedules,
                      max_events=args.max_events,
                      dedup=not args.no_dedup)
        if res.violation is None:
            print(f"{name:<24} NOT DETECTED "
                  f"({res.schedules} schedules explored)")
            all_ok = False
            continue
        path = _save_ce(args.out, f"mutant-{name}.json", res, True)
        reproduced = replay_file(path, quiet=True) == 0
        verdict = ("detected, replay reproduces" if reproduced
                   else "detected, but replay FAILED to reproduce")
        if not reproduced:
            all_ok = False
        print(f"{name:<24} {verdict}")
        print(f"  on {mut.program} [{mut.protocol.short}] after "
              f"{res.schedules} schedule(s): {res.violation.kind}")
        print(f"  minimized schedule ({len(res.choices or ())} forced "
              f"choice(s)) -> {path}")
    if all_ok:
        print("modelcheck: every seeded mutation caught and replayed")
    return 0 if all_ok else 1


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.list:
        print("litmus programs:")
        for name, prog in PROGRAMS.items():
            print(f"  {name:<10} ({prog.procs} nodes) "
                  f"{prog.description}")
        print("mutations:")
        for name, mut in MUTATIONS.items():
            print(f"  {name:<24} [{mut.program}/"
                  f"{mut.protocol.short}] {mut.description}")
        return 0
    if args.replay:
        return replay_file(args.replay, quiet=args.quiet)
    if args.mutants:
        return _mutants(args)
    return _sweep(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
