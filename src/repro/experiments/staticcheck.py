"""``python -m repro.experiments staticcheck``: protocol checks.

Runs, for any subset of WI / PU / CU / HYBRID / MESI:

* the spec analyzer (completeness / contradiction / reachability /
  ambiguity / progress / vocabulary / routing) over the declarative
  transition tables of :mod:`repro.protospec`, and
* the refinement check (:mod:`repro.staticcheck.refinement`) over every
  schedule the model checker's litmus sweep explores: each transition
  the handlers execute must be a row of the table.

Findings can be suppressed via a JSON manifest (every suppression
needs a written reason; stale entries are themselves findings).  Exit
status is 0 iff no unsuppressed finding remains.
:func:`refinement_over_figures` runs the same check over the smoke
figure sweep's simulations.

``--mutants`` validates the refinement check the same way
``modelcheck --mutants`` validates the explorer: each seeded protocol
mutation is activated on its witness program and the check must flag
it, naming the handler's file:line and the row's.
"""

from __future__ import annotations

import argparse
import difflib
import json
import os
import sys
import time
from dataclasses import replace
from typing import List, Optional

from repro.config import Protocol
from repro.protospec import get_spec
from repro.staticcheck import (
    DEFAULT_SUPPRESSIONS, RefinementCheck, StaticCheckReport,
    SuppressionError, analyze_spec, load_suppressions,
)

#: analysis order (and the --protocol default)
ALL_PROTOCOLS = (Protocol.WI, Protocol.PU, Protocol.CU, Protocol.HYBRID,
                 Protocol.MESI)


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="repro-experiments staticcheck",
        description="Check the protocol transition tables, and every "
                    "transition the handlers execute in the litmus "
                    "sweep against them.")
    p.add_argument("--protocol", action="append", metavar="PROTO",
                   help="protocol(s) to check (default: "
                        f"{','.join(pr.value for pr in ALL_PROTOCOLS)})")
    p.add_argument("--suppressions", metavar="FILE",
                   default=DEFAULT_SUPPRESSIONS,
                   help="suppression manifest (default: the packaged "
                        "manifest)")
    p.add_argument("--no-suppressions", action="store_true",
                   help="ignore the suppression manifest entirely")
    p.add_argument("--json", metavar="FILE", default=None,
                   help="also write the full report as JSON (for CI "
                        "artifacts)")
    p.add_argument("--dump-specs", metavar="DIR", default=None,
                   help="write each checked protocol's table as "
                        "DIR/<proto>.json and exit")
    p.add_argument("--mutants", action="store_true",
                   help="validate the refinement check against the "
                        "seeded protocol mutations, each run on its "
                        "witness program, instead of checking the "
                        "pristine tree")
    p.add_argument("--mutant", action="append", metavar="NAME",
                   help="with --mutants: restrict to these mutations")
    p.add_argument("--synth", action="store_true",
                   help="print the synthesis report: which transient "
                        "states and rows each protocol's table derives "
                        "from its stable-state spec")
    p.add_argument("--graph", action="store_true",
                   help="also explore the cache x home product graph "
                        "of each spec over all message reorderings "
                        "(deadlock / livelock / staleness / dead rows)")
    p.add_argument("--graph-json", metavar="DIR", default=None,
                   help="with --graph: write each protocol's "
                        "exploration record as DIR/<proto>-graph.json")
    p.add_argument("--graph-mutants", action="store_true",
                   help="validate the product-graph explorer against "
                        "the seeded table-level mutations: each must "
                        "be flagged with a counterexample path")
    p.add_argument("--quiet", action="store_true",
                   help="only print findings and the final tally")
    return p


def _parse_protocols(names: Optional[List[str]],
                     parser: argparse.ArgumentParser) -> List[Protocol]:
    if not names:
        return list(ALL_PROTOCOLS)
    out = []
    for n in names:
        try:
            out.append(Protocol.parse(n))
        except (KeyError, ValueError):
            known = [p.value for p in ALL_PROTOCOLS]
            close = difflib.get_close_matches(n.lower(), known, n=1,
                                              cutoff=0.4)
            hint = f"; did you mean {close[0]!r}?" if close else ""
            parser.error(f"unknown protocol {n!r}{hint} "
                         f"(choose from {', '.join(known)})")
    return out


def refinement_over_litmus(protocols: List[Protocol]) -> RefinementCheck:
    """The refinement check over every schedule the model checker's
    litmus sweep explores under ``protocols``."""
    from repro.modelcheck import PROGRAMS, explore

    check = RefinementCheck()
    with check.recording():
        for program in PROGRAMS.values():
            for proto in protocols:
                explore(program, protocol=proto)
    return check


def refinement_over_figures(protocols: List[Protocol]) -> RefinementCheck:
    """The refinement check over the simulations of the smoke figure
    sweep (``all --scale 0.01 --sizes 2,4 --procs 4``) under
    ``protocols``, each unique spec run once, in this process.  The
    figures run no MESI machine, so MESI re-runs WI's specs."""
    from repro.campaign.workloads import run_workload
    from repro.config import ExperimentScale
    from repro.experiments.figures import FIGURES, figure_points

    specs = {}
    for fig in FIGURES:
        for point in figure_points(fig, scale=ExperimentScale.scaled(0.01),
                                   sizes=(2, 4), P=4):
            spec = point.spec
            runs = [spec] if spec.config.protocol in protocols else []
            if spec.config.protocol is Protocol.WI \
                    and Protocol.MESI in protocols:
                runs.append(replace(spec, config=replace(
                    spec.config, protocol=Protocol.MESI)))
            for run in runs:
                specs.setdefault(run.key, run)
    check = RefinementCheck()
    with check.recording():
        for spec in specs.values():
            run_workload(spec)
    return check


def run_staticcheck(protocols: List[Protocol], quiet: bool = True
                    ) -> StaticCheckReport:
    """Analyzer + the refinement check over the litmus sweep, for the
    given protocols, unsuppressed."""
    report = StaticCheckReport()
    for proto in protocols:
        report.extend(analyze_spec(get_spec(proto)))
    started = time.perf_counter()
    check = refinement_over_litmus(protocols)
    report.extend(check.findings.values())
    if not quiet:
        print(f"  [refinement: {sum(check.transitions.values())} "
              f"transitions of the litmus sweep checked in "
              f"{time.perf_counter() - started:.1f} s, "
              f"{sum(check.ambiguous.values())} from an ambiguous "
              f"state]", file=sys.stderr)
    return report


def _check(args, protocols: List[Protocol]) -> int:
    report = run_staticcheck(protocols, quiet=args.quiet)
    graph_records = {}
    if args.graph:
        from repro.staticcheck import check_spec_graph
        for proto in protocols:
            started = time.perf_counter()
            findings, record = check_spec_graph(proto.value)
            elapsed = time.perf_counter() - started
            report.extend(findings)
            graph_records[proto.value] = record
            if not args.quiet:
                states = sum(r["states"] for r in record["runs"])
                print(f"  [graph {proto.value}: {states} product "
                      f"states (up to the agent mirror) explored in "
                      f"{elapsed:.1f} s]", file=sys.stderr)
    if not args.no_suppressions:
        try:
            table = load_suppressions(args.suppressions)
        except (OSError, ValueError, SuppressionError) as exc:
            print(f"staticcheck: bad suppression manifest: {exc}",
                  file=sys.stderr)
            return 2
        if not args.graph:
            # graph-scoped suppressions are not stale when the graph
            # pass did not run
            table = {ident: reason for ident, reason in table.items()
                     if "/graph-" not in ident}
        else:
            selected = {p.value for p in protocols}
            table = {ident: reason for ident, reason in table.items()
                     if "/graph-" not in ident
                     or ident.split("/", 1)[0] in selected}
        report.apply_suppressions(table)
    print(report.render())
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(report.to_json([p.value for p in protocols]), fh,
                      indent=2, sort_keys=True)
        if not args.quiet:
            print(f"  [wrote {args.json}]", file=sys.stderr)
    if args.graph_json and graph_records:
        os.makedirs(args.graph_json, exist_ok=True)
        for name, record in graph_records.items():
            path = os.path.join(args.graph_json, f"{name}-graph.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(record, fh, indent=2, sort_keys=True)
            if not args.quiet:
                print(f"  [wrote {path}]", file=sys.stderr)
    return 0 if report.ok else 1


def _mutants(args, protocols: List[Protocol]) -> int:
    from repro.modelcheck import explore, get_program
    from repro.modelcheck.mutations import MUTATIONS, get_mutation

    names = args.mutant or list(MUTATIONS)
    try:
        muts = [get_mutation(n) for n in names]
    except KeyError as exc:
        print(f"staticcheck: {exc.args[0]}", file=sys.stderr)
        return 2

    # the pristine tree must be clean, or detection means nothing
    baseline = run_staticcheck(protocols)
    if baseline.findings:
        print("staticcheck --mutants: baseline is not clean; fix (or "
              "suppress) these before validating mutations:")
        print(baseline.render())
        return 1

    results = {}
    all_ok = True
    for mut in muts:
        check = RefinementCheck()
        with check.recording():
            explore(get_program(mut.program), protocol=mut.protocol,
                    mutation=mut.name, minimize=False)
        found = list(check.findings.values())
        results[mut.name] = [f.to_json() for f in found]
        if found:
            print(f"{mut.name:<24} DETECTED "
                  f"({len(found)} refinement finding(s))")
            if not args.quiet:
                for f in found:
                    print(f"    {f.ident}\n      {f.detail}")
        else:
            print(f"{mut.name:<24} NOT DETECTED: every transition of "
                  f"{mut.program} matched a row")
            all_ok = False
    if args.json:
        payload = {"mutations": results,
                   "ok": all_ok,
                   "protocols": [p.value for p in protocols]}
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
        if not args.quiet:
            print(f"  [wrote {args.json}]", file=sys.stderr)
    if all_ok:
        print(f"staticcheck: all {len(muts)} seeded mutation(s) "
              f"caught by the refinement check")
    return 0 if all_ok else 1


def _synth(args, protocols: List[Protocol]) -> int:
    """Report what each protocol's table derives from a stable-state
    spec (WI, MESI, PU and CU are synthesized; HYBRID merges the
    synthesized WI and CU tables)."""
    from repro.protospec import mesi_stable, pu_stable, wi_stable

    stable_specs = {Protocol.WI: wi_stable, Protocol.MESI: mesi_stable,
                    Protocol.PU: pu_stable,
                    Protocol.CU: lambda: pu_stable(competitive=True)}
    for proto in protocols:
        spec = get_spec(proto)
        rows = len(spec.cache.rows) + len(spec.home.rows)
        imposs = (len(spec.cache.impossible)
                  + len(spec.home.impossible))
        if proto not in stable_specs:
            print(f"{proto.value}: the merge of the synthesized WI and CU "
                  f"tables -- {len(spec.cache.states)} cache states, "
                  f"{len(spec.home.states)} home states, rows {rows}, "
                  f"impossible entries {imposs}")
            continue
        stable = stable_specs[proto]()
        authored = set(stable.cache.stable) | set(stable.home.stable)
        cache_t = [s for s in spec.cache.states
                   if s not in stable.cache.stable]
        home_t = [s for s in spec.home.states
                  if s not in stable.home.stable]
        print(f"{proto.value}: synthesized from a stable-state spec")
        print(f"  authored stable states : "
              f"{', '.join(sorted(authored))}")
        print(f"  synthesized cache transients ({len(cache_t)}): "
              f"{', '.join(cache_t)}")
        print(f"  synthesized home transients ({len(home_t)}): "
              f"{', '.join(home_t)}")
        print(f"  rows {rows}, impossible entries {imposs} "
              f"(every non-row pair carries a written reason)")
    return 0


def _graph_mutants(args) -> int:
    """Validate the product-graph explorer: every seeded table-level
    mutation must be flagged, with a counterexample path."""
    from repro.staticcheck import (
        SPEC_MUTATIONS, apply_spec_mutation, check_spec_graph,
    )

    names = args.mutant or sorted(SPEC_MUTATIONS)
    unknown = [n for n in names if n not in SPEC_MUTATIONS]
    if unknown:
        print(f"staticcheck: unknown spec mutation(s) "
              f"{', '.join(unknown)}; have "
              f"{', '.join(sorted(SPEC_MUTATIONS))}", file=sys.stderr)
        return 2

    # the pristine graph must be clean for the mutated protocols, or
    # detection means nothing
    results = {}
    all_ok = True
    baselines = {}
    for name in names:
        mut = SPEC_MUTATIONS[name]
        if mut.protocol not in baselines:
            base_findings, _ = check_spec_graph(mut.protocol)
            baselines[mut.protocol] = [
                f for f in base_findings if f.severity == "error"]
        base_errors = baselines[mut.protocol]
        if base_errors:
            print(f"{name:<24} BASELINE DIRTY: pristine {mut.protocol} "
                  f"graph has {len(base_errors)} error(s); fix those "
                  f"first")
            all_ok = False
            continue
        spec = apply_spec_mutation(get_spec(mut.protocol), name)
        findings, record = check_spec_graph(mut.protocol, spec)
        errors = [f for f in findings if f.severity == "error"]
        kinds = {f.ident.split("/")[1].replace("graph-", "")
                 for f in errors}
        hit = sorted(kinds & mut.expect)
        ces = record["counterexamples"]
        results[name] = {
            "protocol": mut.protocol,
            "expected": sorted(mut.expect),
            "detected": sorted(kinds),
            "counterexamples": len(ces),
        }
        if hit and ces:
            print(f"{name:<24} DETECTED ({', '.join(hit)}; "
                  f"{len(ces)} counterexample path(s))")
        else:
            print(f"{name:<24} NOT DETECTED: expected "
                  f"{sorted(mut.expect)}, graph reported "
                  f"{sorted(kinds) or 'nothing'}")
            all_ok = False
    if args.json:
        payload = {"mutations": results, "ok": all_ok}
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
        if not args.quiet:
            print(f"  [wrote {args.json}]", file=sys.stderr)
    if all_ok:
        print(f"staticcheck: all {len(names)} seeded table "
              f"mutation(s) caught by the graph explorer")
    return 0 if all_ok else 1


def _dump_specs(args, protocols: List[Protocol]) -> int:
    os.makedirs(args.dump_specs, exist_ok=True)
    for proto in protocols:
        path = os.path.join(args.dump_specs, f"{proto.value}.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(get_spec(proto).dumps())
            fh.write("\n")
        if not args.quiet:
            print(f"  [wrote {path}]", file=sys.stderr)
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    protocols = _parse_protocols(args.protocol, parser)
    if args.dump_specs:
        return _dump_specs(args, protocols)
    if args.synth:
        return _synth(args, protocols)
    if args.graph_mutants:
        return _graph_mutants(args)
    if args.mutants:
        return _mutants(args, protocols)
    return _check(args, protocols)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
