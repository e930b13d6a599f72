"""Command-line entry point: ``python -m repro.experiments fig8 ...``.

Regenerates any subset of the paper's figures as text tables.  Default
scale is 10% of the paper's iteration counts (the latency metrics are
per-iteration averages, so the series keep their shape); pass
``--paper-scale`` for the full counts or ``--scale 0.02`` for quick
looks.

Every figure runs through the campaign layer (``repro.campaign``):
``--jobs N`` fans the figure's simulations out over N worker processes
(the result tables are bit-identical to a serial run), and results are
cached content-addressed under ``--cache-dir`` (default
``.repro-cache``; the key includes a code-version salt, so editing the
simulator invalidates the cache automatically).  A warm-cache re-run
executes zero simulations.  ``--bench-json`` records per-figure
wall-clock / cache tallies for CI artifacts.
"""

from __future__ import annotations

import argparse
import difflib
import json
import sys
import time
from typing import List

from repro.campaign import CampaignError, CampaignRunner, ResultCache
from repro.config import ExperimentScale, PAPER_MACHINE_SIZES
from repro.experiments.figures import FIGURES, figure_points, figure_table

#: default location of the content-addressed result cache
DEFAULT_CACHE_DIR = ".repro-cache"


def _parse_sizes(text: str) -> tuple:
    sizes = tuple(int(s) for s in text.split(","))
    for s in sizes:
        if s < 1:
            raise argparse.ArgumentTypeError(f"bad machine size {s}")
    return sizes


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="repro-experiments",
        description="Regenerate the figures of Bianchini et al., "
                    "PPoPP 1997.")
    p.add_argument("figures", nargs="*", default=["all"],
                   help="figure ids (fig8..fig16) or 'all'")
    p.add_argument("--scale", type=float, default=0.1,
                   help="fraction of the paper's iteration counts "
                        "(default 0.1)")
    p.add_argument("--paper-scale", action="store_true",
                   help="use the paper's full iteration counts")
    p.add_argument("--sizes", type=_parse_sizes,
                   default=PAPER_MACHINE_SIZES,
                   help="comma-separated machine sizes for the latency "
                        "figures (default 1,2,4,8,16,32)")
    p.add_argument("--procs", type=int, default=32,
                   help="machine size for the traffic figures "
                        "(default 32)")
    p.add_argument("--jobs", type=int, default=1, metavar="N",
                   help="run the figure sweeps over N worker processes "
                        "(results are identical to --jobs 1)")
    p.add_argument("--cache-dir", default=DEFAULT_CACHE_DIR,
                   metavar="DIR",
                   help="content-addressed result cache directory "
                        f"(default {DEFAULT_CACHE_DIR})")
    p.add_argument("--no-cache", action="store_true",
                   help="bypass the result cache entirely")
    p.add_argument("--cache-max-mb", type=float, default=None,
                   metavar="MB",
                   help="prune the result cache above this size after "
                        "each figure (LRU by last use)")
    p.add_argument("--bench-json", metavar="FILE", default=None,
                   help="write per-figure timing / cache tallies as "
                        "JSON (for CI artifacts)")
    p.add_argument("--profile", metavar="PREFIX", nargs="?",
                   const="repro-profile", default=None,
                   help="wrap the whole run in cProfile and write "
                        "PREFIX.pstats plus a top-25 cumulative-time "
                        "report to PREFIX.txt (default prefix "
                        "'repro-profile'; use --jobs 1, worker "
                        "processes are not profiled)")
    p.add_argument("--quiet", action="store_true",
                   help="suppress progress lines")
    p.add_argument("--svg", metavar="DIR", default=None,
                   help="also write each figure as DIR/figN.svg")
    p.add_argument("--sanitize", action="store_true",
                   help="run every figure machine with the coherence "
                        "sanitizer and race detector enabled (strict)")
    return p


def main(argv: List[str] = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] == "check":
        # checker subcommand: run the sanitizer / race-detector / lint
        # suite instead of regenerating figures
        from repro.experiments.check import main as check_main
        return check_main(argv[1:])
    if argv and argv[0] == "modelcheck":
        # model-checker subcommand: exhaustive litmus exploration /
        # counterexample replay instead of regenerating figures
        from repro.experiments.modelcheck import main as mc_main
        return mc_main(argv[1:])
    if argv and argv[0] == "staticcheck":
        # protocol analysis: transition-table checks + the refinement
        # check over the litmus sweep (docs/staticcheck.md)
        from repro.experiments.staticcheck import main as sc_main
        return sc_main(argv[1:])
    if argv and argv[0] == "serve":
        # simulation-serving gateway (docs/service.md)
        from repro.service.gateway import main as serve_main
        return serve_main(argv[1:])
    if argv and argv[0] == "loadgen":
        # closed-loop load generator against a running gateway
        from repro.service.loadgen import main as loadgen_main
        return loadgen_main(argv[1:])
    if argv and argv[0] == "cluster":
        # sharded cluster: N gateway replicas behind a consistent-hash
        # router (docs/cluster.md)
        from repro.cluster.supervisor import main as cluster_main
        return cluster_main(argv[1:])
    args = build_parser().parse_args(argv)

    wanted = args.figures
    if not wanted or "all" in wanted:
        wanted = list(FIGURES)
    unknown = [f for f in wanted if f not in FIGURES]
    if unknown:
        subcommands = ("check", "modelcheck", "staticcheck", "serve",
                       "loadgen", "cluster")
        candidates = list(FIGURES) + list(subcommands)
        for name in unknown:
            close = difflib.get_close_matches(name, candidates, n=3,
                                              cutoff=0.4)
            hint = (f"; did you mean {', '.join(close)}?"
                    if close else "")
            print(f"unknown figure {name!r}{hint}", file=sys.stderr)
        print(f"choose from: {', '.join(FIGURES)} "
              f"(or the subcommands {' / '.join(subcommands)})",
              file=sys.stderr)
        return 2
    if args.jobs < 1:
        print("--jobs must be >= 1", file=sys.stderr)
        return 2
    if args.cache_max_mb is not None and args.cache_max_mb <= 0:
        print("--cache-max-mb must be positive", file=sys.stderr)
        return 2

    scale = (ExperimentScale.paper() if args.paper_scale
             else ExperimentScale.scaled(args.scale))
    cache = None if args.no_cache else ResultCache(args.cache_dir)
    runner = CampaignRunner(jobs=args.jobs, cache=cache)
    bench: dict = {"jobs": args.jobs,
                   "scale": ("paper" if args.paper_scale else args.scale),
                   "cache_dir": (None if args.no_cache
                                 else args.cache_dir),
                   "figures": {}}

    with runner:       # releases the warm worker pool on the way out
        if args.profile:
            if args.jobs > 1:
                print("--profile only sees this process; worker "
                      "simulations under --jobs > 1 are not profiled",
                      file=sys.stderr)
            import cProfile
            profiler = cProfile.Profile()
            profiler.enable()
            try:
                rc = _run_figures(args, wanted, scale, runner, bench)
            finally:
                profiler.disable()
                _write_profile(profiler, args.profile, quiet=args.quiet)
            return rc
        return _run_figures(args, wanted, scale, runner, bench)


def _write_profile(profiler, prefix: str, quiet: bool = False) -> None:
    """Dump ``prefix``.pstats and a top-25 cumulative text report."""
    import io
    import pstats

    profiler.dump_stats(prefix + ".pstats")
    buf = io.StringIO()
    stats = pstats.Stats(profiler, stream=buf)
    stats.sort_stats("cumulative").print_stats(25)
    with open(prefix + ".txt", "w", encoding="utf-8") as fh:
        fh.write(buf.getvalue())
    if not quiet:
        print(f"  [wrote {prefix}.pstats and {prefix}.txt]",
              file=sys.stderr)


def _run_figures(args, wanted, scale, runner, bench) -> int:
    for fig in wanted:
        t0 = time.time()
        kw = {"sizes": args.sizes} if fig in ("fig8", "fig11", "fig14") \
            else {"P": args.procs}
        points = figure_points(fig, scale=scale, sanitize=args.sanitize,
                               **kw)
        hook = None
        if not args.quiet:
            def hook(i, spec, record, _points=points, _fig=fig):
                point = _points[i]
                at = f" P={point.x}" if point.x is not None else ""
                cached = " (cached)" if record.cached else ""
                state = "" if record.ok else " FAILED"
                print(f"  ... {_fig} {point.label}{at}{cached}{state}",
                      file=sys.stderr, flush=True)
        report = runner.run([pt.spec for pt in points], progress=hook)
        try:
            report.raise_on_failure()
        except CampaignError as exc:
            print(exc, file=sys.stderr)
            for rec in exc.failures:
                print(rec.error, file=sys.stderr)
            return 1
        data = figure_table(fig, points, report.records)
        if args.cache_max_mb is not None and runner.cache is not None:
            evicted = runner.cache.prune(
                int(args.cache_max_mb * 1024 * 1024))
            if evicted and not args.quiet:
                print(f"  [cache pruned: {evicted} entries evicted "
                      f"over {args.cache_max_mb:g} MB]",
                      file=sys.stderr)
        elapsed = time.time() - t0
        bench["figures"][fig] = {
            "specs": len(points),
            "executed": report.executed,
            "cached": report.cached,
            "elapsed_s": round(elapsed, 3),
        }
        print()
        print(data.render())
        if args.svg:
            import os
            from repro.metrics.svgchart import to_svg
            os.makedirs(args.svg, exist_ok=True)
            path = os.path.join(args.svg, f"{fig}.svg")
            with open(path, "w") as fh:
                fh.write(to_svg(data))
            print(f"  [wrote {path}]", file=sys.stderr)
        if not args.quiet:
            print(f"  [{fig} took {elapsed:.1f}s at scale "
                  f"{'paper' if args.paper_scale else args.scale}: "
                  f"{report.executed} run, {report.cached} cached, "
                  f"jobs={args.jobs}]",
                  file=sys.stderr)

    if args.bench_json:
        bench["total_elapsed_s"] = round(
            sum(f["elapsed_s"] for f in bench["figures"].values()), 3)
        with open(args.bench_json, "w", encoding="utf-8") as fh:
            json.dump(bench, fh, indent=2, sort_keys=True)
        if not args.quiet:
            print(f"  [wrote {args.bench_json}]", file=sys.stderr)
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
