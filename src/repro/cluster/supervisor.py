"""The ``cluster`` subcommand: N shard subprocesses + one router.

``python -m repro.experiments cluster --shards 3`` spawns three
shard-aware gateways (``repro.experiments serve --shard-id shard-i
--shard-peers shard-0,shard-1,shard-2``) on free ports, reads their
boot lines, and runs the router in-process in front of them.  One boot
line goes to stdout with the router port and every shard's
``{id, host, port, pid}`` (the pids let chaos tests kill a replica
mid-load).

SIGTERM/SIGINT drain the router first -- in-flight proxied requests
need the shards alive -- then SIGTERM the shards and wait.  A shard
that already died (crashed, or killed by a chaos test) is an
operational event the router handled via mark-down, not a supervisor
failure: the exit code reflects the router's drain alone.
"""

from __future__ import annotations

import argparse
import json
import os
import queue
import subprocess
import sys
import threading
from typing import List, Optional, Tuple

from repro.cluster.ring import DEFAULT_VNODES
from repro.cluster.router import Router, RouterConfig, ShardEndpoint

#: seconds to wait for one shard's boot line (workers fork at boot)
BOOT_TIMEOUT_S = 120.0

#: seconds to wait for a shard to exit after SIGTERM
SHUTDOWN_TIMEOUT_S = 40.0


def _shard_env() -> dict:
    """Child env with this repro package importable."""
    env = dict(os.environ)
    src_root = os.path.dirname(os.path.dirname(
        os.path.dirname(os.path.abspath(__file__))))
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = src_root + (
        os.pathsep + existing if existing else "")
    return env


def _read_boot_line(proc: subprocess.Popen, timeout_s: float) -> dict:
    """The shard's one-line boot JSON, read with a timeout.

    ``readline`` has no timeout of its own, so a daemon thread does
    the blocking read; an unresponsive child is left to the caller's
    teardown path.
    """
    out: "queue.Queue" = queue.Queue()
    thread = threading.Thread(
        target=lambda: out.put(proc.stdout.readline()), daemon=True)
    thread.start()
    try:
        line = out.get(timeout=timeout_s)
    except queue.Empty:
        raise RuntimeError(
            f"shard did not print a boot line within {timeout_s:.0f}s"
        ) from None
    if not line:
        raise RuntimeError(
            f"shard exited during boot (rc={proc.poll()})")
    try:
        return json.loads(line)
    except ValueError:
        raise RuntimeError(f"bad shard boot line {line!r}") from None


def spawn_shards(args: argparse.Namespace
                 ) -> Tuple[List[subprocess.Popen],
                            List[ShardEndpoint]]:
    """Start every shard; on any failure, tear down what started."""
    ids = [f"shard-{i}" for i in range(args.shards)]
    peers = ",".join(ids)
    procs: List[subprocess.Popen] = []
    endpoints: List[ShardEndpoint] = []
    try:
        for shard_id in ids:
            cmd = [sys.executable, "-m", "repro.experiments", "serve",
                   "--host", "127.0.0.1", "--port", "0",
                   "--jobs", str(args.jobs),
                   "--max-queue", str(args.max_queue),
                   "--deadline", str(args.deadline),
                   "--spec-timeout", str(args.spec_timeout),
                   "--drain-grace", str(args.drain_grace),
                   "--shard-id", shard_id,
                   "--shard-peers", peers,
                   "--ring-vnodes", str(args.vnodes)]
            if args.no_cache:
                cmd.append("--no-cache")
            else:
                cmd += ["--cache-dir",
                        os.path.join(args.cache_dir, shard_id)]
            if args.quiet:
                cmd.append("--quiet")
            proc = subprocess.Popen(
                cmd, stdout=subprocess.PIPE, env=_shard_env(),
                text=True)
            procs.append(proc)
            boot = _read_boot_line(proc, BOOT_TIMEOUT_S)
            endpoints.append(ShardEndpoint(
                shard_id, boot["host"], int(boot["port"])))
    except Exception:
        terminate_shards(procs)
        raise
    return procs, endpoints


def terminate_shards(procs: List[subprocess.Popen]) -> None:
    for proc in procs:
        if proc.poll() is None:
            try:
                proc.terminate()
            except OSError:
                pass
    for proc in procs:
        try:
            proc.wait(timeout=SHUTDOWN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="repro-cluster",
        description="Run a sharded simulation-serving cluster: N "
                    "gateway replicas behind a consistent-hash router "
                    "(see docs/cluster.md).")
    p.add_argument("--shards", type=int, default=3, metavar="N",
                   help="gateway replicas to spawn (default 3)")
    p.add_argument("--host", default="127.0.0.1",
                   help="router listen address")
    p.add_argument("--port", type=int, default=0,
                   help="router TCP port (default 0: pick a free port "
                        "and print it)")
    p.add_argument("--jobs", type=int, default=2, metavar="N",
                   help="simulation workers per shard (default 2)")
    p.add_argument("--cache-dir", default=".repro-cache", metavar="DIR",
                   help="cache root; each shard caches under "
                        "DIR/<shard-id> (default .repro-cache)")
    p.add_argument("--no-cache", action="store_true",
                   help="run every shard without a result cache")
    p.add_argument("--max-queue", type=int, default=64, metavar="N",
                   help="per-shard admission bound (default 64)")
    p.add_argument("--deadline", type=float, default=300.0,
                   metavar="SECONDS",
                   help="per-shard default request deadline "
                        "(default 300; 0 disables)")
    p.add_argument("--spec-timeout", type=float, default=0.0,
                   metavar="SECONDS",
                   help="per-simulation timeout inside shard workers "
                        "(default off)")
    p.add_argument("--vnodes", type=int, default=DEFAULT_VNODES,
                   metavar="N",
                   help="virtual ring points per shard "
                        f"(default {DEFAULT_VNODES})")
    p.add_argument("--probe-interval", type=float, default=0.5,
                   metavar="SECONDS",
                   help="shard health-probe period (default 0.5)")
    p.add_argument("--fail-threshold", type=int, default=2, metavar="N",
                   help="consecutive probe failures before mark-down "
                        "(default 2)")
    p.add_argument("--retries", type=int, default=4, metavar="N",
                   help="proxy attempts per request (default 4)")
    p.add_argument("--drain-grace", type=float, default=30.0,
                   metavar="SECONDS",
                   help="drain grace for router and shards "
                        "(default 30)")
    p.add_argument("--quiet", action="store_true",
                   help="suppress log lines on stderr")
    return p


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.shards < 1:
        print("need at least one shard", file=sys.stderr)
        return 2

    try:
        procs, endpoints = spawn_shards(args)
    except (RuntimeError, OSError) as exc:
        print(f"cluster boot failed: {exc}", file=sys.stderr)
        return 1

    config = RouterConfig(
        shards=tuple(endpoints), host=args.host, port=args.port,
        vnodes=args.vnodes, probe_interval_s=args.probe_interval,
        fail_threshold=args.fail_threshold, retries=args.retries,
        drain_grace_s=args.drain_grace, quiet=args.quiet)
    router = Router(config)
    try:
        router.run_cli(lambda: {
            "service": "repro-cluster", "host": args.host,
            "port": router.port,
            "shards": [{"id": ep.id, "host": ep.host, "port": ep.port,
                        "pid": proc.pid}
                       for ep, proc in zip(endpoints, procs)]})
    finally:
        terminate_shards(procs)
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
