"""The benchmark's probes install on this tree.

``perfbench/probes.py`` wraps attributes of the package by name: among
them ``ControlledSimulator``'s own ``run``, ``step``, ``schedule``,
``at`` and ``_pop_controlled``, ``Network.send``, ``compile_dispatch``,
``spec_hash`` and ``check_spec_graph`` in both modules that export it.
A refactor that drops one of them makes every traced benchmark run
fail.  This installs both probe sets and takes them out again, so such
a drop fails here, in seconds.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

PERFBENCH = str(Path(__file__).resolve().parents[2] / "perfbench")


def _perfbench():
    sys.path.insert(0, PERFBENCH)
    try:
        import probes
        import tracing
    finally:
        sys.path.remove(PERFBENCH)
    return probes, tracing


@pytest.mark.parametrize("probe_set", ["sim", "serve"])
def test_benchmark_probes_install_and_restore(probe_set):
    probes, tracing = _perfbench()
    install, recorder = {
        "sim": (probes.install_sim_probes, tracing.Aggregate),
        "serve": (probes.install_serve_probes, tracing.SpanLog),
    }[probe_set]
    patcher = tracing.Patcher()
    try:
        install(patcher, recorder())
        assert patcher.count > 0
    finally:
        patcher.restore()
    assert patcher.unrestored() == []
