"""Bit-identity guard for perf work on the simulation core.

Performance PRs must not change simulation *results*: these tests run
three points and compare each **full** serialized
:class:`~repro.runtime.RunResult` -- every miss/update class, the whole
traffic matrix, per-type message and byte counts, contention cycles,
per-processor completion times -- against a checked-in golden file,
field by field:

* ``bitcheck_runresult.json``: the figure-8 MCS/CU point at 8
  processors, 10% scale;
* ``bitcheck_mesi_runresult.json``: the update-conscious MCS lock under
  MESI at 8 processors, a point whose clean-exclusive fills, silent
  upgrades and E writebacks make it differ from WI's;
* ``bitcheck_hybrid_runresult.json``: the A7 kernel
  (``test_ablation_hybrid.py``) on a HYBRID machine whose lock blocks
  run CU and whose other blocks run WI.

If an optimization changes any number here it is not an optimization,
it is a semantic change: either revert it, or (for a deliberate model
fix) regenerate the golden files and explain every changed field in
the PR.  Regenerate with:

    PYTHONPATH=src:benchmarks python benchmarks/test_bit_identity.py

The simulation is deterministic (seeded RNGs, seq-ordered event queue,
no hash-order dependence), so this holds across machines and Python
versions.  Not part of tier-1 (``testpaths = tests``); CI runs it in
the ``perf-smoke`` job.
"""

import json
import os

from repro.campaign import RunSpec, canonical_json
from repro.campaign.result import run_result_to_jsonable
from repro.campaign.runner import execute_spec
from repro.config import MachineConfig, Protocol

BASELINES = os.path.join(os.path.dirname(__file__), "baselines")
GOLDEN = os.path.join(BASELINES, "bitcheck_runresult.json")
MESI_GOLDEN = os.path.join(BASELINES, "bitcheck_mesi_runresult.json")
HYBRID_GOLDEN = os.path.join(BASELINES, "bitcheck_hybrid_runresult.json")


def make_spec() -> RunSpec:
    return RunSpec.make(
        "lock", MachineConfig(num_procs=8, protocol=Protocol.CU),
        code_version_salt="bitcheck",
        kind="MCS", total_acquires=3200)


def make_mesi_spec() -> RunSpec:
    return RunSpec.make(
        "lock", MachineConfig(num_procs=8, protocol=Protocol.MESI),
        code_version_salt="bitcheck",
        kind="uc", total_acquires=800)


def _spec_result(spec: RunSpec):
    rec = execute_spec(spec)
    assert rec.ok, rec.error
    return rec.sim


def _hybrid_result():
    from test_ablation_hybrid import run_kernel
    return run_kernel(Protocol.HYBRID, episodes=8)


POINTS = {
    GOLDEN: lambda: _spec_result(make_spec()),
    MESI_GOLDEN: lambda: _spec_result(make_mesi_spec()),
    HYBRID_GOLDEN: _hybrid_result,
}


def _check(golden: str) -> None:
    got = json.loads(json.dumps(run_result_to_jsonable(POINTS[golden]())))
    with open(golden, encoding="utf-8") as fh:
        want = json.load(fh)
    # compare field-by-field first for a readable diff on failure
    assert set(got) == set(want)
    for field in sorted(want):
        assert got[field] == want[field], f"RunResult[{field!r}] diverged"
    assert got == want


def test_mid_size_figure_point_is_bit_identical():
    _check(GOLDEN)


def test_mesi_point_is_bit_identical():
    _check(MESI_GOLDEN)


def test_mixed_hybrid_machine_is_bit_identical():
    _check(HYBRID_GOLDEN)


if __name__ == "__main__":
    for path, point in POINTS.items():
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(json.loads(canonical_json(
                run_result_to_jsonable(point()))), fh, indent=1,
                sort_keys=True)
        print("wrote", path)
