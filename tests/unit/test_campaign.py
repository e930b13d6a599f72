"""Unit tests for the campaign layer: spec hashing, result
serialization, the content-addressed cache, and the runner."""

import copy
import dataclasses
import hashlib
import json
import os
import pickle
import subprocess
import sys

import pytest

from repro.campaign import (
    CampaignError, CampaignRunner, ResultCache, RunRecord, RunSpec,
    SpecTimeoutError, canonical_json, execute_spec, register_workload,
    config_from_jsonable, config_to_jsonable,
    run_result_from_jsonable, run_result_to_jsonable,
)
from repro.campaign.spec import code_version
from repro.config import MachineConfig, Protocol


def tiny_config(**kw) -> MachineConfig:
    return MachineConfig(num_procs=2, protocol=Protocol.PU, **kw)


def lock_spec(**params) -> RunSpec:
    params.setdefault("kind", "tk")
    params.setdefault("total_acquires", 8)
    return RunSpec.make("lock", tiny_config(), **params)


# ----------------------------------------------------------------------
# spec hashing
# ----------------------------------------------------------------------

class TestSpecHash:
    def test_same_spec_same_key(self):
        assert lock_spec().key == lock_spec().key

    def test_param_order_is_canonical(self):
        a = RunSpec.make("lock", tiny_config(), kind="tk",
                         total_acquires=8)
        b = RunSpec.make("lock", tiny_config(), total_acquires=8,
                         kind="tk")
        assert a.key == b.key

    def test_key_covers_config(self):
        a = RunSpec.make("lock", tiny_config(), kind="tk")
        b = RunSpec.make(
            "lock", tiny_config().with_protocol(Protocol.CU), kind="tk")
        assert a.key != b.key

    def test_key_covers_params_and_workload(self):
        base = lock_spec()
        assert base.key != lock_spec(total_acquires=16).key
        assert base.key != RunSpec.make(
            "barrier", tiny_config(), kind="tk", total_acquires=8).key

    def test_key_covers_code_version_salt(self):
        a = RunSpec.make("lock", tiny_config(), code_version_salt="v1",
                         kind="tk")
        b = RunSpec.make("lock", tiny_config(), code_version_salt="v2",
                         kind="tk")
        assert a.key != b.key

    def test_non_scalar_param_rejected(self):
        with pytest.raises(TypeError, match="JSON scalar"):
            RunSpec.make("lock", tiny_config(), kind=["tk"])

    def test_spec_jsonable_round_trip(self):
        spec = lock_spec()
        blob = json.loads(canonical_json(spec.to_jsonable()))
        assert RunSpec.from_jsonable(blob) == spec
        assert RunSpec.from_jsonable(blob).key == spec.key

    def test_key_stable_across_processes(self):
        """The cache key must not depend on per-process state
        (PYTHONHASHSEED, dict order, enum identity)."""
        spec = RunSpec.make("lock", tiny_config(),
                            code_version_salt="pinned", kind="tk",
                            total_acquires=8)
        script = (
            "from repro.campaign import RunSpec\n"
            "from repro.config import MachineConfig, Protocol\n"
            "spec = RunSpec.make('lock',"
            " MachineConfig(num_procs=2, protocol=Protocol.PU),"
            " code_version_salt='pinned', kind='tk',"
            " total_acquires=8)\n"
            "print(spec.key)\n")
        env = dict(os.environ)
        import repro
        src_root = os.path.dirname(os.path.dirname(
            os.path.abspath(repro.__file__)))
        env["PYTHONPATH"] = src_root + os.pathsep + \
            env.get("PYTHONPATH", "")
        env["PYTHONHASHSEED"] = "12345"
        out = subprocess.run([sys.executable, "-c", script], env=env,
                             capture_output=True, text=True, check=True)
        assert out.stdout.strip() == spec.key

    def test_code_version_env_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_CODE_VERSION", "pinned-by-env")
        assert code_version() == "pinned-by-env"
        spec = lock_spec()
        assert spec.code_version == "pinned-by-env"


def fresh_key(spec: RunSpec) -> str:
    """The key as computed from scratch, bypassing the memo."""
    text = canonical_json(spec.to_jsonable())
    return hashlib.sha256(text.encode()).hexdigest()


class TestKeyMemo:
    """``RunSpec.key`` is computed once per spec object and kept."""

    @pytest.mark.parametrize("how", ["make", "from_jsonable", "replace",
                                     "copy", "pickle"])
    def test_memo_equals_a_fresh_key(self, how):
        source = lock_spec()
        source.key                      # memoized before the copy
        spec = {
            "make": lambda: lock_spec(),
            "from_jsonable": lambda: RunSpec.from_jsonable(
                json.loads(canonical_json(source.to_jsonable()))),
            "replace": lambda: dataclasses.replace(
                source, params=(("kind", "MCS"),)),
            "copy": lambda: copy.copy(source),
            "pickle": lambda: pickle.loads(pickle.dumps(source)),
        }[how]()
        assert spec.key == fresh_key(spec)
        assert spec.key == spec.key

    def test_replaced_spec_does_not_inherit_the_key(self):
        source = lock_spec()
        old = source.key
        other = dataclasses.replace(source, workload="barrier")
        assert other.key != old
        assert other.key == fresh_key(other)
        same = dataclasses.replace(source)
        assert "_key" not in vars(same)
        assert same.key == old

    def test_pickle_leaves_the_memo_behind(self):
        spec = lock_spec()
        spec.key
        assert "_key" not in vars(pickle.loads(pickle.dumps(spec)))

    def test_reading_the_key_changes_nothing_observable(self):
        spec, twin = lock_spec(), lock_spec()
        before = (hash(spec), repr(spec), spec.to_jsonable())
        spec.key
        assert (hash(spec), repr(spec), spec.to_jsonable()) == before
        assert spec == twin and hash(spec) == hash(twin)
        assert "_key" not in repr(spec)
        assert dataclasses.asdict(spec) == dataclasses.asdict(twin)

    def test_key_stays_a_property(self):
        """A span wrapper replaces ``RunSpec.key`` as a property; a
        ``functools.cached_property`` would break that."""
        assert isinstance(vars(RunSpec)["key"], property)


# ----------------------------------------------------------------------
# config / result serialization
# ----------------------------------------------------------------------

class TestSerialization:
    def test_config_round_trip(self):
        cfg = MachineConfig(num_procs=4, protocol=Protocol.CU,
                            update_threshold=7,
                            hybrid_default=Protocol.PU,
                            sequential_consistency=True)
        blob = json.loads(json.dumps(config_to_jsonable(cfg)))
        assert config_from_jsonable(blob) == cfg

    def test_run_result_round_trip(self):
        record = execute_spec(lock_spec())
        assert record.ok, record.error
        blob = json.loads(json.dumps(run_result_to_jsonable(record.sim)))
        restored = run_result_from_jsonable(blob)
        assert restored == record.sim
        # the network stats carry enum- and tuple-keyed dicts; make
        # sure the reconstruction really rebuilt the original keys
        assert restored.network.by_type == record.sim.network.by_type
        assert restored.network.by_pair == record.sim.network.by_pair

    def test_run_record_round_trip(self):
        record = execute_spec(lock_spec())
        blob = json.loads(json.dumps(record.to_jsonable()))
        assert RunRecord.from_jsonable(blob) == record

    def test_failed_record_round_trip(self):
        record = execute_spec(RunSpec.make("lock", tiny_config(),
                                           kind="no-such-lock"))
        assert not record.ok
        assert record.sim is None
        assert record.error_type
        blob = json.loads(json.dumps(record.to_jsonable()))
        assert RunRecord.from_jsonable(blob) == record


# ----------------------------------------------------------------------
# result cache
# ----------------------------------------------------------------------

class TestResultCache:
    def test_put_get_round_trip(self, tmp_path):
        cache = ResultCache(tmp_path)
        spec = lock_spec()
        record = execute_spec(spec)
        path = cache.put(record)
        assert os.path.exists(path)
        hit = cache.get(spec)
        assert hit == record
        assert hit.cached

    def test_miss_on_unknown_key(self, tmp_path):
        assert ResultCache(tmp_path).get(lock_spec()) is None

    def test_code_version_salt_invalidates(self, tmp_path):
        """Same machine/workload/params under a new code version must
        be a cache miss (the salt is part of the key)."""
        cache = ResultCache(tmp_path)
        old = RunSpec.make("lock", tiny_config(),
                           code_version_salt="commit-A", kind="tk",
                           total_acquires=8)
        cache.put(execute_spec(old))
        new = RunSpec.make("lock", tiny_config(),
                           code_version_salt="commit-B", kind="tk",
                           total_acquires=8)
        assert cache.get(old) is not None
        assert cache.get(new) is None

    def test_corrupt_entry_degrades_to_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        spec = lock_spec()
        path = cache.put(execute_spec(spec))
        with open(path, "w") as fh:
            fh.write("{not json")
        assert cache.get(spec) is None

    def test_failures_are_not_cached(self, tmp_path):
        cache = ResultCache(tmp_path)
        spec = RunSpec.make("lock", tiny_config(), kind="no-such-lock")
        record = execute_spec(spec)
        assert cache.put(record) is None
        assert cache.get(spec) is None

    def test_keys_listing(self, tmp_path):
        cache = ResultCache(tmp_path)
        record = execute_spec(lock_spec())
        cache.put(record)
        assert list(cache.keys()) == [record.key]
        assert len(cache) == 1
        assert record.key in cache


# ----------------------------------------------------------------------
# cache pruning (LRU by mtime)
# ----------------------------------------------------------------------

class TestCachePrune:
    def fill(self, cache, count=4):
        """Store ``count`` records with strictly increasing mtimes."""
        specs = [lock_spec(total_acquires=8 + i) for i in range(count)]
        paths = []
        for i, spec in enumerate(specs):
            path = cache.put(execute_spec(spec))
            os.utime(path, (1_000_000 + i, 1_000_000 + i))
            paths.append(path)
        return specs, paths

    def test_prune_noop_under_limit(self, tmp_path):
        cache = ResultCache(tmp_path)
        self.fill(cache)
        assert cache.prune(cache.total_bytes()) == 0
        assert len(cache) == 4

    def test_prune_evicts_oldest_first(self, tmp_path):
        cache = ResultCache(tmp_path)
        specs, paths = self.fill(cache)
        # budget = the two newest files: exactly the oldest two go
        budget = sum(os.path.getsize(p) for p in paths[2:])
        removed = cache.prune(budget)
        assert removed == 2
        assert cache.get(specs[0]) is None
        assert cache.get(specs[1]) is None
        assert cache.get(specs[2]) is not None
        assert cache.get(specs[3]) is not None

    def test_get_refreshes_lru_position(self, tmp_path):
        cache = ResultCache(tmp_path)
        specs, paths = self.fill(cache)
        # a hit on the oldest entry promotes it past the others
        assert cache.get(specs[0]) is not None
        budget = os.path.getsize(paths[0]) + os.path.getsize(paths[3])
        cache.prune(budget)
        assert cache.get(specs[0]) is not None
        assert cache.get(specs[1]) is None

    def test_prune_to_zero_empties_cache(self, tmp_path):
        cache = ResultCache(tmp_path)
        self.fill(cache)
        cache.prune(0)
        assert len(cache) == 0
        assert cache.total_bytes() == 0

    def test_prune_tolerates_corrupt_and_tmp_files(self, tmp_path):
        cache = ResultCache(tmp_path)
        specs, paths = self.fill(cache)
        with open(paths[2], "w") as fh:
            fh.write("{not json")        # corrupt entry, still a file
        shard = os.path.dirname(paths[0])
        dropping = os.path.join(shard, "crashed-writer.tmp")
        with open(dropping, "w") as fh:
            fh.write("x" * 10_000)
        # tmp droppings are reclaimed even when already under budget
        assert cache.prune(cache.total_bytes()) >= 1
        assert not os.path.exists(dropping)
        cache.prune(0)
        assert cache.total_bytes() == 0

    def test_prune_missing_root(self, tmp_path):
        cache = ResultCache(tmp_path / "never-created")
        assert cache.prune(0) == 0
        assert cache.total_bytes() == 0


# ----------------------------------------------------------------------
# runner
# ----------------------------------------------------------------------

def suite_specs():
    cfg = tiny_config()
    return [
        RunSpec.make("lock", cfg, kind="tk", total_acquires=8),
        RunSpec.make("barrier", cfg, kind="cb", episodes=4),
        RunSpec.make("reduction", cfg, kind="sr", iterations=4),
    ]


class TestCampaignRunner:
    def test_records_in_spec_order(self):
        specs = suite_specs()
        report = CampaignRunner().run(specs)
        assert [r.key for r in report.records] == [s.key for s in specs]
        assert report.executed == 3 and report.ok

    def test_parallel_identical_to_serial(self):
        specs = suite_specs()
        serial = CampaignRunner(jobs=1).run(specs)
        parallel = CampaignRunner(jobs=2).run(specs)
        assert serial.records == parallel.records

    def test_duplicate_specs_run_once(self):
        spec = suite_specs()[0]
        report = CampaignRunner().run([spec, spec, spec])
        assert report.executed == 1
        assert report.records[0] == report.records[1] == \
            report.records[2]

    def test_warm_cache_executes_nothing(self, tmp_path):
        specs = suite_specs()
        runner = CampaignRunner(cache=ResultCache(tmp_path))
        cold = runner.run(specs)
        assert cold.executed == 3 and cold.cached == 0
        warm = runner.run(specs)
        assert warm.executed == 0 and warm.cached == 3
        assert [r.sim for r in warm.records] == \
            [r.sim for r in cold.records]

    def test_per_spec_failure_captured(self):
        specs = suite_specs()
        specs.insert(1, RunSpec.make("lock", tiny_config(),
                                     kind="no-such-lock"))
        report = CampaignRunner().run(specs)
        assert report.failed == 1 and not report.ok
        bad = report.records[1]
        assert not bad.ok and bad.error_type == "ValueError"
        assert "no-such-lock" in bad.error
        # the rest of the campaign still completed
        assert all(r.ok for i, r in enumerate(report.records) if i != 1)
        with pytest.raises(CampaignError, match="no-such-lock"):
            report.raise_on_failure()

    def test_unknown_workload_is_captured(self):
        report = CampaignRunner().run(
            [RunSpec.make("no-such-workload", tiny_config())])
        assert report.failed == 1
        assert report.records[0].error_type == "KeyError"

    def test_progress_callback_sees_every_position(self, tmp_path):
        specs = suite_specs() + [suite_specs()[0]]   # with a duplicate
        seen = []
        runner = CampaignRunner(cache=ResultCache(tmp_path))
        runner.run(specs, progress=lambda i, s, r: seen.append(i))
        assert sorted(seen) == [0, 1, 2, 3]

    def test_registered_workload_runs(self):
        @register_workload("unit-test-const")
        def _const(spec):
            record = execute_spec(lock_spec())
            return record.sim, {"answer": spec.params_dict["x"] * 2}

        report = CampaignRunner().run(
            [RunSpec.make("unit-test-const", tiny_config(), x=21)])
        assert report.records[0].metrics["answer"] == 42


# ----------------------------------------------------------------------
# per-spec timeouts and cancellation
# ----------------------------------------------------------------------

@register_workload("unit-test-slow")
def _slow_workload(spec):
    import time as _time
    _time.sleep(spec.params_dict.get("sleep_s", 10.0))
    return None, {"slept": 1.0}


def slow_spec(sleep_s: float = 10.0) -> RunSpec:
    return RunSpec.make("unit-test-slow", tiny_config(),
                        sleep_s=sleep_s)


class TestSpecTimeout:
    def test_execute_spec_times_out(self):
        record = execute_spec(slow_spec(), timeout_s=0.1)
        assert not record.ok
        assert record.error_type == "SpecTimeoutError"
        assert "timeout" in record.error
        assert record.elapsed_s < 5.0

    def test_fast_spec_unaffected(self):
        record = execute_spec(slow_spec(sleep_s=0.01), timeout_s=5.0)
        assert record.ok
        assert record.metrics["slept"] == 1.0

    def test_default_is_no_timeout(self):
        record = execute_spec(slow_spec(sleep_s=0.01))
        assert record.ok
