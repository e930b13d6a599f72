"""Unit tests for service request validation (JSON -> RunSpec)."""

import pytest

from repro.config import Protocol
from repro.service import api
from repro.service.httpio import HttpError, Request


def err400(fn, *args):
    with pytest.raises(HttpError) as err:
        fn(*args)
    assert err.value.status == 400
    return err.value.message


RUN_BODY = {"workload": "lock",
            "config": {"num_procs": 2, "protocol": "pu"},
            "params": {"kind": "tk", "total_acquires": 8}}


class TestRunRequests:
    def test_valid_body_builds_spec(self):
        point, deadline = api.run_from_request(dict(RUN_BODY), 300.0)
        assert point.spec.workload == "lock"
        assert point.spec.config.num_procs == 2
        assert point.spec.config.protocol is Protocol.PU
        assert point.spec.params_dict["kind"] == "tk"
        assert deadline == 300.0

    def test_spec_matches_direct_construction(self):
        """The service builds specs through RunSpec.make, so the key
        (and therefore the cache entry) matches an offline run."""
        from repro.campaign import RunSpec
        from repro.config import MachineConfig

        direct = RunSpec.make(
            "lock", MachineConfig(num_procs=2, protocol=Protocol.PU),
            kind="tk", total_acquires=8)
        point = api.spec_from_request(dict(RUN_BODY))
        assert point.spec.key == direct.key

    def test_label_defaults_to_describe(self):
        point = api.spec_from_request(dict(RUN_BODY))
        assert point.label
        labelled = api.spec_from_request(
            dict(RUN_BODY, label="mine"))
        assert labelled.label == "mine"

    def test_unknown_workload_suggests(self):
        msg = err400(api.spec_from_request, dict(RUN_BODY,
                                                 workload="lok"))
        assert "unknown workload" in msg and "did you mean" in msg
        assert "lock" in msg

    def test_unknown_top_level_field_suggests(self):
        msg = err400(api.spec_from_request,
                     dict(RUN_BODY, paramz={"x": 1}))
        assert "unknown run field" in msg and "params" in msg

    def test_unknown_config_field_suggests(self):
        body = dict(RUN_BODY, config={"num_prcs": 2})
        msg = err400(api.spec_from_request, body)
        assert "num_procs" in msg

    def test_bad_protocol_name(self):
        body = dict(RUN_BODY, config={"protocol": "dragon"})
        msg = err400(api.spec_from_request, body)
        assert "wi/pu/cu/hybrid/mesi" in msg

    def test_non_string_protocol(self):
        body = dict(RUN_BODY, config={"protocol": 3})
        msg = err400(api.spec_from_request, body)
        assert "wi/pu/cu/hybrid/mesi" in msg

    def test_workload_required(self):
        body = dict(RUN_BODY)
        del body["workload"]
        msg = err400(api.spec_from_request, body)
        assert "workload" in msg

    def test_non_object_body(self):
        err400(api.spec_from_request, [1, 2])
        err400(api.spec_from_request, "lock")

    def test_bad_params_surface_as_400(self):
        msg = err400(api.spec_from_request,
                     dict(RUN_BODY, params={"kind": ["tk"]}))
        assert "scalar" in msg

    def test_deadline_override(self):
        _, d = api.run_from_request(
            dict(RUN_BODY, deadline_s=5), 300.0)
        assert d == 5.0
        _, d = api.run_from_request(
            dict(RUN_BODY, deadline_s=None), 300.0)
        assert d is None
        err400(api.run_from_request, dict(RUN_BODY, deadline_s=-1),
               300.0)
        err400(api.run_from_request, dict(RUN_BODY, deadline_s=True),
               300.0)


class TestSweepRequests:
    def test_figure_sweep(self):
        fid, points, deadline = api.sweep_from_request(
            {"figure": "fig9", "scale": 0.01, "procs": 2}, 300.0)
        assert fid == "fig9"
        assert len(points) == 9
        assert len({pt.spec.key for pt in points}) == 9
        assert deadline == 300.0

    def test_figure_matches_cli_points(self):
        from repro.config import ExperimentScale
        from repro.experiments.figures import figure_points

        _, points, _ = api.sweep_from_request(
            {"figure": "fig9", "scale": 0.01, "procs": 2}, None)
        direct = figure_points(
            "fig9", scale=ExperimentScale.scaled(0.01), P=2)
        assert [pt.spec.key for pt in points] == \
            [pt.spec.key for pt in direct]

    def test_paper_scale_string(self):
        _, points, _ = api.sweep_from_request(
            {"figure": "fig9", "scale": "paper", "procs": 2}, None)
        assert points

    def test_raw_specs_sweep(self):
        fid, points, _ = api.sweep_from_request(
            {"specs": [dict(RUN_BODY), dict(RUN_BODY, label="b")]},
            None)
        assert fid is None
        assert len(points) == 2
        assert points[1].label == "b"

    def test_unknown_figure_suggests(self):
        msg = err400(api.sweep_from_request, {"figure": "fig99"}, None)
        assert "did you mean" in msg and "fig9" in msg

    def test_figure_and_specs_exclusive(self):
        err400(api.sweep_from_request,
               {"figure": "fig9", "specs": [dict(RUN_BODY)]}, None)

    def test_empty_or_huge_specs_rejected(self):
        err400(api.sweep_from_request, {"specs": []}, None)
        msg = err400(
            api.sweep_from_request,
            {"specs": [dict(RUN_BODY)] * (api.MAX_SWEEP_SPECS + 1)},
            None)
        assert str(api.MAX_SWEEP_SPECS) in msg

    def test_figure_sweep_over_the_limit_is_refused_unbuilt(
            self, monkeypatch):
        from repro.experiments import figures

        def never(*args, **kwargs):
            raise AssertionError("figure_points ran")

        monkeypatch.setattr(figures, "figure_points", never)
        # 20,000 sizes of fig8 would expand to 180,000 points
        msg = err400(api.sweep_from_request,
                     {"figure": "fig8", "sizes": [2] * 20_000}, None)
        assert str(api.MAX_SWEEP_SPECS) in msg and "180000" in msg
        # 456 sizes x 9 combos = 4,104: just over
        msg = err400(api.sweep_from_request,
                     {"figure": "fig8", "sizes": [2] * 456}, None)
        assert str(api.MAX_SWEEP_SPECS) in msg

    def test_figure_sweep_at_the_limit_passes(self):
        # 455 sizes x 9 combos = 4,095 points (all one machine size)
        _, points, _ = api.sweep_from_request(
            {"figure": "fig8", "scale": 0.01, "sizes": [2] * 455}, None)
        assert len(points) == 455 * 9 <= api.MAX_SWEEP_SPECS

    def test_bad_scalars_rejected(self):
        err400(api.sweep_from_request,
               {"figure": "fig9", "scale": -1}, None)
        err400(api.sweep_from_request,
               {"figure": "fig9", "procs": 0}, None)
        err400(api.sweep_from_request,
               {"figure": "fig8", "sizes": [2, 0]}, None)
        err400(api.sweep_from_request,
               {"figure": "fig9", "sanitize": "yes"}, None)

    def test_needs_figure_or_specs(self):
        err400(api.sweep_from_request, {}, None)

    @pytest.mark.parametrize("deadline", [-1, "soon", True, 0])
    def test_raw_spec_deadline_validated_like_run(self, deadline):
        item = dict(RUN_BODY, deadline_s=deadline)
        run_msg = err400(api.run_from_request, item, None)
        assert err400(api.sweep_from_request, {"specs": [item]},
                      None) == run_msg

    def test_valid_raw_spec_deadline_is_ignored(self):
        _, points, deadline = api.sweep_from_request(
            {"specs": [dict(RUN_BODY, deadline_s=5)]}, 300.0)
        assert len(points) == 1 and deadline == 300.0


def body_400(fn, raw: bytes) -> str:
    """``raw`` parsed by ``Request.json()`` then validated by ``fn``:
    a 400 from either step."""
    req = Request(method="POST", target="/", path="/", query={},
                  headers={}, body=raw)
    with pytest.raises(HttpError) as err:
        fn(req.json(), None)
    assert err.value.status == 400
    return err.value.message


class TestClientSideNumbers:
    """Numbers only a client can get wrong are 400s, never 500s."""

    @pytest.mark.parametrize("field", ["block_size_bytes",
                                       "word_size_bytes",
                                       "cache_size_bytes"])
    @pytest.mark.parametrize("value", [0, -64])
    def test_non_positive_sizes(self, field, value):
        msg = err400(api.spec_from_request,
                     dict(RUN_BODY, config={field: value}))
        assert field in msg

    def test_overflowing_scale(self):
        msg = err400(api.sweep_from_request,
                     {"figure": "fig9", "scale": 1e308}, None)
        assert "overflows" in msg

    @pytest.mark.parametrize("raw", [
        b'{"figure": "fig9", "scale": Infinity}',
        b'{"figure": "fig9", "scale": 1e999}',
        b'{"figure": "fig9", "scale": 0.01, "deadline_s": NaN}',
    ])
    def test_non_finite_sweep_numbers(self, raw):
        msg = body_400(api.sweep_from_request, raw)
        assert "malformed JSON body" in msg

    @pytest.mark.parametrize("raw", [
        b'{"workload": "lock", "deadline_s": NaN}',
        b'{"workload": "lock", "config": '
        b'{"network_jitter_cycles": NaN}}',
        b'{"workload": "lock", "params": {"total_acquires": -Infinity}}',
    ])
    def test_non_finite_run_numbers(self, raw):
        msg = body_400(api.run_from_request, raw)
        assert "malformed JSON body" in msg

    def test_finite_numbers_parse_as_before(self):
        import json

        raw = b'{"a": 1.5, "b": [1e308, -0.0, 2], "c": 3}'
        req = Request(method="POST", target="/", path="/", query={},
                      headers={}, body=raw)
        assert req.json() == json.loads(raw)


class TestMachineSizeLimit:
    """A request may not ask for a machine whose tables alone would
    exhaust a worker: over ``MAX_PROCS`` nodes or ``MAX_CACHE_LINES``
    cache lines in all is a 400 naming the limit, on every route that
    yields specs."""

    @pytest.mark.parametrize("config, limit", [
        ({"num_procs": api.MAX_PROCS + 1}, api.MAX_PROCS),
        ({"num_procs": 1_000_000, "cache_size_bytes": 2**40},
         api.MAX_PROCS),
        ({"num_procs": 1, "cache_size_bytes": 2**40},
         api.MAX_CACHE_LINES),
        ({"num_procs": api.MAX_PROCS,
          "cache_size_bytes": 64 * (api.MAX_CACHE_LINES
                                    // api.MAX_PROCS + 1)},
         api.MAX_CACHE_LINES),
    ])
    def test_run_over_the_limit(self, config, limit):
        body = dict(RUN_BODY, config=config)
        msg = err400(api.run_from_request, body, None)
        assert f"limit of {limit}" in msg
        assert err400(api.sweep_from_request, {"specs": [body]},
                      None) == msg

    def test_limits_are_inclusive(self):
        config = {"num_procs": api.MAX_PROCS,
                  "cache_size_bytes": 64 * (api.MAX_CACHE_LINES
                                            // api.MAX_PROCS)}
        point, _ = api.run_from_request(dict(RUN_BODY, config=config),
                                        None)
        assert point.spec.config.num_procs == api.MAX_PROCS

    def test_figure_procs_over_the_limit(self):
        msg = err400(api.sweep_from_request,
                     {"figure": "fig9", "procs": api.MAX_PROCS + 1}, None)
        assert f"limit of {api.MAX_PROCS}" in msg

    def test_latency_figure_sizes_over_the_limit(self):
        msg = err400(api.sweep_from_request,
                     {"figure": "fig8", "sizes": [2, 10**6]}, None)
        assert f"limit of {api.MAX_PROCS}" in msg

    def test_offline_machines_stay_unbounded(self):
        from repro.config import MachineConfig

        config = MachineConfig(num_procs=10**6, cache_size_bytes=2**40)
        assert config.num_procs * config.num_cache_lines \
            > api.MAX_CACHE_LINES
