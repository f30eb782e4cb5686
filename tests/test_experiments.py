"""Unit tests for the experiment harness (config, runner, figures, CLI)."""

import json

import numpy as np
import pytest

from repro.experiments.config import ExperimentConfig, paper_settings, reduced_settings
from repro.experiments.fig3 import run_fig3
from repro.experiments.fig4 import fig4_algorithms, run_fig4
from repro.experiments.fig5 import run_fig5
from repro.experiments.instances import make_instances
from repro.experiments.runner import AlgoSpec, run_sweep
from repro.experiments.tables import rows_to_csv, rows_to_markdown
from repro.obs.record import config_hash, flatten_perf, sanitize_config
from repro.orienteering.grasp import GRASP_STAT_NAMES
from repro.utils.errors import InvalidParameterError


@pytest.fixture(scope="module")
def tiny_config():
    """A config small enough for figure runners inside unit tests."""
    return reduced_settings().scaled(
        n_nodes=25, n_instances=2,
        capacity_sweep=(1.5e4, 3e4),
        delta_sweep=(25.0, 40.0),
        delta=25.0, k_values=(2,), seed=7)


class TestConfig:
    def test_paper_preset_matches_section_7a(self):
        cfg = paper_settings()
        assert cfg.n_nodes == 500
        assert cfg.region_side == 1000.0
        assert cfg.volume_range == (100.0, 1000.0)
        assert cfg.bandwidth == 150.0
        assert cfg.coverage_radius == 50.0
        assert cfg.capacity == 3e5
        assert cfg.n_instances == 15

    def test_reduced_preset_smaller(self):
        assert reduced_settings().n_nodes < paper_settings().n_nodes

    def test_energy_model_sweep_override(self):
        cfg = reduced_settings()
        assert cfg.energy_model(capacity=123.0).capacity == 123.0
        assert cfg.energy_model().capacity == cfg.capacity

    def test_radio_model_r0(self):
        assert reduced_settings().radio_model().coverage_radius == 50.0

    def test_scaled_copy(self):
        cfg = reduced_settings().scaled(n_nodes=10)
        assert cfg.n_nodes == 10
        assert reduced_settings().n_nodes != 10

    def test_rejects_empty_sweep(self):
        with pytest.raises(InvalidParameterError):
            ExperimentConfig(capacity_sweep=())

    def test_rejects_bad_k(self):
        with pytest.raises(InvalidParameterError):
            ExperimentConfig(k_values=(0,))

    @pytest.mark.parametrize("field, value", [
        ("seed", -1), ("seed", 1.5), ("seed", True),
        ("volume_range", (float("nan"), 10.0)),
        ("volume_range", (-1.0, 10.0)), ("volume_range", (10.0, 5.0)),
        ("volume_range", (10.0,))])
    def test_rejects_bad_seed_and_volume_range(self, field, value):
        # Unchecked, these failed later inside numpy: seed=-1 with a
        # ValueError, seed=1.5 with a TypeError, (nan, 10) with an
        # OverflowError.  The pool's from_dict transport checks too.
        with pytest.raises(InvalidParameterError, match=field):
            reduced_settings().scaled(**{field: value})
        payload = reduced_settings().as_dict()
        payload[field] = list(value) if isinstance(value, tuple) else value
        with pytest.raises(InvalidParameterError, match=field):
            ExperimentConfig.from_dict(payload)

    def test_integral_seed_is_stored_as_int(self):
        cfg = reduced_settings().scaled(seed=np.int64(7), n_nodes=30.0)
        assert type(cfg.seed) is int and type(cfg.n_nodes) is int
        assert cfg == reduced_settings().scaled(seed=7, n_nodes=30)

    @pytest.mark.parametrize("k", [2.0, np.int64(2)], ids=["float", "int64"])
    def test_integral_k_values_are_stored_as_ints(self, k):
        # Kept as given, 2.0 named its rows "Algorithm 3 (K=2.0)" and an
        # np.int64 failed the JSON transport of a jobs=2 sweep.
        cfg = reduced_settings().scaled(k_values=(k, 4))
        assert cfg.k_values == (2, 4)
        assert all(type(v) is int for v in cfg.k_values)
        assert [spec.name for spec in fig4_algorithms(cfg)] == [
            "Algorithm 2", "Algorithm 3 (K=2)", "Algorithm 3 (K=4)",
            "Benchmark"]
        payload = json.loads(json.dumps(cfg.as_dict()))
        assert ExperimentConfig.from_dict(payload) == cfg

    @pytest.mark.parametrize("field, value, plain", [
        ("capacity", np.float32(6e4), 6e4),
        ("delta", np.float32(15), 15.0),
        ("capacity_sweep", (np.float32(3e4),), (3e4,)),
        ("delta_sweep", (np.float64(10), np.int64(20)), (10.0, 20)),
        ("region_side", np.int64(1000), 1000),
        ("volume_range", (np.float32(100), np.int64(1000)), (100.0, 1000)),
        ("hover_power", np.float16(150), 150.0),
        ("distance_based_travel", np.bool_(True), True)],
        ids=["capacity", "delta", "capacity_sweep", "delta_sweep",
             "region_side", "volume_range", "hover_power", "travel_flag"])
    def test_numpy_scalars_are_stored_as_python_numbers(self, field, value,
                                                        plain):
        # Kept as given, these failed json.dumps, so a jobs=2 sweep's
        # JSON transport raised TypeError where jobs=1 ran.
        cfg = reduced_settings().scaled(**{field: value})
        stored = getattr(cfg, field)
        assert stored == plain

        def types(v):
            return [type(x) for x in (v if isinstance(v, tuple) else (v,))]

        assert types(stored) == types(plain)
        payload = json.loads(json.dumps(cfg.as_dict()))
        assert ExperimentConfig.from_dict(payload) == cfg
        assert cfg == reduced_settings().scaled(**{field: plain})

    @pytest.mark.parametrize("field, array", [
        ("capacity_sweep", np.array([3e4, 5e4])),
        ("delta_sweep", np.array([10, 20], dtype=np.int64)),
        ("volume_range", np.array([100.0, 1000.0], dtype=np.float32))],
        ids=["capacity_sweep", "delta_sweep", "volume_range"])
    def test_numpy_array_sweeps_are_stored_as_tuples(self, field, array):
        # capacity_sweep=np.array([3e4, 5e4]) raised a bare ValueError
        # ("truth value of an array ... is ambiguous").
        cfg = reduced_settings().scaled(**{field: array})
        plain = tuple(array.tolist())
        twin = reduced_settings().scaled(**{field: plain})
        stored = getattr(cfg, field)
        assert type(stored) is tuple and stored == plain
        assert [type(v) for v in stored] == [type(v) for v in plain]
        assert cfg.as_dict() == twin.as_dict()
        assert config_hash(sanitize_config(cfg.as_dict())) \
            == config_hash(sanitize_config(twin.as_dict()))
        payload = json.loads(json.dumps(cfg.as_dict()))
        assert ExperimentConfig.from_dict(payload) == cfg == twin

    @pytest.mark.parametrize("field", ["capacity_sweep", "delta_sweep",
                                       "volume_range"])
    def test_empty_or_non_1d_array_sweep_rejected(self, field):
        for array in (np.array([]), np.array([[1.0, 2.0]])):
            with pytest.raises(InvalidParameterError):
                reduced_settings().scaled(**{field: array})

    def test_python_numbers_are_kept_as_given(self):
        cfg = reduced_settings().scaled(region_side=1000, delta=15.0)
        assert type(cfg.region_side) is int and type(cfg.delta) is float
        assert cfg.as_dict() == {**reduced_settings().as_dict(),
                                 "region_side": 1000}

    def test_zero_capacity_override_is_not_the_default(self):
        # A swept capacity of 0 must reach EnergyModel (which rejects it),
        # not silently fall back to the preset's default capacity.
        with pytest.raises(InvalidParameterError, match="capacity"):
            reduced_settings().energy_model(capacity=0.0)

    @pytest.mark.parametrize("sweep", [(0.0, 3e4), (3e4, -1.0),
                                       (float("nan"),)])
    def test_rejects_non_positive_capacity_sweep(self, sweep):
        with pytest.raises(InvalidParameterError, match="capacity_sweep"):
            reduced_settings().scaled(capacity_sweep=sweep)

    @pytest.mark.parametrize("sweep", [(0.0, 10.0), (10.0, -5.0),
                                       (float("inf"),)])
    def test_rejects_non_positive_delta_sweep(self, sweep):
        with pytest.raises(InvalidParameterError, match="delta_sweep"):
            reduced_settings().scaled(delta_sweep=sweep)


class TestInstances:
    def test_count(self, tiny_config):
        assert len(make_instances(tiny_config)) == 2

    def test_override(self, tiny_config):
        assert len(make_instances(tiny_config, n_instances=4)) == 4

    def test_deterministic(self, tiny_config):
        a = make_instances(tiny_config)
        b = make_instances(tiny_config)
        np.testing.assert_array_equal(a[0].positions, b[0].positions)

    def test_instances_differ(self, tiny_config):
        a = make_instances(tiny_config)
        assert not np.array_equal(a[0].positions, a[1].positions)


class TestRunner:
    def test_basic_sweep(self, tiny_config):
        instances = make_instances(tiny_config)
        result = run_sweep(
            tiny_config, instances,
            [AlgoSpec("Benchmark", "benchmark", {})],
            param_name="capacity", param_values=(1.5e4, 3e4),
            make_energy=lambda cfg, v: cfg.energy_model(capacity=v),
            make_kwargs=lambda cfg, v, s: dict(s.kwargs))
        assert len(result.rows) == 2
        assert all(r.n_instances == 2 for r in result.rows)
        series = result.series("Benchmark")
        # More energy -> at least as much data.
        assert series[1].mean_volume_gb >= series[0].mean_volume_gb - 1e-9

    def test_progress_callback(self, tiny_config):
        lines = []
        instances = make_instances(tiny_config)
        run_sweep(tiny_config, instances,
                  [AlgoSpec("Benchmark", "benchmark", {})],
                  param_name="capacity", param_values=(1.5e4,),
                  make_energy=lambda cfg, v: cfg.energy_model(capacity=v),
                  make_kwargs=lambda cfg, v, s: dict(s.kwargs),
                  progress=lines.append)
        assert len(lines) == 1
        assert lines[0].startswith("[1/1] capacity=15000 Benchmark:")

    def test_progress_counter_counts_all_cells(self, tiny_config):
        lines = []
        instances = make_instances(tiny_config)
        run_sweep(tiny_config, instances,
                  [AlgoSpec("Benchmark", "benchmark", {}),
                   AlgoSpec("Bench 2", "benchmark", {})],
                  param_name="capacity", param_values=(1.5e4, 3e4),
                  make_energy=lambda cfg, v: cfg.energy_model(capacity=v),
                  make_kwargs=lambda cfg, v, s: dict(s.kwargs),
                  progress=lines.append)
        assert [line.split()[0] for line in lines] == \
            ["[1/4]", "[2/4]", "[3/4]", "[4/4]"]

    def test_std_is_population_ddof0(self, tiny_config):
        # The paper reports dispersion over the full instance population,
        # so the runner must use np.std(..., ddof=0) — pin it against an
        # accidental switch to the sample estimator.
        instances = make_instances(tiny_config)
        result = run_sweep(
            tiny_config, instances,
            [AlgoSpec("Benchmark", "benchmark", {})],
            param_name="capacity", param_values=(1.5e4,),
            make_energy=lambda cfg, v: cfg.energy_model(capacity=v),
            make_kwargs=lambda cfg, v, s: dict(s.kwargs), cache=False)
        radio = tiny_config.radio_model()
        energy = tiny_config.energy_model(capacity=1.5e4)
        from repro.core.planner import plan_tour
        from repro.experiments.runner import MB_PER_GB
        volumes = [plan_tour(net, energy, radio,
                             method="benchmark").collected_volume / MB_PER_GB
                   for net in instances]
        row = result.rows[0]
        assert row.std_volume_gb == float(np.std(volumes, ddof=0))
        assert row.std_volume_gb != float(np.std(volumes, ddof=1))

    def test_single_instance_std_exactly_zero(self, tiny_config):
        instances = make_instances(tiny_config)[:1]
        result = run_sweep(
            tiny_config, instances,
            [AlgoSpec("Benchmark", "benchmark", {})],
            param_name="capacity", param_values=(1.5e4,),
            make_energy=lambda cfg, v: cfg.energy_model(capacity=v),
            make_kwargs=lambda cfg, v, s: dict(s.kwargs))
        row = result.rows[0]
        assert row.n_instances == 1
        assert row.std_volume_gb == 0.0
        assert row.std_time_s == 0.0

    def test_perf_aggregation_flattens_nested_counters(self, tiny_config):
        # Algorithm 1's perf dict nests {"grasp": {...}}; the runner must
        # flatten it into dotted keys instead of silently dropping it.
        # perf holds counts only: phase time lives in spans.
        instances = make_instances(tiny_config)
        result = run_sweep(
            tiny_config, instances,
            [AlgoSpec("Alg1", "algorithm1",
                      {"delta": 40.0, "seed": 0, "n_restarts": 2})],
            param_name="capacity", param_values=(1.5e4,),
            make_energy=lambda cfg, v: cfg.energy_model(capacity=v),
            make_kwargs=lambda cfg, v, s: dict(s.kwargs))
        perf = result.rows[0].perf
        assert perf is not None
        assert perf["engine"] == "scalar"
        grasp_keys = sorted(k for k in perf if k.startswith("grasp."))
        assert grasp_keys == [f"grasp.{name}"
                              for name in sorted(GRASP_STAT_NAMES)]
        assert perf["grasp.restarts"] == 2.0
        assert all(perf[k] >= 0.0 for k in grasp_keys)
        assert not any(k.startswith("seconds") for k in perf)


class TestFlattenPerf:
    def test_nested_dicts_become_dotted_keys(self):
        flat = flatten_perf({
            "sites_rescored": 3,
            "grasp": {"restarts": 2, "deep": {"leaf": 1}},
        })
        assert flat == {"sites_rescored": 3.0, "grasp.restarts": 2.0,
                        "grasp.deep.leaf": 1.0}

    def test_non_numeric_leaves_skipped(self):
        assert flatten_perf({"engine": "kernel", "polished": True,
                             "n": 2}) == {"n": 2.0}

    def test_empty(self):
        assert flatten_perf({}) == {}


class TestFigureRunners:
    def test_fig3_shapes(self, tiny_config):
        result = run_fig3(tiny_config, n_restarts=1)
        algos = result.algorithms()
        assert "Algorithm 1" in algos and "Benchmark" in algos
        a1 = result.series("Algorithm 1")
        bench = result.series("Benchmark")
        # Headline: Algorithm 1 dominates the benchmark at every point.
        for r1, rb in zip(a1, bench):
            assert r1.mean_volume_gb >= rb.mean_volume_gb - 1e-9

    def test_fig4_shapes(self, tiny_config):
        result = run_fig4(tiny_config)
        assert "Algorithm 2" in result.algorithms()
        assert "Algorithm 3 (K=2)" in result.algorithms()
        a2 = result.series("Algorithm 2")
        bench = result.series("Benchmark")
        for r2, rb in zip(a2, bench):
            assert r2.mean_volume_gb >= rb.mean_volume_gb - 1e-9
        # Benchmark ignores delta: identical value at every delta.
        vols = [r.mean_volume_gb for r in bench]
        assert max(vols) - min(vols) < 1e-9

    def test_fig5_shapes(self, tiny_config):
        result = run_fig5(tiny_config)
        a2 = result.series("Algorithm 2")
        # Volume grows with capacity.
        assert a2[-1].mean_volume_gb >= a2[0].mean_volume_gb - 1e-9


class TestTables:
    @pytest.fixture(scope="class")
    def result(self, tiny_config):
        return run_fig5(tiny_config)

    def test_csv_round_trips_all_rows(self, result):
        text = rows_to_csv(result)
        lines = text.strip().splitlines()
        assert len(lines) == len(result.rows) + 1  # header
        assert lines[0].startswith("param_name,")

    def test_markdown_contains_both_panels(self, result):
        text = rows_to_markdown(result, title="Fig. 5")
        assert "(a) Collected data volume" in text
        assert "(b) Planning time" in text
        assert "Fig. 5" in text
        assert "Algorithm 2" in text


class TestCli:
    def test_cli_runs_fig5(self, capsys, tmp_path):
        from repro.experiments.cli import main
        rc = main(["fig5", "--scale", "reduced", "--nodes", "20",
                   "--instances", "1", "--quiet", "--out", str(tmp_path)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "Collected data volume" in out
        assert (tmp_path / "fig5_reduced.csv").exists()

    def test_cli_rejects_unknown_figure(self):
        from repro.experiments.cli import main
        with pytest.raises(SystemExit):
            main(["fig9"])
