"""Unit tests for the experiment harness (config, runner, figures, CLI)."""

import numpy as np
import pytest

from repro.experiments.config import ExperimentConfig, paper_settings, reduced_settings
from repro.experiments.fig3 import run_fig3
from repro.experiments.fig4 import run_fig4
from repro.experiments.fig5 import run_fig5
from repro.experiments.instances import make_instances
from repro.experiments.runner import AlgoSpec, run_sweep
from repro.experiments.tables import rows_to_csv, rows_to_markdown
from repro.obs.record import flatten_perf
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
        # A reduced plan's perf dict nests {"reduce": {...}}; the runner
        # must flatten it into dotted keys instead of silently dropping
        # it.  perf holds counts only: phase time lives in spans.
        instances = make_instances(tiny_config)
        result = run_sweep(
            tiny_config, instances,
            [AlgoSpec("Alg2", "algorithm2", {"delta": 40.0})],
            param_name="capacity", param_values=(1.5e4,),
            make_energy=lambda cfg, v: cfg.energy_model(capacity=v),
            make_kwargs=lambda cfg, v, s: dict(s.kwargs),
            site_reduction="safe")
        perf = result.rows[0].perf
        assert perf is not None
        assert perf["engine"] == "kernel"
        assert perf["sites_rescored"] > 0
        reduce_keys = [k for k in perf if k.startswith("reduce.")]
        assert reduce_keys
        assert all(perf[k] >= 0.0 for k in reduce_keys)
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
