"""δ-continuation warm starts — unit and sweep-level contracts.

The mode's two promises: (a) with the reduction off or ``safe`` a
continuation cell never collects *less* than its cold-start value
(strict-improvement acceptance), and (b) the chains are deterministic
and identical across execution engines (``jobs=1`` vs ``jobs=2``).
"""

import numpy as np
import pytest

from repro.core.reduce import reduce_sites, resolve_reduction
from repro.experiments.artifacts import ARTIFACT_OPTIONS, ArtifactCache
from repro.experiments.config import ExperimentConfig
from repro.experiments.continuation import (CHAINABLE_METHODS,
                                            chainable_spec,
                                            continuation_order,
                                            project_warm_nodes,
                                            tour_seed_points)
from repro.experiments.fig4 import fig4_algorithms, run_fig4
from repro.experiments.instances import make_instances
from repro.experiments.runner import AlgoSpec, run_sweep

CONFIG = ExperimentConfig(n_nodes=24, n_instances=2, seed=13)
DELTAS = [30.0, 20.0, 15.0]


def alg1_spec():
    return AlgoSpec("Algorithm 1", "algorithm1",
                    {"solver": "grasp", "n_restarts": 3, "seed": 0})


def make_kwargs(cfg, value, spec):
    kwargs = dict(spec.kwargs)
    if spec.method != "benchmark":
        kwargs["delta"] = value
    return kwargs


def sweep(algos, values=DELTAS, **kw):
    return run_sweep(
        CONFIG, make_instances(CONFIG), algos,
        param_name="delta", param_values=values,
        make_energy=lambda cfg, value: cfg.energy_model(),
        make_kwargs=make_kwargs, validate=True, **kw)


def timeless(row):
    d = row.as_dict()
    del d["mean_time_s"], d["std_time_s"]
    return d


class TestHelpers:
    def test_continuation_order_descending_and_stable(self):
        assert continuation_order([10.0, 30.0, 20.0]) == [1, 2, 0]
        assert continuation_order([20.0, 20.0, 25.0]) == [2, 0, 1]
        assert continuation_order([]) == []

    def test_chainable_spec(self):
        assert "algorithm1" in CHAINABLE_METHODS
        assert chainable_spec(CONFIG, alg1_spec(), DELTAS, make_kwargs)
        bench = AlgoSpec("Benchmark", "benchmark", {})
        assert not chainable_spec(CONFIG, bench, DELTAS, make_kwargs)
        alg2 = AlgoSpec("Algorithm 2", "algorithm2", {})
        assert not chainable_spec(CONFIG, alg2, DELTAS, make_kwargs)
        assert not chainable_spec(CONFIG, alg1_spec(), [], make_kwargs)
        # Fixed (non-swept) delta breaks the chain contract.
        fixed = AlgoSpec("Algorithm 1", "algorithm1", {"delta": 25.0})
        assert not chainable_spec(CONFIG, fixed, DELTAS,
                                  lambda cfg, v, s: dict(s.kwargs))
        # Caller-supplied warm payloads are never overridden.
        warm = AlgoSpec("Algorithm 1", "algorithm1", {"warm_nodes": [1]})
        assert not chainable_spec(CONFIG, warm, DELTAS, make_kwargs)

    def test_project_warm_nodes(self):
        net = make_instances(CONFIG)[0]
        cache = ArtifactCache()
        sites = cache.sites(net, CONFIG.radio_model(), 20.0)
        # Projecting the sites' own points maps each to itself (+1).
        pts = sites.points[:3]
        assert project_warm_nodes(pts, sites) == [1, 2, 3]
        # Duplicates dedup, order preserved.
        assert project_warm_nodes(np.vstack([pts[1], pts[1], pts[0]]),
                                  sites) == [2, 1]
        assert project_warm_nodes(np.empty((0, 2)), sites) is None

    def test_tour_seed_points_is_json_data(self):
        import json
        net = make_instances(CONFIG)[0]
        from repro.core.planner import plan_tour
        tour = plan_tour(net, CONFIG.energy_model(), CONFIG.radio_model(),
                         method="algorithm1", delta=20.0, seed=0)
        seed = tour_seed_points(tour)
        assert json.dumps(seed)          # plain nested lists
        assert len(seed) == len(tour.points) - 1
        np.testing.assert_allclose(np.asarray(seed), tour.points[1:])


class TestCorridorSeed:
    def test_seeded_reduction_deterministic(self):
        net = make_instances(CONFIG)[0]
        cache = ArtifactCache()
        sites = cache.sites(net, CONFIG.radio_model(), 15.0)
        reduction = resolve_reduction("aggressive")
        seed = np.array([[100.0, 100.0], [200.0, 150.0]])
        a = reduce_sites(sites, reduction, energy=CONFIG.energy_model(),
                         corridor_seed=seed)
        b = reduce_sites(sites, reduction, energy=CONFIG.energy_model(),
                         corridor_seed=seed)
        np.testing.assert_array_equal(a.survivors, b.survivors)
        # Every sensor still covered (coverage repair ran).
        assert a.cov_matrix.any(axis=0).all()

    def test_seed_joins_aggressive_key_only(self):
        energy = CONFIG.energy_model()
        seed = [[1.0, 2.0], [3.0, 4.0]]
        token = ArtifactCache._reduction_token
        aggressive = resolve_reduction("aggressive")
        assert (token(aggressive, energy, seed)
                != token(aggressive, energy, None))
        assert (token(aggressive, energy, seed)
                != token(aggressive, energy, [[1.0, 2.0]]))
        # The safe level has no corridor stage: the seed is unused and
        # must not split the cache entry.
        safe = resolve_reduction("safe")
        assert token(safe, energy, seed) == token(safe, energy, None)
        assert "corridor_seed" in ARTIFACT_OPTIONS

    def test_augment_kwargs_consumes_seed(self):
        net = make_instances(CONFIG)[0]
        cache = ArtifactCache()
        augmented = cache.augment_kwargs(
            net, CONFIG.energy_model(), CONFIG.radio_model(), "algorithm1",
            {"delta": 20.0, "corridor_seed": [[10.0, 10.0]]})
        assert "corridor_seed" not in augmented
        assert "sites" in augmented


class TestContinuationSweeps:
    def test_rejects_non_delta_sweeps_and_no_cache(self):
        with pytest.raises(ValueError, match="delta"):
            run_sweep(CONFIG, make_instances(CONFIG), [alg1_spec()],
                      param_name="capacity", param_values=[1e4],
                      make_energy=lambda c, v: c.energy_model(capacity=v),
                      make_kwargs=lambda c, v, s: dict(s.kwargs),
                      delta_continuation=True)
        with pytest.raises(ValueError, match="cache"):
            sweep([alg1_spec()], cache=False, delta_continuation=True)

    def test_never_worse_than_cold_and_jobs_parity(self):
        algos = [alg1_spec(), AlgoSpec("Benchmark", "benchmark", {})]
        cold = sweep(algos)
        warm = sweep(algos, delta_continuation=True)
        warm2 = sweep(algos, delta_continuation=True, jobs=2)
        assert cold.meta["continuation_chains"] == 0
        assert warm.meta["continuation_chains"] == CONFIG.n_instances
        assert warm2.meta["continuation_chains"] == CONFIG.n_instances
        for r_cold, r1, r2 in zip(cold.rows, warm.rows, warm2.rows):
            assert r1.deterministic_dict() == r2.deterministic_dict()
            if r_cold.algorithm == "Algorithm 1":
                assert (r1.mean_volume_gb
                        >= r_cold.mean_volume_gb - 1e-12)
            else:
                # Non-chainable specs keep the per-cell path untouched.
                assert timeless(r1) == timeless(r_cold)

    def test_duplicate_delta_rows_identical(self):
        """An equal-δ pair chains trivially: the warm tour equals the
        cold winner, strict improvement rejects it, rows match."""
        warm = sweep([alg1_spec()], values=[20.0, 20.0],
                     delta_continuation=True)
        assert timeless(warm.rows[0]) == timeless(warm.rows[1])
        # The finer (later) cell did evaluate the warm start.
        assert warm.rows[1].perf["grasp.warm_starts"] == 1.0

    def test_aggressive_reduction_jobs_parity(self):
        warm = sweep([alg1_spec()], delta_continuation=True,
                     site_reduction="aggressive")
        warm2 = sweep([alg1_spec()], delta_continuation=True,
                      site_reduction="aggressive", jobs=2)
        for r1, r2 in zip(warm.rows, warm2.rows):
            assert r1.deterministic_dict() == r2.deterministic_dict()


class TestFig4Wiring:
    def test_fig4_algorithms_optional_alg1(self):
        names = [s.name for s in fig4_algorithms(CONFIG)]
        assert "Algorithm 1" not in names
        with_alg1 = fig4_algorithms(CONFIG, algorithm1=True)
        assert with_alg1[0].name == "Algorithm 1"
        assert with_alg1[0].method == "algorithm1"
        assert names == [s.name for s in with_alg1[1:]]

    def test_run_fig4_continuation_implies_alg1(self):
        config = ExperimentConfig(n_nodes=15, n_instances=1, seed=3)
        result = run_fig4(config, delta_continuation=True)
        assert "Algorithm 1" in result.algorithms()
        assert result.meta["continuation_chains"] == 1
