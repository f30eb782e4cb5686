"""Option-aware artifact-cache keys and the sweep-level reduction plumbing.

The regression pinned here (PR 9): any per-cell planner option listed in
:data:`repro.experiments.artifacts.ARTIFACT_OPTIONS` — starting with
``site_reduction`` — is part of every cache key, so two cells differing
only in reduction level can never share cached hovering sites, conflict
lists, or auxiliary graphs.  Also covers ``run_sweep(...,
site_reduction=)`` end to end: off-vs-safe row equality, worker-process
parity, and the claims-harness delta checkers.
"""

import json

import numpy as np
import pytest

from repro.core.reduce import ReducedSites, resolve_reduction
from repro.experiments.artifacts import ARTIFACT_OPTIONS, ArtifactCache
from repro.experiments.claims import (
    check_reduction_claims,
    reduction_delta_table,
)
from repro.experiments.config import reduced_settings
from repro.experiments.fig5 import run_fig5
from repro.experiments.instances import make_instances
from repro.utils.errors import InvalidParameterError


@pytest.fixture(scope="module")
def tiny_config():
    # The 8 kJ column makes the unreachable stage actually drop sites
    # (out-and-back bound 400 m), so the reduce counters are non-trivial.
    return reduced_settings().scaled(
        n_nodes=22, n_instances=2,
        capacity_sweep=(8e3, 3e4),
        delta=25.0, k_values=(2,), seed=11)


@pytest.fixture(scope="module")
def cache_setup(tiny_config):
    net = make_instances(tiny_config)[0]
    return net, tiny_config.radio_model(), tiny_config.energy_model()


def nontime_rows(result):
    rows = []
    for row in result.rows:
        d = row.as_dict()
        del d["mean_time_s"], d["std_time_s"]
        rows.append(d)
    return rows


class TestOptionAwareKeys:
    def test_site_reduction_registered(self):
        assert "site_reduction" in ARTIFACT_OPTIONS

    def test_reduction_levels_never_share_sites(self, cache_setup):
        """The PR 9 regression: distinct levels, distinct artifacts."""
        net, radio, energy = cache_setup
        cache = ArtifactCache()
        outs = {}
        for level in (None, "safe", "aggressive"):
            kwargs = {"delta": 25.0}
            if level is not None:
                kwargs["site_reduction"] = level
            outs[level] = cache.augment_kwargs(net, energy, radio,
                                               "algorithm2", kwargs)
        sites = [outs[lvl]["sites"] for lvl in (None, "safe", "aggressive")]
        assert len({id(s) for s in sites}) == 3
        assert not isinstance(outs[None]["sites"], ReducedSites)
        assert isinstance(outs["safe"]["sites"], ReducedSites)
        assert outs["safe"]["sites"].reduction.level == "safe"

    def test_reduction_levels_never_share_alg1_artifacts(self, cache_setup):
        net, radio, energy = cache_setup
        cache = ArtifactCache()
        plain = cache.augment_kwargs(net, energy, radio, "algorithm1",
                                     {"delta": 25.0})
        red = cache.augment_kwargs(net, energy, radio, "algorithm1",
                                   {"delta": 25.0,
                                    "site_reduction": "safe"})
        assert plain["sites"] is not red["sites"]
        assert plain["graph"] is not red["graph"]
        assert plain["conflict_neighbors"] is not red["conflict_neighbors"]
        # The reduced graph is built over the reduced sites, so the
        # planner's sites-match guard accepts the pair.
        assert red["graph"].sites is red["sites"]
        assert len(red["conflict_neighbors"]) == red["sites"].n_sites + 1

    def test_reduced_sites_memoized(self, cache_setup):
        net, radio, energy = cache_setup
        cache = ArtifactCache()
        reduction = resolve_reduction("safe")
        first = cache.reduced_sites(net, radio, 25.0, reduction, energy)
        assert cache.reduced_sites(net, radio, 25.0, reduction,
                                   energy) is first
        # One miss for the base sites, one for the reduction, then a hit.
        assert cache.stats() == {"hits": 1, "misses": 2, "artifacts": 2}

    def test_capacity_in_key_only_when_dependent(self, cache_setup):
        net, radio, _ = cache_setup
        cfg = reduced_settings()
        cache = ArtifactCache()
        safe = resolve_reduction("safe")        # unreachable => capacity
        low = cache.reduced_sites(net, radio, 25.0, safe,
                                  cfg.energy_model(capacity=4e3))
        high = cache.reduced_sites(net, radio, 25.0, safe,
                                   cfg.energy_model(capacity=9e5))
        assert low is not high
        no_cap = resolve_reduction(
            {"level": "z", "zero_award": True})     # capacity-independent
        a = cache.reduced_sites(net, radio, 25.0, no_cap,
                                cfg.energy_model(capacity=4e3))
        b = cache.reduced_sites(net, radio, 25.0, no_cap,
                                cfg.energy_model(capacity=9e5))
        assert a is b

    def test_augmented_kwargs_match_uncached_plan(self, cache_setup):
        from repro.core.algorithm2 import plan_algorithm2
        net, radio, energy = cache_setup
        cache = ArtifactCache()
        out = cache.augment_kwargs(net, energy, radio, "algorithm2",
                                   {"delta": 25.0,
                                    "site_reduction": "safe"})
        cached = plan_algorithm2(net, energy, radio, **out)
        direct = plan_algorithm2(net, energy, radio, delta=25.0,
                                 site_reduction="safe")
        assert np.array_equal(cached.points, direct.points)
        assert np.array_equal(cached.collected, direct.collected)


class TestSweepReduction:
    @pytest.fixture(scope="class")
    def base(self, tiny_config):
        return run_fig5(tiny_config, jobs=1)

    @pytest.fixture(scope="class")
    def safe(self, tiny_config):
        return run_fig5(tiny_config, jobs=1, site_reduction="safe")

    def test_safe_rows_match_off(self, base, safe):
        assert nontime_rows(base) == nontime_rows(safe)

    def test_safe_rows_carry_reduce_counters(self, base, safe):
        perf = safe.rows[0].perf
        assert perf["reduce.sites_in"] > perf["reduce.sites_out"]
        assert all(k for k in perf if k.startswith("reduce."))
        assert not any(k.startswith("reduce.") for k in base.rows[0].perf)

    def test_jobs2_matches_sequential(self, tiny_config, safe):
        par = run_fig5(tiny_config, jobs=2, site_reduction="safe")
        assert [r.deterministic_dict() for r in safe.rows] == \
            [r.deterministic_dict() for r in par.rows]

    def test_transport_is_json_safe(self, tiny_config):
        # The injected kwarg must survive the worker-boundary JSON dump.
        reduction = resolve_reduction("aggressive")
        json.dumps({"site_reduction": reduction.transport()})

    def test_benchmark_cells_untouched(self, base, tiny_config):
        agg = run_fig5(tiny_config, jobs=1, site_reduction="aggressive")
        for b, a in zip(base.rows, agg.rows):
            if b.algorithm == "Benchmark":
                assert b.mean_volume_gb == a.mean_volume_gb

    def test_claims_checkers(self, base, safe, tiny_config):
        r1 = check_reduction_claims(base, safe, level="safe")
        assert r1[0].claim_id == "R1" and r1[0].passed
        agg = run_fig5(tiny_config, jobs=1, site_reduction="aggressive")
        r2 = check_reduction_claims(base, agg, level="aggressive",
                                    max_loss=0.25)
        assert r2[0].claim_id == "R2" and r2[0].passed
        table = reduction_delta_table(base, agg)
        assert table.count("\n") == len(base.algorithms()) + 1
        assert "Benchmark | +0.00%" in table

    def test_claims_reject_mismatched_sweeps(self, base, tiny_config):
        other = run_fig5(tiny_config.scaled(capacity_sweep=(2e4,)), jobs=1)
        with pytest.raises(InvalidParameterError):
            check_reduction_claims(base, other, level="safe")
        with pytest.raises(InvalidParameterError):
            check_reduction_claims(base, base, level="extreme")
