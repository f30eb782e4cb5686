"""Tests for the parallel sweep executor, artifact cache, and trace shards.

The load-bearing contract pinned here: ``run_sweep(..., jobs=N)`` returns
rows whose :meth:`SweepRow.deterministic_dict` view is bitwise-identical
to the in-process ``jobs=1`` path, for every figure runner, any worker
count, and cache on or off.
"""

import json
import os
import subprocess
import sys
from collections import Counter
from dataclasses import replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from repro.core.algorithm1 import plan_algorithm1
from repro.core.auxgraph import build_auxiliary_graph
from repro.core.benchmark_alg import baseline_tour
from repro.core.hovering import HoveringSites, build_hovering_sites
from repro.experiments import runner
from repro.experiments.artifacts import (CACHEABLE_METHODS, ArtifactCache,
                                        resolve_cache)
from repro.experiments.config import reduced_settings
from repro.experiments.fig3 import run_fig3
from repro.experiments.fig4 import run_fig4
from repro.experiments.fig5 import run_fig5
from repro.experiments.instances import make_instances
from repro.experiments.runner import (
    AlgoSpec,
    SweepRow,
    format_progress,
    plan_units,
    run_sweep,
    sweep_cells,
)
from repro.geometry.coverage import SparseCoverage
from repro.obs.shards import (
    append_shard,
    list_shards,
    merge_trace_shards,
    shard_path,
)
from repro.obs.tracer import Tracer, activated
from repro.utils.errors import InvalidParameterError
from repro.utils.timing import Timer


@pytest.fixture(scope="module")
def tiny_config():
    """Small enough that each figure sweep runs in a couple of seconds."""
    return reduced_settings().scaled(
        n_nodes=22, n_instances=2,
        capacity_sweep=(1.5e4, 3e4),
        delta_sweep=(25.0, 40.0),
        delta=25.0, k_values=(2,), seed=11)


def det_rows(result):
    return [row.deterministic_dict() for row in result.rows]


@pytest.fixture(scope="module")
def fig3_seq(tiny_config):
    return run_fig3(tiny_config, n_restarts=1, jobs=1)


class TestParallelEquality:
    def test_fig3_jobs2_matches_sequential(self, tiny_config, fig3_seq):
        par = run_fig3(tiny_config, n_restarts=1, jobs=2)
        assert det_rows(par) == det_rows(fig3_seq)
        assert par.meta["jobs"] == 2
        assert fig3_seq.meta["jobs"] == 1

    def test_fig4_jobs2_matches_sequential(self, tiny_config):
        seq = run_fig4(tiny_config, jobs=1)
        par = run_fig4(tiny_config, jobs=2)
        assert det_rows(par) == det_rows(seq)

    def test_fig5_jobs3_matches_sequential(self, tiny_config):
        seq = run_fig5(tiny_config, jobs=1)
        par = run_fig5(tiny_config, jobs=3)
        assert det_rows(par) == det_rows(seq)

    def test_fig5_cache_off_matches_cache_on(self, tiny_config):
        cached = run_fig5(tiny_config, jobs=1)
        uncached = run_fig5(tiny_config, jobs=1, cache=False)
        assert det_rows(uncached) == det_rows(cached)

    def test_cache_off_matches_cache_on(self, tiny_config, fig3_seq):
        uncached = run_fig3(tiny_config, n_restarts=1, jobs=1, cache=False)
        assert det_rows(uncached) == det_rows(fig3_seq)
        assert "cache" not in uncached.meta

    def test_parallel_cache_off_matches(self, tiny_config, fig3_seq):
        par = run_fig3(tiny_config, n_restarts=1, jobs=2, cache=False)
        assert det_rows(par) == det_rows(fig3_seq)
        assert "cache" not in par.meta

    def test_sequential_cache_reports_hits(self, tiny_config, fig3_seq):
        # Fig. 3 sweeps capacity at fixed δ: after the first capacity the
        # geometry of every instance must come from the cache.
        stats = fig3_seq.meta["cache"]
        assert stats["hits"] > 0
        assert stats["misses"] > 0

    def test_parallel_cache_stats_merged(self, tiny_config):
        par = run_fig3(tiny_config, n_restarts=1, jobs=2)
        assert par.meta["cache"]["misses"] > 0


class TestDeterministicDict:
    def test_excludes_wall_clock(self):
        # perf holds counts only, so it is kept whole (as a copy).
        row = SweepRow("capacity", 1.0, "A", 2.0, 0.1, 3.0, 0.2, 4,
                       perf={"engine": "kernel", "sites_rescored": 7.0})
        det = row.deterministic_dict()
        assert "mean_time_s" not in det
        assert "std_time_s" not in det
        assert det["mean_volume_gb"] == 2.0
        assert det["perf"] == {"engine": "kernel", "sites_rescored": 7.0}
        assert det["perf"] is not row.perf

    def test_no_perf(self):
        row = SweepRow("capacity", 1.0, "A", 2.0, 0.1, 3.0, 0.2, 4)
        assert "perf" not in row.deterministic_dict()


class TestCells:
    def test_canonical_order_values_outer(self):
        specs = [AlgoSpec("A", "benchmark", {}), AlgoSpec("B", "benchmark", {})]
        cells = sweep_cells(specs, (10.0, 20.0))
        assert [(i, v, s.name) for i, v, s in cells] == [
            (0, 10.0, "A"), (1, 10.0, "B"), (2, 20.0, "A"), (3, 20.0, "B")]

    def test_format_progress_counter(self):
        row = SweepRow("capacity", 1.5e4, "Algorithm 1",
                       5.25, 0.0, 0.125, 0.0, 2)
        line = format_progress(2, 8, "capacity", 1.5e4, row)
        assert line.startswith("[3/8] capacity=15000 Algorithm 1:")
        assert "5.25 GB" in line


class TestProgressParallel:
    def test_lines_arrive_in_canonical_order(self, tiny_config):
        lines = []
        result = run_fig3(tiny_config, n_restarts=1, jobs=2,
                          progress=lines.append)
        cells = len(result.rows)
        assert len(lines) == cells
        for k, (line, row) in enumerate(zip(lines, result.rows)):
            assert line.startswith(f"[{k + 1}/{cells}] ")
            assert row.algorithm in line


def unit_spans(records):
    """Unit spans as a sorted multiset: name plus attributes, minus the
    ``worker`` pid a pool stamps on them."""
    return sorted(
        json.dumps([r["name"], {k: v for k, v in r["attrs"].items()
                                if k != "worker"}], sort_keys=True)
        for r in records if r["name"] == "runner.cell")


#: The artifact cache's builds: ``artifacts.*`` plus the builders of the
#: per-(instance, δ) geometry it memoizes.
ARTIFACT_BUILDS = ("hovering.build", "conflicts.build", "auxgraph.build")


def span_nesting(records):
    """``(span name, parent span name)`` pairs of every span the units
    recorded: a sorted multiset of those outside any artifact-build
    subtree (``artifacts.*`` or :data:`ARTIFACT_BUILDS`), and a Counter of
    those inside one.

    Artifact builds run once per process and key (instance, or instance
    and δ), so how many a sweep records depends on how units spread over
    the workers.
    """
    by_id = {r["id"]: r for r in records}

    def in_artifacts(r):
        while r is not None:
            if r["name"].startswith("artifacts.") \
                    or r["name"] in ARTIFACT_BUILDS:
                return True
            r = by_id.get(r["parent"])
        return False

    outside, inside = [], Counter()
    for r in records:
        if r["name"] == "parallel.sweep":
            continue
        pair = (r["name"], by_id[r["parent"]]["name"]
                if r["parent"] is not None else "")
        if in_artifacts(r):
            inside[pair] += 1
        else:
            outside.append(pair)
    return sorted(outside), inside


class TestJobsParity:
    """One executor runs every work unit under any ``jobs``: the unit
    spans, the meta keys and the progress order must not depend on it."""

    @pytest.mark.parametrize("figure", ["fig5", "fig4"])
    def test_spans_meta_and_progress_match(self, tiny_config, figure):
        runner = {"fig4": run_fig4, "fig5": run_fig5}[figure]
        runs = []
        for jobs in (1, 2):
            tracer, lines = Tracer(), []
            with activated(tracer):
                result = runner(tiny_config, jobs=jobs,
                                progress=lines.append)
            records = tracer.records()
            runs.append((result, unit_spans(records), lines,
                         span_nesting(records)))
        (seq, seq_spans, seq_lines, seq_tree), \
            (par, par_spans, par_lines, par_tree) = runs
        assert det_rows(par) == det_rows(seq)
        assert par_spans == seq_spans
        # The shard merge keeps every parent link a worker recorded.
        (seq_tree, seq_built), (par_tree, par_built) = seq_tree, par_tree
        assert par_tree == seq_tree
        assert ("planner.plan_tour", "runner.cell") in seq_tree
        # Every process builds an artifact at most once per key: the
        # baseline tour per instance, the sites per (instance, δ).
        n = tiny_config.n_instances
        deltas = len(tiny_config.delta_sweep) if figure == "fig4" else 1
        assert set(par_built) == set(seq_built)
        assert seq_built == {("artifacts.baseline_tour", "runner.cell"): n,
                             ("tsp.christofides",
                              "artifacts.baseline_tour"): n,
                             ("hovering.build", "runner.cell"): n * deltas}
        for pair, count in par_built.items():
            assert count % n == 0, pair
            assert seq_built[pair] <= count <= 2 * seq_built[pair], pair
        # One cell span per cell.
        assert sorted(attrs["cell"] for _, attrs in
                      map(json.loads, seq_spans)) == list(range(len(seq.rows)))
        assert set(par.meta) == set(seq.meta)
        assert set(par.meta["cache"]) == set(seq.meta["cache"])
        total = len(seq.rows)
        for lines in (seq_lines, par_lines):
            assert [line.split("]")[0] for line in lines] == \
                [f"[{k + 1}/{total}" for k in range(total)]


#: Runs the Fig. 3/4/5 sweeps of the config in ``argv[1]`` (JSON) at
#: ``jobs=1`` under a tracer and again at ``jobs=2``, then plans one tour
#: per method, and prints everything a row, a trace or a plan must not
#: take from the interpreter's hash seed.
HASH_SEED_SCRIPT = """
import json, sys
from repro.core.planner import PLANNERS, plan_tour
from repro.experiments.config import ExperimentConfig
from repro.experiments.fig3 import run_fig3
from repro.experiments.fig4 import run_fig4
from repro.experiments.fig5 import run_fig5
from repro.experiments.instances import make_instances
from repro.obs.tracer import Tracer, activated

config = ExperimentConfig.from_dict(json.loads(sys.argv[1]))
runners = {"fig3": lambda jobs: run_fig3(config, n_restarts=1, jobs=jobs),
           "fig4": lambda jobs: run_fig4(config, jobs=jobs),
           "fig5": lambda jobs: run_fig5(config, jobs=jobs)}
out = {}
for figure, run in runners.items():
    tracer = Tracer()
    with activated(tracer):
        seq = run(1)
    par = run(2)
    out[figure] = {
        "rows": [row.deterministic_dict() for row in seq.rows],
        "par_rows": [row.deterministic_dict() for row in par.rows],
        "cache": seq.meta["cache"],
        "spans": [[r["name"], r["attrs"]] for r in tracer.records()],
        "dropped": tracer.dropped}
net = make_instances(config)[0]
seeded = {"algorithm1": {"n_restarts": 1, "seed": config.seed}}
for method in PLANNERS:
    tour = plan_tour(net, config.energy_model(), config.radio_model(),
                     method=method, delta=config.delta,
                     **seeded.get(method, {}))
    out[method] = [tour.points.tobytes().hex(), tour.sojourns.tobytes().hex(),
                   tour.collected.tobytes().hex()]
print(json.dumps(out, sort_keys=True))
"""


class TestHashSeedParity:
    """Rows, cache counters, the in-process span sequence and plans
    depend on the seed alone, not on ``PYTHONHASHSEED``: iterating a set
    of strings, or a ``hash()`` value, reaching any of them makes two
    interpreters disagree."""

    def run_script(self, config, hash_seed):
        src = Path(__file__).resolve().parents[1] / "src"
        env = {**os.environ, "PYTHONPATH": str(src),
               "PYTHONHASHSEED": str(hash_seed)}
        env.pop("REPRO_TRACE", None)
        env.pop("REPRO_LEDGER", None)
        proc = subprocess.run(
            [sys.executable, "-c", HASH_SEED_SCRIPT,
             json.dumps(config.as_dict())],
            capture_output=True, text=True, env=env, timeout=300)
        assert proc.returncode == 0, proc.stderr
        return json.loads(proc.stdout)

    def test_outputs_equal_under_two_hash_seeds(self, tiny_config):
        first, second = (self.run_script(tiny_config, seed)
                         for seed in (0, 1))
        assert set(first) == {"fig3", "fig4", "fig5", "algorithm1",
                              "algorithm2", "algorithm3", "benchmark"}
        for figure in ("fig3", "fig4", "fig5"):
            run = first[figure]
            assert run["dropped"] == 0
            assert run["rows"] and run["spans"]
            assert run["par_rows"] == run["rows"]
        assert first == second


class TestTraceShardsIntegration:
    def test_worker_spans_merge_into_parent(self, tiny_config):
        tracer = Tracer()
        with activated(tracer):
            result = run_fig3(tiny_config, n_restarts=1, jobs=2)
        records = tracer.records()
        cell_spans = [r for r in records if r["name"] == "runner.cell"]
        assert len(cell_spans) == len(result.rows)
        assert sorted(r["attrs"]["cell"] for r in cell_spans) == \
            list(range(len(result.rows)))
        assert all("worker" in r["attrs"] for r in cell_spans)
        ids = [r["id"] for r in records]
        assert len(ids) == len(set(ids))
        id_set = set(ids)
        for r in records:
            assert r["parent"] is None or r["parent"] in id_set
        assert result.meta["trace_records"] == len(
            [r for r in records if r["name"] != "parallel.sweep"])

    def test_no_tracer_no_trace_meta(self, tiny_config):
        result = run_fig3(tiny_config, n_restarts=1, jobs=2)
        assert "trace_records" not in result.meta


class TestShardsUnit:
    @staticmethod
    def _rec(rid, parent, name, **attrs):
        return {"id": rid, "parent": parent, "name": name,
                "t_start": 0.0, "t_end": 1.0, "attrs": attrs}

    def test_shard_path_naming(self, tmp_path):
        path = shard_path(tmp_path, 4242)
        assert path.name == "trace-shard-4242.jsonl"
        assert path.parent == tmp_path

    def test_append_and_list(self, tmp_path):
        path = shard_path(tmp_path, 1)
        append_shard([self._rec(0, None, "runner.cell", cell=0)], path)
        append_shard([self._rec(1, None, "runner.cell", cell=1)], path)
        assert list_shards(tmp_path) == [path]
        merged = merge_trace_shards(tmp_path)
        assert [r["attrs"]["cell"] for r in merged] == [0, 1]

    def test_merge_orders_shards_by_min_unit(self, tmp_path):
        # Worker pids give no ordering guarantee; the merge must sort by
        # the smallest work-unit index each shard saw.
        append_shard([self._rec(0, None, "runner.cell", unit=3, cell=3)],
                     shard_path(tmp_path, 111))
        append_shard([self._rec(0, None, "runner.cell", unit=0, cell=0)],
                     shard_path(tmp_path, 999))
        merged = merge_trace_shards(tmp_path)
        assert [r["attrs"]["cell"] for r in merged] == [0, 3]

    def test_merge_rebases_ids_and_parents(self, tmp_path):
        append_shard([self._rec(0, None, "runner.cell", cell=0),
                      self._rec(1, 0, "alg1.reduction")],
                     shard_path(tmp_path, 1))
        append_shard([self._rec(0, None, "runner.cell", cell=1),
                      self._rec(1, 0, "alg1.reduction")],
                     shard_path(tmp_path, 2))
        merged = merge_trace_shards(tmp_path)
        ids = [r["id"] for r in merged]
        assert len(set(ids)) == 4
        for child in (r for r in merged if r["parent"] is not None):
            parent = next(r for r in merged if r["id"] == child["parent"])
            assert parent["name"] == "runner.cell"

    def test_merge_links_children_recorded_before_parents(self, tmp_path):
        # A tracer records a span when it closes, so a shard lists every
        # child before its parent.
        append_shard([self._rec(5, 6, "planner.plan_tour"),
                      self._rec(6, None, "runner.cell", unit=0, cell=0)],
                     shard_path(tmp_path, 1))
        child, parent = merge_trace_shards(tmp_path)
        assert child["parent"] == parent["id"]
        tracer = Tracer()
        with activated(tracer):
            with tracer.span("parallel.sweep"):
                pass
        tracer.ingest([child, parent])
        _, child, parent = tracer.records()
        assert child["parent"] == parent["id"]

    def test_merge_accepts_explicit_paths(self, tmp_path):
        a = shard_path(tmp_path, 1)
        append_shard([self._rec(0, None, "runner.cell", cell=0)], a)
        assert len(merge_trace_shards([a])) == 1

    def test_merge_empty_dir(self, tmp_path):
        assert merge_trace_shards(tmp_path) == []


class TestWorkUnits:
    def test_non_json_kwargs_rejected(self, tiny_config):
        # Raised by the pool's JSON codec before any worker starts.
        with pytest.raises(TypeError, match="non-serialisable"):
            run_sweep(tiny_config, make_instances(tiny_config),
                      [AlgoSpec("Alg 2", "algorithm2", {})], "capacity",
                      (1.5e4,),
                      make_energy=lambda c, v: c.energy_model(capacity=v),
                      make_kwargs=lambda c, v, s: {
                          "delta": 25.0, "rng": np.random.default_rng(0)},
                      jobs=2)

    def test_units_in_canonical_order(self, tiny_config):
        specs = [AlgoSpec("Bench", "benchmark", {}),
                 AlgoSpec("Alg 1", "algorithm1", {})]
        units = plan_units(
            tiny_config, specs, "delta", (40.0, 25.0),
            make_energy=lambda c, v: c.energy_model(),
            make_kwargs=lambda c, v, s: (
                {} if s.method == "benchmark" else {"delta": v}),
            validate=True)
        assert [(u["unit"], u["algorithm"], u["value"], u["kwargs"])
                for u in units] == [
            (0, "Bench", 40.0, {}),
            (1, "Alg 1", 40.0, {"delta": 40.0}),
            (2, "Bench", 25.0, {}),
            (3, "Alg 1", 25.0, {"delta": 25.0})]
        json.dumps(units)           # plain data: the pool ships it as is


class TestEngineSelection:
    def test_run_sweep_rejects_jobs_zero(self, tiny_config):
        with pytest.raises(ValueError, match="jobs"):
            run_sweep(tiny_config, [], [], "capacity", (),
                      make_energy=lambda c, v: c.energy_model(),
                      make_kwargs=lambda c, v, s: {}, jobs=0)

    @pytest.mark.parametrize("jobs", [2.5, "2", True])
    def test_run_sweep_rejects_non_integer_jobs(self, tiny_config, jobs):
        # Unchecked, 2.5 raised a bare TypeError from the process pool,
        # "2" a TypeError from the comparison, and True ran with
        # meta["jobs"] == True.
        with pytest.raises(InvalidParameterError, match="jobs"):
            run_sweep(tiny_config, make_instances(tiny_config),
                      [AlgoSpec("Bench", "benchmark", {})], "capacity",
                      (1.5e4,),
                      make_energy=lambda c, v: c.energy_model(capacity=v),
                      make_kwargs=lambda c, v, s: {}, jobs=jobs)

    def test_parallel_empty_cells(self, tiny_config):
        instances = make_instances(tiny_config)
        spec = AlgoSpec("Bench", "benchmark", {})
        for algorithms, values in (([], (1.5e4,)), ([spec], ())):
            for jobs in (1, 2):
                result = run_sweep(
                    tiny_config, instances, algorithms, "capacity", values,
                    make_energy=lambda c, v: c.energy_model(),
                    make_kwargs=lambda c, v, s: {}, jobs=jobs)
                assert result.rows == []

    @pytest.mark.parametrize("jobs", [1, 2])
    @pytest.mark.parametrize("figure", ["fig3", "fig5", "fig4"])
    def test_empty_instance_list_rejected(self, tiny_config, jobs, figure):
        runner = {"fig3": run_fig3, "fig4": run_fig4, "fig5": run_fig5}
        with pytest.raises(InvalidParameterError, match="instance"):
            runner[figure](tiny_config, [], jobs=jobs)


class TestConfigTransport:
    def test_round_trip(self, tiny_config):
        from repro.experiments.config import ExperimentConfig
        back = ExperimentConfig.from_dict(tiny_config.as_dict())
        assert back == tiny_config

    def test_tuples_restored(self, tiny_config):
        from repro.experiments.config import ExperimentConfig
        data = tiny_config.as_dict()
        assert isinstance(data["capacity_sweep"], list)
        back = ExperimentConfig.from_dict(data)
        assert back.capacity_sweep == tiny_config.capacity_sweep
        assert isinstance(back.capacity_sweep, tuple)

    def test_unknown_key_rejected(self, tiny_config):
        from repro.experiments.config import ExperimentConfig
        data = tiny_config.as_dict()
        data["warp_factor"] = 9
        with pytest.raises(InvalidParameterError):
            ExperimentConfig.from_dict(data)


@pytest.fixture(scope="module")
def cache_setup(tiny_config):
    net = make_instances(tiny_config)[0]
    return net, tiny_config.radio_model(), tiny_config.energy_model()


class TestArtifactCache:
    def test_sites_hit_returns_same_object(self, cache_setup):
        net, radio, _ = cache_setup
        cache = ArtifactCache()
        first = cache.sites(net, radio, 25.0)
        assert cache.sites(net, radio, 25.0) is first
        assert cache.stats() == {"hits": 1, "misses": 1, "artifacts": 1}

    def test_delta_is_part_of_the_key(self, cache_setup):
        net, radio, _ = cache_setup
        cache = ArtifactCache()
        assert cache.sites(net, radio, 25.0) is not cache.sites(net, radio,
                                                                40.0)
        assert cache.misses == 2

    def test_graph_keyed_on_rates_not_capacity(self, cache_setup):
        net, radio, _ = cache_setup
        cfg = reduced_settings()
        cache = ArtifactCache()
        g_low = cache.graph(net, radio, 25.0, cfg.energy_model(capacity=1e4))
        g_high = cache.graph(net, radio, 25.0, cfg.energy_model(capacity=9e4))
        assert g_low is g_high

    def test_conflict_neighbors_depot_entry_empty(self, cache_setup):
        net, radio, _ = cache_setup
        cache = ArtifactCache()
        lists = cache.conflict_neighbors(net, radio, 25.0)
        sites = cache.sites(net, radio, 25.0)
        assert len(lists) == sites.n_sites + 1
        assert lists[0].size == 0

    def test_augment_benchmark_injects_tour(self, cache_setup):
        net, radio, energy = cache_setup
        cache = ArtifactCache()
        out = cache.augment_kwargs(net, energy, radio, "benchmark", {})
        np.testing.assert_array_equal(out["tour"], baseline_tour(net))
        assert not out["tour"].flags.writeable
        assert (cache.hits, cache.misses, len(cache)) == (0, 1, 1)
        # Keyed on the instance alone: another capacity is a hit on the
        # same object.
        again = cache.augment_kwargs(net, replace(energy, capacity=1.0),
                                     radio, "benchmark", {})
        assert again["tour"] is out["tour"]
        assert (cache.hits, cache.misses, len(cache)) == (1, 1, 1)
        # A tour the caller passed is kept.
        kwargs = {"tour": np.arange(net.n_nodes + 1)}
        assert cache.augment_kwargs(net, energy, radio, "benchmark",
                                    kwargs) is kwargs
        assert CACHEABLE_METHODS == ("algorithm1", "algorithm2",
                                     "algorithm3")

    def test_augment_passthrough_without_delta(self, cache_setup):
        net, radio, energy = cache_setup
        cache = ArtifactCache()
        kwargs = {"K": 2}
        assert cache.augment_kwargs(net, energy, radio, "algorithm3",
                                    kwargs) is kwargs

    def test_augment_algorithm2_injects_sites(self, cache_setup):
        net, radio, energy = cache_setup
        cache = ArtifactCache()
        out = cache.augment_kwargs(net, energy, radio, "algorithm2",
                                   {"delta": 25.0})
        assert out["sites"] is cache.sites(net, radio, 25.0)
        assert "graph" not in out

    def test_augment_algorithm1_injects_graph_and_conflicts(self,
                                                            cache_setup):
        net, radio, energy = cache_setup
        cache = ArtifactCache()
        out = cache.augment_kwargs(net, energy, radio, "algorithm1",
                                   {"delta": 25.0})
        assert out["sites"] is cache.sites(net, radio, 25.0)
        assert out["graph"] is cache.graph(net, radio, 25.0, energy)
        assert out["conflict_neighbors"] is cache.conflict_neighbors(
            net, radio, 25.0)

    @pytest.mark.parametrize("figure", ["fig3", "fig4"])
    def test_one_build_span_per_cache_miss(self, tiny_config, figure):
        tracer = Tracer()
        with activated(tracer):
            if figure == "fig3":
                result = run_fig3(tiny_config, n_restarts=1)
            else:
                result = run_fig4(tiny_config)
        records = tracer.records()
        counts = Counter(r["name"] for r in records)
        builds = ("hovering.build", "conflicts.build", "auxgraph.build",
                  "artifacts.baseline_tour")
        n = tiny_config.n_instances
        if figure == "fig3":        # Algorithm 1 at one δ + the baseline
            expected = dict.fromkeys(builds, n)
        else:                       # sites per (instance, δ) + baseline
            expected = {"hovering.build": n * len(tiny_config.delta_sweep),
                        "conflicts.build": 0, "auxgraph.build": 0,
                        "artifacts.baseline_tour": n}
        assert {name: counts[name] for name in builds} == expected
        assert sum(expected.values()) == result.meta["cache"]["misses"]
        sites = [r["attrs"] for r in records if r["name"] == "hovering.build"]
        assert all(set(a) == {"delta", "sites", "nnz"} and a["nnz"] > 0
                   for a in sites)

    @pytest.mark.parametrize("cache", [True, False],
                             ids=["cache", "no-cache"])
    def test_coverage_built_outside_the_timer_when_cached(self, tiny_config,
                                                          cache):
        """A cached run_fig4 builds every coverage CSR before a planner's
        timer starts and never derives the dense matrix or the awards;
        without the cache each planner builds its own, timed."""
        timing = []
        builds = []
        real_from_pairs = SparseCoverage.from_pairs.__func__

        class SpyTimer(Timer):
            def __enter__(self):
                timing.append(True)
                return super().__enter__()

            def __exit__(self, *exc):
                timing.pop()
                return super().__exit__(*exc)

        def from_pairs(cls, *args):
            builds.append(bool(timing))
            return real_from_pairs(cls, *args)

        def derived(self):
            raise AssertionError("an (m, n) array was derived")

        with mock.patch.object(runner, "Timer", SpyTimer), \
                mock.patch.object(SparseCoverage, "from_pairs",
                                  classmethod(from_pairs)), \
                mock.patch.object(HoveringSites, "cov_matrix",
                                  property(derived)), \
                mock.patch.object(HoveringSites, "awards",
                                  property(derived)):
            run_fig4(tiny_config, cache=cache)
        planned = (len(tiny_config.delta_sweep) * tiny_config.n_instances
                   * (1 + len(tiny_config.k_values)))
        if cache:
            assert builds == [False] * (len(tiny_config.delta_sweep)
                                        * tiny_config.n_instances)
        else:
            assert builds == [True] * planned

    def test_resolve_cache(self):
        assert resolve_cache(False) is None
        assert resolve_cache(None) is None
        fresh = resolve_cache(True)
        assert isinstance(fresh, ArtifactCache)
        # Only bools: the sweep owns its cache, and its counters come
        # back as meta["cache"] under any jobs.
        for bad in ("yes", ArtifactCache()):
            with pytest.raises(TypeError, match="must be a bool"):
                resolve_cache(bad)


class TestAlgorithm1PrebuiltInputs:
    def test_prebuilt_inputs_give_identical_tour(self, cache_setup):
        net, radio, energy = cache_setup
        fresh = plan_algorithm1(net, energy, radio, delta=25.0,
                                solver="greedy")
        sites = build_hovering_sites(net, radio, 25.0)
        graph = build_auxiliary_graph(sites, energy)
        cached = plan_algorithm1(net, energy, radio, delta=25.0,
                                 solver="greedy", sites=sites, graph=graph)
        assert cached.collected_volume == fresh.collected_volume
        np.testing.assert_array_equal(cached.points, fresh.points)
        np.testing.assert_array_equal(cached.collected, fresh.collected)

    def test_graph_with_wrong_rates_rejected(self, cache_setup):
        net, radio, energy = cache_setup
        sites = build_hovering_sites(net, radio, 25.0)
        other = reduced_settings().energy_model()
        stale = build_auxiliary_graph(
            sites, type(other)(capacity=other.capacity,
                               hover_power=other.hover_power * 2,
                               travel_power=other.travel_power,
                               speed=other.speed))
        with pytest.raises(InvalidParameterError, match="energy rates"):
            plan_algorithm1(net, energy, radio, delta=25.0, graph=stale)

    def test_mismatched_sites_and_graph_rejected(self, cache_setup):
        net, radio, energy = cache_setup
        sites = build_hovering_sites(net, radio, 25.0)
        other_sites = build_hovering_sites(net, radio, 40.0)
        graph = build_auxiliary_graph(other_sites, energy)
        with pytest.raises(InvalidParameterError):
            plan_algorithm1(net, energy, radio, delta=25.0,
                            sites=sites, graph=graph)


# --------------------------------------------------------------------- #
# Run-ledger integration: shard merging and sequential/parallel
# emission.
# --------------------------------------------------------------------- #

from repro.obs.ledger import Ledger, get_ledger, ledger_active, set_ledger  # noqa: E402
from repro.obs.record import RunRecord  # noqa: E402
from repro.obs.shards import merge_ledger_shards  # noqa: E402


@pytest.fixture(autouse=True)
def ambient_obs_off():
    """The ledger starts and ends disabled in every test."""
    prev_ledger = set_ledger(None)
    yield
    set_ledger(prev_ledger)


def ledger_events(ledger):
    counts = {}
    for rec in ledger.records():
        counts[rec.event] = counts.get(rec.event, 0) + 1
    return counts


class TestLedgerShardsUnit:
    @staticmethod
    def _record(cell, instance, label="Alg 2"):
        return RunRecord(event="planner.call", label=label,
                         config_hash=f"h{cell}",
                         extra={"cell": cell, "instance": instance})

    def test_ledger_shard_path_naming(self, tmp_path):
        path = shard_path(tmp_path, 4242, kind="ledger")
        assert path.name == "ledger-shard-4242.jsonl"

    def test_list_shards_filters_by_kind(self, tmp_path):
        Ledger(shard_path(tmp_path, 1, kind="ledger")).record(
            self._record(0, 0))
        append_shard([{"id": 0, "parent": None, "name": "runner.cell",
                       "t_start": 0.0, "t_end": 1.0, "attrs": {}}],
                     shard_path(tmp_path, 1))
        assert [p.name for p in list_shards(tmp_path)] == \
            ["trace-shard-1.jsonl"]
        assert [p.name for p in list_shards(tmp_path, kind="ledger")] == \
            ["ledger-shard-1.jsonl"]

    def test_merge_orders_by_cell_then_instance(self, tmp_path):
        # Shard filenames sort opposite to cell order: the merge must
        # still produce canonical (cell, instance) order.
        high = Ledger(shard_path(tmp_path, 111, kind="ledger"))
        high.record(self._record(3, 1))
        high.record(self._record(3, 0))
        low = Ledger(shard_path(tmp_path, 999, kind="ledger"))
        low.record(self._record(0, 0))
        merged = merge_ledger_shards(tmp_path)
        assert [(r["extra"]["cell"], r["extra"]["instance"])
                for r in merged] == [(0, 0), (3, 0), (3, 1)]

    def test_merge_accepts_explicit_paths(self, tmp_path):
        path = shard_path(tmp_path, 1, kind="ledger")
        Ledger(path).record(self._record(0, 0))
        assert len(merge_ledger_shards([path])) == 1

    def test_merge_empty_dir(self, tmp_path):
        assert merge_ledger_shards(tmp_path) == []

    def test_merged_records_round_trip(self, tmp_path):
        path = shard_path(tmp_path, 1, kind="ledger")
        original = self._record(2, 1)
        Ledger(path).record(original)
        [payload] = merge_ledger_shards(tmp_path)
        assert RunRecord.from_dict(payload) == original


class TestSequentialLedger:
    def test_rows_bitwise_identical_with_ledger_on(self, tiny_config,
                                                   fig3_seq):
        with ledger_active(Ledger()) as ledger:
            result = run_fig3(tiny_config, n_restarts=1, jobs=1)
        assert det_rows(result) == det_rows(fig3_seq)
        events = ledger_events(ledger)
        assert events["sweep.cell"] == len(result.rows)
        assert events["planner.call"] == \
            len(result.rows) * tiny_config.n_instances

    def test_cell_records_identify_the_campaign(self, tiny_config):
        with ledger_active(Ledger()) as ledger:
            result = run_fig3(tiny_config, n_restarts=1, jobs=1)
        cells = [r for r in ledger.records() if r.event == "sweep.cell"]
        labels = {row.algorithm for row in result.rows}
        for i, rec in enumerate(cells):
            assert rec.label in labels
            assert rec.jobs == 1
            assert len(rec.config_hash) == 16
            assert rec.extra["cell"] == i
            assert rec.extra["param_name"] == "capacity"
            assert rec.extra["param_value"] in tiny_config.capacity_sweep
            assert rec.extra["n_instances"] == tiny_config.n_instances
            assert rec.wall_s >= 0.0

    def test_no_ledger_emits_nothing(self, tiny_config):
        result = run_fig3(tiny_config, n_restarts=1, jobs=1)
        assert get_ledger() is None
        assert "ledger_records" not in result.meta

    def test_fig5_emits_one_record_per_cell(self, tiny_config):
        with ledger_active(Ledger()) as ledger:
            result = run_fig5(tiny_config, jobs=1)
        events = ledger_events(ledger)
        assert set(events) == {"planner.call", "sweep.cell"}
        assert events["sweep.cell"] == len(result.rows)
        assert events["planner.call"] == \
            len(result.rows) * tiny_config.n_instances


class TestParallelLedger:
    def test_worker_records_merge_into_parent(self, tiny_config, fig3_seq):
        with ledger_active(Ledger()) as ledger:
            par = run_fig3(tiny_config, n_restarts=1, jobs=2)
        assert det_rows(par) == det_rows(fig3_seq)
        events = ledger_events(ledger)
        expected_calls = len(par.rows) * tiny_config.n_instances
        assert events["planner.call"] == expected_calls
        assert events["sweep.cell"] == len(par.rows)
        assert par.meta["ledger_records"] == expected_calls

    def test_parallel_ledger_matches_sequential_deterministically(
            self, tiny_config):
        def planner_views(jobs):
            with ledger_active(Ledger()) as ledger:
                run_fig3(tiny_config, n_restarts=1, jobs=jobs)
            views = []
            for rec in ledger.records():
                if rec.event != "planner.call":
                    continue
                det = rec.deterministic_dict()
                det.pop("jobs")
                views.append(det)
            return sorted(views, key=lambda d: sorted(d.items().__str__()))

        seq = planner_views(1)
        par = planner_views(2)
        assert len(seq) == len(par) > 0
        assert sorted(map(str, seq)) == sorted(map(str, par))

    def test_parallel_without_ledger_unchanged(self, tiny_config):
        result = run_fig3(tiny_config, n_restarts=1, jobs=2)
        assert "ledger_records" not in result.meta
        assert get_ledger() is None
