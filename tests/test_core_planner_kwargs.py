"""``plan_tour`` kwarg validation: unknown methods, stray options, and
the fixed ``meta["perf"]["engine"]`` label of each planner's one path."""

from __future__ import annotations

from contextlib import nullcontext

import pytest

from repro.core.algorithm2 import plan_algorithm2
from repro.core.algorithm3 import plan_algorithm3
from repro.core.planner import PLANNERS, plan_tour
from repro.utils.errors import InvalidParameterError
from tests.oracles import IMPLEMENTATIONS, dense_planners, legacy_prune, plan_on


class TestMethodValidation:
    def test_unknown_method_raises_and_names_the_registry(
            self, small_net, energy, radio):
        with pytest.raises(InvalidParameterError) as exc:
            plan_tour(small_net, energy, radio, method="algorithm7")
        message = str(exc.value)
        assert "algorithm7" in message
        for known in PLANNERS:
            assert known in message

    def test_method_is_keyword_only(self, small_net, energy, radio):
        with pytest.raises(TypeError):
            plan_tour(small_net, energy, radio, "algorithm2")

    def test_every_registered_method_dispatches(self, tiny_net, energy,
                                                radio):
        for method in PLANNERS:
            tour = plan_tour(tiny_net, energy, radio, method=method,
                             delta=25.0)
            assert tour.method == method


class TestStrayKwargs:
    def test_benchmark_rejects_stray_kwargs(self, small_net, energy, radio):
        with pytest.raises(InvalidParameterError) as exc:
            plan_tour(small_net, energy, radio, method="benchmark",
                      K=4, polish=True)
        message = str(exc.value)
        assert "K" in message and "polish" in message

    def test_algorithm2_rejects_unknown_kwargs(self, small_net, energy,
                                               radio):
        """Algorithm 2 — and every other method — names the option it
        does not take instead of leaking a bare ``TypeError``."""
        for method in PLANNERS:
            with pytest.raises(InvalidParameterError) as exc:
                plan_tour(small_net, energy, radio, method=method,
                          warp_speed=True)
            message = str(exc.value)
            assert method in message and "'warp_speed'" in message

    def test_bad_engine_rejected_everywhere(self, small_net, energy, radio):
        """``engine=``, ``site_reduction=`` and ``warm_nodes=`` are no
        planner options any more; a stale one gets a clear message from
        every method."""
        stale = {"engine": "turbo", "site_reduction": "safe",
                 "warm_nodes": [1, 2]}
        for method in PLANNERS:
            for name, value in stale.items():
                with pytest.raises(InvalidParameterError) as exc:
                    plan_tour(small_net, energy, radio, method=method,
                              delta=25.0, **{name: value})
                assert f"'{name}'" in str(exc.value)


class TestPlannerOptions:
    def test_christofides_mode_is_algorithm2_only(self, tiny_net, energy,
                                                  radio):
        with pytest.raises(InvalidParameterError,
                           match=r"algorithm3 planner got unknown "
                                 r"option\(s\) \['tsp_mode'\]"):
            plan_tour(tiny_net, energy, radio, method="algorithm3",
                      delta=25.0, tsp_mode="christofides")

    @pytest.mark.parametrize("method", ["algorithm2", "algorithm3"])
    @pytest.mark.parametrize("bad", [float("nan"), -1, 2.5, True, "3"])
    def test_bad_max_iterations_rejected(self, small_net, energy, radio,
                                         method, bad):
        """Unchecked, NaN and -1 plan a depot-only tour, 2.5 runs 3
        rounds, ``True`` one round, and ``"3"`` raises a bare
        ``TypeError``."""
        with pytest.raises(InvalidParameterError, match="max_iterations"):
            plan_tour(small_net, energy, radio, method=method, delta=25.0,
                      max_iterations=bad)

    @pytest.mark.parametrize("method", ["algorithm2", "algorithm3"])
    def test_integral_max_iterations_caps_rounds(self, small_net, energy,
                                                 radio, method):
        as_int, as_float = (plan_tour(small_net, energy, radio,
                                      method=method, delta=25.0,
                                      max_iterations=cap)
                            for cap in (3, 3.0))
        assert as_int.meta["iterations"] == as_float.meta["iterations"] <= 3
        assert as_int.collected_volume == as_float.collected_volume


class TestDeltaFloor:
    @pytest.mark.parametrize("method", ["algorithm1", "algorithm2",
                                        "algorithm3"])
    def test_tiny_delta_raises_instead_of_exhausting_memory(
            self, small_net, energy, radio, method):
        with pytest.raises(InvalidParameterError, match="coarser delta"):
            plan_tour(small_net, energy, radio, method=method, delta=1e-3)


class TestEnginePassthrough:
    @pytest.mark.parametrize("method", ["algorithm2", "algorithm3",
                                        "benchmark"])
    @pytest.mark.parametrize("engine", IMPLEMENTATIONS)
    def test_engine_reaches_tour_meta(self, small_net, energy, radio,
                                      method, engine):
        """The path that planned a tour names itself in
        ``meta["perf"]["engine"]``; the baseline has one path and keeps
        its label under the prune oracle."""
        if method == "benchmark":
            plain = plan_tour(small_net, energy, radio, method=method)
            with legacy_prune() if engine == "dense" else nullcontext():
                tour = plan_tour(small_net, energy, radio, method=method)
            assert tour.collected_volume == plain.collected_volume
            expected = "kernel"
        else:
            planner = {"algorithm2": plan_algorithm2,
                       "algorithm3": plan_algorithm3}[method]
            kwargs = {"K": 2} if method == "algorithm3" else {}
            tour = plan_on(engine, planner, small_net, energy, radio, 25.0,
                           **kwargs)
            expected = engine
        assert tour.meta["perf"]["engine"] == expected
        assert "engine" not in tour.meta

    def test_engine_default_is_kernel(self, small_net, energy, radio):
        for method in ("algorithm2", "algorithm3", "benchmark"):
            tour = plan_tour(small_net, energy, radio, method=method,
                             delta=25.0)
            assert tour.meta["perf"]["engine"] == "kernel"
            assert "engine" not in tour.meta
        tour = plan_tour(small_net, energy, radio, method="algorithm1",
                         delta=25.0)
        assert tour.meta["perf"]["engine"] == "scalar"

    def test_engines_agree_through_the_facade(self, small_net, energy,
                                              radio):
        kernel = plan_tour(small_net, energy, radio, method="algorithm2",
                           delta=25.0)
        with dense_planners():
            dense = plan_tour(small_net, energy, radio, method="algorithm2",
                              delta=25.0)
        assert dense.meta["perf"]["engine"] == "dense"
        assert dense.collected_volume == kernel.collected_volume
        assert list(dense.sojourns) == list(kernel.sojourns)
