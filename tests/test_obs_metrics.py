"""The kernel's metrics contract: work counts in meta["perf"], time in spans."""

from __future__ import annotations

from repro.obs.tracer import Tracer


class TestKernelBackCompat:
    """The kernel's meta["perf"] contract must survive the registry removal."""

    def test_kernel_perf_shape(self, small_net, energy, radio):
        from repro.core.planner import plan_tour

        tracer = Tracer()
        tour = plan_tour(small_net, energy, radio, method="algorithm2",
                         delta=40.0, trace=tracer)
        perf = tour.meta["perf"]
        assert perf["engine"] == "kernel"
        for key in ("insertions", "drains", "tour_flushes",
                    "sites_rescored", "deltas_recomputed"):
            assert type(perf[key]) is int, key
        # Per-phase time is no longer a perf["seconds"] dict: it is the
        # duration of the kernel's phase spans.
        assert "seconds" not in perf
        phases = [r for r in tracer.records()
                  if r["name"] in ("kernel.rescore", "kernel.insertion")]
        assert {r["name"] for r in phases} == {"kernel.rescore",
                                               "kernel.insertion"}
        assert all(r["dur_s"] >= 0.0 for r in phases)
