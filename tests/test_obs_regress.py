"""Tests for the regression observatory: aggregate, compare, gate.

The load-bearing contracts pinned here:

* the shared nearest-rank quantile (one definition for the trace
  report and ledger aggregation) and its edge cases;
* :func:`aggregate` is **order-insensitive**, so a compare verdict can
  never depend on worker-shard merge order (property-tested);
* the gate fails on slowdowns/counter growth past the thresholds, never
  on improvements, and never on partial new/removed drift — but a
  comparison in which no baseline case matched fails it.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.obs.metrics import nearest_rank, quantile_sorted
from repro.obs.record import RunRecord
from repro.obs.regress import CompareReport, Thresholds, aggregate, compare


def rec(label="case", wall_s=1.0, counters=None, mem=None,
        event="bench.case", config_hash="cfg0"):
    return RunRecord(event=event, label=label, config_hash=config_hash,
                     wall_s=wall_s,
                     metrics={"counters": counters} if counters else {},
                     mem_peak_bytes=mem)


class TestNearestRank:
    def test_empty_is_rank_zero(self):
        assert nearest_rank(0, 0.5) == 0
        assert quantile_sorted([], 0.5) == 0.0

    def test_single_sample_every_quantile(self):
        for q in (0.0, 0.5, 1.0):
            assert nearest_rank(1, q) == 1
            assert quantile_sorted([7.5], q) == 7.5

    def test_q_zero_is_first_sample(self):
        assert nearest_rank(10, 0.0) == 1
        assert quantile_sorted([1.0, 2.0, 3.0], 0.0) == 1.0

    def test_q_one_is_last_sample(self):
        assert nearest_rank(10, 1.0) == 10
        assert quantile_sorted([1.0, 2.0, 3.0], 1.0) == 3.0

    def test_median_of_even_count(self):
        # nearest-rank: ceil(0.5 * 4) = 2nd sample.
        assert quantile_sorted([1.0, 2.0, 3.0, 4.0], 0.5) == 2.0

    def test_p95_of_hundred(self):
        samples = [float(i) for i in range(1, 101)]
        assert quantile_sorted(samples, 0.95) == 95.0

    @pytest.mark.parametrize("q", [-0.1, 1.5])
    def test_out_of_range_rejected(self, q):
        with pytest.raises(ValueError):
            nearest_rank(5, q)


class TestAggregate:
    def test_groups_by_event_label_hash(self):
        stats = aggregate([
            rec(label="a"), rec(label="a"), rec(label="b"),
            rec(label="a", config_hash="other")])
        assert {key: s.n for key, s in stats.items()} == {
            ("bench.case", "a", "cfg0"): 2,
            ("bench.case", "b", "cfg0"): 1,
            ("bench.case", "a", "other"): 1}

    def test_wall_quantiles_nearest_rank(self):
        stats = aggregate([rec(wall_s=w) for w in (3.0, 1.0, 2.0)])
        s = stats[("bench.case", "case", "cfg0")]
        assert s.wall_p50_s == 2.0
        assert s.wall_p95_s == 3.0

    def test_counters_and_memory_take_maxima(self):
        stats = aggregate([
            rec(counters={"kernel.insertions": 5.0}, mem=100),
            rec(counters={"kernel.insertions": 9.0, "kernel.drains": 1.0},
                mem=50)])
        s = stats[("bench.case", "case", "cfg0")]
        assert s.counters == {"kernel.insertions": 9.0, "kernel.drains": 1.0}
        assert s.mem_peak_bytes == 100

    def test_memory_none_when_never_measured(self):
        s = aggregate([rec()])[("bench.case", "case", "cfg0")]
        assert s.mem_peak_bytes is None

    def test_order_insensitive(self):
        records = [rec(label=l, wall_s=w, counters={"c": w})
                   for l in ("a", "b") for w in (0.5, 1.5, 2.5)]
        shuffled = list(records)
        random.Random(7).shuffle(shuffled)
        assert aggregate(records) == aggregate(shuffled)

    def test_key_property_and_as_dict(self):
        s = aggregate([rec()])[("bench.case", "case", "cfg0")]
        assert s.key == ("bench.case", "case", "cfg0")
        assert s.as_dict()["wall_p50_s"] == 1.0


class TestCompareGate:
    def test_identical_ledgers_pass(self):
        records = [rec(wall_s=1.0, counters={"c": 5.0}, mem=100)]
        report = compare(records, records)
        assert report.passed
        assert [d.status for d in report.deltas] == ["ok"]

    def test_time_regression_fails(self):
        report = compare([rec(wall_s=1.0)], [rec(wall_s=3.0)])
        assert not report.passed
        assert "wall p50" in report.regressions[0].reasons[0]

    def test_time_improvement_passes(self):
        assert compare([rec(wall_s=3.0)], [rec(wall_s=1.0)]).passed

    def test_sub_threshold_slowdown_passes(self):
        assert compare([rec(wall_s=1.0)], [rec(wall_s=1.9)]).passed

    def test_fast_cases_ignore_time(self):
        # 1e-4 -> 1e-2 is 100x but below min_time_s: timer noise, not signal.
        assert compare([rec(wall_s=1e-4)], [rec(wall_s=1e-2)]).passed

    def test_counter_regression_fails(self):
        report = compare([rec(counters={"kernel.insertions": 100.0})],
                         [rec(counters={"kernel.insertions": 120.0})])
        assert not report.passed
        assert "counter kernel.insertions" in report.regressions[0].reasons[0]

    def test_counter_improvement_passes(self):
        assert compare([rec(counters={"c": 120.0})],
                       [rec(counters={"c": 100.0})]).passed

    def test_zero_baseline_counter_never_gates(self):
        assert compare([rec(counters={"c": 0.0})],
                       [rec(counters={"c": 50.0})]).passed

    def test_memory_regression_fails(self):
        report = compare([rec(mem=1000)], [rec(mem=5000)])
        assert not report.passed
        assert "mem peak" in report.regressions[0].reasons[0]

    def test_memory_unmeasured_side_never_gates(self):
        assert compare([rec(mem=1000)], [rec()]).passed
        assert compare([rec()], [rec(mem=10**9)]).passed

    def test_new_and_removed_are_informational(self):
        report = compare([rec(label="old_only")], [rec(label="new_only")])
        assert report.passed
        assert {d.status for d in report.deltas} == {"new", "removed"}

    def test_changed_config_hash_reports_new_plus_removed(self):
        report = compare([rec(config_hash="aaaa")], [rec(config_hash="bbbb")])
        assert report.passed
        assert sorted(d.status for d in report.deltas) == ["new", "removed"]

    def test_no_baseline_case_matched_is_flagged(self):
        # Nothing compared: every baseline case removed (empty candidate
        # or a full config drift).  The CLI gate refuses this.
        for new in ([], [rec(config_hash="bbbb")]):
            report = compare([rec(), rec(label="other")], new)
            assert report.compared_nothing
            assert "gate: FAIL (no baseline case matched)" in report.render()

    def test_partial_drift_and_empty_baseline_compare_something(self):
        old = [rec(), rec(label="old_only")]
        assert not compare(old, [rec(), rec(label="new_only")]
                           ).compared_nothing
        assert not compare([], [rec()]).compared_nothing
        assert not compare([], []).compared_nothing

    def test_custom_thresholds(self):
        tight = Thresholds(time_ratio=1.1)
        assert not compare([rec(wall_s=1.0)], [rec(wall_s=1.2)], tight).passed
        loose = Thresholds(time_ratio=10.0)
        assert compare([rec(wall_s=1.0)], [rec(wall_s=3.0)], loose).passed

    def test_multiple_reasons_accumulate(self):
        old = [rec(wall_s=1.0, counters={"c": 10.0}, mem=100)]
        new = [rec(wall_s=5.0, counters={"c": 20.0}, mem=1000)]
        reasons = compare(old, new).regressions[0].reasons
        assert len(reasons) == 3


class TestCompareReport:
    def test_render_pass_verdict(self):
        out = compare([rec()], [rec()]).render()
        assert "gate: PASS" in out
        assert "[       ok] bench.case case" in out

    def test_render_fail_verdict_regressions_first(self):
        old = [rec(label="bad", wall_s=1.0), rec(label="fine", wall_s=1.0)]
        new = [rec(label="bad", wall_s=9.0), rec(label="fine", wall_s=1.0)]
        out = compare(old, new).render()
        assert "gate: FAIL (1 regression(s))" in out
        assert out.index("bad") < out.index("fine")

    def test_as_dict_schema(self):
        data = compare([rec()], [rec()]).as_dict()
        assert data["passed"] is True
        assert data["regressions"] == 0
        assert data["thresholds"]["time_ratio"] == 2.0
        assert data["cases"][0]["status"] == "ok"

    def test_empty_ledgers_pass(self):
        report = compare([], [])
        assert report.passed
        assert report.deltas == ()


# --------------------------------------------------------------------- #
# Property: ledger merge order never changes compare verdicts.
# --------------------------------------------------------------------- #

sample_records = st.lists(
    st.builds(
        rec,
        label=st.sampled_from(["a", "b", "c"]),
        wall_s=st.floats(min_value=1e-4, max_value=10.0, allow_nan=False),
        counters=st.dictionaries(
            st.sampled_from(["kernel.x", "kernel.y"]),
            st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
            max_size=2),
        mem=st.none() | st.integers(1, 10**9)),
    min_size=1, max_size=12)


def _verdict(report: CompareReport):
    return (report.passed,
            {d.key: (d.status, d.reasons) for d in report.deltas})


class TestMergeOrderProperties:
    @given(records=sample_records, seed=st.integers(0, 2**16))
    @settings(max_examples=60, deadline=None)
    def test_aggregate_shuffle_invariant(self, records, seed):
        shuffled = list(records)
        random.Random(seed).shuffle(shuffled)
        assert aggregate(shuffled) == aggregate(records)

    @given(old=sample_records, new=sample_records,
           seed=st.integers(0, 2**16))
    @settings(max_examples=60, deadline=None)
    def test_compare_verdict_shuffle_invariant(self, old, new, seed):
        rng = random.Random(seed)
        old_shuffled, new_shuffled = list(old), list(new)
        rng.shuffle(old_shuffled)
        rng.shuffle(new_shuffled)
        assert _verdict(compare(old_shuffled, new_shuffled)) == \
            _verdict(compare(old, new))
