"""Tests for the run ledger: records, hashing, ambient install, memory.

The load-bearing contracts pinned here:

* :class:`RunRecord` round-trips **losslessly** through ``as_dict`` /
  ``from_dict`` and JSONL (property-tested with hypothesis);
* :func:`config_hash` is key-order-insensitive and survives non-JSON
  values via :func:`sanitize_config`;
* the ambient ledger mirrors the tracer's active-instance pattern —
  ``None`` default, ``ledger_active(None)`` keeps the current one, and
  :func:`record_event` is a no-op returning ``None`` when off.
"""

from __future__ import annotations

import json
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from repro.obs.ledger import (
    ENV_LEDGER,
    ENV_LEDGER_MEM,
    Ledger,
    get_ledger,
    install_from_env,
    ledger_active,
    record_event,
    set_ledger,
)
from repro.obs.memprof import PeakMemory, begin_peak_region, end_peak_region
from repro.obs.record import (
    RECORD_VERSION,
    RunRecord,
    canonical_json,
    config_hash,
    environment_fingerprint,
    flatten_perf,
    perf_counter_metrics,
    sanitize_config,
)


@pytest.fixture(autouse=True)
def no_ambient_ledger():
    """Every test starts and ends with the ledger off."""
    previous = set_ledger(None)
    yield
    set_ledger(previous)


def make_record(**overrides):
    defaults = dict(
        event="planner.call", label="algorithm2", config_hash="ab12",
        engine="kernel", jobs=1, wall_s=0.25,
        metrics={"counters": {"kernel.insertions": 7.0},
                 "timers_s": {"kernel.rescore": 0.01}},
        mem_peak_bytes=4096, env={"python": "3.x"},
        extra={"cell": 3}, ts=1.7e9)
    defaults.update(overrides)
    return RunRecord(**defaults)


class TestRunRecord:
    def test_round_trip(self):
        rec = make_record()
        assert RunRecord.from_dict(rec.as_dict()) == rec

    def test_version_stamped(self):
        assert make_record().as_dict()["v"] == RECORD_VERSION

    def test_unknown_field_rejected(self):
        data = make_record().as_dict()
        data["warp"] = 9
        with pytest.raises(ValueError, match="warp"):
            RunRecord.from_dict(data)

    def test_non_dict_rejected(self):
        with pytest.raises(TypeError):
            RunRecord.from_dict([1, 2])

    def test_deterministic_dict_drops_measured_fields(self):
        det = make_record().deterministic_dict()
        for gone in ("wall_s", "ts", "spans", "mem_peak_bytes", "env"):
            assert gone not in det
        assert det["metrics"] == {"counters": {"kernel.insertions": 7.0}}
        assert det["event"] == "planner.call"
        assert det["config_hash"] == "ab12"

    def test_deterministic_dict_equal_across_reruns(self):
        fast = make_record(wall_s=0.1, ts=1.0, mem_peak_bytes=10)
        slow = make_record(wall_s=9.9, ts=2.0, mem_peak_bytes=99)
        assert fast.deterministic_dict() == slow.deterministic_dict()


class TestConfigHashing:
    def test_canonical_json_sorted_and_minimal(self):
        assert canonical_json({"b": 1, "a": [1, 2]}) == '{"a":[1,2],"b":1}'

    def test_hash_key_order_insensitive(self):
        assert config_hash({"a": 1, "b": 2}) == config_hash({"b": 2, "a": 1})

    def test_hash_distinguishes_values(self):
        assert config_hash({"n": 40}) != config_hash({"n": 41})

    def test_hash_is_short_hex(self):
        digest = config_hash({"n": 40})
        assert len(digest) == 16
        int(digest, 16)

    def test_canonical_json_rejects_non_json(self):
        with pytest.raises(TypeError):
            canonical_json({"x": object()})

    def test_sanitize_replaces_non_json_values(self):
        class Sites:
            pass
        clean = sanitize_config({"delta": 20.0, "sites": Sites()})
        assert clean == {"delta": 20.0, "sites": "<Sites>"}
        config_hash(clean)  # hashable after sanitising

    def test_sanitize_is_deterministic_across_instances(self):
        class Graph:
            pass
        assert sanitize_config({"g": Graph()}) == \
            sanitize_config({"g": Graph()})


class TestPerfFlattening:
    PERF = {"engine": "kernel", "insertions": 12, "drains": 3,
            "cache_hit": True, "grasp": {"restarts": 5, "ls_moves": 40}}

    def test_flatten_dots_nested_and_skips_non_numeric(self):
        assert flatten_perf(self.PERF) == {
            "insertions": 12.0, "drains": 3.0,
            "grasp.restarts": 5.0, "grasp.ls_moves": 40.0}

    def test_counter_metrics_namespace_every_count(self):
        assert perf_counter_metrics(self.PERF) == {
            "kernel.insertions": 12.0, "kernel.drains": 3.0,
            "kernel.grasp.restarts": 5.0, "kernel.grasp.ls_moves": 40.0}

    def test_empty_perf(self):
        assert flatten_perf({}) == {}
        assert perf_counter_metrics({}) == {}


class TestLedger:
    def test_in_memory_record_and_len(self):
        ledger = Ledger()
        rec = ledger.record(make_record())
        assert len(ledger) == 1
        assert ledger.records() == [rec]

    def test_records_returns_copy(self):
        ledger = Ledger()
        ledger.record(make_record())
        ledger.records().clear()
        assert len(ledger) == 1

    def test_path_appends_one_json_line_per_record(self, tmp_path):
        path = tmp_path / "runs.jsonl"
        ledger = Ledger(path)
        ledger.record(make_record(label="a"))
        ledger.record(make_record(label="b"))
        lines = path.read_text().splitlines()
        assert len(lines) == 2
        assert json.loads(lines[1])["label"] == "b"

    def test_write_then_read_round_trips(self, tmp_path):
        ledger = Ledger()
        ledger.extend([make_record(label="a"), make_record(label="b")])
        dest = tmp_path / "out.jsonl"
        assert ledger.write(dest) == 2
        assert Ledger.read(dest) == ledger.records()

    def test_read_skips_blank_lines(self, tmp_path):
        dest = tmp_path / "out.jsonl"
        dest.write_text(json.dumps(make_record().as_dict()) + "\n\n")
        assert len(Ledger.read(dest)) == 1

    def test_extend_returns_count(self):
        assert Ledger().extend(make_record() for _ in range(3)) == 3


class TestAmbientLedger:
    def test_off_by_default(self):
        assert get_ledger() is None
        assert record_event("planner.call", label="x") is None

    def test_ledger_active_installs_and_restores(self):
        ledger = Ledger()
        with ledger_active(ledger) as active:
            assert active is ledger
            assert get_ledger() is ledger
        assert get_ledger() is None

    def test_ledger_active_none_keeps_current(self):
        outer = Ledger()
        with ledger_active(outer):
            with ledger_active(None) as active:
                assert active is outer
                assert get_ledger() is outer
            assert get_ledger() is outer

    def test_record_event_stamps_env_and_ts(self):
        with ledger_active(Ledger()) as ledger:
            rec = record_event("sweep.cell", label="Alg 2", wall_s=0.5)
        assert rec is ledger.records()[0]
        assert rec.env == environment_fingerprint()
        assert rec.ts is not None
        assert rec.wall_s == 0.5

    def test_record_event_respects_explicit_env(self):
        with ledger_active(Ledger()):
            rec = record_event("sweep.cell", env={"host": "ci"}, ts=1.0)
        assert rec.env == {"host": "ci"}
        assert rec.ts == 1.0

    def test_nested_scopes_restore_in_order(self):
        outer, inner = Ledger(), Ledger()
        with ledger_active(outer):
            with ledger_active(inner):
                assert get_ledger() is inner
            assert get_ledger() is outer
        assert get_ledger() is None


class TestInstallFromEnv:
    def test_no_variable_is_noop(self):
        assert install_from_env({}) is None
        assert get_ledger() is None

    def test_blank_value_is_noop(self):
        assert install_from_env({ENV_LEDGER: "  "}) is None

    def test_path_installs_ledger(self, tmp_path):
        path = str(tmp_path / "runs.jsonl")
        ledger = install_from_env({ENV_LEDGER: path})
        assert get_ledger() is ledger
        assert ledger.path == tmp_path / "runs.jsonl"
        assert ledger.track_memory is False

    def test_mem_flag_enables_tracking(self, tmp_path):
        env = {ENV_LEDGER: str(tmp_path / "r.jsonl"), ENV_LEDGER_MEM: "1"}
        assert install_from_env(env).track_memory is True

    @pytest.mark.parametrize("falsy", ["0", "false", "no", "off", ""])
    def test_mem_falsy_values_disable(self, tmp_path, falsy):
        env = {ENV_LEDGER: str(tmp_path / "r.jsonl"), ENV_LEDGER_MEM: falsy}
        assert install_from_env(env).track_memory is False


class TestPeakMemory:
    def test_disabled_is_noop(self):
        assert not tracemalloc.is_tracing()
        with PeakMemory(enabled=False) as mem:
            [0] * 10000
        assert mem.peak_bytes is None
        assert not tracemalloc.is_tracing()

    def test_enabled_measures_allocation(self):
        with PeakMemory() as mem:
            blob = [0] * 100_000
        del blob
        assert mem.peak_bytes > 100_000 * 8 * 0.9
        assert not tracemalloc.is_tracing()

    def test_nested_region_does_not_stop_outer(self):
        started = begin_peak_region()
        assert started
        with PeakMemory():                # nested: resets peak, no stop
            pass
        assert tracemalloc.is_tracing()
        assert end_peak_region(started) >= 0
        assert not tracemalloc.is_tracing()


class TestTracerMemory:
    def test_root_spans_stamp_peak_bytes(self):
        from repro.obs.tracer import Tracer

        tracer = Tracer(track_memory=True)
        with tracer.span("outer.region"):
            with tracer.span("inner.step"):
                [0] * 50_000
        by_name = {r["name"]: r for r in tracer.records()}
        assert by_name["outer.region"]["attrs"]["mem_peak_bytes"] > 0
        assert "mem_peak_bytes" not in by_name["inner.step"]["attrs"]
        assert not tracemalloc.is_tracing()

    def test_default_tracer_does_not_touch_tracemalloc(self):
        from repro.obs.tracer import Tracer

        tracer = Tracer()
        with tracer.span("outer.region"):
            pass
        rec = tracer.records()[0]
        assert "mem_peak_bytes" not in rec["attrs"]


# --------------------------------------------------------------------- #
# Property: RunRecord JSONL round-trip is lossless.
# --------------------------------------------------------------------- #

json_scalars = st.one_of(
    st.none(), st.booleans(), st.integers(-2**31, 2**31),
    st.floats(allow_nan=False, allow_infinity=False, width=32), st.text())
json_payload = st.dictionaries(st.text(min_size=1), json_scalars, max_size=4)
counters = st.dictionaries(
    st.text(min_size=1),
    st.floats(min_value=0, max_value=1e12, allow_nan=False), max_size=4)

records = st.builds(
    RunRecord,
    event=st.sampled_from(["planner.call", "sweep.cell", "bench.case"]),
    label=st.text(max_size=20),
    config_hash=st.text(st.sampled_from("0123456789abcdef"), max_size=16),
    engine=st.none() | st.sampled_from(["kernel", "dense", "scalar"]),
    jobs=st.integers(1, 16),
    wall_s=st.floats(min_value=0, max_value=1e6, allow_nan=False),
    metrics=st.fixed_dictionaries({}, optional={"counters": counters}),
    mem_peak_bytes=st.none() | st.integers(0, 2**40),
    env=json_payload,
    extra=json_payload,
    ts=st.none() | st.floats(min_value=0, max_value=2e9, allow_nan=False))


class TestRoundTripProperties:
    @given(rec=records)
    @settings(max_examples=60, deadline=None)
    def test_jsonl_round_trip_lossless(self, rec):
        # The exact pipeline Ledger.record -> Ledger.read uses per line.
        line = json.dumps(rec.as_dict(), sort_keys=True)
        assert RunRecord.from_dict(json.loads(line)) == rec

    @given(rec=records)
    @settings(max_examples=30, deadline=None)
    def test_deterministic_view_survives_round_trip(self, rec):
        back = RunRecord.from_dict(json.loads(json.dumps(rec.as_dict())))
        assert back.deterministic_dict() == rec.deterministic_dict()
