"""repro.obs — structured tracing, profiling, and the run ledger.

The observability layer behind the paper's running-time evaluation
(Figs. 3(b)/4(b)/5(b)): nestable wall-clock spans with near-zero disabled
overhead (:mod:`repro.obs.tracer`), the one source of per-phase time
(work counts are plain integers in each plan's ``meta["perf"]``), the
shared nearest-rank quantile (:mod:`repro.obs.metrics`), JSONL + Chrome
``trace_event`` export (:mod:`repro.obs.export`), the per-span-name
summary table behind ``python -m repro.obs report``
(:mod:`repro.obs.report`), and the durable run ledger + regression
observatory behind ``repro-bench``
(:mod:`repro.obs.ledger`, :mod:`repro.obs.record`,
:mod:`repro.obs.regress`, :mod:`repro.obs.bench`).

Tracing is off by default; enable it with ``plan_tour(..., trace=...)``,
:func:`set_tracer`, or ``REPRO_TRACE=1``.  The ledger is likewise off by
default; enable it with :class:`ledger_active` or ``REPRO_LEDGER=path``.
See ``docs/observability.md``.
"""

from repro.obs.tracer import (
    Tracer,
    NullTracer,
    Span,
    NULL_TRACER,
    NULL_SPAN,
    get_tracer,
    set_tracer,
    span,
    activated,
    install_from_env,
)
from repro.obs.metrics import nearest_rank, quantile_sorted
from repro.obs.export import (
    write_jsonl,
    read_jsonl,
    to_chrome_trace,
    write_chrome_trace,
)
from repro.obs.shards import (
    shard_path,
    append_shard,
    list_shards,
    merge_trace_shards,
    merge_ledger_shards,
)
from repro.obs.report import SpanStats, summarize, render_table
from repro.obs.record import (
    RunRecord,
    canonical_json,
    config_hash,
    sanitize_config,
    environment_fingerprint,
)
from repro.obs.ledger import (
    Ledger,
    get_ledger,
    set_ledger,
    ledger_active,
    record_event,
)
from repro.obs.ledger import install_from_env as install_ledger_from_env
from repro.obs.memprof import PeakMemory
from repro.obs.regress import Thresholds, CompareReport, aggregate, compare

#: Honour REPRO_TRACE / REPRO_TRACE_FILE and REPRO_LEDGER /
#: REPRO_LEDGER_MEM the moment the package loads, so any entry point
#: (CLI, pytest, a one-off script) can be traced and ledgered without
#: code changes.
install_from_env()
install_ledger_from_env()

__all__ = [
    # tracer
    "Tracer", "NullTracer", "Span", "NULL_TRACER", "NULL_SPAN",
    "get_tracer", "set_tracer", "span", "activated", "install_from_env",
    # quantiles
    "nearest_rank", "quantile_sorted",
    # export
    "write_jsonl", "read_jsonl", "to_chrome_trace", "write_chrome_trace",
    # shards
    "shard_path", "append_shard", "list_shards", "merge_trace_shards",
    "merge_ledger_shards",
    # report
    "SpanStats", "summarize", "render_table",
    # ledger
    "RunRecord", "canonical_json", "config_hash", "sanitize_config",
    "environment_fingerprint", "Ledger", "get_ledger", "set_ledger",
    "ledger_active", "record_event", "install_ledger_from_env",
    "PeakMemory",
    # regression observatory
    "Thresholds", "CompareReport", "aggregate", "compare",
]
