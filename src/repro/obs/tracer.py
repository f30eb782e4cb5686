"""Structured tracing: nestable wall-clock spans with near-zero disabled cost.

The paper's headline evaluation is *running time* versus network size
(Figs. 3(b)/4(b)/5(b)); this module makes where that time goes a
first-class, exportable quantity instead of something re-derived under an
external profiler.  A :class:`Tracer` records nestable spans —

    with tracer.span("alg2.insertion", site=j):
        ...

— into a bounded ring buffer: each finished span keeps its dotted name,
start offset, duration, nesting depth, parent link, and attributes.  The
buffer exports as JSONL (:mod:`repro.obs.export`) or Chrome
``trace_event`` JSON for about://tracing / Perfetto.

Tracing is **off by default**.  The module-level active tracer starts as
:data:`NULL_TRACER`, whose ``span()`` returns one shared do-nothing
context manager — a disabled span site costs a global load, a method
call, and *no allocation* (property-tested in
``tests/test_obs_tracer.py``), so instrumented hot loops keep their
timings and planners their bitwise-identical outputs.  Enable it with

* ``plan_tour(..., trace=Tracer())`` / ``run_sweep(..., trace=...)``,
* :func:`set_tracer` / :func:`activated` around any code block, or
* the ``REPRO_TRACE=1`` environment variable (plus an optional
  ``REPRO_TRACE_FILE=path.jsonl`` atexit export).

Spans assume single-threaded, well-nested use — exactly what the
``with``-statement guarantees — matching the planners' execution model.
"""

from __future__ import annotations

import os
import time
from collections import deque
from typing import Any, Deque, Dict, Iterator, List, Optional, Union

#: Default ring-buffer capacity (finished spans kept; oldest dropped first).
DEFAULT_CAPACITY = 1 << 16

#: Environment variable enabling the global tracer at import time.
ENV_TRACE = "REPRO_TRACE"

#: Environment variable naming a JSONL file exported at interpreter exit.
ENV_TRACE_FILE = "REPRO_TRACE_FILE"

#: Values of :data:`ENV_TRACE` treated as "disabled".
_FALSY = frozenset({"", "0", "false", "no", "off"})


class _NullSpan:
    """The shared do-nothing span; one instance serves every disabled site."""

    __slots__ = ()

    enabled = False

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc_info: object) -> None:
        return None

    def set(self, /, **attrs: Any) -> "_NullSpan":
        """Ignore attributes (chainable, like :meth:`Span.set`)."""
        return self


#: The singleton no-op span every :class:`NullTracer` site reuses.
NULL_SPAN = _NullSpan()


class NullTracer:
    """Disabled tracer: every ``span()`` is the same shared no-op object."""

    __slots__ = ()

    enabled = False

    def span(self, name: str, /, **attrs: Any) -> _NullSpan:
        """Return the shared no-op span (no allocation, nothing recorded)."""
        return NULL_SPAN

    def records(self) -> List[Dict[str, Any]]:
        """Always empty."""
        return []


#: The module-wide disabled tracer (also the initial active tracer).
NULL_TRACER = NullTracer()


class Span:
    """One live span; created by :meth:`Tracer.span`, recorded on exit."""

    __slots__ = ("tracer", "name", "attrs", "span_id", "parent_id", "depth",
                 "start_s", "_t0")

    enabled = True

    def __init__(self, tracer: "Tracer", name: str,
                 attrs: Dict[str, Any]) -> None:
        self.tracer = tracer
        self.name = name
        self.attrs = attrs
        self.span_id = -1
        self.parent_id: Optional[int] = None
        self.depth = 0
        self.start_s = 0.0
        self._t0 = 0.0

    def set(self, /, **attrs: Any) -> "Span":
        """Attach extra attributes to the span (chainable)."""
        self.attrs.update(attrs)
        return self

    def __enter__(self) -> "Span":
        self.tracer._push(self)
        self._t0 = time.perf_counter()
        self.start_s = self._t0 - self.tracer.epoch_s
        return self

    def __exit__(self, *exc_info: object) -> None:
        duration_s = time.perf_counter() - self._t0
        self.tracer._pop(self, duration_s)
        return None


class Tracer:
    """Recording tracer: bounded ring buffer of finished-span records.

    Parameters
    ----------
    capacity:
        Maximum finished spans retained; older records are dropped first
        and counted in :attr:`dropped` (so a truncated export is visibly
        truncated, never silently short).
    track_memory:
        When true, every **root** span (depth 0) additionally measures
        its peak traced allocation via ``tracemalloc``
        (:mod:`repro.obs.memprof`) and stamps it as the
        ``mem_peak_bytes`` attribute.  Off by default — tracemalloc
        slows allocation-heavy code, and nested spans would fight over
        one global peak counter, so only run roots are measured.

    Notes
    -----
    A record is a plain dict —
    ``{"name", "ts_s", "dur_s", "id", "parent", "depth", "attrs"}`` —
    with times in seconds relative to the tracer's construction
    (:attr:`epoch_s`).  Records appear in *completion* order: children
    before their parent, exactly like Chrome ``trace_event`` producers.
    """

    __slots__ = ("epoch_s", "dropped", "track_memory", "_records", "_stack",
                 "_next_id", "_mem_started")

    enabled = True

    def __init__(self, capacity: int = DEFAULT_CAPACITY, *,
                 track_memory: bool = False) -> None:
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.epoch_s = time.perf_counter()
        self.dropped = 0
        self.track_memory = track_memory
        self._records: Deque[Dict[str, Any]] = deque(maxlen=capacity)
        self._stack: List[Span] = []
        self._next_id = 0
        self._mem_started = False

    def span(self, name: str, /, **attrs: Any) -> Span:
        """A new live span; ``with tracer.span("mod.op", key=val): ...``.

        ``name`` is positional-only so attribute keys named ``self`` or
        ``name`` cannot collide with the method's own parameters.
        """
        return Span(self, name, attrs)

    # -- Span protocol ------------------------------------------------- #

    def _push(self, span: Span) -> None:
        span.span_id = self._next_id
        self._next_id += 1
        span.parent_id = self._stack[-1].span_id if self._stack else None
        span.depth = len(self._stack)
        self._stack.append(span)
        if self.track_memory and span.depth == 0:
            from repro.obs.memprof import begin_peak_region
            self._mem_started = begin_peak_region()

    def _pop(self, span: Span, duration_s: float) -> None:
        if self.track_memory and span.depth == 0:
            from repro.obs.memprof import end_peak_region
            span.attrs["mem_peak_bytes"] = end_peak_region(self._mem_started)
            self._mem_started = False
        if self._stack and self._stack[-1] is span:
            self._stack.pop()
        elif span in self._stack:          # tolerate out-of-order exits
            self._stack.remove(span)
        if len(self._records) == self._records.maxlen:
            self.dropped += 1
        self._records.append({
            "name": span.name,
            "ts_s": span.start_s,
            "dur_s": duration_s,
            "id": span.span_id,
            "parent": span.parent_id,
            "depth": span.depth,
            "attrs": span.attrs,
        })

    # -- Inspection ---------------------------------------------------- #

    def __len__(self) -> int:
        return len(self._records)

    def records(self) -> List[Dict[str, Any]]:
        """Finished-span records, oldest first (copies the ring buffer)."""
        return list(self._records)

    def clear(self) -> None:
        """Drop all finished records (live spans are unaffected)."""
        self._records.clear()
        self.dropped = 0

    def ingest(self, records: List[Dict[str, Any]]) -> int:
        """Append pre-recorded span dicts (e.g. merged worker shards).

        Every ingested record is re-identified into this tracer's id space
        and parent links are remapped alongside, so ingested spans can
        never collide with locally recorded ones.  Records keep their own
        ``ts_s`` timebase (worker-relative offsets); consumers that care
        about cross-process alignment should group by the ``worker``
        attribute the parallel sweep executor stamps on shard spans.
        Returns the number of records ingested.
        """
        # Children are recorded before their parents, so map every id
        # before remapping any parent link.
        id_map = {rec["id"]: self._next_id + k
                  for k, rec in enumerate(records)
                  if isinstance(rec.get("id"), int)}
        n = 0
        for rec in records:
            copy = dict(rec)
            copy["id"] = self._next_id
            self._next_id += 1
            parent = rec.get("parent")
            if isinstance(parent, int):
                copy["parent"] = id_map.get(parent, None)
            if len(self._records) == self._records.maxlen:
                self.dropped += 1
            self._records.append(copy)
            n += 1
        return n


#: Anything a ``trace=`` parameter accepts.
TracerLike = Union[Tracer, NullTracer]

_active: TracerLike = NULL_TRACER


def get_tracer() -> TracerLike:
    """The active tracer (:data:`NULL_TRACER` unless tracing is enabled)."""
    return _active


def set_tracer(tracer: Optional[TracerLike]) -> TracerLike:
    """Install *tracer* (``None`` disables); returns the previous tracer."""
    global _active
    previous = _active
    _active = tracer if tracer is not None else NULL_TRACER
    return previous


def span(name: str, /, **attrs: Any) -> Union[Span, _NullSpan]:
    """A span on the active tracer — the one-liner instrumented sites use.

    When tracing is disabled this resolves to ``NullTracer.span`` and
    returns the shared :data:`NULL_SPAN` without allocating.
    """
    return _active.span(name, **attrs)


class activated:
    """Temporarily install a tracer: ``with activated(tracer): ...``.

    ``activated(None)`` keeps the current tracer — entry points thread
    their optional ``trace=`` parameter straight through.
    """

    __slots__ = ("tracer", "_previous")

    def __init__(self, tracer: Optional[TracerLike]) -> None:
        self.tracer = tracer
        self._previous: Optional[TracerLike] = None

    def __enter__(self) -> TracerLike:
        if self.tracer is None:
            return _active
        self._previous = set_tracer(self.tracer)
        return self.tracer

    def __exit__(self, *exc_info: object) -> None:
        if self._previous is not None:
            set_tracer(self._previous)
            self._previous = None
        return None


def _env_enabled(value: Optional[str]) -> bool:
    """True when an ``REPRO_TRACE`` value means "tracing on"."""
    return value is not None and value.strip().lower() not in _FALSY


def install_from_env(environ: Optional[Dict[str, str]] = None) -> TracerLike:
    """Install the tracer the environment asks for; returns the active one.

    ``REPRO_TRACE`` truthy enables a fresh :class:`Tracer`;
    ``REPRO_TRACE_FILE`` additionally registers an atexit JSONL export so
    batch runs leave an inspectable profile without code changes.  Called
    once at ``repro.obs`` import; exposed for tests.
    """
    env = os.environ if environ is None else environ
    if not _env_enabled(env.get(ENV_TRACE)):
        return _active
    tracer = Tracer()
    set_tracer(tracer)
    path = env.get(ENV_TRACE_FILE)
    if path:
        import atexit

        def _export() -> None:
            from repro.obs.export import write_jsonl
            write_jsonl(tracer.records(), path)

        atexit.register(_export)
    return tracer


def walk_children(records: List[Dict[str, Any]],
                  parent: Optional[int]) -> Iterator[Dict[str, Any]]:
    """Yield the direct children of span id *parent* (``None`` = roots)."""
    for rec in records:
        if rec.get("parent") == parent:
            yield rec


__all__ = ["Tracer", "NullTracer", "Span", "NULL_TRACER", "NULL_SPAN",
           "TracerLike", "get_tracer", "set_tracer", "span", "activated",
           "install_from_env", "walk_children", "DEFAULT_CAPACITY",
           "ENV_TRACE", "ENV_TRACE_FILE"]
