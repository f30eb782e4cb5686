"""The run ledger: durable JSONL accounting of planner/sweep/bench runs.

Nothing about a planner run used to persist across invocations — perf
counters died with the process, trace exports were one-offs, and the
pinned speedups (kernel ~14-20x) had no continuously-audited trail.  A
:class:`Ledger` fixes that: an append-only JSONL file of
:class:`~repro.obs.record.RunRecord` entries, one per planner facade
call, sweep cell, or benchmark case.

Like tracing, the ledger is **off by default** and ambient when on:

* ``with ledger_active(Ledger(path)): run_fig5(...)`` — every cell of
  the sweep lands in ``path``;
* ``REPRO_LEDGER=runs.jsonl`` installs a ledger at ``repro.obs`` import
  (``REPRO_LEDGER_MEM=1`` additionally enables ``tracemalloc`` peak
  tracking), so batch runs leave an auditable trail with no code
  changes;
* emission sites call :func:`record_event` — a no-op returning ``None``
  when no ledger is active, so the disabled cost is one global load.

File layout is deterministic modulo timestamps: records append in the
order they are emitted, which every execution engine produces
canonically (the parallel executor merges worker ledger *shards* back in
canonical cell order — :mod:`repro.obs.shards`); the nondeterministic
fields (``wall_s``, ``ts``, timers, memory) are quarantined by
:meth:`RunRecord.deterministic_dict`.  ``python -m repro.obs bench`` /
``repro-bench`` write and compare ledgers (:mod:`repro.obs.regress`).
"""

from __future__ import annotations

import json
import time
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Union

from repro.obs.record import RunRecord, environment_fingerprint

#: Environment variable naming a ledger JSONL appended to at import time.
ENV_LEDGER = "REPRO_LEDGER"

#: Environment variable enabling tracemalloc peak tracking in the ledger.
ENV_LEDGER_MEM = "REPRO_LEDGER_MEM"

#: Values of :data:`ENV_LEDGER_MEM` treated as "disabled".
_FALSY = frozenset({"", "0", "false", "no", "off"})

PathLike = Union[str, Path]

#: Cached host fingerprint (stable for the process lifetime).
_ENV_FINGERPRINT: Optional[Dict[str, Any]] = None


def _fingerprint() -> Dict[str, Any]:
    global _ENV_FINGERPRINT
    if _ENV_FINGERPRINT is None:
        _ENV_FINGERPRINT = environment_fingerprint()
    return _ENV_FINGERPRINT


class Ledger:
    """An append-only run ledger, optionally mirrored to a JSONL file.

    Parameters
    ----------
    path:
        When given, every :meth:`record` appends one JSON line there
        immediately (open/append/close, like trace shards), so a crashed
        run still leaves every record it finished.
    track_memory:
        When true, emission sites that support it wrap their measured
        region in :class:`repro.obs.memprof.PeakMemory` and stamp
        ``mem_peak_bytes`` — opt-in because ``tracemalloc`` costs real
        time on allocation-heavy paths.
    """

    __slots__ = ("path", "track_memory", "_records")

    def __init__(self, path: Optional[PathLike] = None, *,
                 track_memory: bool = False) -> None:
        self.path = Path(path) if path is not None else None
        self.track_memory = track_memory
        self._records: List[RunRecord] = []

    def __len__(self) -> int:
        return len(self._records)

    def record(self, rec: RunRecord) -> RunRecord:
        """Append *rec* (and its JSON line, when a path is set)."""
        self._records.append(rec)
        if self.path is not None:
            with open(self.path, "a", encoding="utf-8") as fh:
                fh.write(json.dumps(rec.as_dict(), sort_keys=True))
                fh.write("\n")
        return rec

    def extend(self, records: Iterable[RunRecord]) -> int:
        """Append many records (e.g. merged worker shards); returns count."""
        n = 0
        for rec in records:
            self.record(rec)
            n += 1
        return n

    def records(self) -> List[RunRecord]:
        """All records recorded so far (copies the list)."""
        return list(self._records)

    def write(self, dest: PathLike) -> int:
        """Write every record to *dest* as JSONL; returns the count."""
        with open(dest, "w", encoding="utf-8") as fh:
            for rec in self._records:
                fh.write(json.dumps(rec.as_dict(), sort_keys=True))
                fh.write("\n")
        return len(self._records)

    @staticmethod
    def read(source: PathLike) -> List[RunRecord]:
        """Load the records of a ledger JSONL file."""
        lines = Path(source).read_text(encoding="utf-8").splitlines()
        return [RunRecord.from_dict(json.loads(line))
                for line in lines if line.strip()]


#: The ambient ledger (``None`` = ledger off).
_active_ledger: Optional[Ledger] = None


def get_ledger() -> Optional[Ledger]:
    """The active ledger, or ``None`` when run accounting is off."""
    return _active_ledger


def set_ledger(ledger: Optional[Ledger]) -> Optional[Ledger]:
    """Install *ledger* (``None`` disables); returns the previous one."""
    global _active_ledger
    previous = _active_ledger
    _active_ledger = ledger
    return previous


class ledger_active:
    """Temporarily install a ledger: ``with ledger_active(ledger): ...``.

    ``ledger_active(None)`` keeps the current ledger, so entry points can
    thread an optional parameter straight through (the ``activated``
    tracer idiom).
    """

    __slots__ = ("ledger", "_previous", "_installed")

    def __init__(self, ledger: Optional[Ledger]) -> None:
        self.ledger = ledger
        self._previous: Optional[Ledger] = None
        self._installed = False

    def __enter__(self) -> Optional[Ledger]:
        if self.ledger is None:
            return _active_ledger
        self._previous = set_ledger(self.ledger)
        self._installed = True
        return self.ledger

    def __exit__(self, *exc_info: object) -> None:
        if self._installed:
            set_ledger(self._previous)
            self._installed = False
        return None


def record_event(event: str, /, label: str = "",
                 **fields: Any) -> Optional[RunRecord]:
    """Record one run event on the active ledger (``None`` when off).

    The one-liner emission sites use::

        record_event("sweep.cell", label=spec.name, wall_s=..., ...)

    ``event`` must be a dotted lowercase ``family.verb`` name — the
    ``obs-span-naming`` lint rule checks the literal, exactly as it does
    span names.  The host fingerprint and a unix timestamp are stamped
    automatically (cached fingerprint; both live outside the
    deterministic view).
    """
    ledger = _active_ledger
    if ledger is None:
        return None
    fields.setdefault("env", _fingerprint())
    fields.setdefault("ts", time.time())
    return ledger.record(RunRecord(event=event, label=label, **fields))


def install_from_env(environ: Optional[Dict[str, str]] = None
                     ) -> Optional[Ledger]:
    """Install the ledger the environment asks for; returns the active one.

    ``REPRO_LEDGER=path.jsonl`` appends every run record there for the
    process lifetime; ``REPRO_LEDGER_MEM`` truthy additionally turns on
    tracemalloc peak tracking.  Called once at ``repro.obs`` import;
    exposed for tests.
    """
    import os
    env = os.environ if environ is None else environ
    path = env.get(ENV_LEDGER)
    if not path or not path.strip():
        return _active_ledger
    mem = env.get(ENV_LEDGER_MEM)
    track = mem is not None and mem.strip().lower() not in _FALSY
    ledger = Ledger(path.strip(), track_memory=track)
    set_ledger(ledger)
    return ledger


__all__ = ["Ledger", "get_ledger", "set_ledger", "ledger_active",
           "record_event", "install_from_env", "ENV_LEDGER",
           "ENV_LEDGER_MEM"]
