"""Per-worker trace shards and their merge into one trace.

The parallel sweep executor (:mod:`repro.experiments.parallel`) cannot
share one :class:`~repro.obs.tracer.Tracer` across processes, so each
worker appends its finished spans to a private JSONL *shard* file —
``trace-shard-<worker id>.jsonl`` in a directory the parent owns — and
the parent merges the shards into a single span-record list after the
sweep completes.  The merge:

* orders shards deterministically — by the smallest ``unit`` attribute
  recorded in the shard (every ``runner.cell`` / ``runner.chain`` span
  carries its canonical work-unit index), falling
  back to the shard filename — so the merged trace does not depend on
  worker pids or completion order;
* re-identifies every span into one contiguous id space and remaps
  parent links shard-locally, so ids never collide across workers;
* preserves each shard's internal record order (children before parents,
  the Chrome ``trace_event`` completion order the exporters expect).

Timestamps stay worker-relative (each worker has its own tracer epoch);
spans keep the ``worker`` attribute the executor stamps on them so a
flame-chart viewer can still group lanes per process.

The same shard-file discipline carries the run **ledger** across the
pool: workers append their :class:`~repro.obs.record.RunRecord` dicts to
``ledger-shard-<worker id>.jsonl`` files (the ``kind`` parameter selects
the filename family) and :func:`merge_ledger_shards` merges them in
canonical cell order — no id rebasing needed, records are self-contained.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Dict, Iterable, List, Sequence, Tuple, Union

from repro.obs.export import read_jsonl, write_jsonl

#: Default shard filename pattern inside a shard directory (trace spans).
SHARD_PREFIX = "trace-shard-"
SHARD_SUFFIX = ".jsonl"

PathLike = Union[str, Path]


def _prefix(kind: str) -> str:
    """The filename prefix of one shard family (``trace``, ``ledger``)."""
    return f"{kind}-shard-"


def shard_path(directory: PathLike, worker_id: Union[int, str],
               kind: str = "trace") -> Path:
    """The *kind* shard file for *worker_id* inside *directory*."""
    return Path(directory) / f"{_prefix(kind)}{worker_id}{SHARD_SUFFIX}"


def append_shard(records: Iterable[Dict[str, Any]], path: PathLike) -> int:
    """Append span *records* to the shard at *path*; returns count written.

    Workers call this once per completed work unit (records are flushed
    from the worker tracer afterwards), so a crashed worker still leaves
    the spans of every unit it finished.
    """
    n = 0
    with open(path, "a", encoding="utf-8") as fh:
        n = write_jsonl(records, fh)
    return n


def list_shards(directory: PathLike, kind: str = "trace") -> List[Path]:
    """All *kind* shard files in *directory*, sorted by filename."""
    return sorted(Path(directory).glob(f"{_prefix(kind)}*{SHARD_SUFFIX}"))


def _shard_sort_key(records: List[Dict[str, Any]], path: Path) -> tuple:
    """Deterministic shard order: smallest recorded unit index, then name."""
    units = [rec["attrs"]["unit"] for rec in records
             if isinstance(rec.get("attrs"), dict)
             and isinstance(rec["attrs"].get("unit"), int)]
    return (min(units) if units else -1, path.name)


def merge_trace_shards(
        shards: Union[PathLike, Sequence[PathLike]]) -> List[Dict[str, Any]]:
    """Merge shard files into one re-identified span-record list.

    Parameters
    ----------
    shards:
        Either a shard directory (all ``trace-shard-*.jsonl`` files in it
        are merged) or an explicit sequence of shard paths.

    Returns
    -------
    list of span-record dicts, ready for :func:`repro.obs.export.write_jsonl`,
    :func:`repro.obs.export.to_chrome_trace`, or
    :meth:`repro.obs.tracer.Tracer.ingest`.
    """
    if isinstance(shards, (str, Path)) and Path(shards).is_dir():
        paths = list_shards(shards)
    else:
        paths = [Path(p) for p in shards]  # type: ignore[union-attr]
    loaded = [(path, read_jsonl(path)) for path in paths]
    loaded.sort(key=lambda pair: _shard_sort_key(pair[1], pair[0]))

    merged: List[Dict[str, Any]] = []
    next_id = 0
    for _path, records in loaded:
        # Children are recorded before their parents, so map every id of
        # the shard before remapping any parent link.
        id_map = {rec["id"]: next_id + k for k, rec in enumerate(records)
                  if isinstance(rec.get("id"), int)}
        for rec in records:
            copy = dict(rec)
            copy["id"] = next_id
            next_id += 1
            parent = rec.get("parent")
            if isinstance(parent, int):
                copy["parent"] = id_map.get(parent, None)
            merged.append(copy)
    return merged


def _ledger_sort_key(record: Dict[str, Any]) -> Tuple:
    """Canonical ledger-record order, independent of worker pids.

    Sorts by cell index, then instance index (both from the ``extra``
    payload when the emitter stamped them; -1 otherwise), then the
    identity fields (label, event, config hash).  Records whose full key
    ties — e.g. the per-instance ``planner.call`` records of one cell —
    are interchangeable by construction: they differ only in their
    nondeterministic fields, so the stable sort leaves the merged
    deterministic view canonical either way.
    """
    extra = record.get("extra") or {}
    cell = extra.get("cell")
    instance = extra.get("instance")
    return (cell if isinstance(cell, int) else -1,
            instance if isinstance(instance, int) else -1,
            str(record.get("label", "")), str(record.get("event", "")),
            str(record.get("config_hash", "")))


def merge_ledger_shards(
        shards: Union[PathLike, Sequence[PathLike]]) -> List[Dict[str, Any]]:
    """Merge worker ledger shards into one canonically-ordered record list.

    Parameters
    ----------
    shards:
        Either a shard directory (all ``ledger-shard-*.jsonl`` files in
        it are merged) or an explicit sequence of shard paths.

    Unlike trace spans, ledger records carry no ids to rebase — the merge
    is a stable sort by ``(cell, instance, label, event)``, so the merged
    ledger is independent of worker pids and completion order (the
    determinism contract the jobs=1 vs jobs=N tests compare under).
    """
    if isinstance(shards, (str, Path)) and Path(shards).is_dir():
        paths = list_shards(shards, kind="ledger")
    else:
        paths = [Path(p) for p in shards]  # type: ignore[union-attr]
    records: List[Dict[str, Any]] = []
    for path in paths:
        records.extend(read_jsonl(path))
    records.sort(key=_ledger_sort_key)
    return records


__all__ = ["SHARD_PREFIX", "SHARD_SUFFIX", "shard_path", "append_shard",
           "list_shards", "merge_trace_shards", "merge_ledger_shards"]
