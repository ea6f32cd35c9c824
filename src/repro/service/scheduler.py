"""The service's queueing core: study records, cell dedup, events.

One :class:`StudyScheduler` owns a single
:class:`~repro.exec.parallel.ParallelRunner` (and therefore one warm
:class:`~repro.exec.cache.ResultCache`) and multiplexes every
submitted study over it.  Three invariants define it:

* **Study-level idempotency** — studies are keyed by their grid
  digest (:func:`~repro.exec.manifest.spec_digest`), so resubmitting
  a grid joins the existing record instead of re-running it.
* **In-flight cell dedup** — cells are keyed by their cache key
  (:func:`~repro.exec.cache.cache_key`); two overlapping grids that
  share a cell wait on the *same* execution, so each unique cell is
  simulated (and stored) exactly once no matter how many clients race.
* **Warm-cache instant hits** — every cell is probed against the
  result cache at submit time, under the scheduler lock, so a
  fully-cached study resolves before the submitting request returns.

All state is guarded by one lock/condition.  A single dispatcher
thread drains the queue in chunks through
:meth:`ParallelRunner.run_cells` — reusing the runner's existing
probe/persist policy is what guarantees service results are
bit-identical to local runs and that every fresh result is on disk the
moment it completes.  Per-study progress is mirrored into the same
manifest files ``repro study run`` writes, saved per completed cell,
so a daemon killed mid-study leaves a resumable record behind.
"""

from __future__ import annotations

import itertools
import os
import threading
from collections import deque
from typing import Any, Deque, Dict, List, Optional, Tuple

from repro.api.result import StudyResult
from repro.api.spec import StudySpec
from repro.core.results import RunResult
from repro.exec import (NO_CACHE_ENV, CellExecutionError, ManifestStore,
                        ParallelRunner, ResultCache, StudyManifest,
                        cache_key, code_version)
from repro.exec.cells import Cell
from repro.exec.manifest import spec_digest
from repro.obs import telemetry as _telemetry

#: States a study record moves through.  ``running`` covers queued and
#: executing alike (per-cell progress tells them apart); ``done`` and
#: ``failed`` are terminal.
RECORD_STATES = ("running", "done", "failed")


class _CellTask:
    """One unique in-flight cell and the study cells waiting on it."""

    __slots__ = ("key", "cell", "state", "subscribers", "creator")

    def __init__(self, key: str, cell: Cell,
                 creator: "StudyRecord") -> None:
        self.key = key
        self.cell = cell
        self.state = "queued"  # queued -> running -> done | failed
        #: ``(record, index)`` pairs resolved together when this cell
        #: completes; the creator's record is charged the miss/store.
        self.subscribers: List[Tuple["StudyRecord", int]] = []
        self.creator = creator


class StudyRecord:
    """One submitted study: its cells, progress, events, and result.

    Mutated only under the owning scheduler's lock.  ``events`` is an
    append-only list of dicts (each carrying a monotonically increasing
    ``seq``) that the NDJSON streaming endpoint replays; ``cache_delta``
    uses the local-run keys plus ``shared`` for cells this study waited
    on another study to execute.
    """

    def __init__(self, study_id: str, spec: StudySpec,
                 cells: List[Cell], jobs: int) -> None:
        self.study_id = study_id
        self.spec = spec
        self.cells = cells
        self.jobs = jobs
        #: Grid identity per flat cell index: (axis labels, seed) —
        #: the same order :meth:`StudySpec.cells` produces.
        self.labels = [(key, seed) for key in spec.keys()
                       for seed in spec.seeds]
        self.state = "running"
        self.error: Optional[str] = None
        self.results: List[Optional[RunResult]] = [None] * len(cells)
        self.remaining = len(cells)
        self.cache_delta: Dict[str, int] = {
            "hits": 0, "misses": 0, "shared": 0,
            "stores": 0, "store_errors": 0}
        self.events: List[Dict[str, Any]] = []
        self._seq = itertools.count()
        self.manifest: Optional[StudyManifest] = None
        self.result: Optional[StudyResult] = None

    # -- all methods below run under the scheduler lock ----------------
    def event(self, name: str, index: Optional[int] = None,
              **extra: Any) -> None:
        entry: Dict[str, Any] = {"seq": next(self._seq), "event": name,
                                 "study": self.study_id}
        if index is not None:
            key, seed = self.labels[index]
            entry["cell"] = index
            entry["key"] = list(key)
            entry["seed"] = seed
        entry.update(extra)
        self.events.append(entry)

    def counts(self) -> Dict[str, int]:
        done = sum(1 for r in self.results if r is not None)
        failed = (self.manifest.counts()["failed"]
                  if self.manifest is not None else 0)
        return {"done": done, "failed": failed,
                "pending": len(self.cells) - done - failed,
                "total": len(self.cells)}

    def status_dict(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {"study": self.study_id,
                               "name": self.spec.name,
                               "state": self.state,
                               "cells": self.counts(),
                               "cache_delta": dict(self.cache_delta)}
        if self.error is not None:
            out["error"] = self.error
        return out

    @property
    def terminal(self) -> bool:
        return self.state in ("done", "failed")


class StudyScheduler:
    """Owns the runner, the queue, and every study record.

    ``autostart=False`` leaves the dispatcher thread unstarted so tests
    can submit several overlapping studies first and assert the dedup
    bookkeeping deterministically, then :meth:`start` execution.
    """

    def __init__(self, runner: Optional[ParallelRunner] = None,
                 jobs: Optional[int] = None,
                 cache: Optional[ResultCache] = None,
                 cache_dir: Optional[str] = None,
                 autostart: bool = True) -> None:
        if runner is None:
            if cache is None and cache_dir is not None:
                cache = ResultCache(cache_dir)
            elif cache is None and not os.environ.get(NO_CACHE_ENV):
                cache = ResultCache()
            runner = ParallelRunner(jobs=jobs, cache=cache)
        self.runner = runner
        self._lock = threading.Lock()
        self._cond = threading.Condition(self._lock)
        self._queue: Deque[_CellTask] = deque()
        self._in_flight: Dict[str, _CellTask] = {}
        self._studies: Dict[str, StudyRecord] = {}
        self._order: List[str] = []  # submission order, for the index
        self._stopping = False
        self._started = False
        self._dispatcher: Optional[threading.Thread] = None
        self.telemetry = _telemetry.Telemetry()
        self._counts = {"submissions": 0, "studies_created": 0,
                        "studies_deduped": 0, "cells_cached": 0,
                        "cells_shared": 0, "cells_queued": 0,
                        "cells_executed": 0, "cells_failed": 0}
        if autostart:
            self.start()

    # ------------------------------------------------------------------
    @property
    def cache(self) -> Optional[ResultCache]:
        return self.runner.cache

    def manifest_store(self) -> Optional[ManifestStore]:
        if self.cache is None:
            return None
        return ManifestStore(self.cache.root)

    def start(self) -> None:
        """Start (idempotently) the dispatcher thread."""
        with self._cond:
            if self._started:
                return
            self._started = True
            self._dispatcher = threading.Thread(
                target=self._dispatch_loop, name="repro-service-dispatch",
                daemon=True)
            self._dispatcher.start()

    def stop(self, timeout: Optional[float] = None) -> None:
        """Graceful shutdown: finish the in-flight batch, keep queued
        cells pending (their manifests already record them), wake every
        event streamer, and join the dispatcher."""
        with self._cond:
            self._stopping = True
            self._cond.notify_all()
        if self._dispatcher is not None:
            self._dispatcher.join(timeout)

    @property
    def stopping(self) -> bool:
        return self._stopping

    # ------------------------------------------------------------------
    # Submission
    # ------------------------------------------------------------------
    def submit(self, spec: StudySpec
               ) -> Tuple[StudyRecord, Dict[str, Any]]:
        """Register ``spec`` (validated by the caller) and return its
        record plus a submission summary.

        The summary's ``submission`` block describes *this* call —
        ``created`` says whether a new record was born, and its
        hits/shared/queued counts are the all-hits view a resubmission
        of a finished study sees.  The record's own ``cache_delta``
        keeps the original execution accounting for ``/result``.
        """
        study_id = spec_digest(spec)
        with self._cond:
            self._counts["submissions"] += 1
            self.telemetry.count("service.submissions")
            existing = self._studies.get(study_id)
            if existing is not None and existing.terminal \
                    and existing.state == "failed":
                # A failed study is retried on resubmission — same
                # semantics as a local --resume, which resets failed
                # cells to pending.
                self._order.remove(study_id)
                del self._studies[study_id]
                existing = None
            if existing is not None:
                self._counts["studies_deduped"] += 1
                self.telemetry.count("service.dedup.study")
                done = sum(1 for r in existing.results if r is not None)
                summary = {"created": False, "hits": done,
                           "shared": len(existing.cells) - done,
                           "queued": 0}
                return existing, summary
            record = self._create_record(study_id, spec)
            summary = {"created": True,
                       "hits": record.cache_delta["hits"],
                       "shared": record.cache_delta["shared"],
                       "queued": record.cache_delta["misses"]}
            self._cond.notify_all()
            return record, summary

    def _create_record(self, study_id: str,
                       spec: StudySpec) -> StudyRecord:
        cells = spec.cells()
        record = StudyRecord(study_id, spec, cells, jobs=self.runner.jobs)
        self._studies[study_id] = record
        self._order.append(study_id)
        self._counts["studies_created"] += 1
        record.manifest = self._open_manifest(spec)
        for index, cell in enumerate(cells):
            key = cache_key(cell)
            task = self._in_flight.get(key)
            if task is not None:
                # Another study is already executing this exact cell:
                # wait on it rather than queue a duplicate.
                task.subscribers.append((record, index))
                record.cache_delta["shared"] += 1
                self._counts["cells_shared"] += 1
                self.telemetry.count("service.dedup.cell")
                record.event("queued", index, shared=True)
                continue
            cached = (self.cache.load(cell)
                      if self.cache is not None else None)
            if cached is not None:
                # Same contract as the runner: a hit did no work now.
                cached.cached = True
                cached.wall_time_seconds = 0.0
                record.cache_delta["hits"] += 1
                self._counts["cells_cached"] += 1
                self.telemetry.count("service.cache.hits")
                record.event("cached", index)
                self._resolve_cell(record, index, cached, fresh=False)
                continue
            task = _CellTask(key, cell, record)
            task.subscribers.append((record, index))
            self._in_flight[key] = task
            self._queue.append(task)
            record.cache_delta["misses"] += 1
            self._counts["cells_queued"] += 1
            self.telemetry.count("service.cells.queued")
            record.event("queued", index)
        if record.remaining == 0:
            self._finish_record(record)
        self._save_manifest(record)
        return record

    def _open_manifest(self, spec: StudySpec) -> Optional[StudyManifest]:
        store = self.manifest_store()
        if store is None:
            return None
        manifest = store.load(spec_digest(spec))
        if manifest is None or not manifest.matches(spec):
            manifest = StudyManifest.fresh(spec, code_version())
        else:
            for index, cell in enumerate(manifest.cells):
                if cell.state == "failed":
                    manifest.mark(index, "pending")
            manifest.code_version = code_version()
        return manifest

    def _save_manifest(self, record: StudyRecord) -> None:
        if record.manifest is None:
            return
        store = self.manifest_store()
        if store is not None:
            store.save(record.manifest)

    # ------------------------------------------------------------------
    # Resolution (always under the lock)
    # ------------------------------------------------------------------
    def _resolve_cell(self, record: StudyRecord, index: int,
                      result: RunResult, fresh: bool) -> None:
        if record.results[index] is not None:
            return
        record.results[index] = result
        record.remaining -= 1
        if record.manifest is not None:
            record.manifest.record_result(index, result, fresh)
        if record.remaining == 0 and record.state == "running":
            self._finish_record(record)

    def _finish_record(self, record: StudyRecord) -> None:
        record.state = "done"
        groups = record.spec.cell_groups()
        runs_by_key: Dict[Tuple[str, ...], List[RunResult]] = {}
        cursor = 0
        for key, group_cells in groups:
            runs_by_key[key] = [run for run in
                                record.results[cursor:cursor
                                               + len(group_cells)]]
            cursor += len(group_cells)
        runs = [run for run in record.results]
        record.result = StudyResult(
            spec=record.spec,
            keys=tuple(key for key, _ in groups),
            runs_by_key=runs_by_key,
            cache_delta=dict(record.cache_delta),
            jobs=record.jobs,
            telemetry=_telemetry.study_telemetry(
                [run.telemetry for run in runs]))
        self._counts["studies_done"] = \
            self._counts.get("studies_done", 0) + 1
        record.event("study-done", state="done")

    def _task_done(self, task: _CellTask, result: RunResult,
                   fresh: bool) -> None:
        task.state = "done"
        self._in_flight.pop(task.key, None)
        if fresh:
            self._counts["cells_executed"] += 1
            self.telemetry.count("service.cells.executed")
            if self.cache is not None:
                task.creator.cache_delta["stores"] += 1
        for record, index in task.subscribers:
            record.event("finished" if fresh else "cached", index,
                         wall_time=result.wall_time_seconds)
            self._resolve_cell(record, index, result, fresh)
            self._save_manifest(record)
        self._cond.notify_all()

    def _task_failed(self, task: _CellTask, error: str) -> None:
        task.state = "failed"
        self._in_flight.pop(task.key, None)
        self._counts["cells_failed"] += 1
        self.telemetry.count("service.cells.failed")
        for record, index in task.subscribers:
            record.event("failed", index, error=error)
            if record.manifest is not None:
                record.manifest.mark(index, "failed", error=error)
            record.remaining -= 1
            if record.state == "running":
                key, seed = record.labels[index]
                record.state = "failed"
                record.error = (f"cell {'/'.join(key) or record.spec.name}"
                                f" seed={seed}: {error}")
            if record.remaining == 0:
                record.event("study-done", state="failed")
            self._save_manifest(record)
        self._cond.notify_all()

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------
    def _dispatch_loop(self) -> None:
        while True:
            with self._cond:
                while not self._queue and not self._stopping:
                    self._cond.wait()
                if self._stopping:
                    return
                chunk = max(1, self.runner.jobs) * 4
                batch: List[_CellTask] = []
                while self._queue and len(batch) < chunk:
                    task = self._queue.popleft()
                    task.state = "running"
                    batch.append(task)
                for task in batch:
                    for record, index in task.subscribers:
                        record.event("started", index)
            self._run_batch(batch)

    def _run_batch(self, batch: List[_CellTask]) -> None:
        """Run one chunk, retrying survivors when a cell fails.

        Each iteration either completes every remaining task or fails
        at least the one cell a :class:`CellExecutionError` names, so
        the loop terminates in at most ``len(batch)`` rounds.
        """
        pending = list(batch)
        while pending:
            current = list(pending)

            def on_result(i: int, result: RunResult, fresh: bool,
                          _current: List[_CellTask] = current) -> None:
                with self._cond:
                    self._task_done(_current[i], result, fresh)

            try:
                self.runner.run_cells([t.cell for t in current],
                                      on_result=on_result)
            except CellExecutionError as exc:
                with self._cond:
                    blamed = [t for t in current
                              if t.state == "running"
                              and t.cell == exc.cell]
                    for task in blamed or [t for t in current
                                           if t.state == "running"]:
                        self._task_failed(task, str(exc.cause or exc))
            except Exception as exc:  # noqa: BLE001 - keep daemon alive
                with self._cond:
                    for task in current:
                        if task.state == "running":
                            self._task_failed(
                                task, f"{type(exc).__name__}: {exc}")
            pending = [t for t in pending if t.state == "running"]

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def get(self, study_id: str) -> Optional[StudyRecord]:
        with self._cond:
            return self._studies.get(study_id)

    def study_index(self) -> List[Dict[str, Any]]:
        """Every known study — live records first (submission order),
        then on-disk manifests from earlier daemon lives."""
        with self._cond:
            live = [self._studies[sid].status_dict()
                    for sid in self._order]
            seen = set(self._order)
        store = self.manifest_store()
        if store is not None:
            for path, manifest in store.list():
                if manifest is None or manifest.digest in seen:
                    continue
                counts = manifest.counts()
                live.append({"study": manifest.digest,
                             "name": manifest.study,
                             "state": ("done" if manifest.complete
                                       else "recorded"),
                             "cells": {"done": counts["done"],
                                       "failed": counts["failed"],
                                       "pending": counts["pending"],
                                       "total": len(manifest.cells)}})
        return live

    def stats(self) -> Dict[str, Any]:
        with self._cond:
            out: Dict[str, Any] = dict(self._counts)
            out["cells_in_flight"] = len(self._in_flight)
            out["cells_queued_now"] = len(self._queue)
            out["studies"] = len(self._studies)
        out["jobs"] = self.runner.jobs
        if self.cache is not None:
            out["cache"] = self.cache.stats()
        snapshot = self.telemetry.snapshot()
        if snapshot:
            out["telemetry"] = snapshot
        return out

    # ------------------------------------------------------------------
    # Waiting / events (for in-process callers and the HTTP layer)
    # ------------------------------------------------------------------
    def wait(self, study_id: str,
             timeout: Optional[float] = None) -> StudyRecord:
        """Block until the study is terminal (or timeout); returns the
        record either way — check ``record.terminal``."""
        with self._cond:
            record = self._studies[study_id]
            remaining = timeout
            while not record.terminal and not self._stopping:
                if remaining is None:
                    self._cond.wait(0.5)
                    continue
                if remaining <= 0:
                    break
                step = min(0.5, remaining)
                self._cond.wait(step)
                remaining -= step
            return record

    def events_since(self, record: StudyRecord, seq: int
                     ) -> List[Dict[str, Any]]:
        """Events with ``seq >= seq``, waiting briefly for new ones.

        Returns an empty list when the record is terminal (every event
        already delivered) or the scheduler is stopping.
        """
        with self._cond:
            while True:
                fresh = [e for e in record.events if e["seq"] >= seq]
                if fresh or record.terminal or self._stopping:
                    return fresh
                self._cond.wait(0.5)
