"""The service's queueing core: study records, cell dedup, events.

One :class:`StudyScheduler` runs on a single
:class:`~repro.api.session.Session` — one
:class:`~repro.exec.parallel.ParallelRunner`, one warm
:class:`~repro.exec.cache.ResultCache` and the study manifests beside
it — and multiplexes every submitted study over it.  What it adds to
the session is three invariants:

* **Study-level idempotency** — studies are keyed by their grid
  digest (:func:`~repro.exec.manifest.spec_digest`), so resubmitting
  a grid joins the existing record instead of re-running it.
* **In-flight cell dedup** — cells are keyed by their cache key
  (:func:`~repro.exec.cache.cache_key`); two overlapping grids that
  share a cell wait on the *same* execution, so each unique cell is
  simulated (and stored) exactly once no matter how many clients race.
* **Warm-cache instant hits** — every cell is probed against the
  result cache at submit time (:meth:`ParallelRunner.lookup`, the
  runner's own probe), under the scheduler lock, so a fully-cached
  study resolves before the submitting request returns.

All state is guarded by one lock/condition.  A single dispatcher
thread drains the queue in chunks through the session runner's
:meth:`ParallelRunner.run_cells` — reusing the runner's existing
probe/persist policy is what guarantees service results are
bit-identical to local runs and that every fresh result is on disk
before it is reported.  Per-study progress is mirrored into the same
manifest files ``repro study run`` writes, under the same save policy:
a study's manifest is saved when its record is created, once after
each batch that resolved any of its cells, and at once when one of its
cells fails.  A daemon stopped mid-batch therefore leaves a manifest
that lags by at most that batch.  The cells of that batch the runner
stored (in-process, each as it finished; on the pool, those finished
when the batch failed or was interrupted) are in the result cache, so
a resume serves them as hits; a daemon killed outright during a pool
batch loses that batch's fresh cells, and they run again.

A record whose every cell has resolved keeps only what the read
endpoints serve — its counters, events and result — and drops its
cells, results and manifest once the final manifest is saved.

The dispatcher is the only thread that runs batches, so the runner's
one worker pool lives as long as the daemon: forked by the first batch
that needs it, reused by every later one, and shut down when the
dispatcher exits (:meth:`StudyScheduler.stop` closes the session).
"""

from __future__ import annotations

import itertools
import threading
from collections import deque
from typing import Any, Deque, Dict, List, Optional, Tuple

from repro.api.result import StudyResult
from repro.api.session import Session
from repro.api.spec import StudySpec
from repro.core.results import RunResult
from repro.exec import (CellExecutionError, ResultCache, StudyManifest,
                        cache_key, code_version)
from repro.exec.cells import Cell
from repro.exec.manifest import spec_digest

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

    ``cells``, ``labels``, ``results`` and ``manifest`` serve only the
    resolution of cells still outstanding; :meth:`release` empties them
    once none is.  ``done``, ``failed`` and ``total`` count cells for
    the read endpoints.
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
        self.total = len(cells)
        self.remaining = len(cells)
        self.done = 0
        self.failed = 0
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
        return {"done": self.done, "failed": self.failed,
                "pending": self.total - self.done - self.failed,
                "total": self.total}

    def release(self) -> None:
        """Drop the per-cell state once no cell is outstanding.

        No task subscribes the record any more, so nothing reads its
        cells, labels, results or manifest again; the counters, events
        and :class:`StudyResult` answer every read endpoint.
        """
        self.cells = []
        self.labels = []
        self.results = []
        self.manifest = None

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
        """Done, or failed at its first failed cell."""
        return self.state in ("done", "failed")

    @property
    def ended(self) -> bool:
        """Every cell resolved, so ``study-done`` is the last event."""
        return self.remaining == 0


class StudyScheduler:
    """Owns the queue and every study record, over one session.

    ``session=None`` runs on ``Session()``, the environment defaults.
    ``autostart=False`` leaves the dispatcher thread unstarted so tests
    can submit several overlapping studies first and assert the dedup
    bookkeeping deterministically, then :meth:`start` execution.
    """

    def __init__(self, session: Optional[Session] = None,
                 autostart: bool = True) -> None:
        self.session = session if session is not None else Session()
        self._manifests = (self.session.manifest_store()
                           if self.cache is not None else None)
        self._lock = threading.Lock()
        self._cond = threading.Condition(self._lock)
        self._queue: Deque[_CellTask] = deque()
        self._in_flight: Dict[str, _CellTask] = {}
        self._studies: Dict[str, StudyRecord] = {}
        self._order: List[str] = []  # submission order, for the index
        #: Records whose manifests changed in the running batch, in
        #: insertion order; saved once when it ends.  Keyed by record,
        #: not study id: a retried failed study reuses its id.
        self._touched: Dict[StudyRecord, None] = {}
        self._stopping = False
        self._started = False
        self._dispatcher: Optional[threading.Thread] = None
        self._counts = {"submissions": 0, "studies_created": 0,
                        "studies_deduped": 0, "cells_cached": 0,
                        "cells_shared": 0, "cells_queued": 0,
                        "cells_executed": 0, "cells_failed": 0,
                        "studies_done": 0}
        if autostart:
            self.start()

    # ------------------------------------------------------------------
    @property
    def cache(self) -> Optional[ResultCache]:
        return self.session.cache

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
        event streamer, join the dispatcher, and close the session.

        The dispatcher closes the session as it exits, so a ``timeout``
        that expires mid-batch leaves the workers to stop once that
        batch ends.
        """
        with self._cond:
            self._stopping = True
            self._cond.notify_all()
            dispatcher = self._dispatcher
        if dispatcher is None:
            self.session.close()
        else:
            dispatcher.join(timeout)

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
                summary = {"created": False, "hits": existing.done,
                           "shared": existing.total - existing.done,
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
        record = StudyRecord(study_id, spec, cells, jobs=self.session.jobs)
        self._studies[study_id] = record
        self._order.append(study_id)
        self._counts["studies_created"] += 1
        if self._manifests is not None:
            record.manifest = self._manifests.open(spec, code_version(),
                                                   resume=True)
        for index, cell in enumerate(cells):
            key = cache_key(cell)
            task = self._in_flight.get(key)
            if task is not None:
                # Another study is already executing this exact cell:
                # wait on it rather than queue a duplicate.
                task.subscribers.append((record, index))
                record.cache_delta["shared"] += 1
                self._counts["cells_shared"] += 1
                record.event("queued", index, shared=True)
                continue
            cached = self.session.runner.lookup(cell, key)
            if cached is not None:
                record.cache_delta["hits"] += 1
                self._counts["cells_cached"] += 1
                record.event("cached", index)
                self._resolve_cell(record, index, cached, fresh=False)
                continue
            task = _CellTask(key, cell, record)
            task.subscribers.append((record, index))
            self._in_flight[key] = task
            self._queue.append(task)
            record.cache_delta["misses"] += 1
            self._counts["cells_queued"] += 1
            record.event("queued", index)
        if not record.total:
            self._end_record(record)
        self._save_manifest(record)
        return record

    def _save_manifest(self, record: StudyRecord) -> None:
        """Save the record's manifest now; a record with no cell left
        outstanding has had its final save and releases its cells."""
        self._touched.pop(record, None)
        if record.manifest is not None:
            self._manifests.save(record.manifest)
        if record.remaining == 0:
            record.release()

    # ------------------------------------------------------------------
    # Resolution (always under the lock)
    # ------------------------------------------------------------------
    def _resolve_cell(self, record: StudyRecord, index: int,
                      result: RunResult, fresh: bool) -> None:
        if record.results[index] is not None:
            return
        record.results[index] = result
        record.remaining -= 1
        record.done += 1
        if record.manifest is not None:
            record.manifest.record_result(index, result, fresh)
        if record.remaining == 0:
            self._end_record(record)

    def _end_record(self, record: StudyRecord) -> None:
        """Emit the record's one ``study-done`` event: its last cell
        has resolved.  A failed record keeps the state and error its
        first failure set; any other is done, with its result."""
        if record.state == "running":
            record.state = "done"
            record.result = StudyResult.from_runs(
                record.spec, record.results,
                cache_delta=dict(record.cache_delta), jobs=record.jobs)
            self._counts["studies_done"] += 1
        record.event("study-done", state=record.state)

    def _task_done(self, task: _CellTask, result: RunResult,
                   fresh: bool) -> None:
        task.state = "done"
        self._in_flight.pop(task.key, None)
        if fresh:
            self._counts["cells_executed"] += 1
            if self.cache is not None:
                task.creator.cache_delta["stores"] += 1
        for record, index in task.subscribers:
            record.event("finished" if fresh else "cached", index,
                         wall_time=result.wall_time_seconds)
            self._resolve_cell(record, index, result, fresh)
            self._touched[record] = None
        self._cond.notify_all()

    def _task_failed(self, task: _CellTask, error: str) -> None:
        task.state = "failed"
        self._in_flight.pop(task.key, None)
        self._counts["cells_failed"] += 1
        for record, index in task.subscribers:
            record.event("failed", index, error=error)
            if record.manifest is not None:
                record.manifest.mark(index, "failed", error=error)
            record.remaining -= 1
            record.failed += 1
            if record.state == "running":
                key, seed = record.labels[index]
                record.state = "failed"
                record.error = (f"cell {'/'.join(key) or record.spec.name}"
                                f" seed={seed}: {error}")
            if record.remaining == 0:
                self._end_record(record)
            self._save_manifest(record)
        self._cond.notify_all()

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------
    def _dispatch_loop(self) -> None:
        try:
            while True:
                with self._cond:
                    while not self._queue and not self._stopping:
                        self._cond.wait()
                    if self._stopping:
                        return
                    chunk = max(1, self.session.jobs) * 4
                    batch: List[_CellTask] = []
                    while self._queue and len(batch) < chunk:
                        task = self._queue.popleft()
                        task.state = "running"
                        batch.append(task)
                    for task in batch:
                        for record, index in task.subscribers:
                            record.event("started", index)
                self._run_batch(batch)
        finally:
            # The only thread that runs batches releases their pool.
            self.session.close()

    def _run_batch(self, batch: List[_CellTask]) -> None:
        """Run one chunk, retrying survivors when a cell fails.

        Each iteration either completes every remaining task or fails
        at least the one cell a :class:`CellExecutionError` names, so
        the loop terminates in at most ``len(batch)`` rounds.  Every
        study whose manifest the batch changed is saved once when it
        ends; the runner stored each fresh result before reporting it,
        so a manifest that lags the batch still resumes from the cache.
        """
        pending = list(batch)
        try:
            while pending:
                current = list(pending)

                def on_result(i: int, result: RunResult, fresh: bool,
                              _current: List[_CellTask] = current) -> None:
                    with self._cond:
                        self._task_done(_current[i], result, fresh)

                try:
                    self.session.runner.run_cells(
                        [t.cell for t in current], on_result=on_result,
                        keys=[t.key for t in current])
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
        finally:
            # Under the lock, so a submit thread's save of the same
            # manifest cannot be reordered with this one.
            with self._cond:
                for record in list(self._touched):
                    self._save_manifest(record)

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
        if self._manifests is not None:
            for path, manifest in self._manifests.list():
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
        out["jobs"] = self.session.jobs
        if self.cache is not None:
            out["cache"] = self.cache.stats()
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

        Returns an empty list once the record has ended (its
        ``study-done`` event already delivered) or the scheduler is
        stopping.  A failed study ends only when its last cell
        resolves, so its stream carries every later cell's event.
        """
        with self._cond:
            while True:
                # Events are numbered from 0 and never removed, so an
                # event's seq is its index in the list.
                fresh = record.events[seq:]
                if fresh or record.ended or self._stopping:
                    return fresh
                self._cond.wait(0.5)
