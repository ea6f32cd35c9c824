"""The Session facade: one object owning execution for a whole study.

A :class:`Session` owns the pieces every entry point used to wire by
hand — a :class:`~repro.exec.parallel.ParallelRunner`, its worker
count, the on-disk :class:`~repro.exec.cache.ResultCache`, and the
study manifests beside it — and exposes study-level operations over
them:

* :meth:`Session.run` lowers a validated
  :class:`~repro.api.spec.StudySpec` to its cell batch, submits it once
  (so the pool overlaps every grid point), and returns a
  :class:`~repro.api.result.StudyResult` with the runs grouped back per
  grid point and the cache activity attributable to the study.
* :meth:`Session.advance` executes at most ``limit`` of the study's
  missing cells and stops — the chunked-execution primitive behind
  ``repro study run --max-cells``.
* :meth:`Session.status` reports a study's recorded progress without
  running anything.

Every cached run records progress in a per-study *manifest* (see
:mod:`repro.exec.manifest`) stored beside the result cache, which is
what makes ``resume=True`` meaningful: a partially-run grid picks up
only its missing cells, and a failed cell is recorded (with its error)
for ``repro study status`` to report and the next resume to retry.
The service's :class:`~repro.service.scheduler.StudyScheduler` runs on
a session too, so both paths share one runner, cache and manifest
policy.

Construction mirrors the CLI's execution flags::

    Session()                      # environment defaults
    Session(jobs=4)                # 4 workers, environment cache policy
    Session(jobs=1)                # run every cell in this process
    Session(no_cache=True)         # never touch the on-disk cache
    Session(cache_dir="/tmp/c")    # explicit cache location
    Session(runner=my_runner)      # wrap an existing runner verbatim

A session that built its runner owns the runner's worker pool:
:meth:`Session.close` (or leaving a ``with Session() as session:``
block) shuts it down.  A runner passed in stays its caller's to close.
"""

from __future__ import annotations

import os
from typing import Dict, List, Optional, Sequence, Tuple

from repro.api.result import StudyResult
from repro.api.spec import StudySpec
from repro.core.results import RunResult
from repro.exec import (CellExecutionError, ManifestStore, ParallelRunner,
                        ResultCache, StudyManifest, code_version,
                        open_cache, spec_digest)
from repro.exec.cells import Cell


class Session:
    """Owns the runner, cache and manifests a study executes through.

    ``runner=None`` builds one from ``jobs`` (``None``: ``REPRO_JOBS``
    or the CPU count) and the cache that
    :func:`~repro.exec.cache.open_cache` picks for ``cache_dir`` /
    ``no_cache``.
    """

    def __init__(self, runner: Optional[ParallelRunner] = None,
                 jobs: Optional[int] = None,
                 cache_dir: Optional[os.PathLike] = None,
                 no_cache: bool = False) -> None:
        self._owns_runner = runner is None
        if runner is None:
            runner = ParallelRunner(jobs=jobs,
                                    cache=open_cache(cache_dir, no_cache))
        elif jobs is not None or cache_dir is not None or no_cache:
            raise ValueError("pass either 'runner' or the "
                             "jobs/cache_dir/no_cache knobs, not both")
        self.runner = runner

    def close(self) -> None:
        """Shut down the worker pool of the runner this session built.

        Idempotent, and a no-op for a runner passed in; a later run
        forks a new pool.
        """
        if self._owns_runner:
            self.runner.close()

    def __enter__(self) -> "Session":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # ------------------------------------------------------------------
    @property
    def cache(self) -> Optional[ResultCache]:
        return self.runner.cache

    @property
    def jobs(self) -> int:
        return self.runner.jobs

    def cache_stats(self) -> Optional[Dict[str, int]]:
        """Lifetime stats of the underlying cache (None when uncached)."""
        return self.cache.stats() if self.cache is not None else None

    def manifest_store(self) -> ManifestStore:
        """The study manifests beside the result cache.

        Raises ``ValueError`` for an uncached session: without a result
        cache there is nowhere to record (or resume) progress.
        """
        if self.cache is None:
            raise ValueError("study progress is recorded beside the "
                             "result cache; drop --no-cache / "
                             "REPRO_NO_CACHE")
        return ManifestStore(self.cache.root)

    # ------------------------------------------------------------------
    def status(self, spec: StudySpec,
               strict: bool = False) -> Optional[StudyManifest]:
        """The study's recorded progress, or None if never recorded.

        Raises ``ValueError`` for uncached sessions (see
        :meth:`manifest_store`).  With ``strict=True`` a manifest file
        that exists but cannot be parsed raises
        :class:`~repro.exec.manifest.ManifestError` naming the path (a
        missing one is still just ``None``).
        """
        return self.manifest_store().load(spec_digest(spec), strict=strict)

    def run(self, spec: StudySpec, validate: bool = True,
            resume: bool = False) -> StudyResult:
        """Execute every cell of ``spec`` as one batch.

        The study's cells are submitted together — grid order, seeds
        innermost — so the pool overlaps all grid points and each cell
        hits the result cache independently; the returned
        :class:`StudyResult` reports how many of this study's cells
        were cache hits vs fresh simulations (``cache_delta``) and the
        worker count.  With ``resume=True`` the study's manifest is
        continued rather than restarted: cells recorded done load from
        the cache and only the missing ones execute.  Resuming needs a
        cached session (see :meth:`manifest_store`).
        """
        if validate:
            spec.validate()
        cells = spec.cells()
        before = self.cache_stats()
        if self.cache is None and not resume:
            runs = self.runner.run_cells(cells)
        else:
            runs, _ = self._run_tracked(spec, cells, resume=resume)
        after = self.cache_stats()
        delta = (None if before is None
                 else {key: after[key] - before[key] for key in after})
        return StudyResult.from_runs(spec, runs, cache_delta=delta,
                                     jobs=self.jobs)

    def advance(self, spec: StudySpec, limit: Optional[int] = None,
                validate: bool = True) -> StudyManifest:
        """Execute at most ``limit`` missing cells, then stop.

        Chunked execution: cells already recorded done (or already in
        the cache) are confirmed, the first ``limit`` missing cells run
        and are recorded, and the rest stay pending for the next
        ``advance``/``resume``.  Always continues the existing manifest
        when one matches.  Returns the updated manifest; requires a
        cached session (see :meth:`manifest_store`).
        """
        if validate:
            spec.validate()
        _, manifest = self._run_tracked(spec, spec.cells(), resume=True,
                                        limit=limit)
        return manifest

    # ------------------------------------------------------------------
    def _run_tracked(self, spec: StudySpec, cells: Sequence[Cell],
                     resume: bool, limit: Optional[int] = None
                     ) -> Tuple[List[Optional[RunResult]], StudyManifest]:
        """Run the batch (at most ``limit`` misses), recording per-cell
        progress in the study's manifest: saved once opened, then once
        the batch completes or a cell fails."""
        store = self.manifest_store()
        manifest = store.open(spec, code_version(), resume)
        store.save(manifest)
        try:
            runs = self.runner.run_cells(
                cells, limit=limit, on_result=manifest.record_result)
        except CellExecutionError as exc:
            manifest.mark(list(cells).index(exc.cell), "failed",
                          error=str(exc.cause or exc))
            store.save(manifest)
            raise
        store.save(manifest)
        return runs, manifest
