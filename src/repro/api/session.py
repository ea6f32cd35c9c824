"""The Session facade: one object owning execution for a whole study.

A :class:`Session` wraps the pieces every entry point used to wire by
hand — a :class:`~repro.exec.parallel.ParallelRunner`, its worker
count, and the on-disk
:class:`~repro.exec.cache.ResultCache` — and exposes study-level
operations over them:

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

Construction mirrors the CLI's execution flags::

    Session()                      # the process default runner
    Session(jobs=4)                # 4 workers, environment cache policy
    Session(jobs=1)                # run every cell in this process
    Session(no_cache=True)         # never touch the on-disk cache
    Session(cache_dir="/tmp/c")    # explicit cache location
    Session(runner=my_runner)      # wrap an existing runner verbatim
"""

from __future__ import annotations

import os
from typing import Dict, List, Optional, Sequence

from repro.api.result import StudyResult
from repro.api.spec import StudySpec
from repro.core.results import RunResult
from repro.exec import (NO_CACHE_ENV, CellExecutionError, ManifestStore,
                        ParallelRunner, ResultCache, StudyManifest,
                        code_version, get_default_runner)
from repro.exec.cells import Cell
from repro.obs import telemetry as _telemetry


class Session:
    """Owns the runner + cache a study executes through."""

    def __init__(self, runner: Optional[ParallelRunner] = None,
                 jobs: Optional[int] = None,
                 cache: Optional[ResultCache] = None,
                 cache_dir: Optional[os.PathLike] = None,
                 no_cache: bool = False) -> None:
        if runner is not None:
            if jobs is not None or cache is not None \
                    or cache_dir is not None or no_cache:
                raise ValueError("pass either 'runner' or the "
                                 "jobs/cache/cache_dir/no_cache knobs, "
                                 "not both")
            self.runner = runner
        elif jobs is None and cache is None and cache_dir is None \
                and not no_cache:
            self.runner = get_default_runner()
        else:
            if no_cache:
                cache = None
            elif cache is None:
                if cache_dir is not None:
                    cache = ResultCache(cache_dir)
                elif not os.environ.get(NO_CACHE_ENV):
                    cache = ResultCache()
            self.runner = ParallelRunner(jobs=jobs, cache=cache)

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

    # ------------------------------------------------------------------
    def run_cells(self, cells: Sequence[Cell]) -> List[RunResult]:
        """Raw batch submission (input order preserved, cache-aware)."""
        return self.runner.run_cells(cells)

    # ------------------------------------------------------------------
    # Manifest plumbing
    # ------------------------------------------------------------------
    def manifest_store(self) -> Optional[ManifestStore]:
        """The manifest store beside the cache (None when uncached)."""
        if self.cache is None:
            return None
        return ManifestStore(self.cache.root)

    def status(self, spec: StudySpec,
               strict: bool = False) -> Optional[StudyManifest]:
        """The study's recorded progress, or None if never recorded.

        Raises ``ValueError`` for uncached sessions: without a result
        cache there is nowhere to record (or resume) progress.  With
        ``strict=True`` a manifest file that exists but cannot be
        parsed raises :class:`~repro.exec.manifest.ManifestError`
        naming the path (a missing one is still just ``None``).
        """
        store = self.manifest_store()
        if store is None:
            raise ValueError("study status/resume needs the result cache "
                             "(drop --no-cache / REPRO_NO_CACHE)")
        from repro.exec.manifest import spec_digest
        return store.load(spec_digest(spec), strict=strict)

    def _open_manifest(self, store: ManifestStore, spec: StudySpec,
                      resume: bool) -> StudyManifest:
        """Continue the stored manifest (resume) or start a fresh one.

        A resumed manifest must describe exactly this spec's grid;
        failed cells are reset to pending so they retry.  Resuming a
        study that was never recorded simply starts fresh — resume is
        an intent, not a precondition.
        """
        manifest = store.load(spec_digest_of(spec)) if resume else None
        if manifest is None or not manifest.matches(spec):
            manifest = StudyManifest.fresh(spec, code_version())
        else:
            for index, cell in enumerate(manifest.cells):
                if cell.state == "failed":
                    manifest.mark(index, "pending")
            if manifest.code_version != code_version():
                # Stale results live in an old cache generation: the
                # probe below will miss and re-run them; the manifest
                # just follows along.
                manifest.code_version = code_version()
        store.save(manifest)
        return manifest

    # ------------------------------------------------------------------
    def run(self, spec: StudySpec, validate: bool = True,
            resume: bool = False) -> StudyResult:
        """Execute every cell of ``spec`` as one batch.

        The study's cells are submitted together — grid order, seeds
        innermost — so the pool overlaps all grid points and each cell
        hits the result cache independently; the returned
        :class:`StudyResult` reports how many of this study's cells
        were cache hits vs fresh simulations (``cache_delta``) and the
        worker count.  With ``resume=True`` the study's
        manifest is continued rather than restarted: cells recorded
        done load from the cache and only the missing ones execute.
        """
        if validate:
            spec.validate()
        groups = spec.cell_groups()
        cells = [cell for _, cells in groups for cell in cells]
        before = self.cache_stats()
        # Session-side telemetry (cache probes, scheduling) collects in
        # its own registry; cell-side registries live in the workers and
        # ride back on each RunResult.
        session_telemetry = _telemetry.for_process()
        with _telemetry.activate(session_telemetry):
            runs = self._run_tracked(spec, cells, resume=resume)
        after = self.cache_stats()
        delta = (None if before is None
                 else {key: after[key] - before[key] for key in after})
        runs_by_key = {}
        cursor = 0
        for key, group_cells in groups:
            runs_by_key[key] = runs[cursor:cursor + len(group_cells)]
            cursor += len(group_cells)
        telemetry = _telemetry.study_telemetry(
            [run.telemetry for run in runs],
            session=session_telemetry.snapshot())
        return StudyResult(spec=spec,
                           keys=tuple(key for key, _ in groups),
                           runs_by_key=runs_by_key,
                           cache_delta=delta,
                           jobs=self.jobs,
                           telemetry=telemetry)

    def advance(self, spec: StudySpec, limit: Optional[int] = None,
                validate: bool = True) -> StudyManifest:
        """Execute at most ``limit`` missing cells, then stop.

        Chunked execution: cells already recorded done (or already in
        the cache) are confirmed, the first ``limit`` missing cells run
        and are recorded, and the rest stay pending for the next
        ``advance``/``resume``.  Always continues the existing manifest
        when one matches.  Returns the updated manifest; requires a
        cached session (see :meth:`status`).
        """
        if self.cache is None:
            raise ValueError("partial execution (--max-cells) needs the "
                             "result cache (drop --no-cache / "
                             "REPRO_NO_CACHE)")
        if validate:
            spec.validate()
        return self._advance_tracked(spec, spec.cells(), limit)

    # ------------------------------------------------------------------
    def _run_tracked(self, spec: StudySpec, cells: Sequence[Cell],
                     resume: bool) -> List[RunResult]:
        """Run the full batch, recording per-cell progress."""
        store = self.manifest_store()
        if store is None:
            return self.runner.run_cells(cells)
        manifest = self._open_manifest(store, spec, resume)
        try:
            runs = self.runner.run_cells(
                cells, on_result=manifest.record_result)
        except CellExecutionError as exc:
            self._record_failure(manifest, cells, exc)
            store.save(manifest)
            raise
        store.save(manifest)
        return runs

    def _advance_tracked(self, spec: StudySpec, cells: Sequence[Cell],
                         limit: Optional[int]) -> StudyManifest:
        store = self.manifest_store()
        manifest = self._open_manifest(store, spec, resume=True)
        try:
            self.runner.run_cells(
                cells, limit=limit, on_result=manifest.record_result)
        except CellExecutionError as exc:
            self._record_failure(manifest, cells, exc)
            store.save(manifest)
            raise
        store.save(manifest)
        return manifest

    @staticmethod
    def _record_failure(manifest: StudyManifest, cells: Sequence[Cell],
                        exc: CellExecutionError) -> None:
        try:
            index = list(cells).index(exc.cell)
        except ValueError:  # pragma: no cover - foreign cell in error
            return
        manifest.mark(index, "failed", error=str(exc.cause or exc))


def spec_digest_of(spec: StudySpec) -> str:
    """Convenience re-export of :func:`repro.exec.manifest.spec_digest`."""
    from repro.exec.manifest import spec_digest
    return spec_digest(spec)
