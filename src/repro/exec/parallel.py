"""Cache-aware batch execution, in this process or on a process pool.

The evaluation grid is embarrassingly parallel: every (config, workload,
seed) cell is an independent deterministic simulation.
:class:`ParallelRunner` probes the on-disk :class:`ResultCache` first,
runs the misses, persists every fresh result the moment it completes,
and returns results in input order.  The misses run in this process
when one worker suffices (``jobs=1``, or a single missing cell — the
setting for debugging and profiling, where breakpoints and profilers
see the simulation directly), and on a
``concurrent.futures.ProcessPoolExecutor`` otherwise.

Both paths are bit-identical by construction: the kernel is
deterministic per (seed, config), every cell runs through
:func:`execute_cell_payload`, and every result round-trips the same
JSON serialization the cache uses.

A cell that raises — or a pool worker that dies outright — fails the
whole batch promptly with a :class:`CellExecutionError` naming the
offending cell; results completed before the failure are already
cached, so a retry resumes where the batch died.
"""

from __future__ import annotations

import os
from concurrent.futures import FIRST_EXCEPTION, ProcessPoolExecutor, wait
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.results import RunResult
from repro.exec.cache import ResultCache
from repro.exec.cells import Cell, execute_cell
from repro.exec.serialization import run_result_from_dict, run_result_to_dict
from repro.obs import profile_dir, timeline_target
from repro.obs import telemetry as _telemetry

#: Environment override for the worker count (CLI: ``--jobs``).
JOBS_ENV = "REPRO_JOBS"

#: Per-completion callback: ``(index, result, fresh)`` where ``fresh``
#: is False for cache hits and True for newly executed cells.
ResultCallback = Callable[[int, RunResult, bool], None]


class CellExecutionError(RuntimeError):
    """One cell of an experiment batch failed (it raised, or its pool
    worker died)."""

    def __init__(self, cell: Cell, cause: BaseException) -> None:
        super().__init__(
            f"experiment cell failed: {cell.config.describe()} "
            f"workload={cell.workload!r} seed={cell.seed}: "
            f"{type(cause).__name__}: {cause}")
        self.cell = cell
        self.cause = cause


def execute_cell_payload(cell: Cell) -> Dict[str, Any]:
    """Run a cell in this process, returning its serialized result.

    Both execution paths call this — directly in-process, or in a pool
    worker — so every result reaches the runner in the form the cache
    stores.
    """
    return run_result_to_dict(execute_cell(cell))


def default_jobs() -> int:
    """Worker count: ``REPRO_JOBS`` if set, else ``os.cpu_count()``.

    ``REPRO_JOBS`` must be a positive integer — a zero, negative, or
    non-numeric value is a configuration mistake and fails loudly here
    rather than deep inside a pool constructor.
    """
    env = os.environ.get(JOBS_ENV)
    if env:
        try:
            value = int(env)
        except ValueError:
            raise ValueError(
                f"{JOBS_ENV} must be a positive integer (worker count), "
                f"got {env!r}") from None
        if value < 1:
            raise ValueError(
                f"{JOBS_ENV} must be >= 1 (worker count), got {value}")
        return value
    return os.cpu_count() or 1


def _run_on_pool(items: Sequence[Tuple[int, Cell]], workers: int,
                 finish: Callable[[int, Dict[str, Any]], None]) -> None:
    """Run ``(index, cell)`` items on a process pool, calling ``finish``
    as each completes.

    A cell that raises, or a worker that dies (``BrokenProcessPool``),
    fails the batch with a :class:`CellExecutionError`; nothing waits
    on a dead worker.  Every future finished in the failing wave is
    harvested first, so completed simulations reach the cache before
    the batch aborts.
    """
    pool = ProcessPoolExecutor(max_workers=workers)
    try:
        futures = {pool.submit(execute_cell_payload, cell): (index, cell)
                   for index, cell in items}
        not_done = set(futures)
        while not_done:
            done, not_done = wait(not_done, return_when=FIRST_EXCEPTION)
            first_failure = None
            for future in done:
                index, cell = futures[future]
                try:
                    payload = future.result()
                except Exception as exc:
                    if first_failure is None:
                        first_failure = (cell, exc)
                    continue
                finish(index, payload)
            if first_failure is not None:
                cell, exc = first_failure
                raise CellExecutionError(cell, exc) from exc
    except BaseException:
        # Fail fast: drop queued work and don't wait for stragglers.
        pool.shutdown(wait=False, cancel_futures=True)
        raise
    pool.shutdown(wait=True)


class ParallelRunner:
    """Runs batches of experiment cells, cache-aware.

    ``jobs`` is the maximum worker count (``None`` resolves via
    ``REPRO_JOBS`` / ``os.cpu_count()``); ``cache=None`` disables
    result caching.
    """

    def __init__(self, jobs: Optional[int] = None,
                 cache: Optional[ResultCache] = None) -> None:
        if jobs is not None and jobs < 1:
            raise ValueError("jobs must be >= 1")
        self._jobs = jobs
        self.cache = cache

    @property
    def jobs(self) -> int:
        return self._jobs if self._jobs is not None else default_jobs()

    def lookup(self, cell: Cell) -> Optional[RunResult]:
        """The cached result for ``cell``, or None on a miss or when
        uncached.

        A hit did no work now: it reports zero wall time with the
        cached flag, never the original run's timing.  While a trace or
        a profile is asked for (``REPRO_TIMELINE`` /
        ``REPRO_PROFILE_DIR``) every cell misses, so it executes and
        writes them; its fresh result is still stored.
        """
        if (self.cache is None or timeline_target() is not None
                or profile_dir() is not None):
            return None
        with _telemetry.current.span("cache.lookup"):
            cached = self.cache.load(cell)
        if cached is not None:
            cached.cached = True
            cached.wall_time_seconds = 0.0
        return cached

    # ------------------------------------------------------------------
    def run_cells(self, cells: Sequence[Cell],
                  limit: Optional[int] = None,
                  on_result: Optional[ResultCallback] = None
                  ) -> List[Optional[RunResult]]:
        """Execute every cell, returning results in input order.

        ``on_result`` is invoked once per completed cell — cache hits
        included — as completions happen.  ``limit`` bounds how many
        *missing* (non-cached) cells execute; the unexecuted remainder
        come back as ``None`` (this is the chunked-execution primitive
        behind ``repro study run --max-cells``).  With ``limit=None``
        every entry is a :class:`RunResult`.
        """
        cells = list(cells)
        results: List[Optional[RunResult]] = [None] * len(cells)
        pending: List[int] = []
        for index, cell in enumerate(cells):
            cached = self.lookup(cell)
            if cached is None:
                pending.append(index)
                continue
            results[index] = cached
            if on_result is not None:
                on_result(index, cached, False)
        if limit is not None:
            pending = pending[:limit]
        if not pending:
            return results

        def finish(index: int, payload: Dict[str, Any]) -> None:
            result = run_result_from_dict(payload)
            # Persist immediately: storing per cell (not per batch)
            # means one failing cell late in a batch cannot discard the
            # completed simulations before it.
            if self.cache is not None:
                self.cache.store(cells[index], result)
            results[index] = result
            if on_result is not None:
                on_result(index, result, True)

        workers = min(self.jobs, len(pending))
        if workers == 1:
            # A pool for one worker would only add fork/import latency.
            for index in pending:
                try:
                    payload = execute_cell_payload(cells[index])
                except Exception as exc:
                    raise CellExecutionError(cells[index], exc) from exc
                finish(index, payload)
        else:
            _run_on_pool([(index, cells[index]) for index in pending],
                         workers, finish)
        return results
