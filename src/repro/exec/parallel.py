"""Cache-aware batch execution, in this process or on a process pool.

The evaluation grid is embarrassingly parallel: every (config, workload,
seed) cell is an independent deterministic simulation.
:class:`ParallelRunner` probes the on-disk :class:`ResultCache` first,
runs the misses, stores every fresh result, and returns results in
input order.  The misses run in this process when one worker suffices
(``jobs=1``, or a single missing cell — the setting for debugging and
profiling, where breakpoints and profilers see the simulation
directly), and on a ``concurrent.futures.ProcessPoolExecutor``
otherwise.

When a fresh result reaches the cache depends on where it ran.  An
in-process batch stores each cell as it finishes.  A pool batch
stores its cells when the batch ends: all of them once the slowest
is done, or, when a cell fails, a worker dies or the wait is
interrupted (Ctrl-C), the cells finished by then; the cells still
running stop with their workers.  A process killed outright loses the
fresh cells of the pool batch it was running.  Either way a resume
runs the lost cells again.

The runner keeps one pool of ``jobs`` workers across batches, so a
long-lived caller (the ``repro serve`` dispatcher, a figure suite)
forks its workers once rather than once per batch.  Forked workers
carry the parent's state as it was at the fork, so before each batch
the runner compares what they inherited — the worker count, the
``REPRO_*`` environment (``--timeline`` / ``--profile`` reach
workers only through it) and the workload and topology
registries — and forks a fresh pool when any of it changed.
:meth:`ParallelRunner.close` (or leaving a ``with`` block) shuts the
workers down; a later batch forks a new pool.

Both paths are bit-identical by construction: the kernel is
deterministic per (seed, config), every cell runs through
:func:`execute_cell_payload`, and every result round-trips the same
JSON serialization the cache uses.

A cell that raises — or a pool worker that dies outright — fails the
whole batch promptly with a :class:`CellExecutionError` naming the
offending cell; the cells finished by then are stored first, so a
retry resumes where the batch died.  A failed or interrupted batch's
workers are terminated at once, with the cells they were still
running, and the next batch forks a new pool.
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


def _fork_state(workers: int) -> Tuple[Any, ...]:
    """What a forked worker inherits that a later batch may change:
    the worker count, the ``REPRO_*`` environment, and how many
    workloads and topologies are registered (``register_workload`` /
    ``register_topology`` only ever add)."""
    from repro.interconnect.topology import TOPOLOGIES
    from repro.workloads.registry import registered_count
    environment = {name: value for name, value in os.environ.items()
                   if name.startswith("REPRO_")}
    return workers, environment, registered_count(), len(TOPOLOGIES)


def _stop(pool: ProcessPoolExecutor) -> None:
    """Stop a failed batch's pool now, cells still running included.

    ``shutdown(cancel_futures=True)`` cancels only queued cells: a
    running one would go on computing a result nothing stores, and the
    interpreter's exit would wait for it.  CPython has no public way to
    terminate a pool's workers before 3.14, hence ``_processes``.
    """
    for worker in list(pool._processes.values()):
        worker.terminate()
    pool.shutdown(wait=False, cancel_futures=True)


def _run_on_pool(pool: ProcessPoolExecutor,
                 items: Sequence[Tuple[int, Cell]],
                 finish: Callable[[int, Dict[str, Any]], None]) -> None:
    """Run ``(index, cell)`` items on ``pool``, calling ``finish`` on
    each finished cell when the batch ends.

    ``wait`` returns once every cell is done or one has raised, so with
    no failure ``finish`` runs for the whole batch at once, after its
    slowest cell.  A cell that raises, or a worker that dies
    (``BrokenProcessPool``), fails the batch with a
    :class:`CellExecutionError`; nothing waits on a dead worker.  Every
    future finished in the failing wave is harvested first, and so is
    every one finished when ``wait`` itself raises (a Ctrl-C), so
    completed simulations reach the cache before the batch aborts.
    """
    futures = {pool.submit(execute_cell_payload, cell): (index, cell)
               for index, cell in items}
    not_done = set(futures)
    while not_done:
        try:
            done, not_done = wait(not_done, return_when=FIRST_EXCEPTION)
        except BaseException:
            for future, (index, _) in futures.items():
                if (future in not_done and future.done()
                        and not future.cancelled()
                        and future.exception() is None):
                    finish(index, future.result())
            raise
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


class ParallelRunner:
    """Runs batches of experiment cells, cache-aware.

    ``jobs`` is the worker count (``None`` resolves via ``REPRO_JOBS``
    / ``os.cpu_count()``); ``cache=None`` disables result caching.  The
    first batch that needs a pool forks ``jobs`` workers, and later
    batches reuse them; :meth:`close` — or leaving a ``with`` block —
    shuts them down.
    """

    def __init__(self, jobs: Optional[int] = None,
                 cache: Optional[ResultCache] = None) -> None:
        if jobs is not None and jobs < 1:
            raise ValueError("jobs must be >= 1")
        self._jobs = jobs
        self.cache = cache
        self._pool: Optional[ProcessPoolExecutor] = None
        self._pool_state: Optional[Tuple[Any, ...]] = None

    @property
    def jobs(self) -> int:
        return self._jobs if self._jobs is not None else default_jobs()

    def close(self) -> None:
        """Shut the worker pool down and wait for its workers to exit.

        Idempotent; the runner stays usable, and its next batch that
        needs a pool forks a new one.
        """
        pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=True)

    def __enter__(self) -> "ParallelRunner":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def _worker_pool(self) -> ProcessPoolExecutor:
        """The pool, forked afresh if its workers' inherited state no
        longer matches this process (see :func:`_fork_state`)."""
        workers = self.jobs
        state = _fork_state(workers)
        if self._pool is not None and state != self._pool_state:
            self.close()
        if self._pool is None:
            self._pool = ProcessPoolExecutor(max_workers=workers)
            self._pool_state = state
        return self._pool

    def lookup(self, cell: Cell,
               key: Optional[str] = None) -> Optional[RunResult]:
        """The cached result for ``cell``, or None on a miss or when
        uncached; ``key`` is the cell's ``cache_key`` if already known.

        A hit did no work now: it reports zero wall time and no phases
        with the cached flag, never the original run's timing.  While a
        trace or a profile is asked for (``REPRO_TIMELINE`` /
        ``REPRO_PROFILE_DIR``) every cell misses, so it executes and
        writes them; its fresh result is still stored.
        """
        if (self.cache is None or timeline_target() is not None
                or profile_dir() is not None):
            return None
        cached = self.cache.load(cell, key)
        if cached is not None:
            cached.cached = True
            cached.wall_time_seconds = 0.0
            cached.phases = None
        return cached

    # ------------------------------------------------------------------
    def run_cells(self, cells: Sequence[Cell],
                  limit: Optional[int] = None,
                  on_result: Optional[ResultCallback] = None,
                  keys: Optional[Sequence[str]] = None
                  ) -> List[Optional[RunResult]]:
        """Execute every cell, returning results in input order.

        ``on_result`` is invoked once per completed cell, cache hits
        included, right after the cell is stored: a hit during the
        probe, an in-process cell as it finishes, and a pool batch's
        cells when the batch ends (see the module docstring).
        ``limit`` bounds how many
        *missing* (non-cached) cells execute; the unexecuted remainder
        come back as ``None`` (this is the chunked-execution primitive
        behind ``repro study run --max-cells``).  With ``limit=None``
        every entry is a :class:`RunResult`.  ``keys``, when given,
        holds each cell's ``cache_key`` so the probe and the store need
        not compute it again.
        """
        cells = list(cells)
        keys = list(keys) if keys is not None else [None] * len(cells)
        results: List[Optional[RunResult]] = [None] * len(cells)
        pending: List[int] = []
        for index, cell in enumerate(cells):
            cached = self.lookup(cell, keys[index])
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
            # Store before reporting, cell by cell: one failing cell
            # late in a batch cannot discard the completed simulations
            # before it.
            if self.cache is not None:
                self.cache.store(cells[index], result, keys[index])
            results[index] = result
            if on_result is not None:
                on_result(index, result, True)

        if self.jobs == 1 or len(pending) == 1:
            # One worker's worth of work runs here: a pool would only
            # add dispatch latency.
            for index in pending:
                try:
                    payload = execute_cell_payload(cells[index])
                except Exception as exc:
                    raise CellExecutionError(cells[index], exc) from exc
                finish(index, payload)
            return results
        pool = self._worker_pool()
        try:
            _run_on_pool(pool, [(index, cells[index]) for index in pending],
                         finish)
        except BaseException:
            # Fail fast: drop queued work and stop the cells still
            # running; the next batch forks a new pool.
            self._pool = None
            _stop(pool)
            raise
        return results
