"""Parallel experiment execution with an on-disk result cache.

This package turns the paper's evaluation grid into batches of
independent :class:`~repro.exec.cells.Cell` descriptors and executes
them through a :class:`~repro.exec.parallel.ParallelRunner`:

* ``repro.exec.cells`` — the canonical (config, workload, seed) unit;
* ``repro.exec.serialization`` — lossless JSON round-trip of results;
* ``repro.exec.cache`` — content-addressed ``~/.cache/repro`` store,
  safe for concurrent writers on a shared directory;
* ``repro.exec.manifest`` — per-study progress records that make
  studies resumable (``repro study run --resume`` / ``status``);
* ``repro.exec.parallel`` — the cache-aware runner: misses run in this
  process when one worker suffices, on a local process pool otherwise.

Library entry points (``run_experiment``, ``Session``, ``repro bench``)
use the *default runner*: either one installed explicitly via
:func:`set_default_runner` (the CLI does this from ``--jobs`` /
``--no-cache`` / ``--cache-dir``) or one built from the environment
(``REPRO_JOBS``, ``REPRO_CACHE_DIR``, ``REPRO_NO_CACHE``).
docs/EXECUTION.md is the operations guide for all of it.
"""

from __future__ import annotations

from typing import Optional

from repro.exec.cache import (CACHE_DIR_ENV, CODE_VERSION_ENV, NO_CACHE_ENV,
                              ResultCache, cache_key, code_version,
                              default_cache_dir)
from repro.exec.cells import (Cell, cell_from_dict, cell_slug, cell_to_dict,
                              execute_cell, make_cell)
from repro.exec.manifest import (CellEntry, ManifestError, ManifestStore,
                                 StudyManifest, spec_digest)
from repro.exec.parallel import (JOBS_ENV, CellExecutionError,
                                 ParallelRunner, default_jobs)
from repro.exec.serialization import (VOLATILE_FIELDS,
                                      comparable_result_dict,
                                      run_result_from_dict,
                                      run_result_to_dict,
                                      running_stat_from_dict,
                                      running_stat_to_dict)

__all__ = [
    "CACHE_DIR_ENV", "CODE_VERSION_ENV", "JOBS_ENV", "NO_CACHE_ENV",
    "VOLATILE_FIELDS",
    "Cell", "CellEntry", "CellExecutionError", "ManifestError",
    "ManifestStore", "ParallelRunner", "ResultCache", "StudyManifest",
    "cache_key", "cell_from_dict", "cell_slug", "cell_to_dict",
    "code_version", "comparable_result_dict", "default_cache_dir",
    "default_jobs", "execute_cell", "get_default_runner", "make_cell",
    "run_result_from_dict", "run_result_to_dict", "running_stat_from_dict",
    "running_stat_to_dict", "set_default_runner", "spec_digest",
]

_default_runner: Optional[ParallelRunner] = None


def set_default_runner(runner: Optional[ParallelRunner]) -> None:
    """Install the runner used when library calls pass ``runner=None``.

    Pass ``None`` to fall back to environment-driven construction.
    """
    global _default_runner
    _default_runner = runner


def get_default_runner() -> ParallelRunner:
    """The installed default runner, or a fresh environment-driven one."""
    if _default_runner is not None:
        return _default_runner
    return ParallelRunner.from_env()
