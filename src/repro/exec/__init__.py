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

Library entry points (``run_experiment``, ``repro bench``) take an
optional runner and run through a :class:`~repro.api.session.Session`;
without one, the session builds its runner from the environment
(``REPRO_JOBS``, and :func:`~repro.exec.cache.open_cache`'s cache rule
over ``REPRO_CACHE_DIR`` / ``REPRO_NO_CACHE``).  The CLI builds one
session from ``--jobs`` / ``--cache-dir`` / ``--no-cache`` and passes
it down.  docs/EXECUTION.md is the operations guide for all of it.
"""

from __future__ import annotations

from repro.exec.cache import (CACHE_DIR_ENV, CODE_VERSION_ENV, NO_CACHE_ENV,
                              ResultCache, cache_key, code_version,
                              default_cache_dir, open_cache)
from repro.exec.cells import (Cell, cell_from_dict, cell_slug, cell_to_dict,
                              execute_cell, make_cell)
from repro.exec.manifest import (CellEntry, ManifestError, ManifestStore,
                                 StudyManifest, spec_digest)
from repro.exec.parallel import (JOBS_ENV, CellExecutionError,
                                 ParallelRunner, default_jobs)
from repro.exec.serialization import (VOLATILE_FIELDS,
                                      comparable_result_dict,
                                      run_result_from_dict,
                                      run_result_to_dict)

__all__ = [
    "CACHE_DIR_ENV", "CODE_VERSION_ENV", "JOBS_ENV", "NO_CACHE_ENV",
    "VOLATILE_FIELDS",
    "Cell", "CellEntry", "CellExecutionError", "ManifestError",
    "ManifestStore", "ParallelRunner", "ResultCache", "StudyManifest",
    "cache_key", "cell_from_dict", "cell_slug", "cell_to_dict",
    "code_version", "comparable_result_dict", "default_cache_dir",
    "default_jobs", "execute_cell", "make_cell", "open_cache",
    "run_result_from_dict", "run_result_to_dict", "spec_digest",
]
