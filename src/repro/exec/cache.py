"""Content-addressed on-disk cache of completed simulation runs.

Every cache entry is one JSON file named by the SHA-256 of a canonical
description of the run: the full :class:`SystemConfig`, the workload
name and kwargs (with a file-backed cell's ``path``/``profile`` kwarg
replaced by the file's content digest — see :func:`cache_key`), the
per-core
reference quota, the seed, and a *code version* fingerprint hashing
every ``repro`` source file.  Touching any
source file therefore invalidates the whole cache; changing any config
field moves the run to a new key.  Each code version gets its own
generation directory, and stale generations are pruned automatically
(see :attr:`ResultCache.KEEP_GENERATIONS`), so iterating on the source
does not grow the cache without bound.  Entries are written atomically
(temp file + ``os.replace``) so concurrent writers on a shared cache
directory can never leave a torn file, and unreadable entries are
treated as misses rather than errors.

A cache also remembers, weakly, the run it last decoded or stored under
each key.  While anything still holds that run — a study record in
``repro serve``, a figure grid being aggregated — a load of the same
key returns a shallow copy of it instead of reading and decoding the
file again, so many studies sharing a cell share one decoded run.  The
copy's own ``cached`` and wall-time fields can be set independently;
its inner dicts and latency stat are shared, which is safe because
nothing mutates a finished run's contents.  A live run answers even if
its file has since been deleted or corrupted: the key content-addresses
a deterministic result, so the file could only have held the same run.

:func:`open_cache` is the one place that decides whether a run is
cached and where: ``--no-cache`` wins, an explicit ``--cache-dir``
beats ``REPRO_NO_CACHE``, and otherwise ``REPRO_NO_CACHE`` disables
the cache while ``REPRO_CACHE_DIR`` or ``~/.cache/repro`` locates it.
"""

from __future__ import annotations

import copy
import functools
import hashlib
import json
import os
import shutil
import tempfile
import weakref
from pathlib import Path
from typing import Any, Dict, Optional

from repro.core.results import RunResult
from repro.exec.cells import Cell, cell_to_dict
from repro.exec.serialization import (SCHEMA_VERSION, run_result_from_dict,
                                      run_result_to_dict)

#: Environment override for the cache directory.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"
#: Set (to anything non-empty) to disable the cache unless a cache
#: directory is given explicitly (see :func:`open_cache`).
NO_CACHE_ENV = "REPRO_NO_CACHE"
#: Overrides the computed source-tree fingerprint (used by tests).
CODE_VERSION_ENV = "REPRO_CODE_VERSION"


def default_cache_dir() -> Path:
    env = os.environ.get(CACHE_DIR_ENV)
    if env:
        return Path(env)
    return Path(os.path.expanduser("~")) / ".cache" / "repro"


def open_cache(cache_dir: Optional[os.PathLike] = None,
               no_cache: bool = False) -> Optional[ResultCache]:
    """The result cache the CLI flags and environment ask for, or None.

    ``no_cache`` (``--no-cache``) wins; an explicit ``cache_dir``
    (``--cache-dir``) beats ``REPRO_NO_CACHE``; otherwise
    ``REPRO_NO_CACHE`` disables the cache, and ``REPRO_CACHE_DIR`` or
    ``~/.cache/repro`` locates it.
    """
    if no_cache:
        return None
    if cache_dir is None and os.environ.get(NO_CACHE_ENV):
        return None
    return ResultCache(cache_dir)


@functools.lru_cache(maxsize=1)
def code_version() -> str:
    """Fingerprint of the installed ``repro`` source tree.

    Any edit to any ``.py`` file under the package changes the
    fingerprint, so cached results can never outlive the code that
    produced them.
    """
    env = os.environ.get(CODE_VERSION_ENV)
    if env:
        return env
    import repro

    root = Path(repro.__file__).resolve().parent
    digest = hashlib.sha256()
    for path in sorted(root.rglob("*.py")):
        digest.update(path.relative_to(root).as_posix().encode())
        digest.update(b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


#: Digest memo keyed by (path, mtime_ns, size, inode), applied only to
#: files of at least ``_DIGEST_MEMO_MIN_BYTES``: a batch crossing one
#: large trace over many cells hashes the file once, while any edit
#: (new stat signature) recomputes.  Small files are simply re-hashed —
#: hashing them costs less than the residual risk of a same-size
#: rewrite landing in one mtime tick on a coarse-timestamp filesystem.
#: Bounded: cleared wholesale at a size far above any realistic working
#: set of live trace files.
_DIGEST_MEMO: Dict[tuple, str] = {}
_DIGEST_MEMO_LIMIT = 256
_DIGEST_MEMO_MIN_BYTES = 1 << 20


#: Workload kinds whose cells are backed by a file, and the kwarg that
#: carries its path.  Those cells are keyed by the file's *content*:
#: trace replays by the trace file, synthetic samplers by the profile
#: JSON (a ``profile`` kwarg may also be an in-memory WorkloadProfile,
#: which is not a path and is keyed literally like any other kwarg).
_FILE_BACKED_KINDS = {"trace": "path", "synthetic": "profile"}


def _file_content_id(cell: Cell) -> Optional[tuple]:
    """``(kwarg name, content id)`` of a file-backed cell's input file.

    For cells whose workload kind appears in :data:`_FILE_BACKED_KINDS`
    and that carry the corresponding file kwarg, the content id is
    ``sha256:<digest>`` of the file's bytes; for every other cell the
    result is ``None``.  An unreadable file degrades to a per-path
    sentinel rather than raising — key computation must never abort a
    batch whose execution will surface the real error.
    """
    try:
        from repro.workloads.registry import get_spec
        spec = get_spec(cell.workload)
    except ValueError:
        return None
    kwarg = _FILE_BACKED_KINDS.get(spec.kind)
    if kwarg is None:
        return None
    path = next((value for key, value in cell.workload_kwargs
                 if key == kwarg), None)
    if not isinstance(path, (str, os.PathLike)):
        return None
    from repro.traces.format import trace_digest
    try:
        stat = os.stat(path)
    except OSError:
        return kwarg, f"unreadable:{path}"
    signature = None
    if stat.st_size >= _DIGEST_MEMO_MIN_BYTES:
        signature = (os.fspath(path), stat.st_mtime_ns, stat.st_size,
                     stat.st_ino)
        memoized = _DIGEST_MEMO.get(signature)
        if memoized is not None:
            return kwarg, memoized
    try:
        content_id = f"sha256:{trace_digest(path)}"
    except OSError:
        return kwarg, f"unreadable:{path}"
    if signature is not None:
        if len(_DIGEST_MEMO) >= _DIGEST_MEMO_LIMIT:
            _DIGEST_MEMO.clear()
        _DIGEST_MEMO[signature] = content_id
    return kwarg, content_id


def cache_key(cell: Cell, version: Optional[str] = None) -> str:
    """Stable content hash identifying one run.

    File-backed cells (trace replays, synthetic samplers) are keyed by
    their input file's *content digest*, substituted for the raw path
    kwarg: editing the file moves every dependent cell to a new key,
    while renaming or copying it leaves the cached results reachable.
    """
    cell_dict = cell_to_dict(cell)
    content = _file_content_id(cell)
    if content is not None:
        kwarg, content_id = content
        cell_dict["workload_kwargs"] = [
            [kwarg, content_id] if key == kwarg else [key, value]
            for key, value in cell_dict["workload_kwargs"]]
    payload = {
        "schema": SCHEMA_VERSION,
        "code_version": version if version is not None else code_version(),
        "cell": cell_dict,
    }
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


class ResultCache:
    """On-disk store mapping cells to serialized :class:`RunResult`\\ s.

    Entries live under a per-code-version generation directory
    (``<root>/v-<hash>/``).  Since editing any source file retires a
    whole generation at once, the first store into a new generation
    prunes the oldest ones, keeping :data:`KEEP_GENERATIONS` — the cache
    cannot grow without bound across edit/re-run cycles.
    """

    #: Generations (current included) preserved on disk.
    KEEP_GENERATIONS = 3

    def __init__(self, root: Optional[os.PathLike] = None) -> None:
        self.root = Path(root) if root is not None else default_cache_dir()
        self.hits = 0
        self.misses = 0
        self.stores = 0
        self.store_errors = 0
        self._pruned = False
        #: Key -> the run last decoded or stored under it, while alive.
        self._live: "weakref.WeakValueDictionary[str, RunResult]" = \
            weakref.WeakValueDictionary()

    # ------------------------------------------------------------------
    def generation_dir(self) -> Path:
        return self.root / f"v-{code_version()}"

    def path_for(self, cell: Cell) -> Path:
        return self._entry_path(cache_key(cell))

    def _entry_path(self, key: str) -> Path:
        return self.generation_dir() / key[:2] / f"{key}.json"

    def _prune_stale_generations(self) -> None:
        """Drop all but the newest KEEP_GENERATIONS generation dirs."""
        if self._pruned:
            return
        self._pruned = True
        current = self.generation_dir()
        try:
            os.utime(current)  # mark the live generation as newest
            stale = sorted(
                (path for path in self.root.iterdir()
                 if path.is_dir() and path.name.startswith("v-")
                 and path != current),
                key=lambda path: path.stat().st_mtime, reverse=True)
        except OSError:
            return
        for path in stale[self.KEEP_GENERATIONS - 1:]:
            shutil.rmtree(path, ignore_errors=True)

    def load(self, cell: Cell,
             key: Optional[str] = None) -> Optional[RunResult]:
        """Return the cached result for ``cell``, or None on a miss.

        ``key`` is ``cache_key(cell)`` when the caller has it already.
        A run still alive from an earlier load or store of the same key
        comes back as a shallow copy, without touching the file (see
        the module docstring).
        """
        if key is None:
            key = cache_key(cell)
        live = self._live.get(key)
        if live is not None:
            self.hits += 1
            return copy.copy(live)
        try:
            with open(self._entry_path(key), "r",
                      encoding="utf-8") as handle:
                entry = json.load(handle)
            result = run_result_from_dict(entry["result"])
        except (OSError, ValueError, KeyError, TypeError):
            self.misses += 1
            return None
        self.hits += 1
        self._live[key] = result
        return result

    def store(self, cell: Cell, result: RunResult,
              key: Optional[str] = None) -> Optional[Path]:
        """Atomically persist ``result`` under the cell's key (``key``,
        when the caller has computed it).

        Like :meth:`load`, storage degrades gracefully: an unwritable or
        full cache directory must not abort an experiment whose
        simulations already succeeded, so ``OSError`` is swallowed and
        counted in ``store_errors`` (returning ``None``).
        """
        try:
            if key is None:
                key = cache_key(cell)
            path = self._entry_path(key)
            path.parent.mkdir(parents=True, exist_ok=True)
            self._prune_stale_generations()
            entry = {
                "key": key,
                "cell": cell_to_dict(cell),
                "result": run_result_to_dict(result),
            }
            fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
            try:
                with os.fdopen(fd, "w", encoding="utf-8") as handle:
                    # dumps, not dump: only dumps encodes in C, and the
                    # bytes are the same.
                    handle.write(json.dumps(entry, sort_keys=True))
                os.replace(tmp, path)
            except BaseException:
                try:
                    os.unlink(tmp)
                except OSError:
                    pass
                raise
        except OSError:
            self.store_errors += 1
            return None
        self.stores += 1
        self._live[key] = result
        return path

    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, int]:
        return {"hits": self.hits, "misses": self.misses,
                "stores": self.stores, "store_errors": self.store_errors}

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"ResultCache({str(self.root)!r}, hits={self.hits}, "
                f"misses={self.misses})")
