"""Per-study manifests: resumable progress records beside the cache.

A manifest is the durable answer to "how far did this study get?".
:meth:`~repro.api.session.Session.run` (and the service's scheduler,
which runs on a session) writes one per study into
``<cache-root>/studies/<digest>.json`` — the study's spec digest, every
cell's identity (grid-point labels + seed) in deterministic grid order,
and each cell's completion state.  ``repro study status`` reads it
without running anything, and ``repro study run --resume`` /
``--max-cells`` use it to continue a partially-run grid: cells recorded
``done`` load from the shared result cache, only the missing ones
execute.

Both writers follow one save policy: a manifest is saved when its study
opens, once after each batch that resolved any of its cells, and at
once when one of its cells fails.  A run stopped mid-batch therefore
leaves a manifest that lags by at most that batch, and the cache makes
up the lag: the runner stores every fresh result before it reports the
cell (in-process, as each cell finishes; on the pool, when the batch
ends, fails or is interrupted), so on resume those cells come back as
cache hits.  A process killed outright during a pool batch loses that
batch's fresh cells, and the resume runs them again.

Manifests live *inside the cache directory* on purpose: point several
machines' ``REPRO_CACHE_DIR`` at one shared directory and they share
both the results and the progress record (writes are atomic, same as
cache entries).  The digest excludes the code version, which is
instead recorded in the manifest so ``status`` can warn that cached
results predate the current source tree (stale ``done`` cells simply
miss the cache and re-run).
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

#: Bump when the on-disk manifest shape changes; unknown versions are
#: treated as missing (a manifest is a progress record, never data).
MANIFEST_SCHEMA = 1

#: The states a cell moves through.  ``pending`` -> ``done`` on
#: completion; ``failed`` records the error and is retried on resume.
CELL_STATES = ("pending", "done", "failed")


class ManifestError(ValueError):
    """A study manifest file exists but cannot be read; the message
    names the path so the user can inspect or delete it."""


def spec_digest(spec) -> str:
    """Stable identity of a study's *grid*.

    Hashes the spec's canonical JSON, so a schema-compatible
    re-serialization of the same grid resumes the same manifest.
    """
    canonical = json.dumps(spec.to_json_dict(), sort_keys=True,
                           separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()[:16]


@dataclass
class CellEntry:
    """One cell's identity, completion state, and recorded timings.

    The timing fields are additive (older manifests simply lack them):
    ``wall_time`` is the cell's recorded wall-clock seconds (0.0 for a
    cache hit, flagged by ``cached``), ``events_per_second`` its kernel
    throughput, and ``phases`` its seconds per phase (build, sim, drain,
    collect) when the cell executed, None for a cache hit.
    """

    key: Tuple[str, ...]
    seed: int
    state: str = "pending"
    error: Optional[str] = None
    wall_time: Optional[float] = None
    events_per_second: Optional[float] = None
    cached: Optional[bool] = None
    phases: Optional[Dict[str, float]] = None

    def to_json_dict(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {"key": list(self.key), "seed": self.seed,
                               "state": self.state}
        if self.error is not None:
            out["error"] = self.error
        for name in ("wall_time", "events_per_second", "cached", "phases"):
            value = getattr(self, name)
            if value is not None:
                out[name] = value
        return out

    @classmethod
    def from_json_dict(cls, data: Dict[str, Any]) -> "CellEntry":
        state = data["state"]
        if state not in CELL_STATES:
            raise ValueError(f"unknown cell state {state!r}")
        wall_time = data.get("wall_time")
        events = data.get("events_per_second")
        cached = data.get("cached")
        phases = data.get("phases")
        return cls(key=tuple(data["key"]), seed=int(data["seed"]),
                   state=state, error=data.get("error"),
                   wall_time=None if wall_time is None else float(wall_time),
                   events_per_second=None if events is None
                   else float(events),
                   cached=None if cached is None else bool(cached),
                   phases=None if phases is None
                   else {str(k): float(v) for k, v in phases.items()})


@dataclass
class StudyManifest:
    """A whole study's progress: spec identity plus per-cell states."""

    study: str
    digest: str
    code_version: str
    cells: List[CellEntry] = field(default_factory=list)

    # ------------------------------------------------------------------
    @classmethod
    def fresh(cls, spec, code_version: str) -> "StudyManifest":
        """An all-pending manifest for ``spec``, cells in grid order."""
        cells = [CellEntry(key=key, seed=seed)
                 for key in spec.keys() for seed in spec.seeds]
        return cls(study=spec.name, digest=spec_digest(spec),
                   code_version=code_version, cells=cells)

    def matches(self, spec) -> bool:
        """Whether this manifest describes exactly ``spec``'s grid."""
        expected = [(key, seed) for key in spec.keys()
                    for seed in spec.seeds]
        return (self.digest == spec_digest(spec)
                and [(cell.key, cell.seed) for cell in self.cells]
                == expected)

    # ------------------------------------------------------------------
    def mark(self, index: int, state: str,
             error: Optional[str] = None) -> None:
        if state not in CELL_STATES:
            raise ValueError(f"unknown cell state {state!r}")
        cell = self.cells[index]
        cell.state = state
        cell.error = error

    def record_result(self, index: int, result, fresh: bool) -> None:
        """Mark a cell done and capture its run's timing fields.

        ``result`` is the cell's :class:`~repro.core.results.RunResult`
        (duck-typed so the manifest layer needs no core import);
        ``fresh`` is False for cache hits, which record ``wall_time=0.0``,
        ``cached=True`` and no phases per the execution-layer contract,
        so a resumed cell keeps no phases from an earlier run.
        """
        cell = self.cells[index]
        cell.state = "done"
        cell.error = None
        cell.cached = not fresh
        wall = float(getattr(result, "wall_time_seconds", 0.0))
        cell.wall_time = wall
        events = getattr(result, "events_processed", 0)
        cell.events_per_second = events / wall if wall > 0 else None
        cell.phases = getattr(result, "phases", None) if fresh else None

    def counts(self) -> Dict[str, int]:
        """``{"done": ..., "pending": ..., "failed": ...}``."""
        out = {state: 0 for state in CELL_STATES}
        for cell in self.cells:
            out[cell.state] += 1
        return out

    @property
    def complete(self) -> bool:
        return all(cell.state == "done" for cell in self.cells)

    def failed_cells(self) -> List[CellEntry]:
        return [cell for cell in self.cells if cell.state == "failed"]

    def summary(self) -> str:
        """One status line: ``N done, M pending, K failed of T cells``."""
        counts = self.counts()
        return (f"{counts['done']} done, {counts['pending']} pending, "
                f"{counts['failed']} failed of {len(self.cells)} cells")

    # ------------------------------------------------------------------
    def to_json_dict(self) -> Dict[str, Any]:
        return {"manifest_schema": MANIFEST_SCHEMA,
                "study": self.study,
                "digest": self.digest,
                "code_version": self.code_version,
                "cells": [cell.to_json_dict() for cell in self.cells]}

    @classmethod
    def from_json_dict(cls, data: Dict[str, Any]) -> "StudyManifest":
        if data.get("manifest_schema") != MANIFEST_SCHEMA:
            raise ValueError(
                f"unsupported manifest_schema "
                f"{data.get('manifest_schema')!r}")
        # Unknown keys are ignored, so a manifest that still carries a
        # field this version no longer writes keeps loading.
        return cls(study=str(data["study"]), digest=str(data["digest"]),
                   code_version=str(data["code_version"]),
                   cells=[CellEntry.from_json_dict(cell)
                          for cell in data["cells"]])


class ManifestStore:
    """Loads and saves manifests under ``<root>/studies/``.

    Same degradation contract as the result cache: an unreadable or
    torn manifest is a miss, an unwritable directory never aborts a
    study whose simulations succeeded (writes are atomic via temp file
    + ``os.replace``, so concurrent writers on a shared directory can
    never leave a torn manifest).
    """

    def __init__(self, cache_root: os.PathLike) -> None:
        self.root = Path(cache_root) / "studies"

    def path_for(self, digest: str) -> Path:
        return self.root / f"{digest}.json"

    def load(self, digest: str,
             strict: bool = False) -> Optional[StudyManifest]:
        """The stored manifest for ``digest``, or None when missing.

        The default mode treats any unreadable or corrupt file as a
        miss (a manifest is a progress record, never data).  With
        ``strict=True`` a *missing* manifest is still None — a study
        that never ran is a normal state — but a file that exists and
        cannot be parsed raises :class:`ManifestError` naming the path,
        so ``repro study status`` can point at the damage instead of
        silently reporting "no recorded progress".
        """
        path = self.path_for(digest)
        try:
            with open(path, "r", encoding="utf-8") as handle:
                data = json.load(handle)
        except FileNotFoundError:
            return None
        except OSError as exc:
            if strict:
                raise ManifestError(
                    f"study manifest {path} is unreadable: {exc}") from exc
            return None
        except ValueError as exc:
            if strict:
                raise ManifestError(
                    f"study manifest {path} is corrupt (not valid JSON: "
                    f"{exc}); delete it and re-run the study") from exc
            return None
        try:
            return StudyManifest.from_json_dict(data)
        except (ValueError, KeyError, TypeError) as exc:
            if strict:
                raise ManifestError(
                    f"study manifest {path} is corrupt ({exc}); delete "
                    f"it and re-run the study") from exc
            return None

    def open(self, spec, code_version: str,
             resume: bool) -> StudyManifest:
        """Continue ``spec``'s stored manifest (``resume``) or start a
        fresh one; saves nothing.

        A continued manifest must describe exactly this spec's grid;
        its failed cells go back to pending so they retry, and it
        follows the current ``code_version`` (cells done under an old
        one miss the cache and re-run).  Resuming a study that was
        never recorded simply starts fresh — resume is an intent, not
        a precondition.
        """
        manifest = self.load(spec_digest(spec)) if resume else None
        if manifest is None or not manifest.matches(spec):
            return StudyManifest.fresh(spec, code_version)
        for index, cell in enumerate(manifest.cells):
            if cell.state == "failed":
                manifest.mark(index, "pending")
        manifest.code_version = code_version
        return manifest

    def list(self) -> List[Tuple[Path, Optional[StudyManifest]]]:
        """Every manifest under the store, sorted by file name.

        Returns ``(path, manifest)`` pairs; a corrupt file appears with
        ``manifest=None`` so callers (``repro study list``, the service
        study index) can surface it instead of hiding it.  A missing
        ``studies/`` directory is simply an empty listing.
        """
        try:
            paths = sorted(self.root.glob("*.json"))
        except OSError:
            return []
        out: List[Tuple[Path, Optional[StudyManifest]]] = []
        for path in paths:
            out.append((path, self.load(path.stem)))
        return out

    def save(self, manifest: StudyManifest) -> Optional[Path]:
        """Atomically persist ``manifest``; None if the disk refused."""
        path = self.path_for(manifest.digest)
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
            try:
                with os.fdopen(fd, "w", encoding="utf-8") as handle:
                    # dumps, not dump: only dumps encodes in C, and the
                    # bytes are the same.
                    handle.write(json.dumps(manifest.to_json_dict(),
                                            sort_keys=True))
                os.replace(tmp, path)
            except BaseException:
                try:
                    os.unlink(tmp)
                except OSError:
                    pass
                raise
        except OSError:
            return None
        return path
