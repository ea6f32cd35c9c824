"""Per-cell cProfile capture and hotspot merging.

When ``REPRO_PROFILE_DIR`` (CLI: ``--profile DIR``) is set,
``execute_cell`` wraps each cell's build+run in a
:class:`cProfile.Profile` and dumps the stats to
``<dir>/<slug>.pstats`` — in whichever process executed the cell, so
pool workers profile themselves without any extra protocol.
``repro obs top`` merges every ``*.pstats`` in the directory with
:mod:`pstats` and renders the combined hotspot table.

Profiling changes only wall time, never simulation results; it
composes freely with ``--timeline``.
"""

from __future__ import annotations

import cProfile
import io
import os
import pstats
from pathlib import Path
from typing import Optional

#: Environment target for per-cell profile dumps (CLI: ``--profile``).
PROFILE_ENV = "REPRO_PROFILE_DIR"

#: print_stats sort keys ``repro obs top`` accepts.
SORT_KEYS = ("cumulative", "tottime", "ncalls")


def profile_dir() -> Optional[str]:
    """The configured profile directory, or None when profiling is off."""
    return os.environ.get(PROFILE_ENV) or None


def start_profile() -> Optional[cProfile.Profile]:
    """An enabled profiler when ``REPRO_PROFILE_DIR`` is set, else None."""
    if profile_dir() is None:
        return None
    profile = cProfile.Profile()
    profile.enable()
    return profile


def dump_profile(profile: cProfile.Profile, slug: str) -> Optional[Path]:
    """Stop ``profile`` and dump it as ``<dir>/<slug>.pstats``."""
    profile.disable()
    target = profile_dir()
    if target is None:  # pragma: no cover - env cleared mid-cell
        return None
    directory = Path(target)
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / f"{slug}.pstats"
    profile.dump_stats(path)
    return path


def render_top(directory: os.PathLike, limit: int = 15,
               sort: str = "cumulative") -> str:
    """The merged hotspot table over every ``*.pstats`` in ``directory``."""
    if sort not in SORT_KEYS:
        raise ValueError(f"sort must be one of {SORT_KEYS}, got {sort!r}")
    paths = sorted(Path(directory).glob("*.pstats"))
    if not paths:
        raise FileNotFoundError(
            f"no *.pstats files in {os.fspath(directory)!r}; run with "
            "--profile DIR (or REPRO_PROFILE_DIR) first")
    out = io.StringIO()
    stats = pstats.Stats(str(paths[0]), stream=out)
    for path in paths[1:]:
        stats.add(str(path))
    stats.sort_stats(sort)
    out.write(f"merged {len(paths)} profile(s) from "
              f"{os.fspath(directory)}\n")
    stats.print_stats(limit)
    return out.getvalue()
