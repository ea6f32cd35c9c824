"""Experiment cells: the unit of parallel execution and caching.

A :class:`Cell` fully describes one independent simulation — a
(config, workload, seed) point of the paper's evaluation grid — in a
form that is hashable, picklable, and deterministically serializable.
``execute_cell`` is the single code path that turns a cell into a
:class:`~repro.core.results.RunResult`; the runner's in-process path,
its pool workers, and ``run_one`` all funnel through it, which is what
makes parallel execution bit-identical to serial execution.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import fields
from typing import Any, Dict, NamedTuple, Tuple

from repro.config import SystemConfig
from repro.core.results import RunResult


class Cell(NamedTuple):
    """One independent (config, workload, seed) simulation."""

    config: SystemConfig
    workload: str
    references_per_core: int
    seed: int
    check_integrity: bool = True
    #: Extra workload-constructor kwargs as a sorted tuple of pairs so the
    #: cell stays hashable and its serialization is deterministic.
    workload_kwargs: Tuple[Tuple[str, Any], ...] = ()


def make_cell(config: SystemConfig, workload_name: str,
              references_per_core: int, seed: int,
              check_integrity: bool = True, **workload_kwargs) -> Cell:
    """Build a canonical cell (the seed is folded into the config)."""
    return Cell(config=config.with_updates(seed=seed),
                workload=workload_name,
                references_per_core=references_per_core,
                seed=seed,
                check_integrity=check_integrity,
                workload_kwargs=tuple(sorted(workload_kwargs.items())))


#: Every SystemConfig field is a scalar or the ``torus_dims`` pair, so
#: a shallow field-by-field copy serializes exactly as ``asdict``'s deep
#: copy did, at a fraction of its cost per cache key.
_CONFIG_FIELDS = tuple(field.name for field in fields(SystemConfig))


def cell_to_dict(cell: Cell) -> Dict[str, Any]:
    """JSON-safe description of a cell (used for cache keys and files)."""
    config = {name: getattr(cell.config, name) for name in _CONFIG_FIELDS}
    # torus_dims is derived in __post_init__, but stay robust to a
    # config captured before derivation (e.g. dataclasses.replace
    # intermediates): None serializes as null and round-trips.
    if config["torus_dims"] is not None:
        config["torus_dims"] = list(config["torus_dims"])
    return {
        "config": config,
        "workload": cell.workload,
        "references_per_core": cell.references_per_core,
        "seed": cell.seed,
        "check_integrity": cell.check_integrity,
        "workload_kwargs": [list(pair) for pair in cell.workload_kwargs],
    }


def cell_from_dict(data: Dict[str, Any]) -> Cell:
    """Rebuild a :class:`Cell` from :func:`cell_to_dict` output.

    The inverse direction of the JSON round-trip: cache entries and
    study artifacts store cells in dict form, and
    ``cell_from_dict(cell_to_dict(cell)) == cell`` for any valid cell.
    """
    config = dict(data["config"])
    if config.get("torus_dims") is not None:
        config["torus_dims"] = tuple(config["torus_dims"])
    return Cell(
        config=SystemConfig(**config),
        workload=str(data["workload"]),
        references_per_core=int(data["references_per_core"]),
        seed=int(data["seed"]),
        check_integrity=bool(data["check_integrity"]),
        workload_kwargs=tuple((key, value) for key, value
                              in data["workload_kwargs"]),
    )


def cell_slug(cell: Cell) -> str:
    """A filesystem-safe, collision-resistant name for one cell.

    Names the per-cell artifacts observability writes (timeline traces,
    profile dumps): readable prefix, content digest suffix.
    """
    digest = hashlib.sha256(
        json.dumps(cell_to_dict(cell), sort_keys=True).encode()
    ).hexdigest()[:12]
    return (f"{cell.config.protocol}-{cell.workload}"
            f"-c{cell.config.num_cores}-s{cell.seed}-{digest}")


def execute_cell(cell: Cell) -> RunResult:
    """Run one cell in-process and return its result.

    Beyond the simulation itself, this is where per-cell observability
    happens — in whichever process the cell runs, so in-process and
    pool execution get it alike: wall time and the seconds per phase
    (``build`` here, the rest from :meth:`System.run`) are always
    recorded on the result; ``REPRO_TIMELINE`` / ``REPRO_PROFILE_DIR``
    write this cell's trace and profile beside the run.  None of it
    changes simulation output.  The cell's :class:`System` is closed
    before this returns or raises, so no cyclic garbage outlives it.
    """
    # Imported here (not at module top) to keep the worker-side import
    # footprint explicit and cycle-free.
    from repro import obs
    from repro.core.system import System
    from repro.workloads.presets import make_workload

    profile = obs.start_profile()
    started_at = time.time()
    start = time.monotonic()
    system = None
    try:
        build_start = time.perf_counter()
        workload = make_workload(
            cell.workload, num_cores=cell.config.num_cores,
            seed=cell.seed, **dict(cell.workload_kwargs))
        system = System(cell.config, workload, cell.references_per_core,
                        check_integrity=cell.check_integrity)
        build = time.perf_counter() - build_start
        timeline_target = obs.timeline_target()
        recorder = None
        if timeline_target is not None:
            recorder = obs.TimelineRecorder(label=cell_slug(cell))
            system.attach_timeline(recorder)
        result = system.run()
    finally:
        # The result (or a failure's diagnostic) is built: release the
        # System, so reference counting frees it on return.
        if system is not None:
            system.close()
        if profile is not None:
            obs.dump_profile(profile, cell_slug(cell))
    if recorder is not None:
        recorder.write(obs.timeline_path(timeline_target, cell_slug(cell)))
    result.started_at = started_at
    result.wall_time_seconds = time.monotonic() - start
    result.phases = {"build": build, **result.phases}
    return result
