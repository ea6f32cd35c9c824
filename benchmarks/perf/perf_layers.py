"""Per-layer attribution for traced runs.

Two mechanisms, one per kind of workload:

* the in-process cell workloads run each op under :mod:`cProfile`;
  :func:`layer_self_times` sums self time per ``src/repro/`` layer and
  charges a function outside the package (a built-in, the standard
  library) to its callers' layers;
* the service workload runs across threads and pool processes the
  profiler cannot follow, so :func:`wrapped` times the public functions
  the op goes through, and removes the wrappers afterwards.
"""

from __future__ import annotations

import functools
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Dict, Iterator, List, Mapping, Optional, Tuple

#: Layer of every package and top-level module under ``src/repro/``,
#: keyed by its path relative to the package root (a two-part key such
#: as ``engines/array`` wins over its parent).  A new package must be
#: added here: ``unmapped`` reports it, and the benchmark's tests fail.
LAYER_OF = {
    "sim": "sim",
    "interconnect": "interconnect",
    "engines/array": "interconnect",
    "protocols": "protocols",
    "coherence": "protocols",
    "prediction": "protocols",
    "cache": "cache",
    "directory_state": "cache",
    "workloads": "workloads",
    "synth": "workloads",
    "traces": "workloads",
    "cpu": "workloads",
    "core": "core",
    "engines": "core",
    "config.py": "core",
    "__init__.py": "core",
    "verify": "verify",
    "stats": "stats",
    "model.py": "stats",
    "obs": "obs",
    "trace.py": "obs",
    "exec": "exec",
    "api": "api",
    "service": "service",
    "cli.py": "cli",
    "bench.py": "cli",
    "analysis.py": "cli",
    "__main__.py": "cli",
}

#: Layers whose profiler self time the benchmark reports.
PROFILED_LAYERS = ("sim", "interconnect", "protocols", "cache", "workloads",
                   "core", "verify", "stats", "obs")

UNATTRIBUTED = "unattributed"


def layer_for(relative: str) -> Optional[str]:
    """Layer of a file, given its path relative to the package root."""
    parts = relative.replace("\\", "/").split("/")
    if len(parts) > 2 and "/".join(parts[:2]) in LAYER_OF:
        return LAYER_OF["/".join(parts[:2])]
    return LAYER_OF.get(parts[0])


def unmapped(package_root: Path) -> List[str]:
    """Packages and modules under ``package_root`` with no layer."""
    missing = []
    for entry in sorted(package_root.iterdir()):
        if entry.is_dir() and (entry / "__init__.py").exists():
            if layer_for(entry.name + "/__init__.py") is None:
                missing.append(entry.name)
        elif entry.suffix == ".py" and layer_for(entry.name) is None:
            missing.append(entry.name)
    return missing


# ----------------------------------------------------------------------
# Profiler aggregation
# ----------------------------------------------------------------------
#: pstats' function key and row: ``(file, line, name)`` ->
#: ``(cc, nc, tt, ct, callers)``, callers mapping to ``(nc, cc, tt, ct)``.
FuncKey = Tuple[str, int, str]


def layer_self_times(stats: Mapping[FuncKey, tuple],
                     package_root: Path) -> Dict[str, float]:
    """Seconds of self time per layer in a ``pstats.Stats.stats`` dict.

    A function inside the package is charged to its file's layer.  One
    outside it is split across its callers in proportion to the time
    each call edge took, recursively; what reaches no package frame
    (the benchmark's own loop, the profiler switch) is
    :data:`UNATTRIBUTED`.
    """
    prefix = str(package_root) + "/"
    shares: Dict[FuncKey, Dict[str, float]] = {}

    def own_layer(func: FuncKey) -> Optional[str]:
        filename = func[0]
        if filename.startswith(prefix):
            return layer_for(filename[len(prefix):]) or UNATTRIBUTED
        return None

    def share(func: FuncKey, visiting: frozenset) -> Dict[str, float]:
        """Fractions of ``func``'s self time per layer; a shortfall
        from 1 (a call cycle outside the package) is unattributed."""
        layer = own_layer(func)
        if layer is not None:
            return {layer: 1.0}
        if func in shares:
            return shares[func]
        if func in visiting:
            return {}
        callers = stats[func][4] if func in stats else {}
        weights = {caller: edge[2] for caller, edge in callers.items()}
        if not any(weights.values()):
            weights = {caller: float(edge[0])
                       for caller, edge in callers.items()}
        total = sum(weights.values())
        if total <= 0:
            return {UNATTRIBUTED: 1.0}
        mix: Dict[str, float] = defaultdict(float)
        for caller, weight in weights.items():
            for layer, part in share(caller, visiting | {func}).items():
                mix[layer] += part * weight / total
        shares[func] = dict(mix)
        return shares[func]

    totals: Dict[str, float] = defaultdict(float)
    for func, row in stats.items():
        self_time = row[2]
        if not self_time:
            continue
        parts = share(func, frozenset())
        for layer, part in parts.items():
            totals[layer] += self_time * part
        totals[UNATTRIBUTED] += self_time * max(0.0, 1.0 - sum(parts.values()))
    return dict(totals)


def cumulative_time(stats: Mapping[FuncKey, tuple], package_root: Path,
                    name: str) -> float:
    """Cumulative seconds in the outermost package function ``name``."""
    prefix = str(package_root) + "/"
    return max((row[3] for func, row in stats.items()
                if func[2] == name and func[0].startswith(prefix)),
               default=0.0)


# ----------------------------------------------------------------------
# Wrappers around public functions
# ----------------------------------------------------------------------
class Timers:
    """Thread-safe totals of seconds and calls per timer name."""

    def __init__(self) -> None:
        self.seconds: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        self._lock = threading.Lock()

    def add(self, name: str, seconds: float) -> None:
        with self._lock:
            self.seconds[name] += seconds
            self.calls[name] += 1


def _timed(function: Any, timers: Timers, name: str) -> Any:
    @functools.wraps(function)
    def timed(*args: Any, **kwargs: Any) -> Any:
        start = time.perf_counter()
        try:
            return function(*args, **kwargs)
        finally:
            timers.add(name, time.perf_counter() - start)
    return timed


def _dispatch_timed(run_cells: Any, timers: Timers) -> Any:
    """``ParallelRunner.run_cells`` recording, per batch, the time to
    its first fresh result minus that cell's own run time."""
    @functools.wraps(run_cells)
    def timed(self: Any, cells: Any, *args: Any, on_result: Any = None,
              **kwargs: Any) -> Any:
        start = time.perf_counter()
        first: List[float] = []

        def hook(index: int, result: Any, fresh: bool) -> None:
            if fresh and not first:
                first.append(time.perf_counter() - start
                             - result.wall_time_seconds)
            if on_result is not None:
                on_result(index, result, fresh)

        try:
            return run_cells(self, cells, *args, on_result=hook, **kwargs)
        finally:
            if first:
                timers.add("exec.dispatch", first[0])
    return timed


@contextmanager
def wrapped(timers: Timers) -> Iterator[Timers]:
    """Time the execution layer's public functions while active.

    ``cache_key`` is wrapped under both names it is called by, so the
    timer also covers the key computed inside each cache load and
    store.
    """
    from repro.api.spec import StudySpec
    from repro.exec import ManifestStore, ParallelRunner, ResultCache
    import repro.exec.cache as cache_module
    import repro.service.scheduler as scheduler_module

    targets = [
        (cache_module, "cache_key", "exec.cache_key"),
        (scheduler_module, "cache_key", "exec.cache_key"),
        (ResultCache, "load", "exec.cache_load"),
        (ResultCache, "store", "exec.cache_store"),
        (ManifestStore, "save", "exec.manifest_save"),
        (StudySpec, "cells", "api.spec_cells"),
    ]
    originals = []
    try:
        for owner, attribute, name in targets:
            original = vars(owner)[attribute]
            originals.append((owner, attribute, original))
            setattr(owner, attribute, _timed(original, timers, name))
        original = vars(ParallelRunner)["run_cells"]
        originals.append((ParallelRunner, "run_cells", original))
        ParallelRunner.run_cells = _dispatch_timed(original, timers)
        yield timers
    finally:
        for owner, attribute, original in reversed(originals):
            setattr(owner, attribute, original)
