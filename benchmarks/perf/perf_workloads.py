"""The benchmark's three workloads.

Each workload builds its inputs from the workload seed, sets up
everything before the first timed op, and runs ops in a closed loop:
a client issues its next op only when the previous one returned.  Only
public functions are called (``execute_cell``, ``make_server``,
``ServiceClient``), with no engine or executor named and no ``REPRO_*``
variable set, so a run measures what a user gets by default.

``run.py`` imports ``repro`` (timed) before this module.
"""

from __future__ import annotations

import cProfile
import threading
import time
from collections import Counter
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence

import repro
from repro import SystemConfig
from repro.exec import execute_cell, make_cell

from perf_core import (CheckFailed, OutputCheck, derived_seed, run_digest,
                       window_digest)
from perf_layers import Timers, wrapped
from perf_reference import speed_scale

PACKAGE_ROOT = Path(repro.__file__).resolve().parent

#: Distinct cells a cell workload cycles through, so that every cell is
#: delivered several times in a run and can be checked against itself.
CELL_POOL = 32


@dataclass
class Phase:
    """What one closed-loop phase measured.

    Ops run in blocks, and one speed-reference sample follows each
    block; a block's host times are scaled by the samples of the blocks
    within ``window`` of it, so that a burst of machine slowness is
    taken out of the ops it slowed.
    """

    window: int = 0
    #: Raw seconds of each op that passed the checks, and its block.
    latencies: List[float] = field(default_factory=list)
    op_blocks: List[int] = field(default_factory=list)
    attempted: int = 0
    errors: List[str] = field(default_factory=list)
    #: Raw seconds of each block, and the reference sample after it.
    block_seconds: List[float] = field(default_factory=list)
    references: List[float] = field(default_factory=list)
    #: Simulated work delivered by the ops that passed the checks.
    work: Counter = field(default_factory=Counter)
    #: Profiler rows (pstats form) when the phase was profiled.
    profile: Optional[Dict[Any, tuple]] = None
    timers: Optional[Timers] = None
    #: ``/stats`` counter deltas over the phase (service workload).
    service_stats: Optional[Dict[str, int]] = None

    @property
    def elapsed(self) -> float:
        return sum(self.block_seconds)

    def block_scales(self) -> List[float]:
        refs = self.references
        return [speed_scale(refs[max(0, block - self.window):
                                 block + self.window + 1])
                for block in range(len(refs))]

    def scaled_latencies(self) -> List[float]:
        """Each op's seconds at the reference speed."""
        scales = self.block_scales()
        return [latency * scales[block]
                for latency, block in zip(self.latencies, self.op_blocks)]

    def scaled_elapsed(self) -> float:
        """The phase's seconds at the reference speed."""
        return sum(seconds * scale for seconds, scale
                   in zip(self.block_seconds, self.block_scales()))

    @property
    def scale(self) -> float:
        """Mean factor taking this phase's host times to reference
        speed."""
        return self.scaled_elapsed() / self.elapsed if self.elapsed else 1.0


def closed_loop(run: Callable[[int], Any],
                verify: Callable[[int, Any], Counter],
                reference: Callable[[], float], clients: int,
                seconds: float, min_ops: int, hard_stop: float,
                limit: Optional[int] = None, block_s: float = 0.0,
                window: int = 0) -> Phase:
    """Run ops ``0, 1, 2, ...`` from ``clients`` closed-loop clients.

    ``run(i)`` is the timed op; ``verify(i, output)`` checks its output
    outside the timed region and returns the work it delivered.  Ops
    run in blocks: each client issues ops until ``block_s`` seconds
    into the block (one op at least); when every client is idle,
    ``reference()`` takes one speed sample.  New blocks stop once
    ``seconds`` of blocks have run and ``min_ops`` ops were issued, or
    ``limit`` ops were issued, or the clock passes ``hard_stop`` (a
    ``perf_counter`` value).
    """
    phase = Phase(window=window)
    lock = threading.Lock()
    issued = [0]

    def client(block: int, block_end: float) -> None:
        first = True
        while True:
            with lock:
                if limit is not None and issued[0] >= limit:
                    return
                if not first and time.perf_counter() >= block_end:
                    return
                index = issued[0]
                issued[0] += 1
                phase.attempted += 1
            first = False
            began = time.perf_counter()
            try:
                output = run(index)
                latency = time.perf_counter() - began
                work = verify(index, output)
            except Exception as exc:  # noqa: BLE001 - a failed op is data
                with lock:
                    phase.errors.append(
                        f"op {index}: {type(exc).__name__}: {exc}")
                continue
            with lock:
                phase.latencies.append(latency)
                phase.op_blocks.append(block)
                phase.work.update(work)

    elapsed = 0.0
    while not (limit is not None and issued[0] >= limit
               or time.perf_counter() >= hard_stop
               or elapsed >= seconds and issued[0] >= min_ops):
        block = len(phase.block_seconds)
        began = time.perf_counter()
        if clients == 1:
            client(block, began + block_s)
        else:
            threads = [threading.Thread(target=client,
                                        args=(block, began + block_s))
                       for _ in range(clients)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        phase.block_seconds.append(time.perf_counter() - began)
        elapsed += phase.block_seconds[-1]
        phase.references.append(reference())
    return phase


def run_work(result: Any) -> Counter:
    """Simulated work one delivered run represents."""
    return Counter({
        "refs": result.total_references,
        "events": result.events_processed,
        "bytes": sum(result.traffic_bytes_raw.values()),
        "misses": result.misses,
        "token_responses": result.cache_stats.get("token_responses", 0),
        "direct_requests_sent":
            result.cache_stats.get("direct_requests_sent", 0),
    })


# ----------------------------------------------------------------------
# In-process cell workloads
# ----------------------------------------------------------------------
class CellWorkload:
    """Each op runs one cell of a fixed configuration in-process."""

    clients = 1
    #: A speed sample after every op; an op's speed is the median of the
    #: seven samples around it.
    block_s = 0.0
    window = 3

    def __init__(self, name: str, config: Dict[str, Any], workload: str,
                 refs: int, seed: int,
                 expected: Optional[Sequence[str]]) -> None:
        self.name = name
        self.config = config
        self.workload = workload
        self.refs = refs
        self.seed = seed
        self.check = OutputCheck(expected)
        self.setup_errors: List[str] = []
        self.cells: List[Any] = []

    def inputs(self) -> List[int]:
        """The cell seeds, derived from the workload seed."""
        return [derived_seed(self.name, self.seed, index)
                for index in range(CELL_POOL)]

    def set_up(self) -> None:
        config = SystemConfig(**self.config)
        self.cells = [make_cell(config, self.workload, self.refs, cell_seed)
                      for cell_seed in self.inputs()]

    def tear_down(self) -> None:
        pass

    def reference_digests(self) -> List[str]:
        """Digest of every pool cell, run directly (for the committed
        fingerprints)."""
        self.set_up()
        return [run_digest(execute_cell(cell)) for cell in self.cells]

    def _verify(self, index: int, result: Any) -> Counter:
        slot = index % len(self.cells)
        quota = self.cells[slot].config.num_cores * self.refs
        (digest,) = self.check.runs([(slot, result, quota)])
        self.check.op(slot, digest)
        return run_work(result)

    def run_phase(self, seconds: float, min_ops: int, hard_stop: float,
                  reference: Callable[[], float],
                  limit: Optional[int] = None, traced: bool = False
                  ) -> Phase:
        cells = self.cells
        if not traced:
            return closed_loop(lambda i: execute_cell(cells[i % len(cells)]),
                               self._verify, reference, self.clients,
                               seconds, min_ops, hard_stop, limit,
                               self.block_s, self.window)
        profiler = cProfile.Profile()

        def profiled(index: int) -> Any:
            profiler.enable()
            try:
                return execute_cell(cells[index % len(cells)])
            finally:
                profiler.disable()

        with wrapped(Timers()) as timers:
            phase = closed_loop(profiled, self._verify, reference,
                                self.clients, seconds, min_ops, hard_stop,
                                limit, self.block_s, self.window)
        profiler.create_stats()
        phase.profile = profiler.stats
        phase.timers = timers
        return phase


# ----------------------------------------------------------------------
# The service workload
# ----------------------------------------------------------------------
#: The six protocol variants of the paper's Figure 4 (as in
#: ``examples/specs/fig4_smoke.json``).
VARIANTS = (
    ("Directory", {"protocol": "directory"}),
    ("PATCH-None", {"protocol": "patch", "predictor": "none"}),
    ("PATCH-Owner", {"protocol": "patch", "predictor": "owner"}),
    ("Broadcast-If-Shared", {"protocol": "patch",
                             "predictor": "broadcast-if-shared"}),
    ("PATCH-All", {"protocol": "patch", "predictor": "all"}),
    ("Token Coherence", {"protocol": "tokenb"}),
)
SERVE_WORKLOADS = ("jbb", "oltp")
SERVE_CORES = 2
SERVE_REFS = 5
#: Consecutive seeds per study; each study slides the window by one.
WINDOW_SEEDS = 8


def window_spec(first_seed: int) -> Dict[str, Any]:
    """The study over seeds ``first_seed .. first_seed + 7``."""
    return {
        "spec_schema": 2,
        "name": "serve-overlap",
        "base_config": {"num_cores": SERVE_CORES},
        "references_per_core": SERVE_REFS,
        "seeds": list(range(first_seed, first_seed + WINDOW_SEEDS)),
        "axes": [
            {"name": "workload",
             "points": [{"label": name, "workload": name}
                        for name in SERVE_WORKLOADS]},
            {"name": "variant",
             "points": [{"label": label, "config": config}
                        for label, config in VARIANTS]},
        ],
        "grid": "cross",
    }


class StudyFailed(RuntimeError):
    """The service reported a study as failed or never finished it."""


class _Daemon:
    """An in-process ``repro serve`` with its own cache directory."""

    def __init__(self, cache_dir: Path) -> None:
        from repro.service import ServiceClient, make_server
        self.server = make_server(port=0, cache_dir=str(cache_dir))
        self.thread = threading.Thread(target=self.server.serve_forever,
                                       name="serve", daemon=True)
        self.thread.start()
        self.client = ServiceClient(f"http://127.0.0.1:{self.server.port}")

    def close(self) -> None:
        self.server.close()
        self.thread.join(timeout=30)


class ServeOverlapWorkload:
    """Two closed-loop clients submit sliding-window studies to one
    daemon; window ``k`` covers seeds ``base + k .. base + k + 7``."""

    name = "serve-overlap"
    clients = 2
    #: Both clients pause for a speed sample about every second; a
    #: block's speed is the median of the five samples around it.
    block_s = 1.0
    window = 2

    def __init__(self, seed: int, scratch: Path,
                 expected: Optional[Sequence[str]]) -> None:
        self.seed = seed
        self.scratch = scratch
        self.check = OutputCheck(expected)
        self.setup_errors: List[str] = []
        self.daemons: List[_Daemon] = []

    def inputs(self) -> int:
        """The first seed of window 0, derived from the workload seed."""
        return derived_seed(self.name, self.seed, 0)

    def _start_daemon(self) -> _Daemon:
        daemon = _Daemon(self.scratch / f"cache-{len(self.daemons)}")
        self.daemons.append(daemon)
        try:
            self._verify(-1, self._study(daemon, 0, None))
        except Exception as exc:  # noqa: BLE001 - a failed op is data
            self.setup_errors.append(
                f"prewarm: {type(exc).__name__}: {exc}")
        return daemon

    def set_up(self) -> None:
        self.base = self.inputs()
        self._start_daemon()

    def tear_down(self) -> None:
        for daemon in self.daemons:
            daemon.close()
        self.daemons = []

    def _study(self, daemon: _Daemon, window: int,
               timers: Optional[Timers]) -> Any:
        spec = window_spec(self.base + window)
        began = time.perf_counter()
        study = daemon.client.submit(spec)["study"]
        submitted = time.perf_counter()
        state = None
        for event in daemon.client.stream_events(study):
            if event["event"] == "study-done":
                state = event.get("state")
                break
        done = time.perf_counter()
        if state != "done":
            raise StudyFailed(f"window {window}: study ended {state!r}")
        result = daemon.client.result(study)
        if timers is not None:
            timers.add("service.submit", submitted - began)
            timers.add("service.wait", done - submitted)
            timers.add("service.fetch", time.perf_counter() - done)
        return window, result

    def _verify(self, _index: int, output: Any) -> Counter:
        window, result = output
        seeds = list(range(self.base + window,
                           self.base + window + WINDOW_SEEDS))
        if list(result.spec.seeds) != seeds:
            raise CheckFailed(f"window {window}: result for seeds "
                              f"{list(result.spec.seeds)}")
        quota = SERVE_CORES * SERVE_REFS
        delivered = [((key, seed), run, quota) for key in result.keys
                     for seed, run in zip(seeds, result.runs_by_key[key])]
        if len(delivered) != len(VARIANTS) * len(SERVE_WORKLOADS) * len(seeds):
            raise CheckFailed(f"window {window}: {len(delivered)} runs")
        self.check.op(window, window_digest(self.check.runs(delivered)))
        work: Counter = Counter()
        for _key, run, _quota in delivered:
            work.update(run_work(run))
        return work

    def reference_digests(self, windows: int) -> List[str]:
        """Digest of windows ``0 .. windows - 1``, every cell run
        directly (for the committed fingerprints)."""
        from repro.api import StudySpec
        self.base = self.inputs()
        digests: Dict[Any, str] = {}
        out = []
        for window in range(windows):
            spec = StudySpec.from_json_dict(window_spec(self.base + window))
            runs = []
            for cell in spec.cells():
                key = (cell.config, cell.workload, cell.seed)
                if key not in digests:
                    digests[key] = run_digest(execute_cell(cell))
                runs.append(digests[key])
            out.append(window_digest(runs))
        return out

    def run_phase(self, seconds: float, min_ops: int, hard_stop: float,
                  reference: Callable[[], float],
                  limit: Optional[int] = None, traced: bool = False
                  ) -> Phase:
        # A traced phase replays the same windows, so it needs a daemon
        # whose cache holds only the prewarmed window again.
        daemon = self._start_daemon() if traced else self.daemons[0]
        timers = Timers() if traced else None
        before = daemon.client.stats()

        def study(index: int) -> Any:
            return self._study(daemon, index + 1, timers)

        with wrapped(timers) if traced else nullcontext():
            phase = closed_loop(study, self._verify, reference,
                                self.clients, seconds, min_ops, hard_stop,
                                limit, self.block_s, self.window)
        after = daemon.client.stats()
        phase.timers = timers
        phase.service_stats = {
            name: after[name] - before[name]
            for name in ("cells_cached", "cells_shared", "cells_executed")}
        return phase


# ----------------------------------------------------------------------
WORKLOAD_NAMES = ("torus64-patchall", "torus16-directory", "serve-overlap")


def make_workload(name: str, seed: int, scratch: Path,
                  expected: Optional[Sequence[str]]) -> Any:
    """The named workload at workload seed ``seed``."""
    if name == "torus64-patchall":
        return CellWorkload(name, {"num_cores": 64, "protocol": "patch",
                                   "predictor": "all"},
                            "microbench", 5, seed, expected)
    if name == "torus16-directory":
        return CellWorkload(name, {"num_cores": 16,
                                   "protocol": "directory"},
                            "oltp", 200, seed, expected)
    if name == "serve-overlap":
        return ServeOverlapWorkload(seed, scratch, expected)
    raise ValueError(f"unknown workload {name!r}; choose from "
                     f"{', '.join(WORKLOAD_NAMES)}")
