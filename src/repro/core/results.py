"""Run results: runtime, traffic, latency summaries."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.stats.counters import RunningStat
from repro.stats.traffic import FIGURE5_ORDER


@dataclass
class RunResult:
    """Everything a single simulation run produced."""

    config_summary: str
    runtime_cycles: int
    total_references: int
    hits: int
    misses: int
    read_misses: int
    write_misses: int
    traffic_bytes: Dict[str, int]            # by Figure-5 group
    traffic_bytes_raw: Dict[str, int]        # by MsgClass value
    dropped_direct_requests: int
    miss_latency: RunningStat
    link_utilization: float
    cache_stats: Dict[str, int]
    home_stats: Dict[str, int]
    events_processed: int
    # Runtime metadata (never part of the simulation's bit-identity
    # contract — see VOLATILE_FIELDS in repro.exec.serialization).
    #: Epoch seconds when the cell began executing (0.0 outside
    #: execute_cell, e.g. for a bare System.run).
    started_at: float = 0.0
    #: Monotonic wall-clock duration of the cell's build + run.  Cache
    #: hits report 0.0 with ``cached=True`` instead of the original
    #: run's timing.
    wall_time_seconds: float = 0.0
    #: True when this result was served from the on-disk result cache.
    cached: bool = False
    #: Seconds per phase of this run: ``sim``, ``drain`` (when drained)
    #: and ``collect`` from :meth:`System.run`, ``build`` from
    #: ``execute_cell``.  None for a cache hit, which did no work.
    phases: Optional[Dict[str, float]] = None

    # ------------------------------------------------------------------
    @property
    def total_traffic_bytes(self) -> int:
        return sum(self.traffic_bytes.values())

    @property
    def bytes_per_miss(self) -> float:
        return self.total_traffic_bytes / self.misses if self.misses else 0.0

    @property
    def avg_miss_latency(self) -> float:
        return self.miss_latency.mean

    def traffic_per_miss(self) -> Dict[str, float]:
        """Figure-5 style breakdown: bytes per miss per message group."""
        if not self.misses:
            return {name: 0.0 for name in FIGURE5_ORDER}
        return {name: self.traffic_bytes.get(name, 0) / self.misses
                for name in FIGURE5_ORDER}

    def summary(self) -> str:
        # FIGURE5_ORDER, not dict order: a cached result's dict comes
        # back key-sorted.
        groups = ", ".join(
            f"{name}={self.traffic_bytes[name] / max(1, self.misses):.0f}B"
            for name in FIGURE5_ORDER if self.traffic_bytes.get(name))
        return (f"{self.config_summary}: {self.runtime_cycles} cycles, "
                f"{self.misses} misses "
                f"(avg latency {self.avg_miss_latency:.0f}cy), "
                f"traffic/miss {self.bytes_per_miss:.0f}B [{groups}]")

