"""Lossless JSON (de)serialization of :class:`RunResult`.

Results cross two boundaries: process-pool workers hand them back to the
parent, and the on-disk cache stores them between sessions.  Both use
the same dict form so a cached run is indistinguishable from a fresh
one.  Python's ``json`` round-trips ``float`` exactly (shortest-repr),
so the Welford state inside :class:`RunningStat` survives bit-for-bit.
"""

from __future__ import annotations

import sys
from typing import Any, Dict, Mapping

from repro.core.results import RunResult
from repro.stats.counters import RunningStat

#: Bump when the serialized shape changes; stale cache entries miss.
SCHEMA_VERSION = 2

#: Fields that vary run-to-run (timing, cache provenance) without
#: affecting simulation output.  Bit-identity comparisons — ``--jobs 1``
#: vs a pool, trace replay — go through :func:`comparable_result_dict`,
#: which strips them.
VOLATILE_FIELDS = ("started_at", "wall_time_seconds", "cached", "phases")


def run_result_to_dict(result: RunResult) -> Dict[str, Any]:
    return {
        "schema": SCHEMA_VERSION,
        "config_summary": result.config_summary,
        "runtime_cycles": result.runtime_cycles,
        "total_references": result.total_references,
        "hits": result.hits,
        "misses": result.misses,
        "read_misses": result.read_misses,
        "write_misses": result.write_misses,
        "traffic_bytes": dict(result.traffic_bytes),
        "traffic_bytes_raw": dict(result.traffic_bytes_raw),
        "dropped_direct_requests": result.dropped_direct_requests,
        "miss_latency": result.miss_latency.to_dict(),
        "link_utilization": result.link_utilization,
        "cache_stats": dict(result.cache_stats),
        "home_stats": dict(result.home_stats),
        "events_processed": result.events_processed,
        "started_at": result.started_at,
        "wall_time_seconds": result.wall_time_seconds,
        "cached": result.cached,
        "phases": result.phases,
    }


def comparable_result_dict(result: RunResult) -> Dict[str, Any]:
    """The dict form with run-to-run volatile fields stripped.

    Two executions of the same cell — in-process or in a pool worker,
    under any observability settings, or live vs. trace replay — must
    agree on this form exactly; their wall times never will.
    """
    data = run_result_to_dict(result)
    for name in VOLATILE_FIELDS:
        data.pop(name, None)
    return data


def _counts(data: Mapping[str, Any]) -> Dict[str, int]:
    """A counter dict with interned keys: every decoded run shares one
    copy of each counter name instead of the JSON decoder's own."""
    return {sys.intern(str(key)): int(value) for key, value in data.items()}


def run_result_from_dict(data: Dict[str, Any]) -> RunResult:
    schema = data.get("schema")
    if schema != SCHEMA_VERSION:
        raise ValueError(f"unsupported RunResult schema {schema!r}")
    return RunResult(
        config_summary=data["config_summary"],
        runtime_cycles=int(data["runtime_cycles"]),
        total_references=int(data["total_references"]),
        hits=int(data["hits"]),
        misses=int(data["misses"]),
        read_misses=int(data["read_misses"]),
        write_misses=int(data["write_misses"]),
        traffic_bytes=_counts(data["traffic_bytes"]),
        traffic_bytes_raw=_counts(data["traffic_bytes_raw"]),
        dropped_direct_requests=int(data["dropped_direct_requests"]),
        miss_latency=RunningStat.from_dict(data["miss_latency"]),
        link_utilization=float(data["link_utilization"]),
        cache_stats=_counts(data["cache_stats"]),
        home_stats=_counts(data["home_stats"]),
        events_processed=int(data["events_processed"]),
        started_at=float(data.get("started_at", 0.0)),
        wall_time_seconds=float(data.get("wall_time_seconds", 0.0)),
        cached=bool(data.get("cached", False)),
        phases=data.get("phases"),
    )
