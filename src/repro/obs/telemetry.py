"""Process-local telemetry: counters, gauges, and timing spans.

One :class:`Telemetry` instance is a registry of named counters,
gauges, and span timings (Welford :class:`~repro.stats.counters.RunningStat`
per span name).  Instrumented code never constructs one: it reads the
module-level ``current`` — which is either an active registry or
``NULL``, a shared no-op singleton — so the disabled path costs one
attribute lookup plus a no-op method call, and nothing allocates.

Enablement is environmental (``REPRO_OBS`` / the CLI's ``--obs``):
``execute_cell`` activates a fresh registry per cell when enabled, the
snapshot rides back to the parent beside the cell's ``RunResult``, and
:func:`merge_snapshots` folds any number of snapshots into one
aggregate.  Merging canonicalizes the snapshot order first, so the
aggregate is *bit-identical* no matter the order completions arrive in
— the parallel Welford merge is not floating-point associative, and a
study merged worker-completion-order would differ in the last ulp from
one merged grid-order.
"""

from __future__ import annotations

import json
import os
import time
from contextlib import contextmanager
from typing import Any, Dict, Iterable, Iterator, List, Optional, Union

from repro.stats.counters import RunningStat

#: Environment gate for telemetry collection (CLI: ``--obs``).
OBS_ENV = "REPRO_OBS"

_FALSY = ("", "0", "off", "no", "false")


def enabled() -> bool:
    """Whether ``REPRO_OBS`` asks for telemetry collection."""
    return os.environ.get(OBS_ENV, "").strip().lower() not in _FALSY


class _NullSpan:
    """Shared do-nothing context manager for the disabled path."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc) -> bool:
        return False


_NULL_SPAN = _NullSpan()


class NullTelemetry:
    """The disabled registry: every operation is a no-op.

    A single shared instance (``NULL``) serves every disabled caller,
    so instrumentation sites pay one attribute lookup and a trivial
    call when observability is off.
    """

    __slots__ = ()

    enabled = False

    def span(self, name: str) -> _NullSpan:
        return _NULL_SPAN

    def count(self, name: str, amount: int = 1) -> None:
        pass

    def gauge(self, name: str, value: float) -> None:
        pass

    def timing(self, name: str, seconds: float) -> None:
        pass

    def snapshot(self) -> None:
        return None


#: The shared disabled singleton.
NULL = NullTelemetry()


class _Span:
    """Times a ``with`` block into its registry's RunningStat."""

    __slots__ = ("_telemetry", "_name", "_start")

    def __init__(self, telemetry: "Telemetry", name: str) -> None:
        self._telemetry = telemetry
        self._name = name

    def __enter__(self) -> "_Span":
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> bool:
        self._telemetry.timing(self._name,
                               time.perf_counter() - self._start)
        return False


class Telemetry:
    """An enabled registry of counters, gauges, and span timings."""

    enabled = True

    def __init__(self) -> None:
        self.counters: Dict[str, int] = {}
        self.gauges: Dict[str, float] = {}
        self.timings: Dict[str, RunningStat] = {}

    def span(self, name: str) -> _Span:
        """A context manager that times its block under ``name``."""
        return _Span(self, name)

    def count(self, name: str, amount: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def gauge(self, name: str, value: float) -> None:
        self.gauges[name] = float(value)

    def timing(self, name: str, seconds: float) -> None:
        stat = self.timings.get(name)
        if stat is None:
            stat = self.timings[name] = RunningStat()
        stat.add(seconds)

    def snapshot(self) -> Dict[str, Any]:
        """JSON-safe dump; the unit pool workers ship across processes."""
        return {
            "counters": dict(sorted(self.counters.items())),
            "gauges": dict(sorted(self.gauges.items())),
            "spans": {name: _stat_to_dict(stat)
                      for name, stat in sorted(self.timings.items())},
        }


#: The registry instrumented code reads.  ``NULL`` unless a caller
#: (``execute_cell``, ``Session.run``) activates a real one.
current: Union[Telemetry, NullTelemetry] = NULL


@contextmanager
def activate(telemetry: Union[Telemetry, NullTelemetry]
             ) -> Iterator[Union[Telemetry, NullTelemetry]]:
    """Install ``telemetry`` as ``current`` for the duration of a block."""
    global current
    previous = current
    current = telemetry
    try:
        yield telemetry
    finally:
        current = previous


def for_process() -> Union[Telemetry, NullTelemetry]:
    """A fresh registry when ``REPRO_OBS`` is on, else the shared NULL."""
    return Telemetry() if enabled() else NULL


# ----------------------------------------------------------------------
# Snapshot aggregation
# ----------------------------------------------------------------------
def _stat_to_dict(stat: RunningStat) -> Dict[str, Any]:
    # Mirrors repro.exec.serialization.running_stat_to_dict without
    # importing the exec layer (obs sits below it).
    return {"count": stat.count, "mean": stat._mean, "m2": stat._m2,
            "min": stat.min, "max": stat.max}


def _stat_from_dict(data: Dict[str, Any]) -> RunningStat:
    stat = RunningStat()
    stat.count = int(data["count"])
    stat._mean = float(data["mean"])
    stat._m2 = float(data["m2"])
    stat.min = None if data["min"] is None else float(data["min"])
    stat.max = None if data["max"] is None else float(data["max"])
    return stat


def merge_snapshots(snapshots: Iterable[Optional[Dict[str, Any]]]
                    ) -> Optional[Dict[str, Any]]:
    """Fold snapshots into one aggregate, order-independently.

    Snapshots are sorted by their canonical JSON before merging, so any
    permutation of the same inputs produces a bit-identical aggregate:
    counters and gauges are trivially commutative, but the parallel
    Welford merge of span stats is not FP-associative, and canonical
    order pins down one bracketing.  ``None`` entries (cells run with
    observability off) are skipped; all-``None`` merges to ``None``.
    """
    snaps = [snap for snap in snapshots if snap]
    if not snaps:
        return None
    snaps.sort(key=lambda snap: json.dumps(snap, sort_keys=True))
    counters: Dict[str, int] = {}
    gauges: Dict[str, float] = {}
    spans: Dict[str, RunningStat] = {}
    for snap in snaps:
        for name, value in (snap.get("counters") or {}).items():
            counters[name] = counters.get(name, 0) + int(value)
        for name, value in (snap.get("gauges") or {}).items():
            value = float(value)
            gauges[name] = max(gauges.get(name, value), value)
        for name, data in (snap.get("spans") or {}).items():
            stat = spans.get(name)
            if stat is None:
                spans[name] = _stat_from_dict(data)
            else:
                stat.merge(_stat_from_dict(data))
    return {
        "counters": dict(sorted(counters.items())),
        "gauges": dict(sorted(gauges.items())),
        "spans": {name: _stat_to_dict(stat)
                  for name, stat in sorted(spans.items())},
    }


def phase_seconds(snapshot: Optional[Dict[str, Any]]
                  ) -> Optional[Dict[str, float]]:
    """Total seconds per span name (``count * mean``), or None."""
    spans = (snapshot or {}).get("spans") or {}
    if not spans:
        return None
    return {name: data["count"] * data["mean"]
            for name, data in sorted(spans.items())}


def study_telemetry(cell_snapshots: List[Optional[Dict[str, Any]]],
                    session: Optional[Dict[str, Any]] = None
                    ) -> Optional[Dict[str, Any]]:
    """The study-level telemetry block: merged cells + session-side spans."""
    merged = merge_snapshots(cell_snapshots)
    if merged is None and session is None:
        return None
    out: Dict[str, Any] = {
        "cells": sum(1 for snap in cell_snapshots if snap),
        "merged": merged,
    }
    if session is not None:
        out["session"] = session
    return out
