"""Per-cell timeline tracing in Chrome trace-event JSON.

A :class:`TimelineRecorder` collects three kinds of lanes from one
simulated cell and serializes them in the Chrome ``traceEvents`` format
(load the file in Perfetto / ``chrome://tracing``; one simulated cycle
is rendered as one microsecond):

* **link occupancy** — a complete (``ph: "X"``) event per link
  transmission, one lane per directed link, named by the message class
  and sized in its args;
* **protocol messages** — an instant (``ph: "i"``) event per injected
  message, one lane per message class;
* **kernel event density** — a counter (``ph: "C"``) lane sampling how
  many kernel events dispatched per time bucket, fed by the kernels'
  event sink.

Recording is observation only: hooks never draw sequence numbers, post
events, or touch RNG, so a recorded run is bit-identical to an
unrecorded one (pinned by tests/obs/test_timeline.py).

The recorder is installed per cell by ``execute_cell`` when the
``REPRO_TIMELINE`` target (CLI: ``--timeline``) is set: a target ending
in ``.json`` is written verbatim (the single-cell ``repro run`` shape),
anything else is treated as a directory that collects one
``<slug>.json`` per cell — which is what lets pool workers write their
own cell's trace without shipping it through the result pipe.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

#: Environment target for timeline capture (CLI: ``--timeline``).
TIMELINE_ENV = "REPRO_TIMELINE"

#: Cycles per kernel-density sample; coarse enough that the counter
#: lane stays small next to the per-transmission link lanes.
KERNEL_BUCKET_CYCLES = 1024


def timeline_target() -> Optional[str]:
    """The configured capture target, or None when tracing is off."""
    return os.environ.get(TIMELINE_ENV) or None


def timeline_path(target: str, slug: str) -> Path:
    """Where a cell's trace lands for ``target`` (see module docstring)."""
    path = Path(target)
    if target.endswith(".json"):
        if path.parent != Path(""):
            path.parent.mkdir(parents=True, exist_ok=True)
        return path
    path.mkdir(parents=True, exist_ok=True)
    return path / f"{slug}.json"


def _class_name(msg_class: Any) -> str:
    return getattr(msg_class, "value", None) or str(msg_class)


class TimelineRecorder:
    """Collects one cell's trace events (see module docstring)."""

    def __init__(self, label: str = "") -> None:
        self.label = label
        self._events: List[Dict[str, Any]] = []
        self._lanes: Dict[str, int] = {}
        self._kernel_counts: Dict[int, int] = {}

    # ------------------------------------------------------------------
    # Hooks (hot paths call these only when a recorder is attached)
    # ------------------------------------------------------------------
    def kernel_tick(self, time: int) -> None:
        """Kernel event sink: bump the dispatch count of a time bucket."""
        bucket = time // KERNEL_BUCKET_CYCLES
        counts = self._kernel_counts
        counts[bucket] = counts.get(bucket, 0) + 1

    def link_busy(self, src: int, dst: int, start: int, duration: int,
                  msg_class: Any, size_bytes: int) -> None:
        """One link transmission: a complete event on the link's lane."""
        self._events.append({
            "name": _class_name(msg_class),
            "ph": "X",
            "ts": start,
            "dur": duration,
            "pid": 0,
            "tid": self._lane(f"link {src}->{dst}"),
            "args": {"size_bytes": size_bytes},
        })

    def message(self, msg_class: Any, src: int, dests: Sequence[int],
                time: int, size_bytes: int) -> None:
        """One injected message: an instant event on its class lane."""
        self._events.append({
            "name": _class_name(msg_class),
            "ph": "i",
            "s": "t",
            "ts": time,
            "pid": 0,
            "tid": self._lane(f"msg {_class_name(msg_class)}"),
            "args": {"src": src, "dests": list(dests),
                     "size_bytes": size_bytes},
        })

    # ------------------------------------------------------------------
    def _lane(self, name: str) -> int:
        tid = self._lanes.get(name)
        if tid is None:
            # tid 0 is reserved for the kernel-density counter lane.
            tid = self._lanes[name] = len(self._lanes) + 1
        return tid

    def to_json_dict(self) -> Dict[str, Any]:
        """The complete Chrome trace-event document for this cell."""
        events: List[Dict[str, Any]] = [{
            "name": "process_name", "ph": "M", "pid": 0, "tid": 0,
            "args": {"name": self.label or "repro cell"},
        }]
        for name, tid in sorted(self._lanes.items(), key=lambda kv: kv[1]):
            events.append({"name": "thread_name", "ph": "M", "pid": 0,
                           "tid": tid, "args": {"name": name}})
            events.append({"name": "thread_sort_index", "ph": "M",
                           "pid": 0, "tid": tid,
                           "args": {"sort_index": tid}})
        for bucket in sorted(self._kernel_counts):
            events.append({
                "name": "kernel events", "ph": "C",
                "ts": bucket * KERNEL_BUCKET_CYCLES, "pid": 0, "tid": 0,
                "args": {"dispatched": self._kernel_counts[bucket]},
            })
        events.extend(self._events)
        return {
            "traceEvents": events,
            "displayTimeUnit": "ms",
            "otherData": {"tool": "repro", "cell": self.label,
                          "cycles_per_us": 1},
        }

    def write(self, path: os.PathLike) -> Path:
        """Serialize the trace to ``path`` and return it."""
        path = Path(path)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.to_json_dict(), handle)
        return path
