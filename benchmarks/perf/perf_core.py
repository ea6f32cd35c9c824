"""Metric tables, the percentile rule, seeded inputs and output checks.

Everything here is plain Python with no import of ``repro`` at module
level, so the benchmark's own tests can load it cheaply.
"""

from __future__ import annotations

import hashlib
import json
import math
import threading
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

HERE = Path(__file__).resolve().parent
FINGERPRINTS_PATH = HERE / "fingerprints.json"

#: The seed a run uses when ``--seed`` is not given; the committed
#: fingerprints pin every output at this seed.
DEFAULT_SEED = 1

#: End-to-end metrics (untraced runs): name -> unit.
END_TO_END = {
    "setup_s": "s",
    "refs_per_s": "1/s",
    "op_ms.p50": "ms",
    "op_ms.p90": "ms",
    "peak_rss_mb": "MB",
}

#: Per-layer metrics (traced runs): name -> unit.  Values are per op
#: unless the unit says otherwise; NOTES.md says which end-to-end metric
#: each one should move, and on which workload.
PER_LAYER = {
    "setup.import_s": "s",
    "setup.prepare_s": "s",
    "sim.self_ms": "ms",
    "sim.events": "count",
    "sim.ns_per_event": "ns",
    "interconnect.self_ms": "ms",
    "interconnect.bytes": "bytes",
    "protocols.self_ms": "ms",
    "protocols.misses": "count",
    "protocols.us_per_miss": "us",
    "protocols.direct_useful_ratio": "ratio",
    "cache.self_ms": "ms",
    "workloads.self_ms": "ms",
    "workloads.make_ms": "ms",
    "core.build_ms": "ms",
    "core.self_ms": "ms",
    "verify.self_ms": "ms",
    "stats.self_ms": "ms",
    "obs.self_ms": "ms",
    "service.submit_ms": "ms",
    "service.wait_ms": "ms",
    "service.fetch_ms": "ms",
    "exec.cache.hit_ratio": "ratio",
    "service.shared_ratio": "ratio",
    "exec.cells_executed": "ratio",
    "exec.cache_key_ms": "ms",
    "exec.cache_load_ms": "ms",
    "exec.cache_store_ms": "ms",
    "exec.manifest_save_ms": "ms",
    "exec.manifest_saves": "count",
    "exec.dispatch_ms": "ms",
    "api.spec_cells_ms": "ms",
    "trace.overhead": "ratio",
}

#: A percentile is reported only when at least this many samples lie
#: beyond it (so a p90 needs a run of at least 100 ops).
MIN_BEYOND = 10


class TooFewSamples(ValueError):
    """A percentile was asked of fewer samples than the rule allows."""


def min_samples(q: float) -> int:
    """Smallest sample count whose nearest-rank ``q`` percentile has
    :data:`MIN_BEYOND` samples above it."""
    n = MIN_BEYOND
    while n - math.ceil(q * n) < MIN_BEYOND:
        n += 1
    return n


def percentile(samples: Sequence[float], q: float) -> float:
    """Nearest-rank ``q`` percentile (``0 < q < 1``) of ``samples``.

    Raises :class:`TooFewSamples` unless at least :data:`MIN_BEYOND`
    samples lie above the returned rank.
    """
    ordered = sorted(samples)
    rank = math.ceil(q * len(ordered))
    if rank < 1 or len(ordered) - rank < MIN_BEYOND:
        raise TooFewSamples(
            f"p{round(q * 100)} needs {min_samples(q)} samples, "
            f"got {len(ordered)}")
    return ordered[rank - 1]


def result_line(correct: bool, attempted: int, failed: int,
                values: Mapping[str, float],
                table: Mapping[str, str]) -> str:
    """The JSON object the benchmark prints last, one metric per
    ``table`` entry (a metric missing from ``values`` is an error)."""
    metrics = {name: {"value": float(values[name]), "unit": unit}
               for name, unit in table.items()}
    return json.dumps({"correct": bool(correct), "attempted": int(attempted),
                       "failed": int(failed), "metrics": metrics})


# ----------------------------------------------------------------------
# Seeded inputs
# ----------------------------------------------------------------------
def derived_seed(workload: str, seed: int, index: int) -> int:
    """The ``index``-th cell seed of ``workload`` at workload ``seed``.

    A hash rather than :mod:`random`, so the same arguments give the
    same seed on every Python version.
    """
    digest = hashlib.sha256(f"{workload}:{seed}:{index}".encode()).digest()
    return int.from_bytes(digest[:4], "big") & 0x7FFFFFFF


# ----------------------------------------------------------------------
# Output checks
# ----------------------------------------------------------------------
def run_digest(result: Any) -> str:
    """Digest of a RunResult's run-independent fields.

    The result is put through the cache's serialization first, so that
    a run returned in-process (where, say, a latency minimum is an int)
    and the same run decoded from the wire (a float) digest alike.
    """
    from repro.exec import (comparable_result_dict, run_result_from_dict,
                            run_result_to_dict)
    canonical = json.dumps(
        comparable_result_dict(run_result_from_dict(
            run_result_to_dict(result))),
        sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()[:16]


def window_digest(run_digests: Sequence[str]) -> str:
    """Digest of a study's runs, in the study's flat grid order."""
    return hashlib.sha256("".join(run_digests).encode()).hexdigest()[:16]


def load_fingerprints(path: Path = FINGERPRINTS_PATH) -> Dict[str, Any]:
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


class OutputCheck:
    """Checks every delivered run of one benchmark process.

    * each run carries the reference quota its cell asked for;
    * a cell delivered more than once (fresh, cached or shared) is
      identical every time;
    * at the default seed, each op's digest equals the committed one.

    Thread-safe: the service workload's clients share one instance.
    """

    def __init__(self, expected: Optional[Sequence[str]] = None) -> None:
        self.expected = list(expected) if expected is not None else None
        self.pinned = 0
        self._seen: Dict[Any, str] = {}
        self._lock = threading.Lock()

    def runs(self, delivered: Sequence[Tuple[Any, Any, int]]) -> List[str]:
        """Check ``(cell key, RunResult, expected refs)`` triples.

        Returns the run digests in order; raises :class:`CheckFailed`
        naming the first problem.
        """
        digests = []
        for key, result, refs in delivered:
            if result.total_references != refs:
                raise CheckFailed(f"cell {key}: {result.total_references} "
                                  f"references delivered, expected {refs}")
            digest = run_digest(result)
            with self._lock:
                first = self._seen.setdefault(key, digest)
            if first != digest:
                raise CheckFailed(f"cell {key}: delivered twice with "
                                  f"different results ({first} then "
                                  f"{digest})")
            digests.append(digest)
        return digests

    def op(self, index: int, digest: str) -> None:
        """Compare op ``index``'s digest with the committed one, when
        this run has one for it."""
        if self.expected is None or index >= len(self.expected):
            return
        if self.expected[index] != digest:
            raise CheckFailed(f"op input {index}: digest {digest} differs "
                              f"from the committed {self.expected[index]}")
        with self._lock:
            self.pinned += 1


class CheckFailed(RuntimeError):
    """A delivered output failed :class:`OutputCheck`."""
