"""Service load harness: concurrent overlapping submissions, measured.

The workload is a family of *overlapping* studies — study *i* covers a
sliding window of seeds ``[i, i+window)`` over one shared microbench
configuration — so adjacent studies share ``window - 1`` cells.  Many
client threads submit the family concurrently against an in-process
daemon; every shared cell must execute exactly once (in-flight dedup)
or resolve from the warm cache, and the report quantifies both:

* ``submit_ms`` / ``complete_ms`` — nearest-rank p50/p95/p99 latency
  of the POST itself and of submit→terminal end-to-end;
* ``dedup_ratio`` — fraction of cell-requests resolved by joining
  another study's in-flight execution;
* ``cache_hit_ratio`` — fraction resolved instantly from the cache.

``repro serve-load`` runs it and merges the report into
``bench_results.json`` under the ``"service"`` key (the same
read-update-rewrite contract ``repro bench --perf`` uses for
``engine_perf``), so future PRs can track service throughput.
``benchmarks/service_load.py`` is the same harness as a standalone
script.
"""

from __future__ import annotations

import json
import os
import tempfile
import threading
import time
from typing import Any, Dict, List, Optional

from repro.service.client import ServiceClient
from repro.service.server import make_server

#: Defaults sized like `repro bench --quick`: seconds, not minutes.
DEFAULT_STUDIES = 24
DEFAULT_CLIENTS = 8
DEFAULT_WINDOW = 4
DEFAULT_REFS = 8
DEFAULT_CORES = 2


def overlapping_specs(studies: int, window: int, refs: int,
                      cores: int) -> List[Dict[str, Any]]:
    """The sliding-window study family (plain spec JSON dicts)."""
    return [{
        "spec_schema": 2,
        "name": f"service-load-{index:03d}",
        "description": "serve-load sliding-window study",
        "base_config": {"num_cores": cores},
        "workload": "microbench",
        "references_per_core": refs,
        "seeds": list(range(index + 1, index + 1 + window)),
        "axes": [],
        "grid": "cross",
    } for index in range(studies)]


def percentiles(samples: List[float]) -> Dict[str, float]:
    """Nearest-rank p50/p95/p99 in milliseconds, 3 decimals."""
    if not samples:
        return {"p50": 0.0, "p95": 0.0, "p99": 0.0}
    ordered = sorted(samples)
    out = {}
    for name, q in (("p50", 0.50), ("p95", 0.95), ("p99", 0.99)):
        rank = max(1, int(round(q * len(ordered) + 0.5)))
        out[name] = round(ordered[min(rank, len(ordered)) - 1] * 1000.0,
                          3)
    return out


def run_service_load(studies: int = DEFAULT_STUDIES,
                     clients: int = DEFAULT_CLIENTS,
                     window: int = DEFAULT_WINDOW,
                     refs: int = DEFAULT_REFS,
                     cores: int = DEFAULT_CORES,
                     jobs: Optional[int] = None,
                     cache_dir: Optional[str] = None,
                     timeout: float = 300.0) -> Dict[str, Any]:
    """Run the harness against a fresh in-process daemon; the report."""
    specs = overlapping_specs(studies, window, refs, cores)
    own_tmp = cache_dir is None
    if own_tmp:
        tmp = tempfile.TemporaryDirectory(prefix="repro-serve-load-")
        cache_dir = tmp.name
    server = make_server(scheduler=None, jobs=jobs, cache_dir=cache_dir)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    url = f"http://127.0.0.1:{server.port}"

    submit_latencies: List[float] = []
    complete_latencies: List[float] = []
    failures: List[str] = []
    lock = threading.Lock()
    barrier = threading.Barrier(clients)

    def client_body(worker: int) -> None:
        client = ServiceClient(url, timeout=timeout)
        barrier.wait()
        for index in range(worker, len(specs), clients):
            begin = time.perf_counter()
            try:
                submitted = client.submit(specs[index])
                posted = time.perf_counter()
                client.wait(submitted["study"], timeout=timeout)
            except Exception as exc:  # noqa: BLE001 - report, don't die
                with lock:
                    failures.append(f"study {index}: {exc}")
                continue
            with lock:
                submit_latencies.append(posted - begin)
                complete_latencies.append(time.perf_counter() - begin)

    began = time.perf_counter()
    threads = [threading.Thread(target=client_body, args=(i,))
               for i in range(clients)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    wall = time.perf_counter() - began
    stats = server.scheduler.stats()
    server.close()
    if own_tmp:
        tmp.cleanup()

    cell_requests = (stats["cells_cached"] + stats["cells_shared"]
                     + stats["cells_queued"])
    report: Dict[str, Any] = {
        "studies": studies,
        "clients": clients,
        "window": window,
        "refs_per_core": refs,
        "jobs": stats["jobs"],
        "wall_seconds": round(wall, 3),
        "cell_requests": cell_requests,
        "unique_cells_executed": stats["cells_executed"],
        "dedup_ratio": round(stats["cells_shared"]
                             / max(1, cell_requests), 4),
        "cache_hit_ratio": round(stats["cells_cached"]
                                 / max(1, cell_requests), 4),
        "submit_ms": percentiles(submit_latencies),
        "complete_ms": percentiles(complete_latencies),
        "failures": failures,
    }
    return report


def merge_report(report: Dict[str, Any], out_path: str) -> None:
    """Write the ``service`` block into ``out_path``, preserving the
    rest of the report file (same contract as the perf bench)."""
    existing: Dict[str, Any] = {}
    if os.path.exists(out_path):
        try:
            with open(out_path, "r", encoding="utf-8") as handle:
                existing = json.load(handle)
        except (OSError, ValueError):
            existing = {}
    existing["service"] = report
    with open(out_path, "w", encoding="utf-8") as handle:
        json.dump(existing, handle, indent=2, sort_keys=True)
        handle.write("\n")


def render_report(report: Dict[str, Any]) -> str:
    lines = [
        f"service load: {report['studies']} studies x window "
        f"{report['window']} over {report['clients']} clients "
        f"(jobs={report['jobs']})",
        f"  cells: {report['cell_requests']} requested, "
        f"{report['unique_cells_executed']} executed "
        f"(dedup {report['dedup_ratio']:.1%}, "
        f"cache hits {report['cache_hit_ratio']:.1%})",
        f"  submit   p50/p95/p99: {report['submit_ms']['p50']} / "
        f"{report['submit_ms']['p95']} / {report['submit_ms']['p99']} ms",
        f"  complete p50/p95/p99: {report['complete_ms']['p50']} / "
        f"{report['complete_ms']['p95']} / "
        f"{report['complete_ms']['p99']} ms",
        f"  wall: {report['wall_seconds']}s",
    ]
    for failure in report["failures"]:
        lines.append(f"  FAILED {failure}")
    return "\n".join(lines)
