"""Shared helpers for the service suite: tiny specs and live servers.

Every spec here is microbench-scale (milliseconds per cell) so the
suite exercises real concurrency — threads, sockets, the dispatcher —
without real simulation cost.  Overlap between specs is built the way
the repository benchmark's ``serve-overlap`` workload builds it:
sliding seed windows over one shared configuration, so adjacent
studies share ``window - 1`` cells.
"""

import threading

import pytest

from repro.api import StudySpec
from repro.service.server import make_server


def tiny_spec(name="svc-tiny", seeds=(1, 2), cores=2, refs=6,
              axes=None):
    """A validated microbench StudySpec; distinct names → distinct
    studies, shared (config, seed) cells → shared cache keys."""
    return StudySpec.from_json_dict({
        "spec_schema": 2, "name": name,
        "base_config": {"num_cores": cores},
        "workload": "microbench", "references_per_core": refs,
        "seeds": list(seeds),
        "axes": axes if axes is not None else [],
    })


def overlapping_pair(window=3):
    """Two studies sharing ``window - 1`` seed cells."""
    first = tiny_spec(name="svc-a", seeds=range(1, 1 + window))
    second = tiny_spec(name="svc-b", seeds=range(2, 2 + window))
    return first, second


@pytest.fixture
def live_server(tmp_path):
    """A served daemon on an ephemeral port over a fresh cache dir.

    Yields ``(server, base_url)``; shutdown (graceful, manifests
    persisted) runs even when the test fails.
    """
    server = make_server(scheduler=None, jobs=2,
                         cache_dir=tmp_path / "cache")
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield server, f"http://127.0.0.1:{server.port}"
    finally:
        server.close()
        thread.join(timeout=10)
