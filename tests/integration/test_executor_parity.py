"""Golden parity across executor backends.

The executor layer is pure transport: ``serial``, ``local``, and
``subprocess-pool`` must all reproduce the committed golden results
field-for-field, or a backend is corrupting results in flight
(serialization drift, environment skew in workers, scheduling leaking
into the simulation).  This re-uses ``golden/engine_parity.json`` — the
same goldens the simulation core is pinned to — so a backend bug shows
up as a named field diff against a committed value, not as a silent
cross-backend difference.
"""

import pytest

from repro.config import SystemConfig
from repro.exec import ParallelRunner, make_cell

from tests.integration.test_engine_parity import (NUM_CORES, REFERENCES,
                                                  SEED, cell_key,
                                                  load_goldens)

#: Every protocol under every backend, one topology, two workload shapes
#: (pattern-generated and table-driven) — small enough to run three
#: times, wide enough that any transport corruption has to show.
PARITY_CELLS = [(workload, "torus", protocol, predictor)
                for workload in ("producer-consumer", "microbench")
                for protocol, predictor in (("directory", "none"),
                                            ("patch", "all"),
                                            ("tokenb", "none"))]

#: The golden fields observable on a transported RunResult (the meter
#: fields need the live System object and stay in the golden suite).
RESULT_FIELDS = ("runtime_cycles", "total_references", "hits", "misses",
                 "read_misses", "write_misses", "traffic_bytes_raw",
                 "dropped_direct_requests", "miss_latency")


def parity_cells():
    cells = []
    for workload, topology, protocol, predictor in PARITY_CELLS:
        config = SystemConfig(num_cores=NUM_CORES, protocol=protocol,
                              predictor=predictor, topology=topology)
        kwargs = {"table_blocks": 64} if workload == "microbench" else {}
        cells.append(make_cell(config, workload, REFERENCES, SEED,
                               **kwargs))
    return cells


def observed_fields(result):
    return {
        "runtime_cycles": result.runtime_cycles,
        "total_references": result.total_references,
        "hits": result.hits,
        "misses": result.misses,
        "read_misses": result.read_misses,
        "write_misses": result.write_misses,
        "traffic_bytes_raw": dict(sorted(result.traffic_bytes_raw.items())),
        "dropped_direct_requests": result.dropped_direct_requests,
        "miss_latency": [result.miss_latency.count,
                         result.miss_latency.mean,
                         result.miss_latency.min,
                         result.miss_latency.max],
    }


@pytest.mark.parametrize("backend", ["serial", "local", "subprocess-pool"])
def test_backend_matches_engine_goldens(backend):
    goldens = load_goldens()["cells"]
    results = ParallelRunner(jobs=2, executor=backend) \
        .run_cells(parity_cells())
    for (workload, topology, protocol, predictor), result \
            in zip(PARITY_CELLS, results):
        key = cell_key(workload, topology, protocol, predictor)
        observed = observed_fields(result)
        for name in RESULT_FIELDS:
            assert observed[name] == goldens[key][name], (
                f"{backend}: {key}: {name} diverged from the committed "
                f"golden")
