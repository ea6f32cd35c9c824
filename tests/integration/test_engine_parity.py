"""Golden suite for the simulation core.

Cycle counts are the results: every protocol's cycle counts, traffic
meters, and drop counts must come out *bit-identical* to the committed
goldens.  ``golden/engine_parity.json`` holds the full observable result
of every (workload x topology x protocol) cell of the scenario matrix,
and this suite re-runs each cell and compares field-for-field via
:func:`system_fingerprint`.

Regenerate the goldens (only when an *intentional* behaviour change
lands, never to paper over drift) with:

    PYTHONPATH=src python tests/integration/test_engine_parity.py --regen
"""

import json
import os

import pytest

from repro.config import SystemConfig
from repro.core.system import System
from repro.workloads import make_workload
from repro.workloads.patterns import PATTERN_NAMES

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "golden",
                           "engine_parity.json")

PROTOCOLS = (("directory", "none"), ("patch", "all"), ("tokenb", "none"))
TOPOLOGIES = ("torus", "mesh", "fully-connected")
WORKLOADS = tuple(PATTERN_NAMES) + ("microbench",)

NUM_CORES = 4
REFERENCES = 25
SEED = 3

CELLS = [(workload, topology, protocol, predictor)
         for workload in WORKLOADS
         for topology in TOPOLOGIES
         for protocol, predictor in PROTOCOLS]


def cell_key(workload, topology, protocol, predictor):
    return f"{workload}|{topology}|{protocol}+{predictor}"


def system_fingerprint(system, result) -> dict:
    """Every golden-relevant field of one finished run.

    ``events_processed`` and ``link_utilization`` are deliberately
    excluded: a kernel optimization is *allowed* to schedule fewer
    events (e.g. eliding provably-no-op link serves) as long as
    everything a figure table could read — cycle counts, traffic
    meters, drop and latency statistics — comes out bit-identical.
    """
    meter = system.network.meter
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
        # Post-drain meter state: traversal/message counts per class.
        "link_traversals": {cls.value: count for cls, count
                            in sorted(meter.link_traversals.items(),
                                      key=lambda item: item[0].value)
                            if count},
        "messages": {cls.value: count for cls, count
                     in sorted(meter.messages.items(),
                               key=lambda item: item[0].value) if count},
        "dropped_messages": meter.dropped_messages,
        "dropped_bytes": meter.dropped_bytes,
    }


def run_cell(workload, topology, protocol, predictor):
    """Run one scenario cell and fingerprint it."""
    config = SystemConfig(num_cores=NUM_CORES, protocol=protocol,
                          predictor=predictor, topology=topology)
    kwargs = {"table_blocks": 64} if workload == "microbench" else {}
    generator = make_workload(workload, num_cores=NUM_CORES, seed=SEED,
                              **kwargs)
    system = System(config, generator, references_per_core=REFERENCES)
    return system_fingerprint(system, system.run())


def load_goldens():
    with open(GOLDEN_PATH, encoding="utf-8") as handle:
        return json.load(handle)


@pytest.fixture(scope="module")
def goldens():
    if not os.path.exists(GOLDEN_PATH):  # pragma: no cover - setup error
        pytest.fail(f"golden file missing: {GOLDEN_PATH}; regenerate with "
                    "PYTHONPATH=src python "
                    "tests/integration/test_engine_parity.py --regen")
    return load_goldens()


def test_golden_file_covers_every_cell():
    goldens = load_goldens()
    expected = {cell_key(*cell) for cell in CELLS}
    assert set(goldens["cells"]) == expected


def test_fingerprint_excludes_event_counts():
    fingerprint = run_cell("microbench", "torus", "patch", "all")
    assert "events_processed" not in fingerprint
    assert "link_utilization" not in fingerprint
    assert fingerprint["runtime_cycles"] > 0


@pytest.mark.parametrize("workload,topology,protocol,predictor", CELLS,
                         ids=[cell_key(*cell) for cell in CELLS])
def test_engine_matches_golden(goldens, workload, topology, protocol,
                               predictor):
    key = cell_key(workload, topology, protocol, predictor)
    observed = run_cell(workload, topology, protocol, predictor)
    expected = goldens["cells"][key]
    # Field-by-field so a mismatch names the field, not a wall of JSON.
    for name, value in expected.items():
        assert observed[name] == value, (
            f"{key}: {name} diverged from the goldens")


def regenerate():  # pragma: no cover - maintenance entry point
    os.makedirs(os.path.dirname(GOLDEN_PATH), exist_ok=True)
    cells = {}
    for cell in CELLS:
        key = cell_key(*cell)
        cells[key] = run_cell(*cell)
        print(f"  {key}: runtime={cells[key]['runtime_cycles']}")
    payload = {
        "schema": 1,
        "note": "captured observable engine results; see module docstring",
        "num_cores": NUM_CORES,
        "references_per_core": REFERENCES,
        "seed": SEED,
        "cells": cells,
    }
    with open(GOLDEN_PATH, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"wrote {len(cells)} cells -> {GOLDEN_PATH}")


if __name__ == "__main__":  # pragma: no cover
    import sys
    if "--regen" in sys.argv:
        regenerate()
    else:
        print(__doc__)
