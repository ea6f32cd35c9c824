"""Scenario engine end-to-end: every pattern x topology x protocol runs
to completion with the integrity checker on, and the bench suite's
scenario matrix regroups deterministically."""

from dataclasses import replace

import pytest

from repro.bench import FULL_SCALE, scenario_matrix_results
from repro.config import SystemConfig
from repro.core.system import System
from repro.workloads import make_workload
from repro.workloads.patterns import PATTERN_NAMES as PATTERNS
PROTOCOLS = (("directory", "none"), ("patch", "all"), ("tokenb", "none"))


@pytest.mark.parametrize("topology", ("torus", "mesh", "fully-connected"))
@pytest.mark.parametrize("protocol,predictor", PROTOCOLS)
def test_protocols_complete_on_every_topology(topology, protocol, predictor):
    config = SystemConfig(num_cores=4, protocol=protocol,
                          predictor=predictor, topology=topology)
    workload = make_workload("microbench", num_cores=4, seed=1,
                             table_blocks=64)
    result = System(config, workload, references_per_core=25).run()
    assert result.total_references == 4 * 25
    assert result.misses > 0


@pytest.mark.parametrize("pattern", PATTERNS)
def test_patterns_complete_under_all_protocols(pattern):
    for protocol, predictor in PROTOCOLS:
        config = SystemConfig(num_cores=4, protocol=protocol,
                              predictor=predictor)
        workload = make_workload(pattern, num_cores=4, seed=2)
        result = System(config, workload, references_per_core=30).run()
        assert result.total_references == 4 * 30, (pattern, protocol)


def test_fully_connected_run_is_deterministic_per_seed():
    def run():
        config = SystemConfig(num_cores=4, protocol="patch",
                              predictor="all", topology="fully-connected")
        workload = make_workload("migratory", num_cores=4, seed=9)
        return System(config, workload, references_per_core=30).run()
    a, b = run(), run()
    assert a.runtime_cycles == b.runtime_cycles
    assert a.traffic_bytes == b.traffic_bytes


def test_scenario_matrix_shape_and_distinct_cells():
    scale = replace(FULL_SCALE,
                    scenario_workloads=("migratory", "false-sharing"),
                    scenario_topologies=("torus", "mesh"),
                    scenario_cores=4, scenario_refs=10, scenario_seeds=(1,))
    results = scenario_matrix_results(scale)
    assert set(results) == {"migratory", "false-sharing"}
    runtimes = set()
    for workload, per_topology in results.items():
        assert set(per_topology) == {"torus", "mesh"}
        for topology, per_label in per_topology.items():
            assert set(per_label) == {"Directory", "PATCH-All"}
            for experiment in per_label.values():
                runtimes.add(experiment.runtime_mean)
    # The grid really varied: not every cell collapsed to one runtime.
    assert len(runtimes) > 4


def test_unknown_topology_rejected_at_config_time():
    with pytest.raises(ValueError, match="unknown topology"):
        SystemConfig(num_cores=4, topology="hypercube")
