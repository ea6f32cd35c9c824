"""System assembly internals: dispatch, snapshots, drain, audits."""

import pytest

from repro import System, SystemConfig, make_workload
from repro.core.system import DEFAULT_MAX_CYCLES, build_random_delay_system
from repro.exec import comparable_result_dict
from repro.interconnect.network import SwitchedNetwork
from repro.interconnect.topology import make_topology
from repro.sim.kernel import Simulator
from repro.verify.watchdog import StarvationError
from repro.workloads.base import Access
from tests.helpers import ScriptedWorkload


def build(protocol="directory", predictor="none", cores=4, refs=20,
          workload_name="microbench", **overrides):
    config = SystemConfig(num_cores=cores, protocol=protocol,
                          predictor=predictor, **overrides)
    workload = make_workload(workload_name, num_cores=cores, seed=1)
    return System(config, workload, references_per_core=refs)


def test_system_builds_one_cache_home_core_per_node():
    system = build(cores=4)
    assert len(system.caches) == 4
    assert len(system.homes) == 4
    assert len(system.cores) == 4
    assert [c.node_id for c in system.caches] == [0, 1, 2, 3]


def test_unknown_protocol_rejected_at_build():
    # SystemConfig itself validates, so this raises immediately.
    with pytest.raises(ValueError):
        SystemConfig(protocol="snoopy")


def test_runtime_recorded_at_last_core_finish():
    system = build()
    result = system.run()
    assert result.runtime_cycles <= system.sim.now  # drain ran afterwards
    assert result.runtime_cycles > 0


def test_traffic_snapshot_taken_at_finish_not_after_drain():
    system = build(protocol="patch", predictor="all")
    result = system.run()
    # The drain may add more traffic (deactivations, bounces), so the
    # meter can only be >= the snapshot.
    snapshot_total = sum(result.traffic_bytes_raw.values())
    assert system.network.meter.total_bytes >= snapshot_total


def test_dispatch_routes_home_and_cache_messages():
    system = build(protocol="patch", predictor="none")
    result = system.run()
    # Homes processed requests; caches processed responses.
    assert sum(h.stats.value("activations") for h in system.homes) > 0
    assert result.misses > 0


def test_tokenb_broadcast_reaches_home_of_block():
    system = build(protocol="tokenb")
    result = system.run()
    grants = sum(h.stats.value("memory_token_grants")
                 for h in system.homes)
    assert grants > 0


def test_starvation_watchdog_fires_on_impossible_quota():
    """A workload that can never finish trips the watchdog with
    diagnostics instead of hanging."""
    config = SystemConfig(num_cores=2, protocol="directory")
    # Core 0's second access is scheduled a billion cycles of think time
    # after its first: it cannot retire its quota within the horizon.
    workload = ScriptedWorkload({0: [Access(1, False, 10**9),
                                     Access(1, False, 0)],
                                 1: [Access(2, False, 0),
                                     Access(3, False, 0)]})
    system = System(config, workload, references_per_core=2)
    with pytest.raises(StarvationError, match="core 0"):
        system.run(max_cycles=5000)


def test_integrity_can_be_disabled():
    config = SystemConfig(num_cores=2, protocol="directory")
    workload = make_workload("microbench", num_cores=2, seed=1)
    system = System(config, workload, references_per_core=10,
                    check_integrity=False)
    system.run()
    assert system.integrity is None


def test_token_audit_skipped_for_directory():
    system = build(protocol="directory")
    assert not system.audit_tokens


def test_random_delay_system_builder():
    config = SystemConfig(num_cores=3, protocol="patch", predictor="all")
    workload = make_workload("microbench", num_cores=3, seed=1)
    system = build_random_delay_system(config, workload,
                                       references_per_core=10, seed=4,
                                       drop_prob=0.5)
    result = system.run()
    assert result.total_references == 30


def test_prebuilt_switched_network_runs_like_the_default():
    """A given network brings its own clock.  Its links keep the
    simulator they were built with, so System must run on that clock
    rather than hand the network a fresh one."""
    config = SystemConfig(num_cores=4, protocol="patch", predictor="all")
    network = SwitchedNetwork(
        Simulator(), make_topology(config.topology, 4, config.torus_dims),
        bandwidth=config.link_bandwidth, hop_latency=config.hop_latency,
        drop_age=config.direct_request_drop_age)
    workload = make_workload("microbench", num_cores=4, seed=1)
    prebuilt = System(config, workload, references_per_core=20,
                      network=network)
    assert prebuilt.sim is network.sim
    default = build(protocol="patch", predictor="all")
    assert (comparable_result_dict(prebuilt.run())
            == comparable_result_dict(default.run()))


def test_result_reports_total_references():
    system = build(refs=15)
    result = system.run()
    assert result.total_references == 4 * 15
    assert result.hits + result.misses == result.total_references


def test_endpoint_double_use_is_guarded():
    system = build()
    with pytest.raises(ValueError):
        system.network.register_endpoint(0, lambda m: None)


def test_default_max_cycles_is_generous():
    assert DEFAULT_MAX_CYCLES >= 10_000_000
