"""Schedule explorer and live auditor tests."""

import pytest

from repro.config import SystemConfig
from repro.core.system import System
from repro.coherence.states import CacheState
from repro.coherence.tokens import TokenCount
from repro.verify.explorer import (ExplorationReport, RaceScenario,
                                   ScheduleExplorer, explore_all_protocols)
from repro.verify.invariants import CoherenceViolation
from repro.verify.live import LiveAuditor
from repro.workloads.presets import make_workload


# ---------------------------------------------------------------------------
# RaceScenario
# ---------------------------------------------------------------------------

def test_canned_scenarios_shape():
    scenario = RaceScenario.two_writers(block=7)
    assert scenario.cores == 4
    padded = scenario.padded_scripts()
    quota = scenario.references_per_core
    assert all(len(script) == quota for script in padded.values())


def test_padding_uses_private_filler():
    scenario = RaceScenario("custom", 3, {0: []})
    padded = scenario.padded_scripts()
    assert set(padded) == {0, 1, 2}


# ---------------------------------------------------------------------------
# ScheduleExplorer
# ---------------------------------------------------------------------------

def test_explorer_finds_no_failures_in_patch():
    explorer = ScheduleExplorer(RaceScenario.two_writers(), "patch")
    report = explorer.explore(6)
    assert report.ok, report.failures
    assert report.schedules == 6
    assert len(report.runtimes) == 6
    assert "OK" in report.summary()


def test_explorer_schedules_are_reproducible():
    explorer = ScheduleExplorer(RaceScenario.two_writers(), "patch")
    ok1, _, runtime1 = explorer.run_schedule(3)
    ok2, _, runtime2 = explorer.run_schedule(3)
    assert ok1 and ok2
    assert runtime1 == runtime2


def test_explorer_different_schedules_differ():
    explorer = ScheduleExplorer(RaceScenario.two_writers(), "patch")
    runtimes = {explorer.run_schedule(seed)[2] for seed in range(5)}
    assert len(runtimes) > 1


def test_explorer_eviction_race_with_tiny_cache():
    scenario = RaceScenario.eviction_race()
    explorer = ScheduleExplorer(
        scenario, "patch",
        config_overrides={"cache_kb": 1, "cache_assoc": 1})
    report = explorer.explore(5)
    assert report.ok, report.failures


def test_explore_all_protocols_storm():
    reports = explore_all_protocols(RaceScenario.reader_writer_storm(),
                                    schedules=3)
    assert set(reports) == {"directory", "patch", "tokenb"}
    for protocol, report in reports.items():
        assert report.ok, (protocol, report.failures)


def test_explorer_reports_injected_failures():
    """If a run raises, the explorer captures it instead of crashing."""
    explorer = ScheduleExplorer(RaceScenario.two_writers(), "patch")
    original = explorer._build_system

    def broken(seed):
        system = original(seed)
        # Sabotage: forge an extra owner token to trip the audit.
        line = system.caches[0].cache.allocate(100)
        line.tokens = TokenCount(1, owner=True)
        line.valid_data = True
        line.state = CacheState.F
        return system

    explorer._build_system = broken
    report = explorer.explore(2)
    assert not report.ok
    assert len(report.failures) == 2
    assert "FAILURES" in report.summary()


# ---------------------------------------------------------------------------
# LiveAuditor
# ---------------------------------------------------------------------------

def make_live_system(protocol="patch", predictor="all"):
    config = SystemConfig(num_cores=4, protocol=protocol,
                          predictor=predictor)
    workload = make_workload("oltp", num_cores=4, seed=2)
    return System(config, workload, references_per_core=40)


def test_live_auditor_samples_clean_run():
    system = make_live_system()
    auditor = LiveAuditor(system, period=200)
    system.run()
    assert auditor.samples > 0
    assert auditor.checks >= auditor.samples


def test_live_auditor_all_protocols():
    for protocol, predictor in [("directory", "none"), ("patch", "all"),
                                ("tokenb", "none")]:
        system = make_live_system(protocol, predictor)
        auditor = LiveAuditor(system, period=500)
        system.run()
        assert auditor.samples > 0, protocol


def test_live_auditor_detects_duplicate_owner():
    system = make_live_system()
    for core in (0, 1):
        line = system.caches[core].cache.allocate(50)
        line.tokens = TokenCount(1, owner=True)
        line.valid_data = True
        line.state = CacheState.F
    auditor = LiveAuditor(system, period=100)
    with pytest.raises(CoherenceViolation, match="owner token"):
        auditor.audit_now()


@pytest.mark.parametrize("protocol,predictor", [("patch", "all"),
                                                ("tokenb", "none")])
def test_live_auditor_sees_the_owner_token_in_memory(protocol, predictor):
    system = make_live_system(protocol, predictor)
    total = system.config.tokens_per_block
    home = system.homes[50 % 4]
    home.memory.tokens[50] = TokenCount(total - 1, owner=True)
    line = system.caches[1].cache.allocate(50)
    line.tokens = TokenCount(1, owner=True)   # T tokens, two owners
    line.valid_data = True
    line.state = CacheState.F
    auditor = LiveAuditor(system, period=100)
    with pytest.raises(CoherenceViolation, match="owner token"):
        auditor.audit_now()


def test_live_auditor_detects_token_overflow():
    system = make_live_system()
    line = system.caches[0].cache.allocate(50)
    line.tokens = TokenCount(99)
    line.valid_data = True
    auditor = LiveAuditor(system, period=100)
    with pytest.raises(CoherenceViolation, match="> T"):
        auditor.audit_now()


def test_live_auditor_detects_double_writer():
    system = make_live_system()
    for core in (0, 1):
        line = system.caches[core].cache.allocate(50)
        line.state = CacheState.M
        line.valid_data = True
        line.tokens = TokenCount(4, owner=True, dirty=True)
    auditor = LiveAuditor(system, period=100)
    with pytest.raises(CoherenceViolation):
        auditor.audit_now()


def test_live_auditor_period_validated():
    system = make_live_system()
    with pytest.raises(ValueError):
        LiveAuditor(system, period=0)


def test_live_auditor_stop():
    system = make_live_system()
    auditor = LiveAuditor(system, period=100)
    auditor.stop()
    system.run()
    assert auditor.samples == 0


def test_live_auditor_sees_tokens_under_anothers_persistent_entry():
    """TokenB: while a cache's persistent table names another core's
    starver for a block, the cache holds no tokens for it."""
    system = make_live_system("tokenb", "none")
    cache = system.caches[0]
    line = cache.cache.allocate(50)
    line.tokens = TokenCount(1)
    line.valid_data = True
    line.state = CacheState.S
    auditor = LiveAuditor(system, period=100)
    cache.persistent_table[50] = 0   # its own request: it may hoard
    auditor.audit_now()
    cache.persistent_table[50] = 1
    with pytest.raises(CoherenceViolation, match="persistent table"):
        auditor.audit_now()


def test_live_auditor_clean_through_tokenb_persistent_requests():
    config = SystemConfig(num_cores=4, protocol="tokenb",
                          predictor="none", tokenb_max_retries=0)
    system = System(config, make_workload("oltp", num_cores=4, seed=1),
                    references_per_core=40)
    auditor = LiveAuditor(system, period=50)
    result = system.run()
    assert result.cache_stats["persistent_requests"] > 0
    assert auditor.samples > 0
