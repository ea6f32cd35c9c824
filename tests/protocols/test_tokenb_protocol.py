"""TokenB scenarios: broadcast requests, reissue, persistent requests."""

import pytest

from repro.coherence.states import CacheState
from tests.helpers import AccessDriver, make_system


def make(cores=4, **overrides):
    return make_system("tokenb", cores=cores, **overrides)


def state_of(system, core, block):
    line = system.caches[core].cache.lookup(block)
    return line.state if line is not None else CacheState.I


def test_cold_read_served_by_memory_as_exclusive():
    system = make()
    driver = AccessDriver(system)
    driver.access(0, 100, is_write=False)
    line = system.caches[0].cache.lookup(100)
    assert line.state is CacheState.E
    assert line.tokens.is_all(system.config.tokens_per_block)


def test_cold_write_collects_all_tokens():
    system = make()
    driver = AccessDriver(system)
    driver.access(0, 100, is_write=True)
    line = system.caches[0].cache.lookup(100)
    assert line.state is CacheState.M
    assert line.tokens.dirty


def test_sharing_miss_is_direct_two_hop():
    """TokenB's broadcast hits the owner directly: faster than a
    directory's 3-hop indirection."""
    tokenb = make()
    directory = make_system("directory", cores=4)
    for system in (tokenb, directory):
        driver = AccessDriver(system)
        driver.access(0, 100, is_write=True)
        driver.drain(20_000)
    t_tokenb = AccessDriver(tokenb).access(1, 100, is_write=False)
    t_directory = AccessDriver(directory).access(1, 100, is_write=False)
    assert t_tokenb < t_directory


def test_owner_keeps_plain_tokens_on_clean_read_transfer():
    system = make()
    driver = AccessDriver(system)
    driver.access(0, 100, is_write=False)    # E (clean) at 0
    driver.access(1, 100, is_write=False)
    line0 = system.caches[0].cache.lookup(100)
    line1 = system.caches[1].cache.lookup(100)
    assert line1.tokens.owner
    assert line0 is not None and line0.tokens.count >= 1
    assert state_of(system, 0, 100) is CacheState.S


def test_dirty_owner_yields_all_tokens_on_read():
    """TokenB's migratory-sharing response policy."""
    system = make()
    driver = AccessDriver(system)
    driver.access(0, 100, is_write=True)
    driver.access(1, 100, is_write=False)
    line1 = system.caches[1].cache.lookup(100)
    assert line1.tokens.is_all(system.config.tokens_per_block)
    assert system.caches[0].cache.lookup(100) is None


def test_write_pulls_tokens_from_everyone():
    system = make()
    driver = AccessDriver(system)
    for core in range(3):
        driver.access(core, 100, is_write=False)
    driver.access(3, 100, is_write=True)
    line = system.caches[3].cache.lookup(100)
    assert line.tokens.is_all(system.config.tokens_per_block)
    for core in range(3):
        assert state_of(system, core, 100) is CacheState.I


def test_no_directory_state_at_home():
    system = make()
    driver = AccessDriver(system)
    driver.access(0, 100, is_write=True)
    home = system.homes[100 % 4]
    # TokenB homes hold tokens only: no sharer/owner bookkeeping.
    assert not hasattr(home, "entries")
    assert home.memory.held(100).is_zero


def test_eviction_returns_tokens_to_memory():
    system = make(cores=2, cache_kb=1, cache_assoc=1)
    driver = AccessDriver(system)
    sets = system.config.cache_sets
    driver.access(0, 100, is_write=True)
    driver.access(0, 100 + sets, is_write=True)
    driver.drain(50_000)
    home = system.homes[100 % 2]
    assert home.memory.held(100).count == system.config.tokens_per_block
    assert home.memory.held(100).owner


def test_racing_writers_complete_via_retries():
    for seed in range(6):
        system = make(adversarial=True, net_seed=seed)
        driver = AccessDriver(system)
        driver.access_concurrent([(0, 100, True), (1, 100, True),
                                  (2, 100, True)], max_cycles=4_000_000)


def test_persistent_request_resolves_pathological_starvation():
    """Force escalation by making transient requests always fail: a racing
    storm on one block with many writers through a slow network."""
    import random as _random
    from repro.workloads.base import Access
    from tests.helpers import ScriptedWorkload
    cores = 6
    rng = _random.Random(42)
    scripts = {core: [Access(100, True, 0) for _ in range(8)]
               for core in range(cores)}
    system = make_system("tokenb", cores=cores, adversarial=True,
                         net_seed=9, max_delay=200,
                         workload=ScriptedWorkload(scripts), references=8,
                         tokenb_max_retries=1)
    result = system.run(max_cycles=20_000_000)
    assert result.total_references == cores * 8


def test_reissues_counted_in_traffic():
    from repro.stats.traffic import MsgClass
    system = make(adversarial=True, net_seed=1, max_delay=150)
    driver = AccessDriver(system)
    driver.access_concurrent([(c, 100, True) for c in range(4)],
                             max_cycles=4_000_000)
    reissues = sum(c.stats.value("reissues") for c in system.caches)
    if reissues:
        assert system.network.meter.messages[MsgClass.REISSUE] >= reissues


def test_persistent_table_forwards_arriving_tokens():
    """While a persistent request is active, token holders forward to the
    starver."""
    system = make(cores=2)
    home = system.homes[100 % 2]
    from repro.coherence.messages import CoherenceMsg, MsgType
    # Simulate: core 1 starves and escalates.
    req = CoherenceMsg(mtype=MsgType.PERSISTENT_REQ, block=100, requester=1,
                       sender=1, txn_id=777, is_write=True, to_home=True)
    driver = AccessDriver(system)
    driver.access(0, 100, is_write=True)   # all tokens at core 0
    system.caches[1].mshr = None
    # Give core 1 an outstanding write miss so arriving tokens complete it.
    done = []
    system.caches[1].access(100, True, lambda: done.append(True))
    system.sim.run(until=system.sim.now + 5)  # request not yet resolved
    home.handle_message(type("M", (), {"payload": req})())
    system.sim.run(until=system.sim.now + 100_000)
    assert done
