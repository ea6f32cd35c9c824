"""Scripted PATCH scenarios: token counting grafted onto the directory."""

import pytest

from repro.coherence.states import CacheState
from tests.helpers import AccessDriver, make_system


def make(predictor="none", cores=4, **overrides):
    return make_system("patch", cores=cores, predictor=predictor, **overrides)


def state_of(system, core, block):
    line = system.caches[core].cache.lookup(block)
    return line.state if line is not None else CacheState.I


def tokens_of(system, core, block):
    line = system.caches[core].cache.lookup(block)
    return line.tokens if line is not None else None


# ---------------------------------------------------------------------------
# Token-counting completion (Table 1)
# ---------------------------------------------------------------------------

def test_cold_read_receives_all_tokens_as_exclusive():
    system = make()
    driver = AccessDriver(system)
    driver.access(0, 100, is_write=False)
    line = system.caches[0].cache.lookup(100)
    # Memory held all T tokens and no sharers existed: E grant.
    assert line.state is CacheState.E
    assert line.tokens.is_all(system.config.tokens_per_block)
    assert not line.tokens.dirty


def test_cold_write_collects_every_token():
    system = make()
    driver = AccessDriver(system)
    driver.access(0, 100, is_write=True)
    line = system.caches[0].cache.lookup(100)
    assert line.state is CacheState.M
    assert line.tokens.is_all(system.config.tokens_per_block)
    assert line.tokens.dirty


def test_read_of_dirty_exclusive_transfers_all_tokens():
    """Migratory-sharing response policy: an M owner yields everything
    on a read, so the reader's subsequent write hits locally."""
    system = make()
    driver = AccessDriver(system)
    driver.access(0, 100, is_write=True)     # all tokens at 0, dirty
    driver.access(1, 100, is_write=False)
    line1 = system.caches[1].cache.lookup(100)
    assert line1.tokens.is_all(system.config.tokens_per_block)
    assert system.caches[0].cache.lookup(100) is None


def test_read_sharing_from_clean_owner_transfers_owner_token_only():
    system = make()
    driver = AccessDriver(system)
    driver.access(0, 100, is_write=False)    # E at 0 (clean, all tokens)
    driver.access(1, 100, is_write=False)
    line0 = system.caches[0].cache.lookup(100)
    line1 = system.caches[1].cache.lookup(100)
    assert line1.tokens.owner                 # ownership moved to reader
    assert line0 is not None and not line0.tokens.owner
    assert line0.tokens.count + line1.tokens.count == \
        system.config.tokens_per_block


def test_write_gathers_tokens_from_all_sharers():
    system = make()
    driver = AccessDriver(system)
    driver.access(0, 100, is_write=False)
    driver.access(1, 100, is_write=False)
    driver.access(2, 100, is_write=False)
    driver.access(3, 100, is_write=True)
    line = system.caches[3].cache.lookup(100)
    assert line.state is CacheState.M
    assert line.tokens.is_all(system.config.tokens_per_block)
    for core in (0, 1, 2):
        assert state_of(system, core, 100) is CacheState.I


def test_no_zero_token_acknowledgements():
    """Ack elision: caches without tokens never respond (Section 3)."""
    system = make(predictor="all", cores=8)
    driver = AccessDriver(system)
    driver.access(0, 100, is_write=False)
    driver.access(1, 100, is_write=True)
    driver.drain(50_000)
    # Caches 2-7 never held block 100: both broadcasts reach them and
    # both are dropped without a reply.
    for cache in system.caches[2:]:
        assert cache.stats.value("direct_requests_seen") == 2
        assert cache.stats.value("requests_ignored_no_tokens") == 2
        assert cache.stats.value("token_responses") == 0
    # The home forwarded to the sharers superset, but only the actual
    # token holder (core 0) responded: at most one responder.
    responders = sum(1 for cache in system.caches
                     if cache.stats.value("token_responses"))
    assert responders <= 2


# ---------------------------------------------------------------------------
# Activation / deactivation (home side of token tenure)
# ---------------------------------------------------------------------------

def test_every_miss_is_eventually_activated_and_deactivated():
    system = make()
    driver = AccessDriver(system)
    driver.access(0, 100, is_write=True)
    driver.access(1, 100, is_write=False)
    driver.drain(100_000)
    home = system.homes[100 % 4]
    assert home.stats.value("activations") == 2
    assert not home.is_busy(100)
    # No zombies left waiting for activation.
    for cache in system.caches:
        assert not cache.zombies


def test_directory_updated_on_deactivation():
    system = make()
    driver = AccessDriver(system)
    driver.access(0, 100, is_write=True)
    driver.drain(20_000)
    entry = system.homes[100 % 4].entry(100)
    assert entry.owner == 0
    assert entry.sharers.might_contain(0)


def test_activation_piggybacks_on_home_token_response():
    """When the home itself supplies tokens, activation rides along
    (reusing the acks-to-expect field, paper Section 5.2): no separate
    activation message."""
    system = make()
    driver = AccessDriver(system)
    driver.access(0, 100, is_write=True)
    driver.drain(20_000)
    from repro.stats.traffic import MsgClass
    assert system.network.meter.messages[MsgClass.ACTIVATION] == 0


def test_explicit_activation_when_home_has_no_tokens():
    system = make()
    driver = AccessDriver(system)
    driver.access(0, 100, is_write=True)    # all tokens leave the home
    driver.drain(20_000)
    driver.access(1, 100, is_write=True)    # home must forward + activate
    driver.drain(20_000)
    from repro.stats.traffic import MsgClass
    assert system.network.meter.messages[MsgClass.ACTIVATION] == 1


# ---------------------------------------------------------------------------
# Direct requests (PATCH-ALL)
# ---------------------------------------------------------------------------

def test_direct_request_enables_two_hop_sharing_miss():
    # With an all predictor, a sharing miss resolves cache-to-cache
    # without waiting for the home's forward.
    system = make(predictor="all")
    driver = AccessDriver(system)
    driver.access(0, 100, is_write=True)
    driver.drain(50_000)   # let deactivation ignore-window expire
    latency_direct = driver.access(1, 100, is_write=False)

    baseline = make(predictor="none")
    base_driver = AccessDriver(baseline)
    base_driver.access(0, 100, is_write=True)
    base_driver.drain(50_000)
    latency_indirect = base_driver.access(1, 100, is_write=False)
    assert latency_direct < latency_indirect


def test_direct_requests_sent_to_all_peers():
    system = make(predictor="all")
    driver = AccessDriver(system)
    driver.access(0, 100, is_write=True)
    assert system.caches[0].stats.value("direct_requests_sent") == 3


def test_direct_requests_are_best_effort_priority():
    from repro.interconnect.message import Priority
    from repro.stats.traffic import MsgClass
    system = make(predictor="all")
    driver = AccessDriver(system)
    driver.access(0, 100, is_write=True)
    driver.drain(20_000)
    assert system.network.meter.messages[MsgClass.DIRECT_REQUEST] >= 1


def test_nonadaptive_direct_requests_use_normal_priority():
    system = make(predictor="all", best_effort_direct=False)
    driver = AccessDriver(system)
    driver.access(0, 100, is_write=True)
    # Just verifying the configuration plumbs through; the message left.
    assert system.caches[0].stats.value("direct_requests_sent") == 3


def test_outstanding_miss_ignores_direct_requests():
    system = make(predictor="all", cores=2)
    # Both cores miss on the same block simultaneously with direct
    # requests: each ignores the other's direct request while missing.
    driver = AccessDriver(system)
    driver.access_concurrent([(0, 100, True), (1, 100, True)])
    driver.drain(100_000)
    total = system.config.tokens_per_block
    line0 = system.caches[0].cache.lookup(100)
    line1 = system.caches[1].cache.lookup(100)
    held = (line0.tokens.count if line0 else 0) + \
           (line1.tokens.count if line1 else 0)
    assert held <= total


# ---------------------------------------------------------------------------
# Evictions (non-silent: token conservation)
# ---------------------------------------------------------------------------

def test_clean_eviction_returns_tokens_to_home():
    system = make(cores=2, cache_kb=1, cache_assoc=1)
    driver = AccessDriver(system)
    sets = system.config.cache_sets
    driver.access(0, 100, is_write=False)    # E: all tokens at core 0
    driver.access(0, 100 + sets, is_write=False)   # evicts block 100
    driver.drain(50_000)
    assert system.caches[0].stats.value("token_writebacks") >= 1
    held = system.homes[100 % 2].memory.held(100)
    assert held.count == system.config.tokens_per_block
    assert held.owner


def test_dirty_eviction_carries_data_home():
    system = make(cores=2, cache_kb=1, cache_assoc=1)
    driver = AccessDriver(system)
    sets = system.config.cache_sets
    driver.access(0, 100, is_write=True)
    driver.access(0, 100 + sets, is_write=True)
    driver.drain(50_000)
    # Memory now owns the block again and serves the latest data.
    driver.access(1, 100, is_write=False)   # integrity checker validates
    line = system.caches[1].cache.lookup(100)
    assert line is not None and line.valid_data


def test_patch_never_silently_drops_tokens():
    system = make(cores=2, cache_kb=1, cache_assoc=1)
    driver = AccessDriver(system)
    sets = system.config.cache_sets
    driver.access(0, 100, is_write=False)
    driver.access(1, 100, is_write=False)    # S-ish split
    before = system.caches[1].stats.value("token_writebacks")
    driver.access(1, 100 + sets, is_write=False)   # evicts
    driver.drain(50_000)
    assert system.caches[1].stats.value("token_writebacks") > before


# ---------------------------------------------------------------------------
# Migratory optimization carried over from DIRECTORY
# ---------------------------------------------------------------------------

def test_migratory_read_write_pairs_hit_after_first_transfer():
    """The read of a dirty block moves all tokens, so every core's
    read-then-write critical section costs a single sharing miss."""
    system = make()
    driver = AccessDriver(system)
    block = 200
    driver.access(0, block, is_write=True)
    for core in (1, 2, 3):
        driver.access(core, block, is_write=False)
        line = system.caches[core].cache.lookup(block)
        assert line.tokens.is_all(system.config.tokens_per_block)
        latency = driver.access(core, block, is_write=True)
        assert latency <= system.config.cache_latency + 1
