"""Set-associative cache array tests."""

import pytest
from hypothesis import given, strategies as st

from repro.cache.array import _UNTOUCHED, CacheArray, CacheLine
from repro.coherence.states import CacheState
from repro.coherence.tokens import TokenCount, ZERO


def test_lookup_miss_returns_none():
    cache = CacheArray(num_sets=4, assoc=2)
    assert cache.lookup(0) is None


def test_allocate_then_lookup():
    cache = CacheArray(num_sets=4, assoc=2)
    line = cache.allocate(5)
    assert cache.lookup(5) is line
    assert line.state is CacheState.I


def test_allocate_existing_returns_same_line():
    cache = CacheArray(num_sets=4, assoc=2)
    first = cache.allocate(5)
    assert cache.allocate(5) is first


def test_blocks_map_to_sets_by_modulo():
    cache = CacheArray(num_sets=4, assoc=1)
    cache.allocate(0)
    cache.allocate(1)  # different set: no conflict
    assert cache.victim_for(2) is None or cache.victim_for(2).block != 1


def test_victim_none_when_set_has_room():
    cache = CacheArray(num_sets=2, assoc=2)
    cache.allocate(0)
    assert cache.victim_for(2) is None


def test_victim_is_lru():
    cache = CacheArray(num_sets=1, assoc=2)
    cache.allocate(1)
    cache.allocate(2)
    cache.lookup(1, touch=True)   # 2 becomes LRU
    victim = cache.victim_for(3)
    assert victim.block == 2


def test_victim_none_for_resident_block():
    cache = CacheArray(num_sets=1, assoc=1)
    cache.allocate(1)
    assert cache.victim_for(1) is None


def test_allocate_into_full_set_raises():
    cache = CacheArray(num_sets=1, assoc=1)
    cache.allocate(1)
    with pytest.raises(RuntimeError, match="evict first"):
        cache.allocate(2)


def test_evict_removes_line():
    cache = CacheArray(num_sets=1, assoc=2)
    cache.allocate(1)
    evicted = cache.evict(1)
    assert evicted.block == 1
    assert cache.lookup(1) is None


def test_evict_missing_raises():
    cache = CacheArray(num_sets=1, assoc=1)
    with pytest.raises(KeyError):
        cache.evict(9)


def test_len_counts_resident_lines():
    cache = CacheArray(num_sets=4, assoc=2)
    for block in range(5):
        cache.allocate(block)
    assert len(cache) == 5
    assert sorted(cache.resident_blocks()) == [0, 1, 2, 3, 4]


def test_geometry_validation():
    with pytest.raises(ValueError):
        CacheArray(num_sets=0, assoc=2)
    with pytest.raises(ValueError):
        CacheArray(num_sets=2, assoc=0)


def test_line_tenured_subset():
    line = CacheLine(3)
    line.tokens = TokenCount(5, owner=True, dirty=True)
    line.untenured = TokenCount(2)
    tenured = line.tenured
    assert tenured.count == 3
    assert tenured.owner and tenured.dirty


def test_line_tenured_when_owner_untenured():
    line = CacheLine(3)
    line.tokens = TokenCount(5, owner=True)
    line.untenured = TokenCount(2, owner=True)
    tenured = line.tenured
    assert tenured.count == 3
    assert not tenured.owner


def test_line_tenured_all_untenured_is_zero():
    line = CacheLine(3)
    line.tokens = TokenCount(2)
    line.untenured = TokenCount(2)
    assert line.tenured is ZERO


@given(st.integers(min_value=1, max_value=8),
       st.integers(min_value=1, max_value=8),
       st.lists(st.integers(min_value=0, max_value=100), max_size=60))
def test_occupancy_never_exceeds_capacity(num_sets, assoc, blocks):
    cache = CacheArray(num_sets=num_sets, assoc=assoc)
    for block in blocks:
        victim = cache.victim_for(block)
        if victim is not None:
            cache.evict(victim.block)
        cache.allocate(block)
    assert len(cache) <= num_sets * assoc
    for line in cache.lines():
        # every resident line is found by lookup under its own block
        assert cache.lookup(line.block) is line


# -- sets allocated on first use ------------------------------------------
def test_untouched_sets_share_one_empty_dict():
    cache = CacheArray(num_sets=4, assoc=2)
    assert all(cache_set is _UNTOUCHED for cache_set in cache._sets)
    line = cache.allocate(5)
    own = cache._sets[1]
    assert own is not _UNTOUCHED and own == {5: line}
    assert [s is _UNTOUCHED for s in cache._sets] == [True, False,
                                                      True, True]
    cache.allocate(9)   # same set: no new dict
    assert cache._sets[1] is own and len(own) == 2
    cache.evict(5)
    cache.evict(9)
    assert cache._sets[1] is own and _UNTOUCHED == {}


def test_untouched_sets_read_as_empty():
    cache = CacheArray(num_sets=4, assoc=1)
    assert cache.lookup(3) is None
    assert cache.lookup(3, touch=True) is None
    assert cache.victim_for(3) is None
    with pytest.raises(KeyError, match="not resident"):
        cache.evict(3)
    assert list(cache.lines()) == []
    assert cache.resident_blocks() == []
    assert len(cache) == 0
    assert _UNTOUCHED == {}


@pytest.mark.parametrize("protocol,predictor",
                         [("directory", "none"), ("tokenb", "none"),
                          ("patch", "all"), ("patch", "owner")])
def test_runs_leave_the_shared_empty_set_empty(protocol, predictor):
    from repro import System, SystemConfig, make_workload
    config = SystemConfig(num_cores=16, protocol=protocol,
                          predictor=predictor)
    system = System(config, make_workload("oltp", num_cores=16, seed=3),
                    references_per_core=40)
    result = system.run()
    assert result.misses > 0
    assert _UNTOUCHED == {}
    touched = sum(cache_set is not _UNTOUCHED
                  for cache in system.caches
                  for cache_set in cache.cache._sets)
    assert 0 < touched < len(system.caches) * config.cache_sets
