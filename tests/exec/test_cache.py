"""On-disk result cache: hits, misses, and invalidation."""

import gc
import io
import json

import pytest

from repro.config import SystemConfig
from repro.exec import (ParallelRunner, ResultCache, cache_key,
                        comparable_result_dict, execute_cell, make_cell,
                        run_result_to_dict)
from repro.exec.cells import cell_to_dict
import repro.exec.cache as cache_mod

BASE = SystemConfig(num_cores=4)


@pytest.fixture(autouse=True)
def _pinned_code_version(monkeypatch):
    """Pin the source fingerprint so tests control invalidation."""
    monkeypatch.setenv(cache_mod.CODE_VERSION_ENV, "test-version")
    cache_mod.code_version.cache_clear()
    yield
    cache_mod.code_version.cache_clear()


def test_miss_then_hit_round_trips_result(tmp_path):
    cache = ResultCache(tmp_path)
    cell = make_cell(BASE, "microbench", 20, seed=1)
    assert cache.load(cell) is None
    result = execute_cell(cell)
    cache.store(cell, result)
    cached = cache.load(cell)
    assert cached is not None
    assert run_result_to_dict(cached) == run_result_to_dict(result)
    assert cache.stats() == {"hits": 1, "misses": 1, "stores": 1,
                             "store_errors": 0}


def test_key_depends_on_config_workload_seed_and_kwargs():
    cell = make_cell(BASE, "microbench", 20, seed=1)
    variations = [
        make_cell(BASE.with_updates(protocol="patch", predictor="all"),
                  "microbench", 20, seed=1),
        make_cell(BASE, "oltp", 20, seed=1),
        make_cell(BASE, "microbench", 21, seed=1),
        make_cell(BASE, "microbench", 20, seed=2),
        make_cell(BASE, "microbench", 20, seed=1, table_blocks=99),
        make_cell(BASE, "microbench", 20, seed=1, check_integrity=False),
    ]
    keys = {cache_key(cell)} | {cache_key(v) for v in variations}
    assert len(keys) == len(variations) + 1  # all distinct


def test_config_change_invalidates(tmp_path):
    cache = ResultCache(tmp_path)
    cell = make_cell(BASE, "microbench", 20, seed=1)
    cache.store(cell, execute_cell(cell))
    changed = make_cell(BASE.with_updates(link_bandwidth=2.0),
                        "microbench", 20, seed=1)
    assert cache.load(changed) is None


def test_topology_and_scenario_are_part_of_the_key(tmp_path):
    """Changing topology or workload is a miss; re-running is a hit."""
    cache = ResultCache(tmp_path)
    torus_cell = make_cell(BASE, "migratory", 20, seed=1)
    cache.store(torus_cell, execute_cell(torus_cell))
    # Same scenario on another fabric: different cell, cache miss.
    mesh_cell = make_cell(BASE.with_updates(topology="mesh"),
                          "migratory", 20, seed=1)
    assert cache_key(mesh_cell) != cache_key(torus_cell)
    assert cache.load(mesh_cell) is None
    # Same fabric, another scenario: also a miss.
    other_scenario = make_cell(BASE, "hot-home", 20, seed=1)
    assert cache.load(other_scenario) is None
    # The identical (topology, scenario) cell is a hit.
    assert cache.load(make_cell(BASE, "migratory", 20, seed=1)) is not None
    # And the mesh cell hits once stored.
    cache.store(mesh_cell, execute_cell(mesh_cell))
    assert cache.load(make_cell(BASE.with_updates(topology="mesh"),
                                "migratory", 20, seed=1)) is not None


def test_code_version_change_invalidates(tmp_path, monkeypatch):
    cache = ResultCache(tmp_path)
    cell = make_cell(BASE, "microbench", 20, seed=1)
    cache.store(cell, execute_cell(cell))
    assert cache.load(cell) is not None
    monkeypatch.setenv(cache_mod.CODE_VERSION_ENV, "edited-source-tree")
    cache_mod.code_version.cache_clear()
    assert cache.load(cell) is None


def test_corrupt_entry_is_a_miss_not_an_error(tmp_path):
    cache = ResultCache(tmp_path)
    cell = make_cell(BASE, "microbench", 20, seed=1)
    path = cache.path_for(cell)
    path.parent.mkdir(parents=True)
    path.write_text("{not json", encoding="utf-8")
    assert cache.load(cell) is None
    # Storing over the corrupt entry repairs it.
    cache.store(cell, execute_cell(cell))
    assert cache.load(cell) is not None


def test_unwritable_cache_degrades_instead_of_raising(tmp_path):
    blocker = tmp_path / "blocker"
    blocker.write_text("")  # a *file* where the cache root should go
    cache = ResultCache(blocker / "nested")
    cell = make_cell(BASE, "microbench", 10, seed=1)
    result = execute_cell(cell)
    assert cache.store(cell, result) is None  # OSError swallowed
    assert cache.store_errors == 1
    assert cache.stores == 0
    assert cache.load(cell) is None  # still just a miss


def test_stale_generations_are_pruned(tmp_path, monkeypatch):
    cell = make_cell(BASE, "microbench", 10, seed=1)
    result = execute_cell(cell)
    # Populate KEEP_GENERATIONS + 2 distinct code-version generations.
    total = ResultCache.KEEP_GENERATIONS + 2
    for n in range(total):
        monkeypatch.setenv(cache_mod.CODE_VERSION_ENV, f"gen-{n}")
        cache_mod.code_version.cache_clear()
        ResultCache(tmp_path).store(cell, result)
    generations = sorted(p.name for p in tmp_path.iterdir())
    assert len(generations) == ResultCache.KEEP_GENERATIONS
    assert f"v-gen-{total - 1}" in generations  # newest survives
    assert "v-gen-0" not in generations         # oldest pruned
    # The live generation still serves hits.
    assert ResultCache(tmp_path).load(cell) is not None
    cache_mod.code_version.cache_clear()


def test_entry_file_is_self_describing(tmp_path):
    cache = ResultCache(tmp_path)
    cell = make_cell(BASE, "microbench", 20, seed=2, table_blocks=48)
    cache.store(cell, execute_cell(cell))
    entry = json.loads(cache.path_for(cell).read_text(encoding="utf-8"))
    assert entry["cell"]["workload"] == "microbench"
    assert entry["cell"]["seed"] == 2
    assert entry["cell"]["config"]["num_cores"] == 4
    assert entry["cell"]["config"]["seed"] == 2  # folded in by make_cell
    assert ["table_blocks", 48] in entry["cell"]["workload_kwargs"]
    assert entry["key"] == cache.path_for(cell).stem


def test_entry_bytes_are_the_sorted_json_of_the_entry(tmp_path):
    """An entry is written as ``json.dumps(entry, sort_keys=True)``,
    the same bytes ``json.dump`` streams, and reads back whole."""
    cell = make_cell(BASE, "microbench", 20, seed=3)
    result = execute_cell(cell)
    cache = ResultCache(tmp_path)
    cache.store(cell, result)
    entry = {"key": cache_key(cell), "cell": cell_to_dict(cell),
             "result": run_result_to_dict(result)}
    streamed = io.StringIO()
    json.dump(entry, streamed, sort_keys=True)
    written = cache.path_for(cell).read_text(encoding="utf-8")
    assert written == json.dumps(entry, sort_keys=True) == streamed.getvalue()
    loaded = ResultCache(tmp_path).load(cell)
    assert run_result_to_dict(loaded) == entry["result"]


#: ``cache_key(cell, version="pinned")`` as computed before the key's
#: config dict stopped going through ``dataclasses.asdict``.  A silent
#: key change would cold-start every existing cache.
PINNED_KEYS = [
    (make_cell(BASE, "microbench", 20, seed=1),
     "eeecd6f9ab1ffcee9be462d1bcce7c414a8682b0a7eef6dc717f738e12d0468b"),
    (make_cell(SystemConfig(num_cores=8, topology="mesh",
                            torus_dims=(2, 4)), "migratory", 10, seed=3),
     "590abb68f3d19eca9cb993b0779626e2da13fbbb153152a43cd627d65c01dee4"),
    (make_cell(BASE.with_updates(protocol="patch", predictor="all"),
               "microbench", 20, seed=2, table_blocks=48),
     "8d2d70175c02241034e26d75eb31a1ad8a76268d26f5ca8850cde86c20f3776e"),
]


@pytest.mark.parametrize("cell,digest", PINNED_KEYS,
                         ids=["default-torus", "mesh-dims", "kwargs"])
def test_cache_keys_are_pinned(cell, digest):
    assert cache_key(cell, version="pinned") == digest


def test_two_hits_for_one_cell_are_distinct_runs(tmp_path):
    cell = make_cell(BASE, "microbench", 20, seed=1)
    ResultCache(tmp_path).store(cell, execute_cell(cell))
    runner = ParallelRunner(jobs=1, cache=ResultCache(tmp_path))
    first, second = runner.lookup(cell), runner.lookup(cell)
    assert first is not second
    assert first.cached and second.cached
    assert first.wall_time_seconds == second.wall_time_seconds == 0.0
    first.cached, first.wall_time_seconds = False, 1.5
    assert second.cached and second.wall_time_seconds == 0.0
    assert comparable_result_dict(first) == comparable_result_dict(second)
    assert runner.cache.stats()["hits"] == 2


def test_a_live_run_answers_after_its_file_is_gone(tmp_path):
    """The key content-addresses a deterministic run, so a run still
    held in memory answers for its deleted file; once released, the
    miss is a miss again."""
    cache = ResultCache(tmp_path)
    cell = make_cell(BASE, "microbench", 20, seed=1)
    result = execute_cell(cell)
    cache.store(cell, result)
    cache.path_for(cell).unlink()
    shared = cache.load(cell)
    assert shared is not result
    assert run_result_to_dict(shared) == run_result_to_dict(result)
    del result, shared
    gc.collect()
    assert cache.load(cell) is None
    assert cache.stats()["hits"] == 1 and cache.stats()["misses"] == 1
