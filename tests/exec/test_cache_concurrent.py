"""Concurrent writers on one shared cache directory: no corruption.

The cache's write path is atomic (temp file + ``os.replace``), which is
what makes a shared ``REPRO_CACHE_DIR`` across worker processes — or
across machines on a shared filesystem — safe.  These tests hammer one
directory from multiple processes and assert nothing tears, nothing
leaks, and per-study cache accounting never double-counts.
"""

import json
import multiprocessing
import sys

import pytest

from repro.api import Session, StudySpec
from repro.exec import (ResultCache, cell_from_dict, cell_to_dict,
                        execute_cell, make_cell, run_result_from_dict,
                        run_result_to_dict)
from repro.exec.manifest import ManifestStore, StudyManifest
from repro.config import SystemConfig

BASE = SystemConfig(num_cores=4)
ROUNDS = 25


def _payloads(seeds):
    """(cell_dict, result_dict) pairs, executed once in the parent."""
    out = []
    for seed in seeds:
        cell = make_cell(BASE, "microbench", 8, seed)
        out.append((cell_to_dict(cell),
                    run_result_to_dict(execute_cell(cell))))
    return out


def _hammer(cache_dir, payloads, barrier):
    """Child body: store+load every payload ROUNDS times, flat out."""
    cache = ResultCache(cache_dir)
    pairs = [(cell_from_dict(cell), run_result_from_dict(result))
             for cell, result in payloads]
    barrier.wait()  # line both children up for maximum contention
    for _ in range(ROUNDS):
        for cell, result in pairs:
            if cache.store(cell, result) is None:
                sys.exit(2)  # store_errors must stay zero
            # A fresh cache reads the file; this one would answer from
            # the run it just stored.
            loaded = ResultCache(cache_dir).load(cell)
            if loaded is not None and \
                    run_result_to_dict(loaded) != run_result_to_dict(result):
                sys.exit(3)  # torn or foreign content
    sys.exit(0)


def _run_children(target, args_per_child):
    children = [multiprocessing.Process(target=target, args=args)
                for args in args_per_child]
    for child in children:
        child.start()
    for child in children:
        child.join(timeout=120)
    assert all(child.exitcode == 0 for child in children), \
        [child.exitcode for child in children]


@pytest.mark.parametrize("shared_keys", [True, False],
                         ids=["same-keys", "distinct-keys"])
def test_concurrent_writers_do_not_corrupt_entries(tmp_path, shared_keys):
    first = _payloads(seeds=(1, 2))
    second = first if shared_keys else _payloads(seeds=(3, 4))
    barrier = multiprocessing.Barrier(2)
    _run_children(_hammer, [(tmp_path, first, barrier),
                            (tmp_path, second, barrier)])

    # Every entry both children touched reads back exactly, and no
    # temp files leaked past the atomic rename.
    cache = ResultCache(tmp_path)
    for cell_dict, result_dict in {id(p): p for p in first + second}.values():
        loaded = cache.load(cell_from_dict(cell_dict))
        assert loaded is not None
        assert run_result_to_dict(loaded) == result_dict
    assert not list(tmp_path.rglob("*.tmp"))
    assert cache.stats()["store_errors"] == 0


def _hammer_manifest(cache_dir, manifest_data, barrier):
    store = ManifestStore(cache_dir)
    manifest = StudyManifest.from_json_dict(manifest_data)
    barrier.wait()
    for index in range(len(manifest.cells)):
        manifest.mark(index, "done")
        if store.save(manifest) is None:
            sys.exit(2)
        if store.load(manifest.digest) is None:
            sys.exit(3)  # a reader must never observe a torn manifest
    sys.exit(0)


def test_concurrent_manifest_writers_never_tear(tmp_path):
    manifest = StudyManifest(
        study="hammer", digest="f" * 16, code_version="x",
        cells=[])
    from repro.exec.manifest import CellEntry
    manifest.cells = [CellEntry(key=("point",), seed=seed)
                      for seed in range(20)]
    barrier = multiprocessing.Barrier(2)
    data = manifest.to_json_dict()
    _run_children(_hammer_manifest, [(tmp_path, data, barrier),
                                     (tmp_path, data, barrier)])
    final = ManifestStore(tmp_path).load(manifest.digest)
    assert final is not None
    assert final.counts()["done"] == 20
    assert not list((tmp_path / "studies").glob("*.tmp"))


# ---------------------------------------------------------------------------
# cache_delta accounting on a shared directory
# ---------------------------------------------------------------------------

def _tiny_spec():
    return StudySpec.from_json_dict({
        "spec_schema": 2, "name": "delta-check",
        "base_config": {"num_cores": 4},
        "workload": "microbench", "references_per_core": 8,
        "seeds": [1, 2],
        "axes": [{"name": "variant", "points": [
            {"label": "dir",
             "config": {"protocol": "directory", "predictor": "none"}},
            {"label": "patch",
             "config": {"protocol": "patch", "predictor": "all"}}]}],
    })


def test_cache_delta_exact_on_prewarmed_shared_dir(tmp_path):
    """Each of the study's cells is counted exactly once: hit XOR miss."""
    spec = _tiny_spec()
    warmer = Session(jobs=1, cache_dir=tmp_path)
    delta = warmer.run(spec).cache_delta
    assert delta["misses"] == spec.num_cells()
    assert delta["stores"] == spec.num_cells()
    assert delta["hits"] == 0

    # A second session on the same directory sees pure hits — no
    # double-counted misses, no redundant stores.
    with Session(jobs=2, cache_dir=tmp_path) as reader:
        delta = reader.run(spec).cache_delta
    assert delta == {"hits": spec.num_cells(), "misses": 0,
                     "stores": 0, "store_errors": 0}


def test_cache_delta_exact_on_partially_warm_dir(tmp_path):
    spec = _tiny_spec()
    Session(jobs=1, cache_dir=tmp_path).advance(spec, limit=1)
    delta = Session(jobs=1, cache_dir=tmp_path).run(spec).cache_delta
    assert delta["hits"] == 1
    assert delta["misses"] == spec.num_cells() - 1
    assert delta["stores"] == delta["misses"]
    assert delta["hits"] + delta["misses"] == spec.num_cells()
