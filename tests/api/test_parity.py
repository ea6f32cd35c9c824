"""``run_experiment`` must be equivalent to its hand-assembled cells.

``run_experiment`` (the one-configuration path behind ``repro run``)
lowers an axis-less spec.  Each test hand-assembles the cell batch that
spec must lower to, runs it through a runner sharing one result cache
with ``run_experiment``, and compares every RunResult field-for-field.
Because the spec lowering stores into the same cache keys, any
divergence in the lowered cells would also show up as unexpected cache
misses.  The figure grids are pinned separately, by digest, in
``tests/core/test_bench.py``.
"""

import pytest

from repro.config import SystemConfig
from repro.core.runner import run_experiment
from repro.exec import (ParallelRunner, ResultCache, make_cell,
                        comparable_result_dict)

BASE = SystemConfig(num_cores=4)


@pytest.fixture()
def runner(tmp_path):
    return ParallelRunner(jobs=1, cache=ResultCache(tmp_path))


def dicts(runs):
    return [comparable_result_dict(run) for run in runs]


def test_run_experiment_equivalent_to_legacy_cells(runner):
    config = BASE.with_updates(protocol="patch", predictor="all")
    legacy = runner.run_cells(
        [make_cell(config, "microbench", 12, seed) for seed in (1, 2)])
    experiment = run_experiment(config, "microbench",
                                references_per_core=12, seeds=(1, 2),
                                runner=runner)
    assert experiment.label == config.describe()
    assert dicts(experiment.runs) == dicts(legacy)


def test_wrappers_hit_the_cache_populated_by_legacy_cells(tmp_path):
    """The lowering maps onto the very same cache keys legacy cells used."""
    cache = ResultCache(tmp_path)
    runner = ParallelRunner(jobs=1, cache=cache)
    config = BASE.with_updates(protocol="directory")
    runner.run_cells([make_cell(config, "microbench", 10, 1)])
    stored = cache.stats()["stores"]
    run_experiment(config, "microbench", references_per_core=10,
                   seeds=(1,), runner=runner)
    stats = cache.stats()
    assert stats["stores"] == stored       # nothing recomputed
    assert stats["hits"] >= 1
