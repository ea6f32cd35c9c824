"""ParallelRunner: bit-identity, cache integration, crash surfacing."""

import multiprocessing
import os
import threading
from concurrent.futures.process import BrokenProcessPool

import pytest

from repro.api import AxisSpec, PointSpec, Session, StudySpec
from repro.config import SystemConfig
from repro.core.runner import PAPER_CONFIGS, run_experiment
from repro.exec import (CellExecutionError, ParallelRunner, ResultCache,
                        default_jobs, get_default_runner, make_cell,
                        comparable_result_dict, set_default_runner)

BASE = SystemConfig(num_cores=4)


def fig4_cells(refs=15, seeds=(1, 2)):
    """A miniature Figure-4 grid: all six paper configs."""
    return [make_cell(BASE.with_updates(**overrides), "microbench",
                      refs, seed)
            for overrides in PAPER_CONFIGS.values() for seed in seeds]


def serialized(results):
    return [comparable_result_dict(result) for result in results]


def test_parallel_is_bit_identical_to_serial():
    cells = fig4_cells()
    serial = ParallelRunner(jobs=1).run_cells(cells)
    parallel = ParallelRunner(jobs=4).run_cells(cells)
    assert serialized(serial) == serialized(parallel)


def test_results_come_back_in_input_order():
    cells = fig4_cells(seeds=(1,))
    results = ParallelRunner(jobs=3).run_cells(cells)
    expected = [cell.config.describe() for cell in cells]
    assert [result.config_summary for result in results] == expected


def test_failing_cell_fails_the_experiment_not_hangs():
    good = fig4_cells(seeds=(1,))[:2]
    bad = make_cell(BASE, "microbench", 15, seed=1,
                    not_a_workload_kwarg=True)
    with pytest.raises(CellExecutionError) as excinfo:
        ParallelRunner(jobs=2).run_cells([good[0], bad, good[1]])
    assert excinfo.value.cell is bad
    assert "seed=1" in str(excinfo.value)


def test_failing_cell_raises_in_serial_mode_too():
    bad = make_cell(BASE, "no-such-workload", 15, seed=1)
    with pytest.raises(CellExecutionError) as excinfo:
        ParallelRunner(jobs=1).run_cells([bad])
    assert excinfo.value.cell is bad


@pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                    reason="the test workload reaches pool workers only "
                           "when they fork from this process")
def test_dead_pool_worker_fails_the_batch_not_hangs(monkeypatch):
    from repro.workloads import registry

    def exit_process(num_cores, seed=1, **knobs):
        os._exit(3)

    registry.workload_names()  # populate before adding to the table
    monkeypatch.setitem(registry._REGISTRY, "exits-worker",
                        registry.WorkloadSpec("exits-worker", exit_process,
                                              "kills its process", "micro"))
    good = fig4_cells(seeds=(1,))[0]
    dying = make_cell(BASE, "exits-worker", 15, seed=1)
    raised = []

    def run():
        try:
            ParallelRunner(jobs=2).run_cells([good, dying])
        except CellExecutionError as exc:
            raised.append(exc)

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    thread.join(timeout=120)
    assert not thread.is_alive(), "a dead worker hung the batch"
    (error,) = raised
    assert isinstance(error.cause, BrokenProcessPool)


def test_cache_serves_second_batch_without_executing(tmp_path, monkeypatch):
    cache = ResultCache(tmp_path)
    runner = ParallelRunner(jobs=2, cache=cache)
    cells = fig4_cells(seeds=(1,))
    first = runner.run_cells(cells)
    assert cache.stats() == {"hits": 0, "misses": len(cells),
                             "stores": len(cells), "store_errors": 0}

    # Any attempt to simulate on the second pass is a bug: every cell
    # must come from the cache.
    import repro.exec.parallel as parallel

    def boom(cell):
        raise AssertionError("cache miss re-executed a cached cell")

    monkeypatch.setattr(parallel, "execute_cell_payload", boom)
    second = runner.run_cells(cells)
    assert serialized(second) == serialized(first)
    assert cache.hits == len(cells)


def test_completed_cells_are_cached_despite_later_failure(tmp_path):
    cache = ResultCache(tmp_path)
    good = fig4_cells(seeds=(1,))[0]
    bad = make_cell(BASE, "no-such-workload", 15, seed=1)
    with pytest.raises(CellExecutionError):
        ParallelRunner(jobs=1, cache=cache).run_cells([good, bad])
    # The completed simulation survived the batch failure.
    retry = ParallelRunner(jobs=1, cache=ResultCache(tmp_path))
    retry.run_cells([good])
    assert retry.cache.hits == 1


def test_run_experiment_uses_given_runner_and_cache(tmp_path):
    cache = ResultCache(tmp_path)
    runner = ParallelRunner(jobs=2, cache=cache)
    first = run_experiment(BASE, "microbench", 15, seeds=(1, 2, 3),
                           runner=runner)
    again = run_experiment(BASE, "microbench", 15, seeds=(1, 2, 3),
                           runner=runner)
    assert cache.hits == 3
    assert serialized(again.runs) == serialized(first.runs)


def test_compare_configs_parallel_matches_serial_results(tmp_path):
    spec = StudySpec(
        name="compare", base_config={"num_cores": 4},
        workload="microbench", references_per_core=15, seeds=(1, 2),
        axes=(AxisSpec("variant", (
            PointSpec("Directory", config={"protocol": "directory"}),
            PointSpec("PATCH-All", config={"protocol": "patch",
                                           "predictor": "all"}))),))
    serial = Session(runner=ParallelRunner(jobs=1)).run(spec)
    parallel = Session(runner=ParallelRunner(
        jobs=4, cache=ResultCache(tmp_path))).run(spec)
    assert serial.keys == parallel.keys
    for key in serial.keys:
        assert serialized(serial.runs_by_key[key]) == \
            serialized(parallel.runs_by_key[key])
        assert serial.experiment(key).runtime_mean == \
            parallel.experiment(key).runtime_mean


def test_default_jobs_env_override(monkeypatch):
    monkeypatch.setenv("REPRO_JOBS", "7")
    assert default_jobs() == 7
    assert ParallelRunner().jobs == 7
    monkeypatch.setenv("REPRO_JOBS", "not-a-number")
    with pytest.raises(ValueError):
        default_jobs()


@pytest.mark.parametrize("value", ["0", "-3", "2.5", " "])
def test_default_jobs_rejects_non_positive_env(monkeypatch, value):
    """Regression: REPRO_JOBS=0/-3 used to be silently clamped to 1."""
    monkeypatch.setenv("REPRO_JOBS", value)
    with pytest.raises(ValueError, match="REPRO_JOBS"):
        default_jobs()


def test_default_runner_install_and_reset():
    runner = ParallelRunner(jobs=1)
    set_default_runner(runner)
    try:
        assert get_default_runner() is runner
    finally:
        set_default_runner(None)
    assert get_default_runner() is not runner


def test_no_cache_env_disables_default_cache(monkeypatch):
    monkeypatch.setenv("REPRO_NO_CACHE", "1")
    assert ParallelRunner.from_env().cache is None
    monkeypatch.delenv("REPRO_NO_CACHE")
    monkeypatch.setenv("REPRO_CACHE_DIR", "/tmp/some-cache-dir")
    cache = ParallelRunner.from_env().cache
    assert cache is not None
    assert str(cache.root) == "/tmp/some-cache-dir"


def test_jobs_must_be_positive():
    with pytest.raises(ValueError):
        ParallelRunner(jobs=0)
