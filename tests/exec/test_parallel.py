"""ParallelRunner: bit-identity, cache integration, crash surfacing,
and the lifetime of its one worker pool."""

import multiprocessing
import os
import pathlib
import threading
import time
from concurrent.futures import FIRST_COMPLETED
from concurrent.futures.process import BrokenProcessPool

import pytest

from repro.api import AxisSpec, PointSpec, Session, StudySpec
from repro.config import SystemConfig
from repro.core.runner import PAPER_CONFIGS, run_experiment
from repro.exec import (CellExecutionError, ParallelRunner, ResultCache,
                        default_jobs, make_cell, comparable_result_dict)
from repro.service import make_server

BASE = SystemConfig(num_cores=4)


def fig4_cells(refs=15, seeds=(1, 2)):
    """A miniature Figure-4 grid: all six paper configs."""
    return [make_cell(BASE.with_updates(**overrides), "microbench",
                      refs, seed)
            for overrides in PAPER_CONFIGS.values() for seed in seeds]


def serialized(results):
    return [comparable_result_dict(result) for result in results]


def children():
    """Pids of this process's live child processes."""
    return {child.pid for child in multiprocessing.active_children()}


needs_fork = pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="the test workload reaches pool workers only when they fork "
           "from this process")


def test_parallel_is_bit_identical_to_serial():
    cells = fig4_cells()
    serial = ParallelRunner(jobs=1).run_cells(cells)
    with ParallelRunner(jobs=4) as runner:
        parallel = runner.run_cells(cells)
    assert serialized(serial) == serialized(parallel)


def test_results_come_back_in_input_order():
    cells = fig4_cells(seeds=(1,))
    with ParallelRunner(jobs=3) as runner:
        results = runner.run_cells(cells)
    expected = [cell.config.describe() for cell in cells]
    assert [result.config_summary for result in results] == expected


def test_failing_cell_fails_the_experiment_not_hangs():
    good = fig4_cells(seeds=(1,))[:2]
    bad = make_cell(BASE, "microbench", 15, seed=1,
                    not_a_workload_kwarg=True)
    with ParallelRunner(jobs=2) as runner, \
            pytest.raises(CellExecutionError) as excinfo:
        runner.run_cells([good[0], bad, good[1]])
    assert excinfo.value.cell is bad
    assert "seed=1" in str(excinfo.value)


def test_failing_cell_raises_in_serial_mode_too():
    bad = make_cell(BASE, "no-such-workload", 15, seed=1)
    with pytest.raises(CellExecutionError) as excinfo:
        ParallelRunner(jobs=1).run_cells([bad])
    assert excinfo.value.cell is bad


@needs_fork
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
    runner = ParallelRunner(jobs=2)

    def run():
        try:
            runner.run_cells([good, dying])
        except CellExecutionError as exc:
            raised.append(exc)

    with runner:
        thread = threading.Thread(target=run, daemon=True)
        thread.start()
        thread.join(timeout=120)
        assert not thread.is_alive(), "a dead worker hung the batch"
        (error,) = raised
        assert isinstance(error.cause, BrokenProcessPool)
        # The broken pool is gone; the next batch forks a new one.
        again = runner.run_cells(fig4_cells(seeds=(1,))[:2])
    assert serialized(again[:1]) == serialized(
        ParallelRunner(jobs=1).run_cells([good]))


def test_cache_serves_second_batch_without_executing(tmp_path, monkeypatch):
    cache = ResultCache(tmp_path)
    cells = fig4_cells(seeds=(1,))
    with ParallelRunner(jobs=2, cache=cache) as runner:
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
    with ParallelRunner(jobs=2, cache=cache) as runner:
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
    with Session(jobs=4, cache_dir=tmp_path) as session:
        parallel = session.run(spec)
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


#: The cache rule: ``(no_cache, cache_dir, REPRO_NO_CACHE,
#: REPRO_CACHE_DIR)`` -> where the cache lives (None: uncached).
#: "flag", "env" and "home" name the directories the test sets up.
CACHE_RULE = [
    (False, None, None, None, "home"),
    (False, None, None, "env", "env"),
    (False, None, "1", None, None),
    (False, None, "1", "env", None),
    (False, "flag", None, "env", "flag"),   # --cache-dir beats the env
    (False, "flag", "1", None, "flag"),     # ... and REPRO_NO_CACHE
    (True, None, None, "env", None),        # --no-cache wins
    (True, "flag", None, None, None),
]


def test_no_cache_env_disables_default_cache(monkeypatch, tmp_path):
    """Every row of the cache rule holds for a Session and for the
    scheduler ``make_server`` builds from the same keywords."""
    dirs = {"flag": tmp_path / "flag", "env": tmp_path / "env",
            "home": tmp_path / "home" / ".cache" / "repro"}
    monkeypatch.setenv("HOME", str(tmp_path / "home"))
    for no_cache, flag_dir, no_cache_env, dir_env, expected in CACHE_RULE:
        for name, value in (("REPRO_NO_CACHE", no_cache_env),
                            ("REPRO_CACHE_DIR", dir_env)):
            if value is None:
                monkeypatch.delenv(name, raising=False)
            else:
                monkeypatch.setenv(name, str(dirs.get(value, value)))
        kwargs = {"no_cache": no_cache,
                  "cache_dir": dirs[flag_dir] if flag_dir else None}
        server = make_server(port=0, **kwargs)
        server.server_close()
        server.scheduler.stop(timeout=10)
        for cache in (Session(**kwargs).cache, server.scheduler.cache):
            where = None if cache is None else pathlib.Path(cache.root)
            assert where == (dirs[expected] if expected else None), \
                (kwargs, no_cache_env, dir_env)


def test_jobs_must_be_positive():
    with pytest.raises(ValueError):
        ParallelRunner(jobs=0)


# ---------------------------------------------------------------------------
# One pool per runner
# ---------------------------------------------------------------------------

def test_batches_on_one_runner_share_its_workers():
    before = children()
    with ParallelRunner(jobs=2) as runner:
        runner.run_cells(fig4_cells(seeds=(1,))[:2])
        workers = children() - before
        runner.run_cells(fig4_cells(seeds=(2,))[:2])
        assert children() - before == workers
    assert len(workers) == 2
    assert not workers & children()


def test_a_failed_batch_leaves_the_runner_usable():
    good = fig4_cells(seeds=(1,))[:2]
    bad = make_cell(BASE, "microbench", 15, seed=1,
                    not_a_workload_kwarg=True)
    with ParallelRunner(jobs=2) as runner:
        with pytest.raises(CellExecutionError):
            runner.run_cells([good[0], bad])
        assert serialized(runner.run_cells(good)) == serialized(
            ParallelRunner(jobs=1).run_cells(good))


def test_a_single_missing_cell_runs_in_this_process():
    before = children()
    with ParallelRunner(jobs=2) as runner:
        runner.run_cells(fig4_cells(seeds=(1,))[:1])
        assert children() == before


def test_an_environment_change_reaches_the_next_batch(tmp_path,
                                                      monkeypatch):
    """``--timeline`` reaches workers only through ``REPRO_TIMELINE``,
    so setting it between batches must replace the pool."""
    cells = fig4_cells(seeds=(1,))[:2]
    traces = tmp_path / "traces"
    with ParallelRunner(jobs=2) as runner:
        runner.run_cells(cells)
        monkeypatch.setenv("REPRO_TIMELINE", str(traces))
        runner.run_cells(cells)
    assert len(list(traces.glob("*.json"))) == len(cells)


@needs_fork
def test_a_workload_registered_between_batches_runs_on_the_pool(
        monkeypatch):
    from repro.workloads import registry

    registry.workload_names()  # populate before copying the table
    monkeypatch.setattr(registry, "_REGISTRY", dict(registry._REGISTRY))
    microbench = registry.get_spec("microbench")
    with ParallelRunner(jobs=2) as runner:
        runner.run_cells(fig4_cells(seeds=(1,))[:2])
        registry.register_factory("microbench-again", microbench.factory,
                                  "the microbenchmark under a new name",
                                  microbench.kind)
        again = runner.run_cells([make_cell(BASE, "microbench-again", 15,
                                            seed) for seed in (1, 2)])
    direct = ParallelRunner(jobs=1).run_cells(
        [make_cell(BASE, "microbench", 15, seed) for seed in (1, 2)])
    assert [run.runtime_cycles for run in again] == \
        [run.runtime_cycles for run in direct]


def test_session_close_stops_the_workers_it_owns():
    spec = StudySpec(name="pool", base_config={"num_cores": 4},
                     workload="microbench", references_per_core=15,
                     seeds=(1, 2))
    before = children()
    with Session(jobs=2, no_cache=True) as session:
        session.run(spec)
        workers = children() - before
    assert len(workers) == 2
    assert not workers & children()
    # A runner passed in stays its owner's to close.
    with ParallelRunner(jobs=2) as runner:
        with Session(runner=runner) as session:
            session.run(spec)
        workers = children() - before
        assert len(workers) == 2
    assert not workers & children()


@needs_fork
def test_an_interrupted_pool_batch_keeps_the_cells_it_finished(
        tmp_path, monkeypatch):
    """A Ctrl-C while the pool batch waits on a slow cell stores the
    cells already finished, so a resume finds them in the cache."""
    import repro.exec.parallel as parallel
    from repro.workloads import registry

    microbench = registry.get_spec("microbench")

    def slow_microbench(num_cores, seed=1, **knobs):
        time.sleep(2)
        return microbench.factory(num_cores, seed=seed, **knobs)

    registry.workload_names()  # populate before adding to the table
    monkeypatch.setitem(registry._REGISTRY, "slow-microbench",
                        registry.WorkloadSpec("slow-microbench",
                                              slow_microbench,
                                              "sleeps, then microbench",
                                              "micro"))
    real_wait = parallel.wait

    def interrupted_wait(futures, return_when):
        real_wait(futures, return_when=FIRST_COMPLETED)
        raise KeyboardInterrupt

    monkeypatch.setattr(parallel, "wait", interrupted_wait)
    two_cores = SystemConfig(num_cores=2)
    fast = make_cell(two_cores, "microbench", 5, seed=1)
    slow = make_cell(two_cores, "slow-microbench", 5, seed=1)
    before = children()
    runner = ParallelRunner(jobs=2, cache=ResultCache(tmp_path))
    try:
        with pytest.raises(KeyboardInterrupt):
            runner.run_cells([slow, fast])
    finally:
        runner.close()
        workers = [child for child in multiprocessing.active_children()
                   if child.pid not in before]
        for worker in workers:
            worker.join(timeout=60)
    assert not any(worker.is_alive() for worker in workers)
    fresh = ResultCache(tmp_path)
    assert fresh.load(fast) is not None
    assert fresh.load(slow) is None
