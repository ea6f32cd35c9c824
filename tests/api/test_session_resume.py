"""Resumable studies: manifests, chunked advance, failure retry."""

import pytest

import repro.exec.parallel as parallel
from repro.api import Session, StudySpec
from repro.exec import CellExecutionError, ParallelRunner, ResultCache


def tiny_spec(**extra):
    data = {
        "spec_schema": 2, "name": "resume-check",
        "base_config": {"num_cores": 4},
        "workload": "microbench", "references_per_core": 8,
        "seeds": [1, 2],
        "axes": [{"name": "variant", "points": [
            {"label": "dir",
             "config": {"protocol": "directory", "predictor": "none"}},
            {"label": "patch",
             "config": {"protocol": "patch", "predictor": "all"}}]}],
    }
    data.update(extra)
    return StudySpec.from_json_dict(data)


@pytest.fixture
def executed(monkeypatch):
    """Grid indices (in ``tiny_spec().cells()`` order) of every cell
    that really simulates.  The counting wrapper sees only in-process
    execution, so the sessions it observes run at ``jobs=1``."""
    cells = tiny_spec().cells()
    indices = []
    original = parallel.execute_cell_payload

    def counting(cell):
        indices.append(cells.index(cell))
        return original(cell)

    monkeypatch.setattr(parallel, "execute_cell_payload", counting)
    return indices


def counting_session(tmp_path):
    """A cached ``jobs=1`` session, so ``executed`` sees every cell."""
    return Session(runner=ParallelRunner(jobs=1,
                                         cache=ResultCache(tmp_path)))


# ---------------------------------------------------------------------------
# Resume and chunked advance
# ---------------------------------------------------------------------------

def test_resume_executes_only_missing_cells(tmp_path, executed):
    spec = tiny_spec()
    manifest = counting_session(tmp_path).advance(spec, limit=2)
    assert executed == [0, 1]
    assert manifest.counts() == {"done": 2, "pending": 2, "failed": 0}

    executed.clear()
    second = counting_session(tmp_path)
    result = second.run(spec, resume=True)
    # Only the two missing cells simulated; the rest came from cache.
    assert len(executed) == 2
    assert set(executed).isdisjoint({0, 1})
    assert result.cache_delta["hits"] == 2
    assert result.cache_delta["misses"] == 2
    assert second.status(spec).complete


def test_advance_one_cell_at_a_time_until_complete(tmp_path, executed):
    spec = tiny_spec()
    session = counting_session(tmp_path)
    steps = 0
    while True:
        steps += 1
        manifest = session.advance(spec, limit=1)
        assert manifest.counts()["done"] == min(steps, spec.num_cells())
        if manifest.complete:
            break
    assert steps == spec.num_cells()
    assert len(executed) == spec.num_cells()
    assert sorted(executed) == list(range(spec.num_cells()))


def test_plain_run_after_partial_still_reuses_cache(tmp_path, executed):
    """Without --resume the manifest restarts, but results never re-run:
    the content-addressed cache, not the manifest, stores the work."""
    spec = tiny_spec()
    Session(jobs=1, cache_dir=tmp_path).advance(spec, limit=1)
    executed.clear()
    session = counting_session(tmp_path)
    result = session.run(spec)  # resume=False
    assert result.cache_delta["hits"] == 1
    assert len(executed) == spec.num_cells() - 1
    assert session.status(spec).complete


def test_status_reports_progress_without_running(tmp_path, executed):
    spec = tiny_spec()
    session = Session(jobs=1, cache_dir=tmp_path)
    assert session.status(spec) is None  # never recorded
    session.advance(spec, limit=3)
    executed.clear()
    manifest = counting_session(tmp_path).status(spec)
    assert manifest.summary() == "3 done, 1 pending, 0 failed of 4 cells"
    assert executed == []  # status never executes


def test_status_and_advance_require_a_cache():
    spec = tiny_spec()
    session = Session(no_cache=True)
    with pytest.raises(ValueError, match="cache"):
        session.status(spec)
    with pytest.raises(ValueError, match="cache"):
        session.advance(spec, limit=1)


def test_uncached_run_still_works_without_manifest():
    spec = tiny_spec(seeds=[1])
    result = Session(no_cache=True, jobs=1).run(spec)
    assert result.cache_delta is None
    assert len(result.runs) == spec.num_cells()


# ---------------------------------------------------------------------------
# Worker count
# ---------------------------------------------------------------------------

def test_resume_across_executors_shares_progress(tmp_path):
    """A study advanced in-process (jobs=1) resumes on a pool (jobs=2)."""
    spec = tiny_spec()
    Session(jobs=1, cache_dir=tmp_path).advance(spec, limit=2)
    session = Session(jobs=2, cache_dir=tmp_path)
    manifest = session.status(spec)
    assert manifest.counts()["done"] == 2
    result = session.run(spec, resume=True)
    assert result.jobs == 2
    assert result.cache_delta["hits"] == 2
    assert result.cache_delta["misses"] == 2


# ---------------------------------------------------------------------------
# Failure recording and retry
# ---------------------------------------------------------------------------

def failing_spec(trace_path):
    """One good point and one trace point whose file may not exist."""
    return StudySpec.from_json_dict({
        "spec_schema": 2, "name": "resume-failure",
        "base_config": {"num_cores": 4},
        "workload": "microbench", "references_per_core": 8,
        "seeds": [1],
        "axes": [{"name": "variant", "points": [
            {"label": "good", "config": {"protocol": "directory",
                                         "predictor": "none"}},
            {"label": "traced", "config": {"protocol": "patch"},
             "workload": "trace",
             "workload_kwargs": {"path": str(trace_path)}}]}],
    })


def test_failed_cell_is_recorded_and_resume_retries_it(tmp_path):
    trace_path = tmp_path / "missing.rpt"
    spec = failing_spec(trace_path)
    session = Session(jobs=1, cache_dir=tmp_path / "cache")
    with pytest.raises(CellExecutionError):
        session.run(spec)

    manifest = session.status(spec)
    assert manifest.summary() == "1 done, 0 pending, 1 failed of 2 cells"
    (failed,) = manifest.failed_cells()
    assert failed.key == ("traced",)
    assert failed.error

    # Supply the missing trace and resume: only the failed cell runs.
    from repro.traces import record_trace, save_trace
    save_trace(record_trace("microbench", num_cores=4,
                            references_per_core=8, seed=1), trace_path)
    result = session.run(spec, resume=True)
    assert session.status(spec).complete
    assert result.cache_delta["hits"] == 1  # the good cell, from cache
