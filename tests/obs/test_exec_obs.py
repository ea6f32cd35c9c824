"""Observability through the execution layer: wall times, cache flags,
manifest timings, study-level aggregation, backend bit-identity."""

import pytest

from repro.api import AxisSpec, PointSpec, Session, StudySpec
from repro.config import SystemConfig
from repro.exec import (ParallelRunner, ResultCache, VOLATILE_FIELDS,
                        comparable_result_dict, make_cell,
                        run_result_from_dict, run_result_to_dict)
from repro.exec.cells import cell_slug, execute_cell
from repro.exec.manifest import StudyManifest, spec_digest

BASE = SystemConfig(num_cores=4)

#: Worker counts selecting each execution path (in-process, pool).
PATHS = {"serial": 1, "local": 2}


def tiny_spec() -> StudySpec:
    return StudySpec(
        name="obs-tiny",
        base_config={"num_cores": 4},
        workload="microbench",
        references_per_core=8,
        seeds=(1, 2),
        axes=(AxisSpec("variant",
                       (PointSpec("Directory",
                                  config={"protocol": "directory"}),
                        PointSpec("PATCH-All",
                                  config={"protocol": "patch",
                                          "predictor": "all"}))),))


# ---------------------------------------------------------------------------
# Wall time: always on, volatile by contract
# ---------------------------------------------------------------------------

def test_execute_cell_records_wall_time_even_with_obs_off(monkeypatch):
    monkeypatch.delenv("REPRO_OBS", raising=False)
    result = execute_cell(make_cell(BASE, "microbench", 12, seed=1))
    assert result.wall_time_seconds > 0.0
    assert result.started_at > 0.0
    assert result.cached is False
    assert result.telemetry is None  # obs off: no snapshot


def test_execute_cell_snapshot_carries_phases_under_obs(monkeypatch):
    monkeypatch.setenv("REPRO_OBS", "1")
    result = execute_cell(make_cell(BASE, "microbench", 12, seed=1))
    snap = result.telemetry
    assert snap is not None
    # The build phase is timed by execute_cell; sim/drain/collect by
    # System.run.
    assert {"build", "sim", "drain", "collect"} <= set(snap["spans"])


def test_volatile_fields_roundtrip_but_never_compare():
    result = execute_cell(make_cell(BASE, "microbench", 12, seed=1))
    data = run_result_to_dict(result)
    for name in VOLATILE_FIELDS:
        assert name in data
    restored = run_result_from_dict(data)
    assert restored.wall_time_seconds == result.wall_time_seconds
    assert restored.started_at == result.started_at
    comparable = comparable_result_dict(result)
    assert not set(VOLATILE_FIELDS) & set(comparable)


def test_cache_hits_report_zero_wall_time_and_the_cached_flag(tmp_path):
    runner = ParallelRunner(jobs=1, cache=ResultCache(tmp_path))
    cell = make_cell(BASE, "microbench", 12, seed=1)
    (fresh,) = runner.run_cells([cell])
    assert fresh.cached is False and fresh.wall_time_seconds > 0.0
    (hit,) = runner.run_cells([cell])
    assert hit.cached is True
    assert hit.wall_time_seconds == 0.0
    # The simulation payload is untouched by the flagging.
    assert comparable_result_dict(hit) == comparable_result_dict(fresh)


# ---------------------------------------------------------------------------
# Manifest timing fields
# ---------------------------------------------------------------------------

def test_manifest_records_timings_and_phases(monkeypatch):
    monkeypatch.setenv("REPRO_OBS", "1")
    spec = tiny_spec()
    manifest = StudyManifest.fresh(spec, code_version="test")
    assert manifest.digest == spec_digest(spec)
    fresh = execute_cell(make_cell(
        BASE.with_updates(protocol="directory"), "microbench", 8, seed=1))
    manifest.record_result(0, fresh, fresh=True)
    entry = manifest.cells[0]
    assert entry.state == "done"
    assert entry.cached is False
    assert entry.wall_time == fresh.wall_time_seconds
    assert entry.events_per_second > 0
    assert entry.phases and "sim" in entry.phases

    cached = execute_cell(make_cell(
        BASE.with_updates(protocol="directory"), "microbench", 8, seed=2))
    cached.wall_time_seconds = 0.0
    manifest.record_result(1, cached, fresh=False)
    assert manifest.cells[1].cached is True
    assert manifest.cells[1].wall_time == 0.0
    assert manifest.cells[1].events_per_second is None

    # The additive fields survive the manifest's own JSON round-trip.
    restored = StudyManifest.from_json_dict(manifest.to_json_dict())
    assert restored.cells[0].phases == entry.phases
    assert restored.cells[0].wall_time == entry.wall_time
    assert restored.cells[1].cached is True


# ---------------------------------------------------------------------------
# Study-level aggregation
# ---------------------------------------------------------------------------

def test_session_merges_cell_snapshots_into_study_telemetry(monkeypatch):
    monkeypatch.setenv("REPRO_OBS", "1")
    result = Session(no_cache=True, jobs=1).run(tiny_spec())
    block = result.telemetry
    assert block is not None
    assert block["cells"] == len(result.runs) == 4
    merged = block["merged"]
    assert merged["spans"]["sim"]["count"] == 4  # one per cell
    assert "session" in block  # the session-side registry rode along


def test_obs_off_leaves_study_telemetry_cells_empty(monkeypatch):
    monkeypatch.delenv("REPRO_OBS", raising=False)
    result = Session(no_cache=True, jobs=1).run(tiny_spec())
    # The session-side registry is NULL too, so the whole block is None.
    assert result.telemetry is None


# ---------------------------------------------------------------------------
# Bit-identity on both execution paths with everything on
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("backend", list(PATHS))
def test_backends_stay_bit_identical_under_full_instrumentation(
        tmp_path, monkeypatch, backend):
    cells = [make_cell(BASE.with_updates(**overrides), "microbench", 10,
                       seed)
             for overrides in ({"protocol": "directory"},
                               {"protocol": "patch", "predictor": "all"})
             for seed in (1, 2)]
    bare = [comparable_result_dict(r)
            for r in ParallelRunner(jobs=1).run_cells(cells)]
    monkeypatch.setenv("REPRO_OBS", "1")
    monkeypatch.setenv("REPRO_TIMELINE", str(tmp_path / "traces"))
    monkeypatch.setenv("REPRO_PROFILE_DIR", str(tmp_path / "prof"))
    runner = ParallelRunner(jobs=PATHS[backend])
    results = runner.run_cells(cells)
    assert [comparable_result_dict(r) for r in results] == bare
    # The snapshot rode back from whichever process ran the cell.
    assert all(r.telemetry is not None for r in results)
    assert all(r.wall_time_seconds > 0.0 for r in results)
    # Whichever process ran a cell wrote its timeline and its profile.
    slugs = sorted(cell_slug(cell) for cell in cells)
    assert sorted(p.stem for p in (tmp_path / "traces").iterdir()
                  if p.suffix == ".json") == slugs
    assert sorted(p.stem for p in (tmp_path / "prof").iterdir()
                  if p.suffix == ".pstats") == slugs
