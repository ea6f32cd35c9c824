"""Observability through the execution layer: wall times and phases,
cache flags, manifest timings, old-data compatibility, backend
bit-identity."""

import json

import pytest

from repro.api import AxisSpec, PointSpec, Session, StudySpec
from repro.config import SystemConfig
from repro.core.system import System
from repro.exec import (ParallelRunner, ResultCache, VOLATILE_FIELDS,
                        cache_key, comparable_result_dict, make_cell,
                        run_result_from_dict, run_result_to_dict)
from repro.exec.cells import cell_slug, execute_cell
from repro.exec.manifest import StudyManifest, spec_digest
from repro.service.wire import study_result_from_dict, study_result_to_dict
from repro.workloads.presets import make_workload

BASE = SystemConfig(num_cores=4)

#: Worker counts selecting each execution path (in-process, pool).
PATHS = {"serial": 1, "local": 2}

#: The phases every fresh cell times.
PHASES = {"build", "sim", "drain", "collect"}


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
# Wall time and phases: always on, volatile by contract
# ---------------------------------------------------------------------------

def test_execute_cell_records_wall_time_even_with_obs_off():
    result = execute_cell(make_cell(BASE, "microbench", 12, seed=1))
    assert result.wall_time_seconds > 0.0
    assert result.started_at > 0.0
    assert result.cached is False


@pytest.mark.parametrize("backend", list(PATHS))
def test_fresh_cells_record_every_phase(backend):
    """With no flag or environment variable, whichever process runs a
    cell times its build (``execute_cell``) and its sim, drain and
    collect (``System.run``)."""
    cells = [make_cell(BASE, "microbench", 12, seed) for seed in (1, 2)]
    with ParallelRunner(jobs=PATHS[backend]) as runner:
        results = runner.run_cells(cells)
    for result in results:
        assert set(result.phases) == PHASES
        assert all(seconds >= 0.0 for seconds in result.phases.values())


def test_system_run_times_the_drain_only_when_it_drains():
    def run(drain):
        workload = make_workload("microbench", num_cores=4, seed=1)
        return System(BASE, workload, 12).run(drain=drain)

    assert set(run(drain=True).phases) == {"sim", "drain", "collect"}
    assert set(run(drain=False).phases) == {"sim", "collect"}


def test_volatile_fields_roundtrip_but_never_compare():
    result = execute_cell(make_cell(BASE, "microbench", 12, seed=1))
    data = run_result_to_dict(result)
    for name in VOLATILE_FIELDS:
        assert name in data
    restored = run_result_from_dict(data)
    assert restored.wall_time_seconds == result.wall_time_seconds
    assert restored.started_at == result.started_at
    assert restored.phases == result.phases
    comparable = comparable_result_dict(result)
    assert not set(VOLATILE_FIELDS) & set(comparable)
    # The same run with no phases compares equal: they are stripped.
    result.phases = None
    assert comparable_result_dict(result) == comparable


def test_cache_hits_report_zero_wall_time_and_the_cached_flag(tmp_path):
    runner = ParallelRunner(jobs=1, cache=ResultCache(tmp_path))
    cell = make_cell(BASE, "microbench", 12, seed=1)
    (fresh,) = runner.run_cells([cell])
    assert fresh.cached is False and fresh.wall_time_seconds > 0.0
    assert set(fresh.phases) == PHASES
    (hit,) = runner.run_cells([cell])
    assert hit.cached is True
    assert hit.wall_time_seconds == 0.0
    assert hit.phases is None  # a hit did no work in this run
    # The simulation payload is untouched by the flagging.
    assert comparable_result_dict(hit) == comparable_result_dict(fresh)


# ---------------------------------------------------------------------------
# Manifest timing fields
# ---------------------------------------------------------------------------

def test_manifest_records_timings_and_phases():
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
    assert set(entry.phases) == PHASES

    cached = execute_cell(make_cell(
        BASE.with_updates(protocol="directory"), "microbench", 8, seed=2))
    cached.wall_time_seconds = 0.0
    manifest.record_result(1, cached, fresh=False)
    assert manifest.cells[1].cached is True
    assert manifest.cells[1].wall_time == 0.0
    assert manifest.cells[1].events_per_second is None
    assert manifest.cells[1].phases is None  # phases of fresh runs only

    # The additive fields survive the manifest's own JSON round-trip.
    restored = StudyManifest.from_json_dict(manifest.to_json_dict())
    assert restored.cells[0].phases == entry.phases
    assert restored.cells[0].wall_time == entry.wall_time
    assert restored.cells[1].cached is True


def test_a_resumed_study_keeps_no_phases_for_its_hits(tmp_path):
    spec = tiny_spec()
    with Session(jobs=1, cache_dir=tmp_path) as session:
        session.run(spec)
        assert all(set(cell.phases) == PHASES
                   for cell in session.status(spec).cells)
        session.run(spec, resume=True)
        cells = session.status(spec).cells
    assert all(cell.cached and cell.phases is None for cell in cells)


# ---------------------------------------------------------------------------
# Data written before phases existed still loads
# ---------------------------------------------------------------------------

OLD_TELEMETRY = {"counters": {}, "gauges": {},
                 "spans": {"sim": {"count": 1, "mean": 0.5}}}


def test_a_cache_entry_with_a_telemetry_key_loads(tmp_path):
    cell = make_cell(BASE, "microbench", 12, seed=1)
    fresh = execute_cell(cell)
    ResultCache(tmp_path).store(cell, fresh)
    (path,) = tmp_path.rglob(f"{cache_key(cell)}.json")
    entry = json.loads(path.read_text())
    del entry["result"]["phases"]
    entry["result"]["telemetry"] = OLD_TELEMETRY
    path.write_text(json.dumps(entry))
    loaded = ResultCache(tmp_path).load(cell)  # a fresh, cold cache
    assert loaded is not None
    assert loaded.phases is None
    assert not hasattr(loaded, "telemetry")
    assert comparable_result_dict(loaded) == comparable_result_dict(fresh)


def test_a_wire_payload_with_telemetry_keys_decodes():
    spec = tiny_spec()
    with Session(no_cache=True, jobs=1) as session:
        result = session.run(spec)
    payload = study_result_to_dict(result)
    payload["telemetry"] = {"cells": 4, "merged": OLD_TELEMETRY}
    for run in payload["runs"]:
        run["telemetry"] = OLD_TELEMETRY
    decoded = study_result_from_dict(payload)
    assert not hasattr(decoded, "telemetry")
    assert "telemetry" not in study_result_to_dict(decoded)
    assert [comparable_result_dict(run) for run in decoded.runs] == \
        [comparable_result_dict(run) for run in result.runs]


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
    monkeypatch.setenv("REPRO_TIMELINE", str(tmp_path / "traces"))
    monkeypatch.setenv("REPRO_PROFILE_DIR", str(tmp_path / "prof"))
    with ParallelRunner(jobs=PATHS[backend]) as runner:
        results = runner.run_cells(cells)
    assert [comparable_result_dict(r) for r in results] == bare
    # The phases rode back from whichever process ran the cell.
    assert all(set(r.phases) == PHASES for r in results)
    assert all(r.wall_time_seconds > 0.0 for r in results)
    # Whichever process ran a cell wrote its timeline and its profile.
    slugs = sorted(cell_slug(cell) for cell in cells)
    assert sorted(p.stem for p in (tmp_path / "traces").iterdir()
                  if p.suffix == ".json") == slugs
    assert sorted(p.stem for p in (tmp_path / "prof").iterdir()
                  if p.suffix == ".pstats") == slugs
