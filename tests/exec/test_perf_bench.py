"""Simulation-throughput microbench (`repro bench --perf`) smoke tests.

Tiny scales only: these pin the report *shape*, the golden-gate logic,
and the determinism of the measured cells — not absolute speed.
"""

import json

from repro.bench import (PERF_CHECKED_FIELDS, check_perf_goldens,
                         engine_perf_cell, kernel_events_per_second,
                         run_perf)
from repro.sim.kernel import Simulator


def test_kernel_microbench_dispatches_all_events():
    rate = kernel_events_per_second(pending=32, events=2_000, repeats=1)
    assert rate > 0


def test_kernel_obs_overhead_is_a_small_fraction():
    """Shape check only (CI owns the 3% budget on real hardware):
    both loops dispatch the same workload, so the ratio is near 1."""
    from repro.bench import kernel_obs_overhead
    overhead = kernel_obs_overhead(pending=32, events=2_000, repeats=2)
    assert -0.9 < overhead < 0.9


def test_kernel_microbench_is_deterministic_in_event_count():
    counts = []
    for _ in range(2):
        sim = Simulator()
        remaining = [500]

        def tick():
            if remaining[0] > 0:
                remaining[0] -= 1
                sim.post(3, tick)

        for chain in range(8):
            sim.post(chain, tick)
        sim.run()
        counts.append(sim.events_processed)
    assert counts[0] == counts[1]


def test_engine_perf_cell_shape_and_determinism():
    a = engine_perf_cell("patch", "all", num_cores=4,
                         references_per_core=20)
    b = engine_perf_cell("patch", "all", num_cores=4,
                         references_per_core=20)
    for field in ("wall_seconds", "runtime_cycles",
                  "events_processed", "events_per_second",
                  "cycles_per_second", "traffic_total_bytes",
                  "dropped_direct_requests"):
        assert field in a
    assert a["wall_seconds"] > 0
    # Timing varies; simulation results may not.
    for field in PERF_CHECKED_FIELDS + ("events_processed",):
        assert a[field] == b[field]


def _perf_report(runtime_cycles=100):
    return {
        "scale": "quick",
        "kernel_events_per_second": 2.0,
        "cells": {"PATCH-All": {
            "protocol": "patch", "predictor": "all",
            "num_cores": 4, "references_per_core": 20,
            "wall_seconds": 0.5,
            "events_per_second": 2.0,
            "cycles_per_second": 2.0,
            "events_processed": 7,
            "runtime_cycles": runtime_cycles,
            "traffic_total_bytes": 5,
            "dropped_direct_requests": 0,
        }},
    }


def _golden_payload(runtime_cycles=100):
    return {"quick": {"PATCH-All": {"runtime_cycles": runtime_cycles,
                                    "traffic_total_bytes": 5,
                                    "dropped_direct_requests": 0}}}


def test_check_perf_goldens_flags_drift(tmp_path):
    perf = _perf_report(runtime_cycles=100)
    goldens = tmp_path / "perf_cycles.json"
    goldens.write_text(json.dumps(_golden_payload(runtime_cycles=101)))
    problems = check_perf_goldens(perf, str(goldens))
    assert len(problems) == 1
    assert "runtime_cycles" in problems[0]
    # Matching goldens -> clean.
    goldens.write_text(json.dumps(_golden_payload(runtime_cycles=100)))
    assert check_perf_goldens(perf, str(goldens)) == []


def test_check_perf_goldens_flags_missing_cell(tmp_path):
    perf = _perf_report()
    payload = _golden_payload()
    del payload["quick"]["PATCH-All"]
    goldens = tmp_path / "perf_cycles.json"
    goldens.write_text(json.dumps(payload))
    problems = check_perf_goldens(perf, str(goldens))
    assert problems == ["quick/PATCH-All: no committed golden"]


def test_check_perf_goldens_missing_file_reports():
    problems = check_perf_goldens({"scale": "quick", "cells": {}},
                                  "/nonexistent/perf_cycles.json")
    assert problems and "missing" in problems[0]


def test_run_perf_merges_into_existing_report(tmp_path, monkeypatch):
    import repro.bench as bench_mod

    monkeypatch.setattr(bench_mod, "engine_perf_results",
                        lambda quick=False: _perf_report())
    out = tmp_path / "bench_results.json"
    out.write_text(json.dumps({"schema": 1, "headline": {"ok": True}}))
    code = run_perf(quick=True, out_path=str(out), check=False,
                    echo=lambda *a, **k: None)
    assert code == 0
    report = json.loads(out.read_text())
    assert report["headline"] == {"ok": True}      # figure suite preserved
    assert report["engine_perf"] == _perf_report()


def test_run_perf_check_fails_on_drift(tmp_path, monkeypatch):
    import repro.bench as bench_mod

    monkeypatch.setattr(bench_mod, "engine_perf_results",
                        lambda quick=False: _perf_report(runtime_cycles=2))
    goldens = tmp_path / "goldens.json"
    goldens.write_text(json.dumps(_golden_payload(runtime_cycles=1)))
    code = run_perf(quick=True, out_path=str(tmp_path / "out.json"),
                    check=True, goldens_path=str(goldens),
                    echo=lambda *a, **k: None)
    assert code == 1


def test_check_perf_goldens_reports_missing_field_as_drift(tmp_path):
    perf = _perf_report()
    payload = _golden_payload()
    del payload["quick"]["PATCH-All"]["traffic_total_bytes"]
    goldens = tmp_path / "perf_cycles.json"
    goldens.write_text(json.dumps(payload))
    problems = check_perf_goldens(perf, str(goldens))
    assert any("traffic_total_bytes" in p for p in problems)
