"""`repro bench` driver: tables, timings report, and headline check."""

import json
import os

import pytest

from repro.bench import (BenchScale, FULL_SCALE, QUICK_SCALE,
                         ablation_specs, bandwidth_spec, encoding_spec,
                         fig4_spec, headline_check, run_bench,
                         scalability_spec, scenario_spec)
from repro.exec import ParallelRunner, ResultCache
from repro.exec.manifest import spec_digest

#: A miniature scale so the whole suite runs in seconds.
TINY_SCALE = BenchScale(
    name="tiny",
    fig4_workloads=("microbench",),
    fig4_cores=4, fig4_refs=15, fig4_seeds=(1,),
    bw_cores=4, bw_refs=10, bw_seeds=(1,),
    bw_points=(0.3, 8.0),
    scale_cores=(4, 8),
    scale_refs={4: 15, 8: 8},
    enc_core_counts=(4,),
    enc_refs={4: 10},
    enc_table_blocks={4: 24},
    scenario_workloads=("migratory", "false-sharing"),
    scenario_topologies=("torus", "mesh"),
    scenario_cores=4, scenario_refs=10, scenario_seeds=(1,),
    trace_workloads=("microbench",), trace_cores=4, trace_refs=10,
)

EXPECTED_TABLES = (
    "fig4_runtime", "fig5_traffic", "fig6_bandwidth_ocean",
    "fig7_bandwidth_jbb", "fig8_scalability", "fig9_inexact_runtime",
    "fig10_inexact_traffic", "scenario_matrix", "trace_replay",
    "ablation_tenure_timeout", "ablation_drop_age",
    "ablation_deactivation_window", "ablation_migratory",
    "ablation_bash_vs_best_effort", "table2_state_mapping",
    "table4_forward_progress",
)


def test_run_bench_writes_tables_and_report(tmp_path):
    results_dir = tmp_path / "results"
    out = tmp_path / "bench_results.json"
    cache = ResultCache(tmp_path / "cache")
    code = run_bench(runner=ParallelRunner(jobs=1, cache=cache),
                     results_dir=str(results_dir), out_path=str(out),
                     scale=TINY_SCALE, echo=lambda *a, **k: None)
    assert code == 0
    assert sorted(path.stem for path in results_dir.iterdir()) == \
        sorted(EXPECTED_TABLES)
    for name in EXPECTED_TABLES:
        assert (results_dir / f"{name}.txt").read_text().strip(), name

    report = json.loads(out.read_text())
    assert report["schema"] == 2
    assert report["scale"] == "tiny"
    assert report["jobs"] == 1
    assert set(report["timings_seconds"]) == set(EXPECTED_TABLES)
    assert [os.path.basename(path) for path in report["tables"]] == \
        [f"{name}.txt" for name in EXPECTED_TABLES]
    assert report["total_seconds"] > 0
    assert report["cache"]["stores"] == report["cache"]["misses"] > 0
    assert report["headline"]["patch_all_geomean"] > 0
    assert isinstance(report["headline"]["ok"], bool)
    # Satellite: cache effectiveness is visible per figure.
    assert set(report["cache_per_figure"]) == set(report["timings_seconds"])
    summed = {key: sum(per[key] for per in
                       report["cache_per_figure"].values())
              for key in ("hits", "misses", "stores")}
    assert summed["misses"] == report["cache"]["misses"]
    assert summed["hits"] == report["cache"]["hits"]
    # Trace replay ran and matched its live runs bit-for-bit.
    assert report["trace_replay"]["identical"] is True
    assert report["trace_replay"]["workloads"]


def test_run_bench_warm_cache_skips_simulation(tmp_path):
    kwargs = dict(results_dir=str(tmp_path / "results"),
                  scale=TINY_SCALE, echo=lambda *a, **k: None)
    cache = ResultCache(tmp_path / "cache")
    run_bench(runner=ParallelRunner(jobs=1, cache=cache),
              out_path=str(tmp_path / "cold.json"), **kwargs)
    cold = json.loads((tmp_path / "cold.json").read_text())

    warm_cache = ResultCache(tmp_path / "cache")
    run_bench(runner=ParallelRunner(jobs=1, cache=warm_cache),
              out_path=str(tmp_path / "warm.json"), **kwargs)
    warm = json.loads((tmp_path / "warm.json").read_text())

    # Grids share cells (the default PATCH-All cell is in several
    # ablations), so a cold run already hits its own fresh results: a
    # warm run hits every cell the cold one looked up.
    assert warm["cache"]["misses"] == 0
    assert warm["cache"]["hits"] == (cold["cache"]["hits"]
                                     + cold["cache"]["misses"])
    assert cold["cache"]["hits"] > 0
    # Identical tables either way.
    for name in EXPECTED_TABLES:
        path = tmp_path / "results" / f"{name}.txt"
        assert path.exists(), name


def test_headline_check_verdicts():
    good = headline_check({"PATCH-All": 0.93, "Token Coherence": 0.87})
    assert good["ok"] and good["beats_directory"]
    slow = headline_check({"PATCH-All": 1.01, "Token Coherence": 0.87})
    assert not slow["ok"] and not slow["beats_directory"]
    far = headline_check({"PATCH-All": 0.99, "Token Coherence": 0.80})
    assert not far["ok"]
    assert far["beats_directory"]
    assert not far["within_noise_of_token_coherence"]


def test_check_flag_propagates_regression(tmp_path, monkeypatch):
    import repro.bench as bench_mod
    monkeypatch.setattr(
        bench_mod, "headline_check",
        lambda geo, tolerance=0.1: {"ok": False,
                                    "patch_all_geomean": 1.0,
                                    "token_coherence_geomean": 1.0,
                                    "tolerance": tolerance})
    code = run_bench(runner=ParallelRunner(jobs=1),
                     results_dir=str(tmp_path / "results"),
                     out_path=str(tmp_path / "bench.json"),
                     scale=TINY_SCALE, check=True,
                     echo=lambda *a, **k: None)
    assert code == 1


def test_scales_are_consistent():
    for scale in (FULL_SCALE, QUICK_SCALE, TINY_SCALE):
        for cores in scale.scale_cores:
            assert cores in scale.scale_refs, (scale.name, cores)
        for cores in scale.enc_core_counts:
            assert cores in scale.enc_refs, (scale.name, cores)
            assert cores in scale.enc_table_blocks, (scale.name, cores)


#: ``spec_digest`` of every figure grid at both committed scales.  The
#: digest covers the grid's name and description too and keys the
#: study's recorded manifest, so changing a grid must be deliberate:
#: update this table in the same change.
GRID_DIGESTS = {
    "fig4-grid-full": "963dbe8e04ead956",
    "bandwidth-ocean-full": "0e3d007345feddfa",
    "bandwidth-jbb-full": "224903f7dbb2f65b",
    "scalability-full": "75f65ccfe26613b4",
    "scenario-matrix-full": "d7818ad0b2643084",
    "coarseness-64p-unbounded-full": "e7fc234fdb44734d",
    "coarseness-64p-bounded-full": "19e1c039ed7413b4",
    "coarseness-128p-unbounded-full": "4a7d662ae284b930",
    "coarseness-128p-bounded-full": "599a1f1cf07c3765",
    "coarseness-256p-unbounded-full": "efee61f5b52e1a72",
    "coarseness-256p-bounded-full": "5b03eaa22fecab32",
    "ablation-tenure-timeout-full": "e1f6be5a25e46335",
    "ablation-drop-age-full": "5c6df993c705e495",
    "ablation-deactivation-window-full": "92ef54a2e498be0a",
    "ablation-migratory-full": "65b3c1343b2740f9",
    "ablation-bash-vs-best-effort-full": "52ac8d098704403c",
    "fig4-grid-quick": "a5bb55734e83b291",
    "bandwidth-ocean-quick": "5d39be6662200e33",
    "bandwidth-jbb-quick": "dfd9365ecaba67d3",
    "scalability-quick": "34a65e21b0ced5ac",
    "scenario-matrix-quick": "d1ec1f0aff444088",
    "coarseness-16p-unbounded-quick": "9a4a4c9eab01ae73",
    "coarseness-16p-bounded-quick": "500c83087cb41fb7",
    "coarseness-32p-unbounded-quick": "3c86f21b92b4a0cd",
    "coarseness-32p-bounded-quick": "f67ad38678af0932",
    "ablation-tenure-timeout-quick": "22c2fa65e9f3c937",
    "ablation-drop-age-quick": "b090f9bff8b911db",
    "ablation-deactivation-window-quick": "ed94e718611787b4",
    "ablation-migratory-quick": "5d7499780054d4c4",
    "ablation-bash-vs-best-effort-quick": "1be2fe0ae3495afb",
}


def test_figure_grid_digests_are_pinned():
    """Every grid ``run_bench`` builds, at both scales (no simulation)."""
    digests = {}
    for scale in (FULL_SCALE, QUICK_SCALE):
        specs = [fig4_spec(scale), bandwidth_spec("ocean", scale),
                 bandwidth_spec("jbb", scale), scalability_spec(scale),
                 scenario_spec(scale)]
        specs += [encoding_spec(cores, bounded, scale)
                  for cores in scale.enc_core_counts
                  for bounded in (False, True)]
        specs += ablation_specs(scale).values()
        digests.update((spec.name, spec_digest(spec)) for spec in specs)
    assert digests == GRID_DIGESTS
