"""Experiment runner and the bench suite's figure-grid bundles."""

from dataclasses import replace

import pytest

from repro.api import Session
from repro.bench import (FULL_SCALE, bandwidth_results, coarseness_points,
                         encoding_results, fig4_spec, scalability_results)
from repro.config import SystemConfig
from repro.core.runner import (ADAPTIVITY_CONFIGS, PAPER_CONFIGS,
                               ExperimentResult, normalized_runtimes,
                               normalized_traffic, run_experiment)

SMALL = SystemConfig(num_cores=4)


def _fig4_group(workload, refs):
    """One Figure-4 group (all six paper configs) at a tiny scale."""
    scale = replace(FULL_SCALE, fig4_workloads=(workload,), fig4_cores=4,
                    fig4_refs=refs, fig4_seeds=(1,))
    with Session() as session:
        return session.run(fig4_spec(scale)).nested()[workload]


def test_run_experiment_aggregates_seeds():
    experiment = run_experiment(SMALL, "microbench", references_per_core=25,
                                seeds=(1, 2, 3))
    assert len(experiment.runs) == 3
    ci = experiment.runtime_ci
    assert ci.n == 3
    assert ci.mean > 0


def test_compare_configs_runs_all_variants():
    results = _fig4_group("microbench", refs=25)
    assert list(results) == list(PAPER_CONFIGS)
    normalized = normalized_runtimes(results)
    assert normalized["Directory"] == pytest.approx(1.0)
    assert normalized["PATCH-All"] > 0


def test_normalized_traffic_baseline_sums_to_one():
    traffic = normalized_traffic(_fig4_group("oltp", refs=40))
    assert sum(traffic["Directory"].values()) == pytest.approx(1.0)


def test_coarseness_points_cover_range():
    assert coarseness_points(64) == [1, 4, 16, 64]
    assert coarseness_points(256) == [1, 4, 16, 64, 256]
    assert coarseness_points(8) == [1, 4, 8]


def test_bandwidth_sweep_structure():
    scale = replace(FULL_SCALE, bw_cores=4, bw_refs=15,
                    bw_points=(2.0, 16.0), bw_seeds=(1,))
    sweep = bandwidth_results("microbench", scale)
    assert list(sweep) == [2.0, 16.0]  # float keys, in axis order
    for row in sweep.values():
        assert list(row) == list(ADAPTIVITY_CONFIGS)
        for experiment in row.values():
            assert experiment.runtime_mean > 0


def test_scalability_sweep_scales_refs():
    scale = replace(FULL_SCALE, scale_cores=(4, 8),
                    scale_refs={4: 20, 8: 10})
    sweep = scalability_results(scale)
    assert list(sweep) == [4, 8]
    assert sweep[4]["Directory"].runs[0].total_references == 4 * 20
    assert sweep[8]["Directory"].runs[0].total_references == 8 * 10


def test_encoding_sweep_compares_directory_and_patch():
    scale = replace(FULL_SCALE, enc_refs={8: 15},
                    enc_table_blocks={8: 48})
    sweep = encoding_results(8, False, scale)
    assert list(sweep) == ["Directory", "PATCH"]
    assert list(sweep["Directory"]) == [1, 4, 8]
    for per_label in sweep.values():
        for experiment in per_label.values():
            assert experiment.runtime_mean > 0


def test_adaptivity_configs_named_like_paper():
    assert set(ADAPTIVITY_CONFIGS) == {"Directory", "PATCH-All-NA",
                                       "PATCH-All"}
    assert ADAPTIVITY_CONFIGS["PATCH-All-NA"]["best_effort_direct"] is False


def test_experiment_result_traffic_means():
    experiment = run_experiment(SMALL, "microbench", references_per_core=20,
                                seeds=(1, 2))
    per_miss = experiment.traffic_per_miss_mean()
    assert per_miss["Data"] > 0
    assert experiment.bytes_per_miss_mean > 0


# ---------------------------------------------------------------------------
# ExperimentResult aggregation edge cases
# ---------------------------------------------------------------------------

def _zero_miss_run():
    """A fabricated run in which every reference hit."""
    from repro.core.results import RunResult
    from repro.stats.counters import RunningStat
    return RunResult(config_summary="synthetic", runtime_cycles=1000,
                     total_references=64, hits=64, misses=0,
                     read_misses=0, write_misses=0, traffic_bytes={},
                     traffic_bytes_raw={}, dropped_direct_requests=0,
                     miss_latency=RunningStat(), link_utilization=0.0,
                     cache_stats={}, home_stats={}, events_processed=64)


def test_single_seed_run_degenerate_t_interval():
    """n=1: the t-interval collapses to a zero-width CI, not an error."""
    experiment = run_experiment(SMALL, "microbench",
                                references_per_core=15, seeds=(1,))
    ci = experiment.runtime_ci
    assert ci.n == 1
    assert ci.half_width == 0.0
    assert ci.low == ci.high == ci.mean == experiment.runtime_mean
    assert ci.mean == experiment.runs[0].runtime_cycles


def test_zero_miss_runs_aggregate_to_zero_not_nan():
    """misses=0: per-miss means must be 0.0, never a ZeroDivisionError."""
    experiment = ExperimentResult("all-hits",
                                  [_zero_miss_run(), _zero_miss_run()])
    assert experiment.bytes_per_miss_mean == 0.0
    per_miss = experiment.traffic_per_miss_mean()
    assert per_miss  # the Figure-5 groups are all present...
    assert set(per_miss.values()) == {0.0}  # ...and all zero


def test_mixed_zero_and_nonzero_miss_runs_average():
    """A zero-miss seed among normal seeds averages in as zero."""
    live = run_experiment(SMALL, "microbench", references_per_core=15,
                          seeds=(1,)).runs[0]
    assert live.misses > 0
    experiment = ExperimentResult("mixed", [live, _zero_miss_run()])
    assert experiment.bytes_per_miss_mean == pytest.approx(
        live.bytes_per_miss / 2)
    assert experiment.traffic_per_miss_mean()["Data"] == pytest.approx(
        live.traffic_per_miss()["Data"] / 2)
