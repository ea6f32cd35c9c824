"""Session execution and StudyResult grouping/aggregation views."""

import pytest

from repro.api import (AxisSpec, PointSpec, Session, StudyResult,
                       StudySpec)
from repro.exec import ParallelRunner, ResultCache

VARIANTS = {"Directory": {"protocol": "directory"},
            "PATCH-All": {"protocol": "patch", "predictor": "all"}}


def tiny_spec(seeds=(1, 2)) -> StudySpec:
    return StudySpec(
        name="tiny",
        base_config={"num_cores": 4},
        references_per_core=8,
        seeds=seeds,
        axes=(AxisSpec("workload",
                       (PointSpec("microbench", workload="microbench"),
                        PointSpec("migratory", workload="migratory"))),
              AxisSpec("variant", tuple(
                  PointSpec(label, config=overrides)
                  for label, overrides in VARIANTS.items()))))


@pytest.fixture(scope="module")
def result() -> StudyResult:
    with Session(no_cache=True) as session:
        return session.run(tiny_spec())


def test_run_groups_runs_per_grid_point(result):
    assert result.keys == tiny_spec().keys()
    for key in result.keys:
        runs = result.runs_by_key[key]
        assert len(runs) == 2            # one per seed
        for run in runs:
            assert run.runtime_cycles > 0
    assert len(result.runs) == 8


def test_experiment_views_and_labels(result):
    experiment = result.experiment(("microbench", "Directory"))
    assert experiment.label == "microbench/Directory"
    assert experiment.runtime_ci.n == 2
    relabeled = result.experiment(("microbench", "Directory"),
                                  label="base")
    assert relabeled.label == "base"
    with pytest.raises(KeyError, match="no grid point"):
        result.experiment(("microbench", "Token Coherence"))


def test_experiments_enumerates_grid_in_order(result):
    experiments = result.experiments()
    assert list(experiments) == list(result.keys)
    cis = result.runtime_cis()
    for key, experiment in experiments.items():
        assert cis[key].mean == experiment.runtime_mean


def test_nested_default_follows_axis_order(result):
    nested = result.nested(label_fn=lambda key: key[1])
    assert set(nested) == {"microbench", "migratory"}
    assert set(nested["microbench"]) == set(VARIANTS)
    experiment = nested["migratory"]["PATCH-All"]
    assert experiment.label == "PATCH-All"
    assert experiment.runs == result.runs_by_key[("migratory",
                                                  "PATCH-All")]


def test_nested_reorder_and_key_maps(result):
    nested = result.nested(order=("variant", "workload"),
                           key_maps={"workload": {"microbench": 0,
                                                  "migratory": 1}})
    assert set(nested) == set(VARIANTS)
    assert set(nested["Directory"]) == {0, 1}
    with pytest.raises(ValueError, match="every axis"):
        result.nested(order=("variant",))


def test_group_pools_across_other_axes(result):
    by_variant = result.group("variant")
    assert set(by_variant) == set(VARIANTS)
    # 2 workloads x 2 seeds pooled per variant.
    assert len(by_variant["Directory"].runs) == 4
    with pytest.raises(ValueError, match="no axis"):
        result.group("topology")


def test_axisless_spec_runs_and_aggregates():
    spec = StudySpec(name="single", base_config={"num_cores": 4},
                     workload="microbench", references_per_core=8,
                     seeds=(1,))
    with Session(no_cache=True) as session:
        result = session.run(spec)
    assert result.keys == ((),)
    experiment = result.experiment()
    assert experiment.label == "single"
    assert experiment.runtime_ci.n == 1
    assert experiment.runtime_ci.half_width == 0.0
    with pytest.raises(ValueError, match="axis-less"):
        result.nested()


def test_session_cache_accounting(tmp_path):
    spec = tiny_spec(seeds=(1,))
    session = Session(runner=ParallelRunner(jobs=1,
                                            cache=ResultCache(tmp_path)))
    first = session.run(spec)
    assert first.cache_delta["misses"] == spec.num_cells()
    assert first.cache_delta["stores"] == spec.num_cells()
    assert first.cache_delta["hits"] == 0
    second = session.run(spec)
    assert second.cache_delta["hits"] == spec.num_cells()
    assert second.cache_delta["misses"] == 0
    # Cached results are identical to fresh ones.
    from repro.exec import comparable_result_dict
    for key in first.keys:
        assert ([comparable_result_dict(r) for r in first.runs_by_key[key]]
                == [comparable_result_dict(r)
                    for r in second.runs_by_key[key]])


def test_session_no_cache_reports_none():
    with Session(no_cache=True) as session:
        result = session.run(tiny_spec(seeds=(1,)))
    assert result.cache_delta is None


def test_session_rejects_runner_plus_knobs():
    with pytest.raises(ValueError, match="not both"):
        Session(runner=ParallelRunner(jobs=1), jobs=2)


def test_session_wraps_explicit_runner(tmp_path):
    runner = ParallelRunner(jobs=1, cache=ResultCache(tmp_path))
    session = Session(runner=runner)
    assert session.runner is runner
    assert session.cache is runner.cache
    assert session.jobs == 1


def test_session_run_validates_by_default():
    bad = StudySpec(name="bad", workload="nope", references_per_core=5)
    with Session(no_cache=True) as session, \
            pytest.raises(Exception, match="unknown workload"):
        session.run(bad)
