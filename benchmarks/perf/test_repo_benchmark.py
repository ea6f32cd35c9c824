"""Fast checks of the repository benchmark's own logic.

They run no timed phase: the percentile rule, the output check, the
layer map, the seeded inputs, and the printed metric names and units
against ``BENCHMARK.json``.
"""

import dataclasses
import json
from collections import Counter
from pathlib import Path

import pytest

import run
from perf_core import (END_TO_END, PER_LAYER, CheckFailed, OutputCheck,
                       TooFewSamples, load_fingerprints, min_samples,
                       percentile, result_line, run_digest)
from perf_layers import (UNATTRIBUTED, Timers, layer_for, layer_self_times,
                         unmapped)
from perf_reference import (IMPORT_REFERENCE_S, REFERENCE_MS,
                            ReferenceProcess, build_graph, sample,
                            speed_scale)
from perf_workloads import (PACKAGE_ROOT, Phase, WORKLOAD_NAMES,
                            make_workload, window_spec)

BENCHMARK_JSON = Path(__file__).resolve().parents[2] / "BENCHMARK.json"


def test_percentile_needs_ten_samples_beyond_it():
    assert min_samples(0.9) == 100
    assert min_samples(0.5) == 20
    with pytest.raises(TooFewSamples):
        percentile(range(99), 0.9)
    assert percentile(range(1, 101), 0.9) == 90
    assert percentile(range(1, 21), 0.5) == 10


@pytest.fixture(scope="module")
def small_run():
    from repro import SystemConfig
    from repro.exec import execute_cell, make_cell
    cell = make_cell(SystemConfig(num_cores=2, protocol="patch",
                                  predictor="all"), "jbb", 5, 3)
    return execute_cell(cell)


def test_speed_scale_takes_times_to_the_reference_speed():
    assert speed_scale([REFERENCE_MS / 1000]) == pytest.approx(1.0)
    assert speed_scale([0.02, 0.02, 0.5]) == pytest.approx(0.5)
    assert speed_scale([]) == 1.0
    assert speed_scale([0.4], nominal=0.2) == pytest.approx(0.5)
    assert 0 < sample(build_graph(groups=4), steps=100) < 1
    with ReferenceProcess() as speed:
        assert 0 < speed.sample() < 1


def test_ops_are_scaled_by_the_speed_around_their_block():
    slow = REFERENCE_MS / 500
    phase = Phase(window=1, latencies=[1.0, 1.0, 1.0], op_blocks=[0, 1, 3],
                  block_seconds=[1.0, 1.0, 1.0, 1.0],
                  references=[slow, slow, slow, REFERENCE_MS / 1000])
    assert phase.block_scales() == pytest.approx([0.5, 0.5, 0.5, 2 / 3])
    assert phase.scaled_latencies() == pytest.approx([0.5, 0.5, 2 / 3])
    assert phase.scaled_elapsed() == pytest.approx(1.5 + 2 / 3)


def test_check_accepts_a_repeat_and_the_committed_digest(small_run):
    check = OutputCheck([run_digest(small_run)])
    (digest,) = check.runs([("cell", small_run, 10)])
    check.runs([("cell", small_run, 10)])
    check.op(0, digest)
    assert check.pinned == 1


def test_check_catches_a_perturbed_run(small_run):
    perturbed = dataclasses.replace(
        small_run, runtime_cycles=small_run.runtime_cycles + 1)
    check = OutputCheck([run_digest(small_run)])
    check.runs([("cell", small_run, 10)])
    with pytest.raises(CheckFailed, match="delivered twice"):
        check.runs([("cell", perturbed, 10)])
    with pytest.raises(CheckFailed, match="committed"):
        check.op(0, run_digest(perturbed))
    with pytest.raises(CheckFailed, match="references"):
        OutputCheck().runs([("other", small_run, 11)])


def test_volatile_fields_do_not_change_the_digest(small_run):
    timed = dataclasses.replace(small_run, wall_time_seconds=9.0,
                                cached=True)
    assert run_digest(timed) == run_digest(small_run)


def test_every_package_maps_to_a_layer():
    assert unmapped(PACKAGE_ROOT) == []
    assert layer_for("engines/array/network.py") == "interconnect"
    assert layer_for("engines/parity.py") == "core"
    assert layer_for("protocols/patch/cache_ctrl.py") == "protocols"
    assert layer_for("config.py") == "core"
    assert layer_for("no_such_package/x.py") is None


def test_builtin_self_time_is_charged_to_its_callers():
    root = Path("/pkg")
    sim = ("/pkg/sim/kernel.py", 1, "run")
    net = ("/pkg/interconnect/network.py", 1, "send")
    builtin = ("~", 0, "<built-in method builtins.len>")
    loop = ("/bench/run.py", 1, "op")
    stats = {
        loop: (1, 1, 0.5, 10.0, {}),
        sim: (1, 1, 2.0, 6.0, {loop: (1, 1, 2.0, 6.0)}),
        net: (1, 1, 1.0, 3.0, {sim: (1, 1, 1.0, 3.0)}),
        builtin: (4, 4, 4.0, 4.0, {sim: (3, 3, 3.0, 3.0),
                                   net: (1, 1, 1.0, 1.0)}),
    }
    times = layer_self_times(stats, root)
    assert times == pytest.approx({"sim": 5.0, "interconnect": 2.0,
                                   UNATTRIBUTED: 0.5})


def test_inputs_follow_the_seed():
    def inputs(name, seed):
        return make_workload(name, seed, Path("."), None).inputs()

    for name in WORKLOAD_NAMES:
        assert inputs(name, 1) == inputs(name, 1)
        assert inputs(name, 1) != inputs(name, 2)
    first = make_workload("torus16-directory", 4, Path("."), None)
    again = make_workload("torus16-directory", 4, Path("."), None)
    first.set_up()
    again.set_up()
    assert first.cells == again.cells
    assert len({cell.seed for cell in first.cells}) == len(first.cells)
    assert window_spec(10)["seeds"] == list(range(10, 18))


def test_fingerprints_cover_every_workload():
    fingerprints = load_fingerprints()
    for name in WORKLOAD_NAMES:
        assert fingerprints[name], name
    assert len(fingerprints["serve-overlap"]) == run.PINNED_WINDOWS


def _phase(latencies, **extra):
    phase = Phase(latencies=list(latencies), attempted=len(latencies),
                  op_blocks=list(range(len(latencies))),
                  block_seconds=list(latencies), timers=Timers(),
                  references=[REFERENCE_MS / 1000] * len(latencies),
                  **extra)
    phase.work.update(refs=100, events=1000, bytes=10, misses=5)
    return phase


def test_printed_metrics_match_benchmark_json():
    declared = json.loads(BENCHMARK_JSON.read_text())
    assert {m["name"]: m["unit"] for m in declared["end_to_end"]} \
        == END_TO_END
    assert {m["name"]: m["unit"] for m in declared["per_layer"]} \
        == PER_LAYER
    assert [w["name"] for w in declared["workloads"]] \
        == list(WORKLOAD_NAMES)

    samples = [{"setup_s": 2.0, "import_s": 1.5, "prepare_s": 0.5,
                "references": [2 * IMPORT_REFERENCE_S]}]
    phase = _phase([0.1] * 100)
    values = run.end_to_end(phase, samples, [])
    assert set(values) == set(END_TO_END)
    assert values["setup_s"] == pytest.approx(1.0)
    traced = _phase([0.2] * 10,
                    service_stats=Counter(cells_cached=3, cells_shared=1,
                                          cells_executed=1))
    layers = run.per_layer(phase, traced, samples, PACKAGE_ROOT)
    assert set(layers) == set(PER_LAYER)
    assert layers["trace.overhead"] == pytest.approx(1.0)
    assert layers["exec.cache.hit_ratio"] == pytest.approx(0.6)

    printed = json.loads(result_line(True, 100, 0, values, END_TO_END))
    assert set(printed) == {"correct", "attempted", "failed", "metrics"}
    assert {name: metric["unit"]
            for name, metric in printed["metrics"].items()} == END_TO_END
