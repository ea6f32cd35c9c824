"""RunResult helpers and normalization."""

import pytest

from repro.core.results import RunResult
from repro.core.runner import (ExperimentResult, normalized_runtimes,
                               normalized_traffic)
from repro.stats.counters import RunningStat
from repro.stats.traffic import FIGURE5_ORDER


def make_result(runtime=1000, misses=100, traffic=None):
    latency = RunningStat()
    for value in (50.0, 150.0):
        latency.add(value)
    traffic = traffic or {"Data": 7200, "Ack": 800, "Dir. Req.": 0,
                          "Ind. Req.": 800, "Forward": 200, "Reissue": 0,
                          "Activation": 0}
    return RunResult(
        config_summary="test", runtime_cycles=runtime,
        total_references=400, hits=300, misses=misses,
        read_misses=70, write_misses=30,
        traffic_bytes=dict(traffic), traffic_bytes_raw={},
        dropped_direct_requests=0, miss_latency=latency,
        link_utilization=0.1, cache_stats={}, home_stats={},
        events_processed=1234)


def test_totals_and_per_miss():
    result = make_result()
    assert result.total_traffic_bytes == 9000
    assert result.bytes_per_miss == 90.0
    per_miss = result.traffic_per_miss()
    assert per_miss["Data"] == 72.0
    assert set(per_miss) == set(FIGURE5_ORDER)


def test_zero_misses_degenerate():
    result = make_result(misses=0)
    assert result.bytes_per_miss == 0.0
    assert all(v == 0.0 for v in result.traffic_per_miss().values())


def test_avg_miss_latency():
    assert make_result().avg_miss_latency == 100.0


def test_summary_mentions_key_numbers():
    text = make_result().summary()
    assert "1000 cycles" in text
    assert "100 misses" in text


def _by_label(**runs):
    return {label: ExperimentResult(label, [run])
            for label, run in runs.items()}


def test_normalized_runtime():
    results = _by_label(Directory=make_result(runtime=1000),
                        PATCH=make_result(runtime=900))
    assert normalized_runtimes(results) == {"Directory": 1.0, "PATCH": 0.9}
    with pytest.raises(ValueError, match="baseline runtime"):
        normalized_runtimes(_by_label(Directory=make_result(runtime=0)))


def test_normalized_traffic_sums_to_ratio():
    a = make_result(traffic={"Data": 14400, "Ack": 1600, "Dir. Req.": 2000,
                             "Ind. Req.": 0, "Forward": 0, "Reissue": 0,
                             "Activation": 0})
    normalized = normalized_traffic(_by_label(Directory=make_result(),
                                              PATCH=a))
    assert sum(normalized["PATCH"].values()) == pytest.approx(18000 / 9000)
    assert sum(normalized["Directory"].values()) == pytest.approx(1.0)
    with pytest.raises(ValueError, match="baseline traffic"):
        normalized_traffic(_by_label(Directory=make_result(
            traffic={g: 0 for g in FIGURE5_ORDER})))
