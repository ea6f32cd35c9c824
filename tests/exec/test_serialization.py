"""RunResult JSON round-trip must be lossless (cache + pool transport)."""

import json

import pytest

from repro.config import SystemConfig
from repro.core.runner import run_one
from repro.exec import run_result_from_dict, run_result_to_dict
from repro.stats.counters import RunningStat


def _fields_of(result):
    data = run_result_to_dict(result)
    data["miss_latency"] = tuple(sorted(data["miss_latency"].items()))
    return data


def test_round_trip_through_json_is_lossless():
    result = run_one(SystemConfig(num_cores=4, protocol="patch",
                                  predictor="all"),
                     "microbench", references_per_core=40, seed=3)
    wire = json.dumps(run_result_to_dict(result))
    restored = run_result_from_dict(json.loads(wire))
    assert _fields_of(restored) == _fields_of(result)
    # Welford state must survive bit-for-bit, not just approximately.
    assert restored.miss_latency._mean == result.miss_latency._mean
    assert restored.miss_latency._m2 == result.miss_latency._m2
    assert restored.miss_latency.count == result.miss_latency.count
    assert restored.miss_latency.min == result.miss_latency.min
    assert restored.miss_latency.max == result.miss_latency.max
    # Derived metrics therefore agree exactly.
    assert restored.bytes_per_miss == result.bytes_per_miss
    assert restored.avg_miss_latency == result.avg_miss_latency
    assert restored.traffic_per_miss() == result.traffic_per_miss()
    assert restored.summary() == result.summary()


def test_running_stat_round_trip_handles_empty():
    stat = RunningStat()
    restored = RunningStat.from_dict(stat.to_dict())
    assert restored.count == 0
    assert restored.min is None and restored.max is None
    assert restored.mean == 0.0


def test_running_stat_round_trip_exact_floats():
    stat = RunningStat()
    for value in (0.1, 7.3, 1e-9, 123456.789, 2.5):
        stat.add(value)
    restored = RunningStat.from_dict(json.loads(json.dumps(stat.to_dict())))
    assert restored._mean == stat._mean
    assert restored._m2 == stat._m2
    assert restored.stddev == stat.stddev


def test_unknown_schema_rejected():
    result = run_one(SystemConfig(num_cores=4), "microbench",
                     references_per_core=10)
    data = run_result_to_dict(result)
    data["schema"] = 999
    with pytest.raises(ValueError, match="schema"):
        run_result_from_dict(data)
