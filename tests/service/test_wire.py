"""Wire-format guarantees: lossless round-trip, loud rejection."""

import json

import pytest

from repro.api import Session
from repro.exec.serialization import comparable_result_dict
from repro.service.wire import (WIRE_SCHEMA, study_result_from_dict,
                                study_result_to_dict)

from tests.service.conftest import tiny_spec


def _result():
    spec = tiny_spec(name="svc-wire", seeds=(1, 2), axes=[
        {"name": "variant", "points": [
            {"label": "dir", "config": {"protocol": "directory",
                                        "predictor": "none"}},
            {"label": "patch", "config": {"protocol": "patch",
                                          "predictor": "all"}}]}])
    return Session(jobs=1, no_cache=True).run(spec)


def test_round_trip_is_lossless_and_json_safe():
    result = _result()
    payload = study_result_to_dict(result)
    assert payload["wire_schema"] == WIRE_SCHEMA
    # The payload must survive actual JSON, not just dict passing.
    rebuilt = study_result_from_dict(json.loads(json.dumps(payload)))
    assert rebuilt.keys == result.keys
    assert rebuilt.spec.to_json_dict() == result.spec.to_json_dict()
    assert rebuilt.cache_delta == result.cache_delta
    assert rebuilt.jobs == result.jobs
    for mine, theirs in zip(result.runs, rebuilt.runs):
        assert comparable_result_dict(mine) \
            == comparable_result_dict(theirs)
    # Grouping survives too: per-key runs line up with the flat order.
    for key in rebuilt.keys:
        assert len(rebuilt.runs_by_key[key]) == len(result.spec.seeds)


def test_unknown_wire_schema_is_rejected():
    payload = study_result_to_dict(_result())
    payload["wire_schema"] = WIRE_SCHEMA + 1
    with pytest.raises(ValueError, match="unsupported wire_schema"):
        study_result_from_dict(payload)


def test_truncated_runs_are_rejected_not_shrunk():
    payload = study_result_to_dict(_result())
    payload["runs"] = payload["runs"][:-1]
    with pytest.raises(ValueError, match="runs but the spec's grid"):
        study_result_from_dict(payload)
