"""StudyResult over the wire: a lossless JSON round-trip.

The service returns whole :class:`~repro.api.result.StudyResult`
values, not ad-hoc summaries, so a client can reconstruct exactly what
a local :meth:`~repro.api.session.Session.run` would have returned —
the bit-identity contract ``repro study submit`` relies on.  Runs ride
in the study's deterministic flat grid order (grid-point-major, seeds
innermost — the same order :meth:`StudySpec.cells` produces) using the
cache's :func:`~repro.exec.serialization.run_result_to_dict` form, so
one serialization governs disk and wire alike.
"""

from __future__ import annotations

from typing import Any, Dict

from repro.api.result import StudyResult
from repro.api.spec import StudySpec
from repro.exec.manifest import spec_digest
from repro.exec.serialization import (run_result_from_dict,
                                      run_result_to_dict)

#: Bump when the wire shape changes; clients check it before parsing.
WIRE_SCHEMA = 1


def study_result_to_dict(result: StudyResult) -> Dict[str, Any]:
    """The full study result as one JSON-safe dict."""
    out: Dict[str, Any] = {
        "wire_schema": WIRE_SCHEMA,
        "study": spec_digest(result.spec),
        "spec": result.spec.to_json_dict(),
        "keys": [list(key) for key in result.keys],
        "runs": [run_result_to_dict(run) for run in result.runs],
        "jobs": result.jobs,
    }
    if result.cache_delta is not None:
        out["cache_delta"] = dict(result.cache_delta)
    return out


def study_result_from_dict(data: Dict[str, Any]) -> StudyResult:
    """Rebuild the StudyResult a server serialized.

    Raises ``ValueError`` on an unknown ``wire_schema``, on grid keys
    that are not the spec's, or on a run count that does not match the
    spec's grid — a truncated or mismatched payload must never silently
    produce a smaller study or attach runs to the wrong points.
    """
    schema = data.get("wire_schema")
    if schema != WIRE_SCHEMA:
        raise ValueError(f"unsupported wire_schema {schema!r} "
                         f"(this client speaks {WIRE_SCHEMA})")
    delta = data.get("cache_delta")
    return StudyResult.from_runs(
        StudySpec.from_json_dict(data["spec"]),
        [run_result_from_dict(run) for run in data["runs"]],
        keys=data["keys"],
        cache_delta=None if delta is None else dict(delta),
        jobs=int(data.get("jobs", 1)))
