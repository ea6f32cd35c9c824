"""Declarative experiment API: specs in, grouped results out.

The paper's evaluation is one big grid — protocol variants x workloads
x topologies x bandwidth/coarseness/core-count axes x seeds.  This
package makes that grid a first-class value:

* :class:`~repro.api.spec.StudySpec` — named axes over config
  overrides, workloads (trace-backed included), kwargs, and seeds;
  cross-product or explicit-point grids; JSON round-trip with
  schema-versioned validation.  Lowers to a
  :class:`~repro.exec.cells.Cell` batch for the parallel runner.
* :class:`~repro.api.session.Session` — owns the parallel runner,
  result cache and study manifests; ``Session().run(spec)`` executes
  the whole grid as one batch.
* :class:`~repro.api.result.StudyResult` — runs grouped per grid
  point, with per-axis :class:`~repro.api.result.ExperimentResult`
  views, nested-dict reshaping, and confidence-interval helpers.

Every figure grid is defined once, as a ``*_spec`` builder in
:mod:`repro.bench` (whose ``*_results`` bundles run and reshape it), and
``run_experiment`` builds the one-configuration spec behind ``repro
run``; ``repro study run|show|validate`` drives spec files from the
shell, and ``examples/specs/`` ships the paper's figures as committed
specs.  See docs/API.md.
"""

from repro.api.result import ExperimentResult, StudyKey, StudyResult
from repro.api.session import Session
from repro.api.spec import (AxisSpec, PointSpec, ResolvedPoint,
                            SPEC_SCHEMA, SUPPORTED_SPEC_SCHEMAS,
                            SpecError, StudySpec, config_overrides)

__all__ = [
    "AxisSpec", "ExperimentResult", "PointSpec", "ResolvedPoint",
    "SPEC_SCHEMA", "SUPPORTED_SPEC_SCHEMAS", "Session", "SpecError",
    "StudyKey", "StudyResult", "StudySpec", "config_overrides",
]
