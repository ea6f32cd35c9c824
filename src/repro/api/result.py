"""Study results: per-point run lists with grouping and CI aggregation.

:class:`ExperimentResult` is the aggregation unit the whole evaluation
is phrased in — one labelled configuration's seeded repetitions, with
Student-t confidence intervals over runtime and per-group traffic means
(the paper's Section 8.1 methodology).  It historically lived in
:mod:`repro.core.runner` and is still re-exported from there.

:class:`StudyResult` is what a :class:`~repro.api.session.Session`
returns for a whole :class:`~repro.api.spec.StudySpec` grid: every grid
point's seeded runs, keyed by the point's axis labels, plus views that
reshape the grid into the nested dicts the figure renderers in
:mod:`repro.bench` read.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (Any, Callable, Dict, List, Mapping, Optional, Sequence,
                    Tuple)

from repro.core.results import RunResult
from repro.stats.ci import ConfidenceInterval, t_interval

#: A grid point's identity: one label per axis, in axis order.
StudyKey = Tuple[str, ...]


@dataclass
class ExperimentResult:
    """Aggregated result of several seeded runs of one configuration."""

    label: str
    runs: List[RunResult]

    @property
    def runtime_ci(self) -> ConfidenceInterval:
        return t_interval([run.runtime_cycles for run in self.runs])

    @property
    def runtime_mean(self) -> float:
        return self.runtime_ci.mean

    @property
    def bytes_per_miss_mean(self) -> float:
        values = [run.bytes_per_miss for run in self.runs]
        return sum(values) / len(values)

    def traffic_per_miss_mean(self) -> Dict[str, float]:
        totals: Dict[str, float] = {}
        for run in self.runs:
            for name, value in run.traffic_per_miss().items():
                totals[name] = totals.get(name, 0.0) + value
        return {name: value / len(self.runs)
                for name, value in totals.items()}


#: Optional per-axis remapping of string point labels to native keys
#: (e.g. ``{"bandwidth": {"0.3": 0.3}}`` so a sweep dict is keyed by
#: floats the way it always was).
KeyMaps = Mapping[str, Mapping[str, Any]]


@dataclass
class StudyResult:
    """Every run of one executed study, keyed by grid point.

    ``keys`` preserves the spec's deterministic grid order; each key maps
    to the point's :class:`RunResult` list in seed order.  ``cache_delta``
    is the exec-cache activity attributable to this study (``None`` when
    the session ran uncached).
    """

    spec: Any  # StudySpec (kept untyped to avoid a circular import)
    keys: Tuple[StudyKey, ...]
    runs_by_key: Dict[StudyKey, List[RunResult]]
    cache_delta: Optional[Dict[str, int]] = None
    jobs: int = 1
    #: Aggregated observability block when the study ran with
    #: ``REPRO_OBS``/``--obs``: the per-cell telemetry snapshots merged
    #: order-independently plus the session-side spans (see
    #: :func:`repro.obs.study_telemetry`).  ``None`` when off.
    telemetry: Optional[Dict[str, Any]] = None

    # ------------------------------------------------------------------
    @property
    def axis_names(self) -> Tuple[str, ...]:
        return tuple(axis.name for axis in self.spec.axes)

    @property
    def runs(self) -> List[RunResult]:
        """Every run of the study, grid-point-major then seed order."""
        return [run for key in self.keys for run in self.runs_by_key[key]]

    def experiment(self, key: Sequence[str] = (),
                   label: Optional[str] = None) -> ExperimentResult:
        """The seeded runs of one grid point, as an ExperimentResult.

        ``key`` is one label per axis (the empty tuple for an axis-less
        study).  ``label`` defaults to the key joined with ``/`` (or the
        study name for an axis-less study).
        """
        key = tuple(key)
        if key not in self.runs_by_key:
            raise KeyError(
                f"no grid point {key!r} in study {self.spec.name!r}; "
                f"axes are {self.axis_names}")
        if label is None:
            label = "/".join(key) if key else self.spec.name
        return ExperimentResult(label, self.runs_by_key[key])

    def experiments(self, label_fn: Optional[Callable[[StudyKey], str]]
                    = None) -> Dict[StudyKey, ExperimentResult]:
        """Every grid point as an ExperimentResult, in grid order."""
        return {key: self.experiment(key, label_fn(key) if label_fn
                                     else None)
                for key in self.keys}

    def runtime_cis(self) -> Dict[StudyKey, ConfidenceInterval]:
        """Per-point runtime confidence intervals, in grid order."""
        return {key: self.experiment(key).runtime_ci for key in self.keys}

    # ------------------------------------------------------------------
    def group(self, axis: str,
              label_fn: Optional[Callable[[str], str]] = None
              ) -> Dict[str, ExperimentResult]:
        """Pool runs per point of one axis, collapsing every other axis.

        The per-axis view: ``result.group("variant")`` aggregates each
        variant's runs across all workloads/topologies/seeds into one
        :class:`ExperimentResult` (point order follows the spec).
        """
        index = self._axis_index(axis)
        pooled: Dict[str, List[RunResult]] = {}
        for key in self.keys:
            pooled.setdefault(key[index], []).extend(self.runs_by_key[key])
        return {label: ExperimentResult(label_fn(label) if label_fn
                                        else label, runs)
                for label, runs in pooled.items()}

    def nested(self, order: Optional[Sequence[str]] = None,
               key_maps: Optional[KeyMaps] = None,
               label_fn: Optional[Callable[[StudyKey], str]] = None
               ) -> Dict[Any, Any]:
        """The grid as nested dicts, one level per axis.

        ``order`` picks the nesting order (default: spec axis order) and
        must name every axis exactly once.  ``key_maps`` optionally maps
        an axis's string labels back to native keys (ints, floats).
        ``label_fn`` names each leaf's :class:`ExperimentResult` from
        its full key (default: the innermost axis label).  This is the
        reshaping primitive behind every :mod:`repro.bench` bundle.
        """
        if not self.spec.axes:
            raise ValueError("an axis-less study has no nested view; "
                             "use .experiment()")
        names = list(self.axis_names)
        order = list(order) if order is not None else names
        if sorted(order) != sorted(names):
            raise ValueError(f"order {order!r} must name every axis of "
                             f"{tuple(names)} exactly once")
        indices = [names.index(name) for name in order]
        key_maps = key_maps or {}

        def mapped(depth: int, key: StudyKey) -> Any:
            label = key[indices[depth]]
            return key_maps.get(order[depth], {}).get(label, label)

        out: Dict[Any, Any] = {}
        for key in self.keys:
            node = out
            for depth in range(len(order) - 1):
                node = node.setdefault(mapped(depth, key), {})
            leaf_label = (label_fn(key) if label_fn
                          else key[indices[-1]])
            node[mapped(len(order) - 1, key)] = ExperimentResult(
                leaf_label, self.runs_by_key[key])
        return out

    # ------------------------------------------------------------------
    def _axis_index(self, axis: str) -> int:
        for index, name in enumerate(self.axis_names):
            if name == axis:
                return index
        raise ValueError(f"study {self.spec.name!r} has no axis "
                         f"{axis!r}; axes are {self.axis_names}")
