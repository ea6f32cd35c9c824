"""Declarative experiment specs: the evaluation grid as a value.

A :class:`StudySpec` names a whole experiment grid — a base
:class:`~repro.config.SystemConfig`, named *axes* whose points override
config fields, workloads, workload kwargs (including trace paths), or
reference quotas, and a seed list — and lowers it to a
:class:`~repro.exec.cells.Cell` batch for the runner.  Specs round-trip
through JSON (schema-versioned, validated with precise error messages),
so a study is a committable artifact: ``repro study run spec.json``
reproduces it anywhere, and ``examples/specs/`` ships the paper's
figures in this form.

Grid semantics
--------------
* ``grid="cross"`` (default): every combination of one point per axis,
  in axis order (first axis outermost), seeds innermost.
* ``grid="explicit"``: only the listed ``points`` (tuples of point
  labels, one per axis) run, in the listed order.

Each grid point resolves by merging, in axis order, every selected
point's ``config`` overrides / ``workload`` / ``workload_kwargs`` /
``references_per_core`` over the spec-level defaults; later axes win on
conflicts.  The merged config dict builds one ``SystemConfig`` (so
derived fields like ``torus_dims`` re-derive exactly as the legacy
``with_updates`` chains did), and :func:`~repro.exec.cells.make_cell`
folds in each seed.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields as dataclass_fields
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.config import SystemConfig, torus_dims_for
from repro.exec.cells import Cell, make_cell

#: Bump when the on-disk spec shape changes.  Writes always use the
#: newest schema; reads accept every version in
#: :data:`SUPPORTED_SPEC_SCHEMAS` (older schemas are strict subsets, so
#: a v1 file loads unchanged), and anything else fails validation with
#: a pointed message instead of misloading.
#:
#: History: 2 added the optional ``executor`` field (execution-backend
#: preference; see docs/EXECUTION.md).
SPEC_SCHEMA = 2
SUPPORTED_SPEC_SCHEMAS = (1, SPEC_SCHEMA)

#: Valid ``SystemConfig`` override keys (``seed`` is excluded: the
#: spec's ``seeds`` list owns seeding, and cells fold it per run).
CONFIG_FIELDS = tuple(f.name for f in dataclass_fields(SystemConfig)
                      if f.name != "seed")


class SpecError(ValueError):
    """A study spec is malformed; the message says where and why."""


def _normalize_config(config: Mapping[str, Any], where: str
                      ) -> Dict[str, Any]:
    """Copy a config-override mapping, tuple-izing list values."""
    if not isinstance(config, Mapping):
        raise SpecError(f"{where}: config overrides must be an object, "
                        f"got {type(config).__name__}")
    out: Dict[str, Any] = {}
    for key, value in config.items():
        if key not in CONFIG_FIELDS:
            raise SpecError(
                f"{where}: unknown config field {key!r}; valid fields: "
                f"{', '.join(CONFIG_FIELDS)}")
        out[key] = tuple(value) if isinstance(value, list) else value
    return out


def _normalize_kwargs(kwargs: Any, where: str) -> Dict[str, Any]:
    """Copy a workload-kwargs mapping, rejecting non-objects clearly."""
    if not isinstance(kwargs, Mapping):
        raise SpecError(f"{where}: 'workload_kwargs' must be an object "
                        f"of constructor knobs, got "
                        f"{type(kwargs).__name__}")
    return dict(kwargs)


def _require(mapping: Mapping[str, Any], allowed: Sequence[str],
             where: str) -> None:
    unknown = sorted(set(mapping) - set(allowed))
    if unknown:
        raise SpecError(f"{where}: unknown key(s) {', '.join(map(repr, unknown))}; "
                        f"valid keys: {', '.join(allowed)}")


def config_overrides(config: SystemConfig) -> Dict[str, Any]:
    """The minimal override dict reproducing ``config`` from defaults.

    Derived fields are dropped when they would re-derive identically
    (``torus_dims`` equal to :func:`~repro.config.torus_dims_for`), and
    ``seed`` is always dropped (cells re-fold it per run), so the spec
    builders emit the same compact JSON a human would write.
    """
    defaults = SystemConfig()
    out: Dict[str, Any] = {}
    for name in CONFIG_FIELDS:
        value = getattr(config, name)
        if name == "torus_dims":
            if value != torus_dims_for(config.num_cores):
                out[name] = value
            continue
        if value != getattr(defaults, name):
            out[name] = value
    return out


# ---------------------------------------------------------------------------
# Spec dataclasses
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PointSpec:
    """One labelled point on an axis and everything it overrides."""

    label: str
    config: Mapping[str, Any] = field(default_factory=dict)
    workload: Optional[str] = None
    workload_kwargs: Mapping[str, Any] = field(default_factory=dict)
    references_per_core: Optional[int] = None

    def __post_init__(self) -> None:
        where = f"point {self.label!r}"
        object.__setattr__(self, "config",
                           _normalize_config(self.config, where))
        object.__setattr__(self, "workload_kwargs",
                           _normalize_kwargs(self.workload_kwargs, where))
        if self.workload is not None and not isinstance(self.workload,
                                                        str):
            raise SpecError(f"{where}: 'workload' must be a workload "
                            f"name, got {type(self.workload).__name__}")

    # -- JSON ----------------------------------------------------------
    def to_json_dict(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {"label": self.label}
        if self.config:
            out["config"] = {key: (list(value) if isinstance(value, tuple)
                                   else value)
                             for key, value in self.config.items()}
        if self.workload is not None:
            out["workload"] = self.workload
        if self.workload_kwargs:
            out["workload_kwargs"] = dict(self.workload_kwargs)
        if self.references_per_core is not None:
            out["references_per_core"] = self.references_per_core
        return out

    @classmethod
    def from_json_dict(cls, data: Mapping[str, Any],
                       where: str) -> "PointSpec":
        if not isinstance(data, Mapping):
            raise SpecError(f"{where}: each point must be an object, "
                            f"got {type(data).__name__}")
        _require(data, ("label", "config", "workload", "workload_kwargs",
                        "references_per_core"), where)
        label = data.get("label")
        if not isinstance(label, str) or not label:
            raise SpecError(f"{where}: every point needs a non-empty "
                            f"string 'label'")
        return cls(label=label, config=data.get("config", {}),
                   workload=data.get("workload"),
                   workload_kwargs=data.get("workload_kwargs", {}),
                   references_per_core=data.get("references_per_core"))


@dataclass(frozen=True)
class AxisSpec:
    """A named study dimension: an ordered tuple of points."""

    name: str
    points: Tuple[PointSpec, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "points", tuple(self.points))

    @property
    def labels(self) -> Tuple[str, ...]:
        return tuple(point.label for point in self.points)

    def to_json_dict(self) -> Dict[str, Any]:
        return {"name": self.name,
                "points": [point.to_json_dict() for point in self.points]}

    @classmethod
    def from_json_dict(cls, data: Mapping[str, Any],
                       where: str) -> "AxisSpec":
        if not isinstance(data, Mapping):
            raise SpecError(f"{where}: each axis must be an object")
        _require(data, ("name", "points"), where)
        name = data.get("name")
        if not isinstance(name, str) or not name:
            raise SpecError(f"{where}: every axis needs a non-empty "
                            f"string 'name'")
        points = data.get("points")
        if not isinstance(points, Sequence) or isinstance(points, str):
            raise SpecError(f"{where} ({name!r}): 'points' must be a list")
        return cls(name=name,
                   points=tuple(PointSpec.from_json_dict(
                       point, f"{where}.points[{index}]")
                       for index, point in enumerate(points)))


@dataclass(frozen=True)
class StudySpec:
    """A complete, serializable description of one experiment grid."""

    name: str
    references_per_core: int
    description: str = ""
    base_config: Mapping[str, Any] = field(default_factory=dict)
    workload: Optional[str] = None
    workload_kwargs: Mapping[str, Any] = field(default_factory=dict)
    seeds: Tuple[int, ...] = (1,)
    axes: Tuple[AxisSpec, ...] = ()
    grid: str = "cross"
    points: Optional[Tuple[Tuple[str, ...], ...]] = None
    check_integrity: bool = True
    #: Preferred execution backend (a :mod:`repro.exec.executors` name).
    #: ``None`` defers to the CLI/environment; an explicit CLI
    #: ``--executor`` always wins over the spec.  Deliberately excluded
    #: from the study's manifest digest: switching backends must never
    #: orphan a partially-run study's progress.
    executor: Optional[str] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "base_config",
                           _normalize_config(self.base_config,
                                             "base_config"))
        object.__setattr__(self, "workload_kwargs",
                           _normalize_kwargs(self.workload_kwargs,
                                             "spec"))
        object.__setattr__(self, "seeds", tuple(self.seeds))
        object.__setattr__(self, "axes", tuple(self.axes))
        if self.points is not None:
            points = []
            for index, point in enumerate(self.points):
                if not isinstance(point, Sequence) \
                        or isinstance(point, str):
                    raise SpecError(
                        f"points[{index}]: each entry must be a list "
                        f"of axis labels, got {type(point).__name__}")
                points.append(tuple(point))
            object.__setattr__(self, "points", tuple(points))

    # ------------------------------------------------------------------
    # Validation
    # ------------------------------------------------------------------
    def validate(self) -> "StudySpec":
        """Check the whole spec; raises :class:`SpecError` on problems.

        Structural checks (names, labels, grid shape) come first; then
        every grid point's merged config is actually constructed, so
        value errors (unknown protocol, bad coarseness) surface here
        with the offending point named, not deep inside a worker.
        Returns ``self`` so calls chain.
        """
        if not isinstance(self.name, str) or not self.name:
            raise SpecError("'name' must be a non-empty string")
        if not isinstance(self.description, str):
            raise SpecError("'description' must be a string")
        if self.workload is not None and not isinstance(self.workload,
                                                        str):
            raise SpecError("'workload' must be a workload name, got "
                            f"{type(self.workload).__name__}")
        if not isinstance(self.references_per_core, int) \
                or isinstance(self.references_per_core, bool) \
                or self.references_per_core < 0:
            raise SpecError("'references_per_core' must be a "
                            "non-negative integer")
        if not self.seeds:
            raise SpecError("'seeds' must list at least one seed")
        for seed in self.seeds:
            if not isinstance(seed, int) or isinstance(seed, bool) \
                    or seed < 0:
                raise SpecError(f"seeds must be non-negative integers, "
                                f"got {seed!r}")
        seen_axes = set()
        for axis in self.axes:
            if axis.name in seen_axes:
                raise SpecError(f"duplicate axis name {axis.name!r}")
            seen_axes.add(axis.name)
            if not axis.points:
                raise SpecError(f"axis {axis.name!r} has no points")
            seen_labels = set()
            for point in axis.points:
                if point.label in seen_labels:
                    raise SpecError(f"axis {axis.name!r}: duplicate "
                                    f"point label {point.label!r}")
                seen_labels.add(point.label)
                if point.references_per_core is not None and (
                        not isinstance(point.references_per_core, int)
                        or point.references_per_core < 0):
                    raise SpecError(
                        f"axis {axis.name!r}, point {point.label!r}: "
                        "'references_per_core' must be a non-negative "
                        "integer")
        if self.executor is not None:
            from repro.exec.executors import executor_names
            if self.executor not in executor_names():
                raise SpecError(
                    f"'executor' must name a registered execution "
                    f"backend ({', '.join(executor_names())}), got "
                    f"{self.executor!r}")
        if self.grid not in ("cross", "explicit"):
            raise SpecError(f"'grid' must be 'cross' or 'explicit', "
                            f"got {self.grid!r}")
        if self.grid == "explicit":
            if not self.points:
                raise SpecError("an explicit grid needs a non-empty "
                                "'points' list")
            for index, key in enumerate(self.points):
                if len(key) != len(self.axes):
                    raise SpecError(
                        f"points[{index}]: expected one label per axis "
                        f"({len(self.axes)}), got {len(key)}")
                for axis, label in zip(self.axes, key):
                    if label not in axis.labels:
                        raise SpecError(
                            f"points[{index}]: axis {axis.name!r} has no "
                            f"point {label!r}; choose from {axis.labels}")
            if len(set(self.points)) != len(self.points):
                raise SpecError("'points' lists a grid point twice")
        elif self.points is not None:
            raise SpecError("'points' only applies to grid='explicit'")
        # Deep check: every resolved point must build a real config and
        # name a registered workload.
        from repro.workloads.registry import get_spec as get_workload_spec
        for key in self.keys():
            where = (f"grid point ({', '.join(key)})" if key
                     else "the study's single point")
            resolved = self.resolve(key)
            try:
                resolved.build_config()
            except (TypeError, ValueError) as exc:
                raise SpecError(f"{where}: invalid config: {exc}") from exc
            if resolved.workload is None:
                raise SpecError(
                    f"{where}: no workload — set the spec-level "
                    "'workload' or have an axis point supply one")
            try:
                workload_spec = get_workload_spec(resolved.workload)
            except ValueError as exc:
                raise SpecError(f"{where}: {exc}") from exc
            if (workload_spec.kind == "trace"
                    and "path" not in resolved.workload_kwargs):
                raise SpecError(
                    f"{where}: trace workload {resolved.workload!r} "
                    "needs a 'path' workload kwarg naming the trace file")
        return self

    # ------------------------------------------------------------------
    # Grid enumeration and lowering
    # ------------------------------------------------------------------
    def keys(self) -> Tuple[Tuple[str, ...], ...]:
        """Every grid point's key, in deterministic grid order."""
        if self.grid == "explicit":
            return tuple(self.points or ())
        keys: List[Tuple[str, ...]] = [()]
        for axis in self.axes:
            keys = [key + (point.label,) for key in keys
                    for point in axis.points]
        return tuple(keys)

    def resolve(self, key: Sequence[str]) -> "ResolvedPoint":
        """Merge one grid point's overrides over the spec defaults."""
        key = tuple(key)
        if len(key) != len(self.axes):
            raise SpecError(f"key {key!r} must have one label per axis "
                            f"({len(self.axes)})")
        config = dict(self.base_config)
        workload = self.workload
        kwargs = dict(self.workload_kwargs)
        refs = self.references_per_core
        for axis, label in zip(self.axes, key):
            for point in axis.points:
                if point.label == label:
                    break
            else:
                raise SpecError(f"axis {axis.name!r} has no point "
                                f"{label!r}; choose from {axis.labels}")
            config.update(point.config)
            if point.workload is not None:
                workload = point.workload
            kwargs.update(point.workload_kwargs)
            if point.references_per_core is not None:
                refs = point.references_per_core
        return ResolvedPoint(key=key, config=config, workload=workload,
                             workload_kwargs=kwargs,
                             references_per_core=refs)

    def cell_groups(self) -> List[Tuple[Tuple[str, ...], List[Cell]]]:
        """Per grid point, its cells in seed order (the lowering)."""
        groups = []
        for key in self.keys():
            resolved = self.resolve(key)
            config = resolved.build_config()
            cells = [make_cell(config, resolved.workload,
                               resolved.references_per_core, seed,
                               check_integrity=self.check_integrity,
                               **resolved.workload_kwargs)
                     for seed in self.seeds]
            groups.append((key, cells))
        return groups

    def cells(self) -> List[Cell]:
        """The whole grid as one flat batch (grid order, seeds innermost)."""
        return [cell for _, cells in self.cell_groups() for cell in cells]

    def num_cells(self) -> int:
        return len(self.keys()) * len(self.seeds)

    # ------------------------------------------------------------------
    # JSON round-trip
    # ------------------------------------------------------------------
    def to_json_dict(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {"spec_schema": SPEC_SCHEMA,
                               "name": self.name}
        if self.description:
            out["description"] = self.description
        if self.base_config:
            out["base_config"] = {
                key: (list(value) if isinstance(value, tuple) else value)
                for key, value in self.base_config.items()}
        if self.workload is not None:
            out["workload"] = self.workload
        if self.workload_kwargs:
            out["workload_kwargs"] = dict(self.workload_kwargs)
        out["references_per_core"] = self.references_per_core
        out["seeds"] = list(self.seeds)
        if self.axes:
            out["axes"] = [axis.to_json_dict() for axis in self.axes]
        out["grid"] = self.grid
        if self.points is not None:
            out["points"] = [list(point) for point in self.points]
        if not self.check_integrity:
            out["check_integrity"] = False
        if self.executor is not None:
            out["executor"] = self.executor
        return out

    @classmethod
    def from_json_dict(cls, data: Mapping[str, Any]) -> "StudySpec":
        """Parse and fully validate a spec from its JSON dict form."""
        if not isinstance(data, Mapping):
            raise SpecError("a study spec must be a JSON object, got "
                            f"{type(data).__name__}")
        schema = data.get("spec_schema")
        if schema not in SUPPORTED_SPEC_SCHEMAS:
            supported = ", ".join(str(s) for s in SUPPORTED_SPEC_SCHEMAS)
            raise SpecError(
                f"unsupported spec_schema {schema!r}; this build reads "
                f"spec_schema {supported} (is the file from a newer "
                "version, or missing the 'spec_schema' field?)")
        _require(data, ("spec_schema", "name", "description",
                        "base_config", "workload", "workload_kwargs",
                        "references_per_core", "seeds", "axes", "grid",
                        "points", "check_integrity", "executor"), "spec")
        if "references_per_core" not in data:
            raise SpecError("spec is missing 'references_per_core'")
        axes_data = data.get("axes", [])
        if not isinstance(axes_data, Sequence) or isinstance(axes_data, str):
            raise SpecError("'axes' must be a list of axis objects")
        axes = tuple(AxisSpec.from_json_dict(axis, f"axes[{index}]")
                     for index, axis in enumerate(axes_data))
        seeds = data.get("seeds", [1])
        if not isinstance(seeds, Sequence) or isinstance(seeds, str):
            raise SpecError("'seeds' must be a list of integers")
        points = data.get("points")
        if points is not None:
            if not isinstance(points, Sequence) or isinstance(points, str):
                raise SpecError("'points' must be a list of label lists")
            points = tuple(points)  # elements validated in __post_init__
        spec = cls(name=data.get("name", ""),
                   description=data.get("description", ""),
                   base_config=data.get("base_config", {}),
                   workload=data.get("workload"),
                   workload_kwargs=data.get("workload_kwargs", {}),
                   references_per_core=data.get("references_per_core"),
                   seeds=tuple(seeds),
                   axes=axes,
                   grid=data.get("grid", "cross"),
                   points=points,
                   check_integrity=data.get("check_integrity", True),
                   executor=data.get("executor"))
        return spec.validate()

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2) + "\n"

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(self.to_json())

    @classmethod
    def load(cls, path) -> "StudySpec":
        """Read and validate a spec file (raises SpecError/OSError)."""
        with open(path, "r", encoding="utf-8") as handle:
            try:
                data = json.load(handle)
            except json.JSONDecodeError as exc:
                raise SpecError(f"{path} is not valid JSON: {exc}") from exc
        return cls.from_json_dict(data)


@dataclass(frozen=True)
class ResolvedPoint:
    """One grid point after merging every axis override (see
    :meth:`StudySpec.resolve`)."""

    key: Tuple[str, ...]
    config: Dict[str, Any]
    workload: Optional[str]
    workload_kwargs: Dict[str, Any]
    references_per_core: int

    def build_config(self) -> SystemConfig:
        config = dict(self.config)
        if isinstance(config.get("torus_dims"), list):
            config["torus_dims"] = tuple(config["torus_dims"])
        return SystemConfig(**config)
