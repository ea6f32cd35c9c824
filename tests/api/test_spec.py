"""StudySpec mechanics: lowering, grids, JSON round-trip, validation."""

import json

import pytest

from repro.api import (AxisSpec, PointSpec, SPEC_SCHEMA, SpecError,
                       StudySpec, config_overrides)
from repro.config import SystemConfig
from repro.exec import make_cell

VARIANTS = {"Directory": {"protocol": "directory"},
            "PATCH-All": {"protocol": "patch", "predictor": "all"}}


def two_axis_spec() -> StudySpec:
    return StudySpec(
        name="demo",
        base_config={"num_cores": 4},
        references_per_core=10,
        seeds=(1, 2),
        axes=(AxisSpec("workload", (PointSpec("microbench",
                                              workload="microbench"),
                                    PointSpec("oltp", workload="oltp"))),
              AxisSpec("variant", tuple(
                  PointSpec(label, config=overrides)
                  for label, overrides in VARIANTS.items()))))


# ---------------------------------------------------------------------------
# Grid enumeration and lowering
# ---------------------------------------------------------------------------

def test_cross_grid_keys_axis_major_order():
    spec = two_axis_spec()
    assert spec.keys() == (("microbench", "Directory"),
                           ("microbench", "PATCH-All"),
                           ("oltp", "Directory"),
                           ("oltp", "PATCH-All"))
    assert spec.num_cells() == 4 * 2


def test_lowering_matches_hand_built_cells():
    """The spec's cell batch is exactly the legacy make_cell loops."""
    spec = two_axis_spec().validate()
    base = SystemConfig(num_cores=4)
    expected = []
    for workload in ("microbench", "oltp"):
        for label, overrides in VARIANTS.items():
            config = base.with_updates(**overrides)
            for seed in (1, 2):
                expected.append(make_cell(config, workload, 10, seed))
    assert spec.cells() == expected


def test_point_overrides_merge_with_later_axes_winning():
    spec = StudySpec(
        name="merge", base_config={"num_cores": 4},
        workload="microbench", references_per_core=10, seeds=(1,),
        workload_kwargs={"table_blocks": 64},
        axes=(AxisSpec("a", (PointSpec("x", config={"dram_latency": 10},
                                       workload_kwargs={"table_blocks":
                                                        32}),)),
              AxisSpec("b", (PointSpec("y", config={"dram_latency": 99},
                                       references_per_core=7),))))
    resolved = spec.resolve(("x", "y"))
    assert resolved.config["dram_latency"] == 99       # later axis wins
    assert resolved.workload_kwargs == {"table_blocks": 32}
    assert resolved.references_per_core == 7
    [cell] = spec.cells()
    assert cell.config.dram_latency == 99
    assert cell.references_per_core == 7
    assert cell.workload_kwargs == (("table_blocks", 32),)


def test_explicit_grid_runs_only_listed_points():
    spec = StudySpec(
        name="explicit", base_config={"num_cores": 4},
        references_per_core=10, seeds=(1,), grid="explicit",
        points=(("oltp", "PATCH-All"), ("microbench", "Directory")),
        axes=two_axis_spec().axes).validate()
    assert spec.keys() == (("oltp", "PATCH-All"),
                           ("microbench", "Directory"))
    cells = spec.cells()
    assert len(cells) == 2
    assert cells[0].workload == "oltp"
    assert cells[0].config.protocol == "patch"
    assert cells[1].workload == "microbench"
    assert cells[1].config.protocol == "directory"


def test_num_cores_change_rederives_torus_dims():
    spec = StudySpec(
        name="scale", base_config={"num_cores": 4},
        workload="microbench", references_per_core=5, seeds=(1,),
        axes=(AxisSpec("cores", (
            PointSpec("8", config={"num_cores": 8, "torus_dims": None}),
            PointSpec("16", config={"num_cores": 16,
                                    "torus_dims": None}))),))
    cells = spec.cells()
    assert cells[0].config.torus_dims == (4, 2)
    assert cells[1].config.torus_dims == (4, 4)


def test_config_overrides_minimal_and_reconstructs():
    config = SystemConfig(num_cores=8, protocol="patch", predictor="all",
                          link_bandwidth=2.0)
    overrides = config_overrides(config)
    assert overrides == {"num_cores": 8, "protocol": "patch",
                         "predictor": "all", "link_bandwidth": 2.0}
    assert SystemConfig(**overrides) == config.with_updates(seed=1)


def test_config_overrides_keeps_explicit_nonderived_dims():
    config = SystemConfig(num_cores=16, torus_dims=(16, 1))
    assert config_overrides(config)["torus_dims"] == (16, 1)


# ---------------------------------------------------------------------------
# JSON round-trip
# ---------------------------------------------------------------------------

def test_json_roundtrip_preserves_spec_exactly():
    spec = two_axis_spec()
    data = json.loads(json.dumps(spec.to_json_dict()))
    assert StudySpec.from_json_dict(data) == spec


def test_save_load_roundtrip(tmp_path):
    spec = two_axis_spec()
    path = tmp_path / "spec.json"
    spec.save(path)
    assert StudySpec.load(path) == spec
    # Loaded specs lower to the same cells.
    assert StudySpec.load(path).cells() == spec.cells()


def test_roundtrip_with_explicit_grid_and_kwargs(tmp_path):
    spec = StudySpec(
        name="full-feature", description="everything at once",
        base_config={"num_cores": 4, "link_bandwidth": 0.3},
        workload="microbench", workload_kwargs={"table_blocks": 48},
        references_per_core=9, seeds=(3,), grid="explicit",
        points=(("x",),),
        axes=(AxisSpec("a", (PointSpec("x"), PointSpec("y"))),),
        check_integrity=False)
    path = tmp_path / "spec.json"
    spec.save(path)
    loaded = StudySpec.load(path)
    assert loaded == spec
    assert loaded.cells()[0].check_integrity is False
    assert loaded.cells()[0].config.link_bandwidth == 0.3


# ---------------------------------------------------------------------------
# Validation errors: precise and helpful
# ---------------------------------------------------------------------------

def test_unknown_config_field_names_valid_fields():
    with pytest.raises(SpecError, match="unknown config field 'protocl'"):
        StudySpec(name="typo", base_config={"protocl": "patch"},
                  references_per_core=10)
    try:
        StudySpec(name="typo", base_config={"protocl": "patch"},
                  references_per_core=10)
    except SpecError as exc:
        assert "protocol" in str(exc)  # the valid names are listed


def test_bad_config_value_names_the_grid_point():
    spec = StudySpec(name="bad", workload="microbench",
                     references_per_core=10,
                     axes=(AxisSpec("variant",
                                    (PointSpec("mesi",
                                               config={"protocol":
                                                       "mesi"}),)),))
    with pytest.raises(SpecError) as excinfo:
        spec.validate()
    message = str(excinfo.value)
    assert "grid point (mesi)" in message
    assert "choose from" in message


def test_unknown_workload_lists_registry():
    spec = StudySpec(name="bad", workload="no-such-workload",
                     references_per_core=10)
    with pytest.raises(SpecError, match="unknown workload"):
        spec.validate()


def test_missing_workload_is_an_error():
    spec = StudySpec(name="bad", references_per_core=10)
    with pytest.raises(SpecError, match="no workload"):
        spec.validate()


def test_trace_workload_requires_path_kwarg():
    spec = StudySpec(name="bad", workload="trace", references_per_core=5)
    with pytest.raises(SpecError, match="'path'"):
        spec.validate()


def test_wrong_schema_version_rejected():
    data = two_axis_spec().to_json_dict()
    data["spec_schema"] = SPEC_SCHEMA + 1
    with pytest.raises(SpecError, match="unsupported spec_schema"):
        StudySpec.from_json_dict(data)
    del data["spec_schema"]
    with pytest.raises(SpecError, match="spec_schema"):
        StudySpec.from_json_dict(data)


def test_schema_1_specs_still_load():
    """Files written at spec_schema 1 must keep loading and
    validating unchanged."""
    data = two_axis_spec().to_json_dict()
    assert data["spec_schema"] == SPEC_SCHEMA  # writes use the newest
    data["spec_schema"] = 1
    spec = StudySpec.from_json_dict(data)
    spec.validate()
    # Re-serialization upgrades to the current schema.
    assert spec.to_json_dict()["spec_schema"] == SPEC_SCHEMA


def test_supported_schemas_cover_current():
    from repro.api import SUPPORTED_SPEC_SCHEMAS
    assert SPEC_SCHEMA in SUPPORTED_SPEC_SCHEMAS
    assert 1 in SUPPORTED_SPEC_SCHEMAS


def test_spec_naming_an_executor_is_rejected_and_loads_without_it():
    """Specs no longer choose how cells run: a schema-2 file that sets
    ``executor`` fails as an unknown key, and the same file without it
    loads at both supported schemas."""
    data = two_axis_spec().to_json_dict()
    assert SPEC_SCHEMA == 2
    with pytest.raises(SpecError, match="unknown key.*'executor'"):
        StudySpec.from_json_dict(dict(data, executor="serial"))
    for schema in (1, 2):
        spec = StudySpec.from_json_dict(dict(data, spec_schema=schema))
        assert spec == two_axis_spec()


def test_unknown_top_level_key_rejected():
    data = two_axis_spec().to_json_dict()
    data["axess"] = []
    with pytest.raises(SpecError, match="'axess'"):
        StudySpec.from_json_dict(data)


def test_duplicate_axis_and_point_labels_rejected():
    axis = AxisSpec("a", (PointSpec("x"), PointSpec("x")))
    with pytest.raises(SpecError, match="duplicate point label"):
        StudySpec(name="dup", workload="microbench",
                  references_per_core=5, axes=(axis,)).validate()
    with pytest.raises(SpecError, match="duplicate axis name"):
        StudySpec(name="dup", workload="microbench",
                  references_per_core=5,
                  axes=(AxisSpec("a", (PointSpec("x"),)),
                        AxisSpec("a", (PointSpec("y"),)))).validate()


def test_explicit_grid_unknown_label_rejected():
    spec = StudySpec(name="bad", workload="microbench",
                     references_per_core=5, grid="explicit",
                     points=(("zzz",),),
                     axes=(AxisSpec("a", (PointSpec("x"),)),))
    with pytest.raises(SpecError, match="has no point 'zzz'"):
        spec.validate()


def test_explicit_points_on_cross_grid_rejected():
    spec = StudySpec(name="bad", workload="microbench",
                     references_per_core=5, points=(("x",),),
                     axes=(AxisSpec("a", (PointSpec("x"),)),))
    with pytest.raises(SpecError, match="grid='explicit'"):
        spec.validate()


def test_bad_seeds_rejected():
    with pytest.raises(SpecError, match="non-negative integers"):
        StudySpec(name="bad", workload="microbench",
                  references_per_core=5, seeds=(-1,)).validate()
    with pytest.raises(SpecError, match="at least one seed"):
        StudySpec(name="bad", workload="microbench",
                  references_per_core=5, seeds=()).validate()


def test_non_object_workload_kwargs_rejected_as_spec_error():
    """Regression: a malformed 'workload_kwargs' must surface as a
    SpecError (clean CLI error), not a raw ValueError/TypeError."""
    with pytest.raises(SpecError, match="workload_kwargs"):
        StudySpec(name="bad", workload="microbench",
                  references_per_core=5, workload_kwargs="oops")
    with pytest.raises(SpecError, match="workload_kwargs"):
        PointSpec("x", workload_kwargs=5)
    data = {"spec_schema": SPEC_SCHEMA, "name": "bad",
            "workload": "microbench", "references_per_core": 5,
            "workload_kwargs": "oops"}
    with pytest.raises(SpecError, match="workload_kwargs"):
        StudySpec.from_json_dict(data)


def test_non_list_explicit_point_rejected_as_spec_error():
    data = {"spec_schema": SPEC_SCHEMA, "name": "bad",
            "workload": "microbench", "references_per_core": 5,
            "grid": "explicit", "points": [5],
            "axes": [{"name": "a", "points": [{"label": "x"}]}]}
    with pytest.raises(SpecError, match="points\\[0\\]"):
        StudySpec.from_json_dict(data)


def test_non_string_workload_rejected_as_spec_error():
    with pytest.raises(SpecError, match="'workload'"):
        StudySpec(name="bad", workload=7,
                  references_per_core=5).validate()
    with pytest.raises(SpecError, match="'workload'"):
        PointSpec("x", workload=7)


def test_invalid_json_file_reports_cleanly(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(SpecError, match="not valid JSON"):
        StudySpec.load(path)


def test_validate_returns_self_for_chaining():
    spec = two_axis_spec()
    assert spec.validate() is spec
