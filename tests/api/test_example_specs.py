"""The committed example specs: valid, drift-free, and bit-identical.

Three layers of guarantees over ``examples/specs/``:

* every committed JSON file loads and validates, through the API and
  through ``repro study validate`` / ``repro study show``;
* each file matches the spec builder that generated it (anti-drift:
  changing a figure grid without rerunning ``examples/specs/regen.py``
  fails here);
* the committed Figure-4 study reproduces the *exact same* RunResults
  as the legacy ``run_experiment`` path, field for field (the
  acceptance check of the declarative API).
"""

import importlib.util
import json
import pathlib
import sys

import pytest

from repro.api import Session, StudySpec
from repro.cli import main
from repro.config import SystemConfig
from repro.core.runner import PAPER_CONFIGS, run_experiment
from repro.exec import ParallelRunner, ResultCache, comparable_result_dict

REPO_ROOT = pathlib.Path(__file__).resolve().parents[2]
SPEC_DIR = REPO_ROOT / "examples" / "specs"


def _load_regen():
    spec = importlib.util.spec_from_file_location(
        "specs_regen", SPEC_DIR / "regen.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


REGEN = _load_regen()
SPEC_FILES = sorted(SPEC_DIR.glob("*.json"))


def test_spec_dir_is_populated():
    assert len(SPEC_FILES) >= 5
    assert {path.name for path in SPEC_FILES} == set(REGEN.SPEC_BUILDERS)


@pytest.mark.parametrize("path", SPEC_FILES, ids=lambda p: p.name)
def test_committed_spec_loads_and_validates(path, capsys):
    spec = StudySpec.load(path)          # load() fully validates
    assert spec.num_cells() > 0
    # ...and so do the CLI commands a user inspects it with.
    assert main(["study", "validate", str(path)]) == 0
    assert capsys.readouterr().out.startswith(f"ok: {path}")
    assert main(["study", "show", str(path)]) == 0
    assert f"study:     {spec.name}" in capsys.readouterr().out


@pytest.mark.parametrize("filename", sorted(REGEN.SPEC_BUILDERS))
def test_committed_spec_matches_its_builder(filename):
    """Anti-drift: the JSON on disk is exactly the builder's output."""
    committed = json.loads((SPEC_DIR / filename).read_text())
    built = REGEN.SPEC_BUILDERS[filename]()
    assert committed == built.to_json_dict(), (
        f"{filename} drifted from its builder; rerun "
        "examples/specs/regen.py")
    # And the parsed spec equals the built one structurally.
    assert StudySpec.load(SPEC_DIR / filename) == built


def test_fig4_smoke_spec_reproduces_legacy_run_experiment_path(tmp_path):
    """Acceptance: the committed Figure-4 study == the legacy path.

    The legacy path is ``run_experiment`` per (workload, variant) —
    lowered here to its historical form, direct ``make_cell`` batches —
    and every RunResult must match the spec-driven run field for field.
    """
    from repro.exec import make_cell

    spec = StudySpec.load(SPEC_DIR / "fig4_smoke.json")
    runner = ParallelRunner(jobs=1, cache=ResultCache(tmp_path))

    study = Session(runner=runner).run(spec)

    base = SystemConfig(num_cores=4)
    for workload in ("jbb", "oltp"):
        for label, overrides in PAPER_CONFIGS.items():
            config = base.with_updates(**overrides)
            # The historical run_experiment lowering: direct make_cell
            # batches (shares the cache, so identical cells cost hits).
            legacy_runs = runner.run_cells(
                [make_cell(config, workload, 25, seed)
                 for seed in (1, 2)])
            # And the public helper itself, for good measure.
            experiment = run_experiment(config, workload,
                                        references_per_core=25,
                                        seeds=(1, 2), label=label,
                                        runner=runner)
            spec_runs = study.runs_by_key[(workload, label)]
            # comparable_result_dict: wall time / cached flags differ
            # between executions by design; the simulation must not.
            assert [comparable_result_dict(run) for run in spec_runs] == \
                [comparable_result_dict(run) for run in legacy_runs], (
                    f"{workload}/{label} diverged from the legacy cells")
            assert [comparable_result_dict(run) for run in experiment.runs] \
                == [comparable_result_dict(run) for run in legacy_runs]


def test_fig4_smoke_matches_cli_scale_expectations():
    """The smoke study stays small enough for CI (a guard against
    someone scaling it up and making spec-smoke minutes long)."""
    spec = StudySpec.load(SPEC_DIR / "fig4_smoke.json")
    assert spec.num_cells() <= 32
    for key in spec.keys():
        resolved = spec.resolve(key)
        assert resolved.build_config().num_cores <= 8
        assert resolved.references_per_core <= 50
