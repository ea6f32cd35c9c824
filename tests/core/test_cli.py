"""CLI tests: every subcommand runs and prints sane output."""

import argparse
import pathlib
import re

import pytest

from repro.cli import build_parser, main

REPO_ROOT = pathlib.Path(__file__).resolve().parents[2]


def test_parser_rejects_missing_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_parser_rejects_unknown_protocol():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["run", "--protocol", "mesi"])


def test_list_command(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "oltp" in out
    assert "PATCH-All" in out
    assert "microbench" in out


def test_run_command(capsys):
    code = main(["run", "--protocol", "patch", "--predictor", "all",
                 "--workload", "microbench", "--cores", "4",
                 "--refs", "30"])
    assert code == 0
    out = capsys.readouterr().out
    assert "cycles" in out
    assert "traffic/miss" in out


def test_run_command_directory(capsys):
    code = main(["run", "--protocol", "directory", "--workload", "jbb",
                 "--cores", "4", "--refs", "25"])
    assert code == 0
    assert "directory" in capsys.readouterr().out


def test_run_command_nonadaptive_and_coarse(capsys):
    code = main(["run", "--protocol", "patch", "--predictor", "all",
                 "--non-adaptive", "--coarseness", "4",
                 "--workload", "microbench", "--cores", "4",
                 "--refs", "20"])
    assert code == 0
    out = capsys.readouterr().out
    assert "-NA" in out
    assert "enc=1:4" in out


def test_exec_options_accepted_on_experiment_commands(capsys):
    code = main(["run", "--protocol", "directory", "--workload",
                 "microbench", "--cores", "4", "--refs", "20",
                 "--jobs", "1", "--no-cache"])
    assert code == 0
    assert "cycles" in capsys.readouterr().out


def test_run_command_uses_cache_dir(tmp_path, capsys):
    argv = ["run", "--protocol", "directory", "--workload", "microbench",
            "--cores", "4", "--refs", "20", "--cache-dir", str(tmp_path)]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert any(tmp_path.rglob("*.json"))  # the run was cached
    assert main(argv) == 0
    assert capsys.readouterr().out == first  # served from cache


def test_run_command_with_topology(capsys):
    code = main(["run", "--protocol", "patch", "--predictor", "all",
                 "--workload", "migratory", "--topology", "mesh",
                 "--cores", "4", "--refs", "20"])
    assert code == 0
    assert "topo=mesh" in capsys.readouterr().out


def test_run_command_rejects_unknown_topology():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["run", "--topology", "hypercube"])


def test_list_scenarios_names_generators_and_topologies(capsys):
    assert main(["list-scenarios"]) == 0
    out = capsys.readouterr().out
    for workload in ("migratory", "producer-consumer", "false-sharing",
                     "lock-contention", "hot-home"):
        assert workload in out
    for topology in ("torus", "mesh", "fully-connected"):
        assert topology in out
    # The footer's recipe names a committed spec.
    spec = re.search(r"repro study run (\S+)", out).group(1)
    assert (REPO_ROOT / spec).is_file()


def _subcommands():
    parser = build_parser()
    action = next(a for a in parser._actions
                  if isinstance(a, argparse._SubParsersAction))
    return action.choices


def _known_flags(parser):
    """Option strings of a parser plus all of its nested subparsers
    (``repro trace record --out ...`` documents a nested flag)."""
    flags = set(parser._option_string_actions)
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for nested in action.choices.values():
                flags |= _known_flags(nested)
    return flags


def _documented_invocations(text):
    """(subcommand, flags) for every ``repro <sub> [--flag ...]`` line."""
    for line in text.splitlines():
        match = re.search(r"\brepro ([a-z][a-z0-9-]*)", line)
        if match:
            yield match.group(1), re.findall(r"--[a-z][a-z-]*", line), line


@pytest.mark.parametrize("doc", ["README.md", "docs/SCENARIOS.md",
                                 "docs/PERFORMANCE.md", "docs/API.md",
                                 "docs/ARCHITECTURE.md",
                                 "docs/EXECUTION.md",
                                 "docs/SERVICE.md",
                                 "docs/VERIFICATION.md",
                                 "docs/OBSERVABILITY.md",
                                 "benchmarks/repro_cases/README.md",
                                 ".claude/skills/verify/SKILL.md",
                                 ".github/workflows/ci.yml"])
def test_documented_cli_recipes_exist(doc):
    """Anti-drift: every `repro` invocation in the docs and in CI must
    parse."""
    subcommands = _subcommands()
    text = (REPO_ROOT / doc).read_text(encoding="utf-8")
    checked = 0
    for sub, flags, line in _documented_invocations(text):
        assert sub in subcommands, f"{doc} documents unknown command: {line}"
        known_flags = _known_flags(subcommands[sub])
        for flag in flags:
            assert flag in known_flags, (
                f"{doc} documents unknown flag {flag} for "
                f"'repro {sub}': {line}")
        checked += 1
    assert checked > 0  # the doc actually documents the CLI


def test_cli_docstring_examples_exist():
    import repro.cli as cli
    subcommands = _subcommands()
    for sub, flags, line in _documented_invocations(cli.__doc__):
        assert sub in subcommands, line
        known_flags = _known_flags(subcommands[sub])
        for flag in flags:
            assert flag in known_flags, line


def test_bench_command_writes_report(tmp_path, capsys, monkeypatch):
    import repro.bench as bench_mod
    from test_bench import TINY_SCALE
    monkeypatch.setattr(bench_mod, "QUICK_SCALE", TINY_SCALE)
    out = tmp_path / "bench_results.json"
    code = main(["bench", "--quick", "--jobs", "1", "--no-cache",
                 "--results-dir", str(tmp_path / "results"),
                 "--out", str(out)])
    assert code == 0
    assert out.exists()
    assert (tmp_path / "results" / "fig4_runtime.txt").exists()
    captured = capsys.readouterr()
    assert "headline" in captured.out
    # Progress chatter ([bench] ...) goes to stderr; verdicts to stdout.
    assert not any(line.startswith("[")
                   for line in captured.out.splitlines())
    import json
    report = json.loads(out.read_text())
    assert report["obs"] == {"enabled": False, "studies": []}


def test_bench_obs_flag_records_study_telemetry(tmp_path, capsys,
                                                monkeypatch):
    import json
    import repro.bench as bench_mod
    from test_bench import TINY_SCALE
    monkeypatch.setattr(bench_mod, "QUICK_SCALE", TINY_SCALE)
    out = tmp_path / "bench_results.json"
    assert main(["bench", "--quick", "--jobs", "1", "--no-cache", "--obs",
                 "--results-dir", str(tmp_path / "results"),
                 "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["obs"]["enabled"] is True
    studies = report["obs"]["studies"]
    assert studies and all("study" in s and s["cells"] > 0
                           for s in studies)


# ---------------------------------------------------------------------------
# Seed validation (regression: negative seeds must fail in argparse, not
# propagate into the generators)
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("argv", [
    ["run", "--seed", "-1"],
    ["bench", "--seed", "-2"],
    ["trace", "replay", "x.rpt", "--seed", "-1"],
    ["synth", "--profile", "p.json", "--seed", "-3"],
    ["verify", "fuzz", "--seed", "-1"],
    ["trace", "record", "--seed", "-1", "--out", "x.rpt"],
    ["trace", "transform", "x.rpt", "--perturb-seed", "-4", "--out", "y"],
])
def test_negative_seed_rejected(argv, capsys):
    with pytest.raises(SystemExit) as excinfo:
        build_parser().parse_args(argv)
    assert excinfo.value.code == 2
    assert "seed must be >= 0" in capsys.readouterr().err


def test_non_integer_seed_rejected(capsys):
    with pytest.raises(SystemExit):
        build_parser().parse_args(["run", "--seed", "lots"])
    assert "not an integer" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# list-scenarios --kind
# ---------------------------------------------------------------------------

def test_list_scenarios_shows_kind_column(capsys):
    assert main(["list-scenarios"]) == 0
    out = capsys.readouterr().out
    for kind in ("pattern", "preset", "micro", "trace", "synthetic"):
        assert f"[{kind:7}]" in out


def test_list_scenarios_kind_filter(capsys):
    assert main(["list-scenarios", "--kind", "pattern"]) == 0
    out = capsys.readouterr().out
    assert "migratory" in out
    assert "oltp" not in out          # presets filtered out
    assert "microbench" not in out    # micro filtered out
    assert "torus" in out             # topologies still listed


def test_list_scenarios_rejects_unknown_kind():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["list-scenarios", "--kind", "mystery"])


# ---------------------------------------------------------------------------
# repro trace: record / info / replay / transform, and repro run --trace
# ---------------------------------------------------------------------------

def test_trace_record_info_and_replay_match_live_run(tmp_path, capsys):
    trace = str(tmp_path / "t.rpt")
    assert main(["run", "--workload", "microbench", "--cores", "4",
                 "--refs", "20", "--seed", "3", "--no-cache"]) == 0
    live = capsys.readouterr().out

    assert main(["trace", "record", "--workload", "microbench",
                 "--cores", "4", "--refs", "20", "--seed", "3",
                 "--out", trace]) == 0
    assert "digest" in capsys.readouterr().out

    assert main(["trace", "info", trace]) == 0
    info = capsys.readouterr().out
    assert "microbench" in info and "references_per_core" in info

    assert main(["trace", "replay", trace, "--no-cache"]) == 0
    assert capsys.readouterr().out == live  # bit-identical, CLI included


def test_run_with_trace_flag(tmp_path, capsys):
    trace = str(tmp_path / "t.rpt")
    assert main(["trace", "record", "--workload", "migratory",
                 "--cores", "4", "--refs", "15", "--out", trace]) == 0
    capsys.readouterr()
    assert main(["run", "--trace", trace, "--refs", "10",
                 "--no-cache"]) == 0
    assert "cycles" in capsys.readouterr().out


def test_run_with_trace_defaults_to_recorded_length(tmp_path, capsys):
    # A trace shorter than the usual --refs default must replay in full
    # without an explicit --refs.
    trace = str(tmp_path / "short.rpt")
    assert main(["trace", "record", "--workload", "microbench",
                 "--cores", "4", "--refs", "8", "--out", trace]) == 0
    capsys.readouterr()
    assert main(["run", "--trace", trace, "--no-cache"]) == 0
    assert "cycles" in capsys.readouterr().out


def test_run_with_trace_rejects_excess_refs(tmp_path, capsys):
    trace = str(tmp_path / "t.rpt")
    assert main(["trace", "record", "--workload", "microbench",
                 "--cores", "4", "--refs", "5", "--out", trace]) == 0
    capsys.readouterr()
    assert main(["run", "--trace", trace, "--refs", "50",
                 "--no-cache"]) == 2
    assert "recorded length" in capsys.readouterr().err


def test_trace_transform_fold_then_replay(tmp_path, capsys):
    trace = str(tmp_path / "t.rpt")
    folded = str(tmp_path / "folded.rpt")
    assert main(["trace", "record", "--workload", "oltp", "--cores", "4",
                 "--refs", "12", "--out", trace]) == 0
    assert main(["trace", "transform", trace, "--fold-cores", "2",
                 "--truncate", "10", "--out", folded]) == 0
    out = capsys.readouterr().out
    assert "truncate:10" in out and "fold:2" in out
    assert main(["trace", "replay", folded, "--protocol", "directory",
                 "--no-cache"]) == 0
    assert "cores=2" in capsys.readouterr().out


def test_trace_transform_interleave_and_perturb(tmp_path, capsys):
    a, b, out = (str(tmp_path / name) for name in ("a.rpt", "b.rpt",
                                                   "mix.rpt"))
    for workload, path in (("migratory", a), ("producer-consumer", b)):
        assert main(["trace", "record", "--workload", workload,
                     "--cores", "4", "--refs", "8", "--out", path]) == 0
    assert main(["trace", "transform", a, "--interleave", b,
                 "--perturb-seed", "5", "--out", out]) == 0
    text = capsys.readouterr().out
    assert "interleave" in text and "perturb:5" in text
    assert main(["trace", "replay", out, "--no-cache"]) == 0


def test_trace_transform_requires_a_step(tmp_path, capsys):
    trace = str(tmp_path / "t.rpt")
    assert main(["trace", "record", "--workload", "microbench",
                 "--cores", "2", "--refs", "3", "--out", trace]) == 0
    capsys.readouterr()
    assert main(["trace", "transform", trace,
                 "--out", str(tmp_path / "o.rpt")]) == 2
    assert "nothing to do" in capsys.readouterr().err
    # --jitter is a perturb parameter, not a step: alone it must point
    # at the missing --perturb-seed instead of being silently ignored.
    assert main(["trace", "transform", trace, "--truncate", "2",
                 "--jitter", "10", "--out", str(tmp_path / "o.rpt")]) == 2
    assert "--perturb-seed" in capsys.readouterr().err


def test_trace_commands_report_missing_file_cleanly(tmp_path, capsys):
    missing = str(tmp_path / "nope.rpt")
    for argv in (["trace", "info", missing],
                 ["trace", "replay", missing],
                 ["trace", "transform", missing, "--truncate", "1",
                  "--out", str(tmp_path / "o.rpt")],
                 ["run", "--trace", missing]):
        assert main(argv) == 2, argv
        assert "error:" in capsys.readouterr().err


def test_trace_transform_invalid_parameters_report_cleanly(tmp_path,
                                                           capsys):
    trace = str(tmp_path / "t.rpt")
    assert main(["trace", "record", "--workload", "microbench",
                 "--cores", "4", "--refs", "4", "--out", trace]) == 0
    capsys.readouterr()
    # An expanding fold is a ValueError from the transform; the CLI
    # must render it, not traceback.
    assert main(["trace", "transform", trace, "--fold-cores", "8",
                 "--out", str(tmp_path / "o.rpt")]) == 2
    assert "error:" in capsys.readouterr().err
    # Negative counts never get past argparse.
    with pytest.raises(SystemExit):
        build_parser().parse_args(["trace", "transform", trace,
                                   "--truncate", "-1", "--out", "o.rpt"])
    with pytest.raises(SystemExit):
        build_parser().parse_args(["trace", "replay", trace,
                                   "--refs", "-3"])
    with pytest.raises(SystemExit):
        build_parser().parse_args(["run", "--refs", "-5"])


def test_trace_info_reports_corrupt_file_cleanly(tmp_path, capsys):
    bad = tmp_path / "bad.rpt"
    bad.write_bytes(b"this is not a trace")
    assert main(["trace", "info", str(bad)]) == 2
    assert "magic" in capsys.readouterr().err


def test_trace_requires_subcommand():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["trace"])


# ---------------------------------------------------------------------------
# repro --version
# ---------------------------------------------------------------------------

def test_version_flag_prints_package_version(capsys):
    from repro.cli import package_version
    with pytest.raises(SystemExit) as excinfo:
        main(["--version"])
    assert excinfo.value.code == 0
    out = capsys.readouterr().out.strip()
    assert out == f"repro {package_version()}"
    assert re.fullmatch(r"repro \d+\.\d+(\.\d+.*)?", out)


def test_package_version_matches_source_tree():
    # Installed metadata (CI) or the source fallback (PYTHONPATH runs)
    # must both yield a real version string.
    import repro
    from repro.cli import package_version
    version = package_version()
    assert version
    # The source constant only diverges from metadata if an older
    # build is installed alongside a newer checkout; in this repo's
    # CI both come from the same pyproject.
    assert version == repro.__version__ or version.count(".") >= 1


# ---------------------------------------------------------------------------
# repro study validate | show | run
# ---------------------------------------------------------------------------

SPEC_DIR = REPO_ROOT / "examples" / "specs"
SMOKE_SPEC = str(SPEC_DIR / "fig4_smoke.json")


def _tiny_spec_file(tmp_path, seeds=(1,)):
    from repro.api import AxisSpec, PointSpec, StudySpec
    spec = StudySpec(
        name="cli-tiny", base_config={"num_cores": 4},
        workload="microbench", references_per_core=8, seeds=seeds,
        axes=(AxisSpec("variant", (
            PointSpec("Directory", config={"protocol": "directory"}),
            PointSpec("PATCH-All", config={"protocol": "patch",
                                           "predictor": "all"}))),))
    path = tmp_path / "tiny.json"
    spec.save(path)
    return str(path)


def test_study_requires_subcommand():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["study"])


def test_study_validate_committed_spec(capsys):
    assert main(["study", "validate", SMOKE_SPEC]) == 0
    out = capsys.readouterr().out
    assert "ok:" in out and "fig4-smoke" in out and "cells" in out


def test_study_validate_missing_file(capsys):
    assert main(["study", "validate", "no-such-spec.json"]) == 2
    assert "error:" in capsys.readouterr().err


def test_study_validate_rejects_bad_spec(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"spec_schema": 1, "name": "x", '
                   '"references_per_core": 5, "workload": "nope"}')
    assert main(["study", "validate", str(bad)]) == 2
    err = capsys.readouterr().err
    assert "unknown workload" in err
    corrupt = tmp_path / "corrupt.json"
    corrupt.write_text("{not json")
    assert main(["study", "validate", str(corrupt)]) == 2
    assert "not valid JSON" in capsys.readouterr().err
    # Regression: malformed nested shapes are clean errors, not
    # tracebacks.
    mangled = tmp_path / "mangled.json"
    mangled.write_text('{"spec_schema": 1, "name": "x", '
                       '"references_per_core": 5, '
                       '"workload": "microbench", '
                       '"workload_kwargs": "oops"}')
    assert main(["study", "validate", str(mangled)]) == 2
    assert "workload_kwargs" in capsys.readouterr().err


def test_study_show_reports_per_point_refs(tmp_path, capsys):
    from dataclasses import replace
    from repro.bench import FULL_SCALE, scalability_spec
    spec = scalability_spec(replace(FULL_SCALE, scale_cores=(4, 8),
                                    scale_refs={4: 20, 8: 10}))
    path = tmp_path / "scale.json"
    spec.save(path)
    assert main(["study", "show", str(path)]) == 0
    assert "refs/core: per point, 10..20" in capsys.readouterr().out


def test_study_show_prints_axes_and_shape(capsys):
    assert main(["study", "show", SMOKE_SPEC]) == 0
    out = capsys.readouterr().out
    assert "fig4-smoke" in out
    assert "axis workload" in out and "axis variant" in out
    assert "Token Coherence" in out
    assert "24 cells" in out


def test_study_run_prints_deterministic_table(tmp_path, capsys):
    path = _tiny_spec_file(tmp_path)
    argv = ["study", "run", path, "--jobs", "1",
            "--cache-dir", str(tmp_path / "cache")]
    assert main(argv) == 0
    first = capsys.readouterr()
    assert "Study cli-tiny" in first.out
    assert "Directory" in first.out and "PATCH-All" in first.out
    # Execution chatter lives on stderr; stdout is the table alone.
    assert "[exec] workers=1" in first.err
    assert "[cache] 0 hits, 2 misses, 2 stores" in first.err
    # Second run: identical stdout, all cells served from cache.
    assert main(argv) == 0
    second = capsys.readouterr()
    assert "[cache] 2 hits, 0 misses, 0 stores" in second.err
    assert first.out == second.out


def test_study_run_stdout_is_only_the_result_table(tmp_path, capsys):
    """Regression: stdout of `repro study run` stays machine-parseable —
    every progress/cache line goes to stderr."""
    path = _tiny_spec_file(tmp_path)
    assert main(["study", "run", path, "--jobs", "1",
                 "--cache-dir", str(tmp_path / "cache")]) == 0
    out = capsys.readouterr().out
    lines = [line for line in out.splitlines() if line]
    assert lines[0].startswith("Study cli-tiny")
    assert not any(line.startswith("[") for line in lines)


def test_study_run_no_cache_omits_cache_line(tmp_path, capsys):
    path = _tiny_spec_file(tmp_path)
    assert main(["study", "run", path, "--jobs", "1",
                 "--no-cache"]) == 0
    captured = capsys.readouterr()
    assert "[cache]" not in captured.err
    assert "[cache]" not in captured.out
    assert "[exec] workers=1" in captured.err  # still echoed


def test_study_run_reports_spec_errors_cleanly(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"name": "x"}')
    assert main(["study", "run", str(bad), "--no-cache"]) == 2
    assert "spec_schema" in capsys.readouterr().err


def test_study_run_executor_flag_is_echoed(tmp_path, capsys):
    """In-process (``--jobs 1``) and pool (``--jobs 2``) runs, each
    executing every cell into its own empty cache, print byte-identical
    tables and echo their worker count on stderr."""
    path = _tiny_spec_file(tmp_path)
    outputs = {}
    for jobs in ("1", "2"):
        assert main(["study", "run", path, "--jobs", jobs, "--cache-dir",
                     str(tmp_path / f"cache-{jobs}")]) == 0
        captured = capsys.readouterr()
        assert f"[exec] workers={jobs}\n" in captured.err
        assert "[cache] 0 hits, 2 misses, 2 stores" in captured.err
        outputs[jobs] = captured.out
    assert outputs["1"] == outputs["2"]


def test_study_status_and_list_take_only_cache_flags():
    """They read manifests and execute nothing, so they take no
    worker count."""
    parser = build_parser()
    for argv in (["study", "status", "x.json"], ["study", "list"]):
        args = parser.parse_args(argv + ["--cache-dir", "c", "--no-cache"])
        assert args.cache_dir == "c" and args.no_cache
        with pytest.raises(SystemExit):
            parser.parse_args(argv + ["--jobs", "3"])


def test_study_max_cells_then_resume_roundtrip(tmp_path, capsys):
    path = _tiny_spec_file(tmp_path, seeds=(1, 2))
    cache = ["--cache-dir", str(tmp_path / "cache")]
    jobs = ["--jobs", "1"]

    # Before anything runs, status reports no progress.
    assert main(["study", "status", path] + cache) == 0
    assert "no recorded progress" in capsys.readouterr().out

    # Chunk 1: one cell executes, three stay pending.
    assert main(["study", "run", path, "--max-cells", "1"]
                + cache + jobs) == 0
    captured = capsys.readouterr()
    assert "1 done, 3 pending, 0 failed of 4 cells" in captured.out
    assert "--resume" in captured.err  # points at how to continue
    assert "[exec] workers=1" in captured.err

    assert main(["study", "status", path] + cache) == 0
    assert "1 done, 3 pending, 0 failed of 4 cells" \
        in capsys.readouterr().out

    # Resume: only the three missing cells execute (1 hit, 3 misses).
    assert main(["study", "run", path, "--resume"] + cache + jobs) == 0
    captured = capsys.readouterr()
    assert "Study cli-tiny" in captured.out
    assert "[cache] 1 hits, 3 misses, 3 stores" in captured.err

    assert main(["study", "status", path] + cache) == 0
    assert "4 done, 0 pending, 0 failed of 4 cells" \
        in capsys.readouterr().out


def test_study_resume_without_cache_is_an_error(tmp_path, capsys):
    path = _tiny_spec_file(tmp_path)
    for extra in (["--resume"], ["--max-cells", "1"]):
        assert main(["study", "run", path, "--no-cache"] + extra) == 2
        assert "--no-cache" in capsys.readouterr().err
    assert main(["study", "status", path, "--no-cache"]) == 2
    assert "--no-cache" in capsys.readouterr().err


def test_study_run_failure_points_at_status_and_resume(tmp_path, capsys):
    from repro.api import AxisSpec, PointSpec, StudySpec
    spec = StudySpec(
        name="cli-fail", base_config={"num_cores": 4},
        workload="microbench", references_per_core=8, seeds=(1,),
        axes=(AxisSpec("variant", (
            PointSpec("good", config={"protocol": "directory"}),
            PointSpec("bad", workload="trace",
                      workload_kwargs={"path":
                                       str(tmp_path / "missing.rpt")}))),))
    path = tmp_path / "fail.json"
    spec.save(path)
    cache = ["--cache-dir", str(tmp_path / "cache")]
    assert main(["study", "run", str(path), "--jobs", "1"] + cache) == 1
    err = capsys.readouterr().err
    assert "error:" in err
    assert "study status" in err and "--resume" in err
    # The failure is recorded for status to report.
    assert main(["study", "status", str(path)] + cache) == 0
    out = capsys.readouterr().out
    assert "1 done, 0 pending, 1 failed of 2 cells" in out
    assert "failed: bad seed=1" in out


def test_manifest_with_executor_field_still_loads(tmp_path, capsys):
    """Manifests recorded when studies still named an execution
    backend (an ``executor`` key) keep working: status, resume, list."""
    import json
    from repro.api import Session, StudySpec
    from repro.exec import ManifestStore, spec_digest
    path = _tiny_spec_file(tmp_path, seeds=(1, 2))
    spec = StudySpec.load(path)
    cache_dir = tmp_path / "cache"
    Session(jobs=1, cache_dir=cache_dir).advance(spec, limit=1)
    manifest_path = ManifestStore(cache_dir).path_for(spec_digest(spec))
    recorded = json.loads(manifest_path.read_text())
    recorded["executor"] = "local"
    manifest_path.write_text(json.dumps(recorded))
    cache = ["--cache-dir", str(cache_dir)]

    assert main(["study", "status", path] + cache) == 0
    assert "1 done, 3 pending, 0 failed of 4 cells" \
        in capsys.readouterr().out
    assert main(["study", "run", path, "--resume", "--jobs", "1"]
                + cache) == 0
    assert "[cache] 1 hits, 3 misses, 3 stores" in capsys.readouterr().err
    assert main(["study", "list"] + cache) == 0
    listed = capsys.readouterr().out
    assert spec_digest(spec) in listed and "cli-tiny" in listed
    assert "4/4" in listed


def test_run_workload_choices_exclude_trace():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["run", "--workload", "trace"])


# ---------------------------------------------------------------------------
# repro trace profile | repro synth | repro verify fuzz
# ---------------------------------------------------------------------------

def test_trace_profile_command(tmp_path, capsys):
    trace = str(tmp_path / "t.rpt")
    out = str(tmp_path / "t.profile.json")
    assert main(["trace", "record", "--workload", "migratory",
                 "--cores", "4", "--refs", "20", "--out", trace]) == 0
    capsys.readouterr()
    assert main(["trace", "profile", trace, "--out", out]) == 0
    printed = capsys.readouterr().out
    assert "write fraction" in printed and "sharing degree" in printed
    import json
    payload = json.loads(pathlib.Path(out).read_text())
    assert payload["profile_schema"] == 1
    assert payload["num_cores"] == 4


def test_trace_profile_missing_file(tmp_path, capsys):
    assert main(["trace", "profile", str(tmp_path / "nope.rpt")]) == 2
    assert "error:" in capsys.readouterr().err


def _profile_file(tmp_path):
    from repro.synth import profile_workload
    path = tmp_path / "fit.json"
    profile_workload("migratory", num_cores=4,
                     references_per_core=40).save(path)
    return str(path)


def test_synth_command_writes_trace_and_reports_fidelity(tmp_path,
                                                         capsys):
    committed = REPO_ROOT / "examples" / "profiles" / "migratory.json"
    out = str(tmp_path / "synth.rpt")
    for profile in (_profile_file(tmp_path), str(committed)):
        assert main(["synth", "--profile", profile, "--cores", "4",
                     "--refs", "30", "--out", out]) == 0
        printed = capsys.readouterr().out
        assert "fidelity" in printed and "tv-distance" in printed
        assert main(["trace", "info", out]) == 0
        assert "synthetic" in capsys.readouterr().out


def test_synth_command_run_and_knobs(tmp_path, capsys):
    profile = _profile_file(tmp_path)
    assert main(["synth", "--profile", profile, "--cores", "4",
                 "--refs", "15", "--run", "--no-cache",
                 "--write-fraction", "0.5"]) == 0
    assert "cycles" in capsys.readouterr().out


def test_synth_command_errors_cleanly(tmp_path, capsys):
    assert main(["synth", "--profile", str(tmp_path / "ghost.json"),
                 "--out", str(tmp_path / "o.rpt")]) == 2
    assert "error:" in capsys.readouterr().err
    profile = _profile_file(tmp_path)
    assert main(["synth", "--profile", profile, "--sharing-boost", "-1",
                 "--out", str(tmp_path / "o.rpt")]) == 2
    assert "error:" in capsys.readouterr().err


def test_verify_requires_subcommand():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["verify"])


def test_verify_fuzz_clean_campaign(tmp_path, capsys):
    assert main(["verify", "fuzz", "--scenarios", "2",
                 "--schedules", "2", "--seed", "3",
                 "--out-dir", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "[OK]" in out and "seed=3" in out


def test_verify_fuzz_inject_saves_and_replays(tmp_path, capsys):
    report = tmp_path / "report.json"
    assert main(["verify", "fuzz", "--scenarios", "1",
                 "--schedules", "4", "--seed", "3", "--inject",
                 "--out-dir", str(tmp_path),
                 "--report", str(report)]) == 1
    out = capsys.readouterr().out
    assert "VIOLATIONS" in out
    assert "verify fuzz --replay" in out  # points at how to reproduce
    import json
    payload = json.loads(report.read_text())
    assert payload["violations"] and not payload["ok"]
    assert payload["saved_cases"]
    case = payload["saved_cases"][0]
    assert main(["verify", "fuzz", "--replay", str(case)]) == 0
    assert "reproduced" in capsys.readouterr().out


def test_verify_fuzz_replay_missing_case(tmp_path, capsys):
    assert main(["verify", "fuzz", "--replay",
                 str(tmp_path / "nope.json")]) == 2
    assert "error:" in capsys.readouterr().err


def test_verify_fuzz_rejects_bad_parameters(capsys):
    with pytest.raises(SystemExit):
        build_parser().parse_args(["verify", "fuzz", "--scenarios", "0"])
    assert "must be >= 1" in capsys.readouterr().err
    with pytest.raises(SystemExit):
        build_parser().parse_args(["verify", "fuzz", "--protocols",
                                   "mesi"])
    capsys.readouterr()
    # Parameters argparse cannot see through are still clean errors.
    assert main(["verify", "fuzz", "--scenarios", "1", "--schedules",
                 "1", "--time-budget", "-5"]) == 2
    assert "error:" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# Observability flags and `repro obs top`
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("argv", [
    ["run", "--obs", "--timeline", "out.json", "--profile", "prof"],
    ["bench", "--quick", "--obs"],
    ["study", "run", "spec.json", "--obs", "--timeline", "traces"],
])
def test_obs_flags_accepted_where_documented(argv):
    args = build_parser().parse_args(argv)
    assert args.obs is True


def test_obs_flags_set_and_restore_the_environment(tmp_path, capsys):
    import os
    traces = tmp_path / "traces"
    prof = tmp_path / "prof"
    assert main(["run", "--workload", "microbench", "--cores", "4",
                 "--refs", "10", "--no-cache", "--obs",
                 "--timeline", str(traces), "--profile", str(prof)]) == 0
    # The flags ride as env vars (so workers inherit them) and are
    # restored after dispatch.
    assert "REPRO_OBS" not in os.environ
    assert "REPRO_TIMELINE" not in os.environ
    assert "REPRO_PROFILE_DIR" not in os.environ
    assert list(traces.glob("*.json"))   # the cell's trace landed
    assert list(prof.glob("*.pstats"))   # and its profile
    assert "cycles" in capsys.readouterr().out


def test_obs_run_output_matches_plain_run(tmp_path, capsys):
    argv = ["run", "--workload", "microbench", "--cores", "4",
            "--refs", "10", "--no-cache"]
    assert main(argv) == 0
    plain = capsys.readouterr().out
    assert main(argv + ["--obs"]) == 0
    assert capsys.readouterr().out == plain  # obs never changes results


def test_obs_top_renders_merged_profiles(tmp_path, capsys):
    prof = tmp_path / "prof"
    assert main(["run", "--workload", "microbench", "--cores", "4",
                 "--refs", "10", "--no-cache",
                 "--profile", str(prof)]) == 0
    capsys.readouterr()
    assert main(["obs", "top", str(prof), "--limit", "5",
                 "--sort", "tottime"]) == 0
    out = capsys.readouterr().out
    assert "merged 1 profile(s)" in out
    assert "tottime" in out


def test_obs_top_explains_an_empty_directory(tmp_path, capsys):
    assert main(["obs", "top", str(tmp_path)]) == 2
    assert "--profile" in capsys.readouterr().err


def test_obs_top_rejects_unknown_sort():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["obs", "top", "prof",
                                   "--sort", "alphabetical"])


def test_study_status_shows_per_cell_timings(tmp_path, capsys):
    path = _tiny_spec_file(tmp_path)
    cache = ["--cache-dir", str(tmp_path / "cache")]
    assert main(["study", "run", path, "--jobs", "1", "--obs"] + cache) == 0
    capsys.readouterr()
    assert main(["study", "status", path] + cache) == 0
    out = capsys.readouterr().out
    assert "2 done, 0 pending, 0 failed of 2 cells" in out
    # Every cell line carries wall time + throughput, and the --obs run
    # recorded a phase breakdown.
    assert re.search(r"done: Directory seed=1: \d+\.\d+s, "
                     r"[\d,]+ events/s", out)
    assert "sim" in out and "build" in out


def test_study_status_marks_cached_cells(tmp_path, capsys):
    path = _tiny_spec_file(tmp_path)
    cache = ["--cache-dir", str(tmp_path / "cache")]
    assert main(["study", "run", path, "--jobs", "1"] + cache) == 0
    assert main(["study", "run", path, "--jobs", "1"] + cache) == 0
    capsys.readouterr()
    assert main(["study", "status", path] + cache) == 0
    out = capsys.readouterr().out
    assert "done: Directory seed=1: cached" in out
