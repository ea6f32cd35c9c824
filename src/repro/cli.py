"""Command-line interface.

``repro`` (or ``python -m repro``) runs individual simulations and
regenerates the paper's experiments from the shell:

.. code-block:: console

    repro run --protocol patch --predictor all --workload oltp
    repro run --workload migratory --topology mesh
    repro study run examples/specs/fig6_bandwidth_ocean.json
    repro study run examples/specs/scenario_matrix.json
    repro trace record --workload oltp --cores 16 --refs 120 --out oltp.rpt
    repro trace info oltp.rpt
    repro trace transform oltp.rpt --fold-cores 8 --out oltp8.rpt
    repro trace replay oltp8.rpt --protocol directory
    repro run --trace oltp.rpt --refs 100
    repro trace profile oltp.rpt --out oltp.profile.json
    repro synth --profile oltp.profile.json --cores 8 --refs 200 --out s.rpt
    repro synth --profile examples/profiles/migratory.json --run
    repro verify fuzz --scenarios 10 --schedules 20 --seed 1
    repro verify fuzz --inject --out-dir benchmarks/repro_cases
    repro verify fuzz --replay benchmarks/repro_cases/case.json
    repro study validate examples/specs/fig4_paper.json
    repro study show examples/specs/fig4_paper.json
    repro study run examples/specs/fig4_smoke.json --jobs 2
    repro study run examples/specs/fig4_smoke.json --max-cells 8
    repro study run examples/specs/fig4_smoke.json --resume
    repro study status examples/specs/fig4_smoke.json
    repro study list
    repro serve --port 8273 --jobs 4
    repro study submit examples/specs/fig4_smoke.json --server http://127.0.0.1:8273
    repro study run examples/specs/fig4_smoke.json --timeline traces
    repro run --workload oltp --timeline run.json
    repro study run examples/specs/fig4_smoke.json --profile prof
    repro obs top prof --limit 10 --sort cumulative
    repro bench --quick --jobs 4
    repro list
    repro list-scenarios --kind pattern
    repro --version

``repro trace`` records/inspects/transforms/replays access traces
(see :mod:`repro.traces`), ``repro study`` validates/inspects/runs
declarative study specs (JSON experiment grids — see :mod:`repro.api`
and docs/API.md; every figure grid, the sharing-pattern x topology
scenario matrix included, ships as a spec under ``examples/specs/``),
``repro trace profile`` / ``repro synth`` fit and sample statistical
workload profiles (see :mod:`repro.synth`; a starter corpus ships under
``examples/profiles/``), ``repro verify fuzz`` runs the property-based
protocol verification campaign — random and synthesized race scenarios
explored under adversarial schedules on every protocol, with violations
shrunk and saved as replayable cases (docs/VERIFICATION.md is the
guide), and ``repro bench`` regenerates the whole figure suite with
machine-readable timings (simulation throughput is measured by the
repository benchmark, ``benchmarks/perf/run.py``, not by the CLI).
Experiment subcommands accept ``--jobs`` (worker count, default
``REPRO_JOBS`` or the CPU count; ``--jobs 1`` runs every cell in this
process, the debugging and profiling setting), ``--no-cache``, and
``--cache-dir`` (default
``REPRO_CACHE_DIR`` or ``~/.cache/repro``).  ``repro study run``
additionally takes ``--resume`` / ``--max-cells`` for resumable and
chunked grids, with ``repro study status`` reporting recorded
progress (each executed cell's wall time and its build, sim, drain and
collect seconds; a cache hit shows as ``cached``) and ``repro study
list`` enumerating every recorded manifest; both execute nothing and
take only the cache flags — docs/EXECUTION.md is the operations guide.
``repro serve`` runs the experiment service daemon (studies over HTTP
with a shared warm cache and in-flight dedup), and ``repro study
submit`` sends a spec to one and renders the same table as a local
run — docs/SERVICE.md is that guide.  The run, study run, and bench
subcommands accept the observability flags ``--timeline PATH``
(per-cell Chrome trace-event JSON, viewable in Perfetto) and
``--profile DIR`` (per-cell cProfile dumps); render the merged hotspot
table with ``repro obs top DIR``, and set ``REPRO_LOG=level`` for
structured logging.  docs/OBSERVABILITY.md is the guide.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional

from repro.analysis import bar_chart, format_table
from repro.api import Session, StudySpec
from repro.bench import run_bench
from repro.config import PREDICTORS, PROTOCOLS, SystemConfig
from repro.core.runner import (ADAPTIVITY_CONFIGS, PAPER_CONFIGS,
                               run_experiment)
from repro.exec import CellExecutionError, code_version
from repro.interconnect.topology import TOPOLOGIES, topology_names
from repro.obs import (PROFILE_ENV, TIMELINE_ENV, configure_logging,
                       render_top)
from repro.obs.profiling import SORT_KEYS
from repro.workloads.presets import WORKLOAD_NAMES
from repro.workloads.registry import WORKLOAD_KINDS, workload_specs


#: Workloads runnable by bare name.  The "trace" replayer needs a file
#: (``repro run --trace`` / ``repro trace replay`` supply it) and the
#: "synthetic" sampler needs a profile (``repro synth`` supplies it).
RUNNABLE_WORKLOADS = sorted(name for name in WORKLOAD_NAMES
                            if name not in ("trace", "synthetic"))


def _int_at_least(minimum: int, what: str = "value"):
    """Argparse type: an integer bounded below, with a named error."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"{text!r} is not an integer")
        if value < minimum:
            raise argparse.ArgumentTypeError(
                f"{what} must be >= {minimum}, got {value}")
        return value
    return parse


_positive_int = _int_at_least(1)
_nonneg_int = _int_at_least(0)
#: Seeds must be non-negative ints: generators derive per-core RNG
#: streams from them, and a negative seed silently propagating into a
#: generator is a typo, not an experiment.
_seed_value = _int_at_least(0, "seed")


def _resolve_trace_refs(path: str, refs: Optional[int]):
    """``(meta, refs)`` for replaying a trace file.

    ``refs=None`` means the full recorded length; asking for more than
    was recorded raises ``ValueError`` (callers render it as a clean
    CLI error).
    """
    from repro.traces import trace_shape
    meta, recorded = trace_shape(path)
    if refs is None:
        refs = recorded
    elif refs > recorded:
        raise ValueError(
            f"--refs {refs} exceeds the recorded length ({recorded} "
            f"references per core in {path})")
    return meta, refs


def _add_exec_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--jobs", type=_positive_int, default=None,
                        metavar="N",
                        help="worker processes for independent simulations "
                             "(default: $REPRO_JOBS or the CPU count; 1 "
                             "runs every cell in this process)")
    _add_cache_options(parser)


def _add_cache_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--no-cache", action="store_true",
                        help="do not read or write the on-disk result cache")
    parser.add_argument("--cache-dir", default=None, metavar="DIR",
                        help="result-cache directory (default: "
                             "$REPRO_CACHE_DIR or ~/.cache/repro)")


def _add_obs_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--timeline", default=None, metavar="PATH",
                        help="write per-cell Chrome trace-event JSON "
                             "(open in Perfetto); a PATH ending in "
                             ".json is the exact file, anything else "
                             "a directory collecting one file per cell")
    parser.add_argument("--profile", default=None, metavar="DIR",
                        help="capture per-cell cProfile stats into DIR "
                             "(render with: repro obs top DIR)")


def _session(args) -> Session:
    """The one Session a command runs on, from --jobs / --cache-dir /
    --no-cache (``study status`` / ``study list`` take only the cache
    flags).  Commands use it as a context manager, so its worker pool
    ends with the command."""
    return Session(jobs=getattr(args, "jobs", None),
                   cache_dir=args.cache_dir, no_cache=args.no_cache)


def package_version() -> str:
    """The installed distribution's version, or the source tree's."""
    try:
        from importlib.metadata import PackageNotFoundError, version
        return version("repro-token-tenure")
    except PackageNotFoundError:
        # Running from a source checkout (PYTHONPATH=src) without an
        # installed distribution: fall back to the package constant.
        from repro import __version__
        return __version__


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of 'Token Tenure: PATCHing Token "
                    "Counting Using Directory-Based Cache Coherence' "
                    "(MICRO-41 2008)")
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {package_version()}")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run one simulation")
    run.add_argument("--cores", type=int, default=16,
                     help="number of cores (default 16)")
    run.add_argument("--refs", type=_nonneg_int, default=None,
                     help="references per core (default 100, or the "
                          "recorded length with --trace)")
    run.add_argument("--seed", type=_seed_value, default=1)
    run.add_argument("--workload", default="oltp",
                     choices=RUNNABLE_WORKLOADS)
    _add_exec_options(run)
    _add_obs_options(run)
    run.add_argument("--protocol", default="patch", choices=PROTOCOLS)
    run.add_argument("--predictor", default="all", choices=PREDICTORS)
    run.add_argument("--topology", default="torus",
                     choices=topology_names(),
                     help="interconnect fabric (default torus)")
    run.add_argument("--bandwidth", type=float, default=16.0,
                     help="link bandwidth in bytes/cycle")
    run.add_argument("--coarseness", type=int, default=1,
                     help="sharer-encoding coarseness (cores per bit)")
    run.add_argument("--non-adaptive", action="store_true",
                     help="guaranteed (not best-effort) direct requests")
    run.add_argument("--trace", default=None, metavar="FILE",
                     help="replay a recorded access trace instead of a "
                          "generator (--workload/--cores are then taken "
                          "from the trace; --refs defaults to the recorded "
                          "length and must not exceed it)")

    bench = sub.add_parser(
        "bench", help="regenerate the full figure suite with timings")
    _add_exec_options(bench)
    _add_obs_options(bench)
    bench.add_argument("--quick", action="store_true",
                       help="CI smoke-test scale (smaller grids, 1 seed)")
    bench.add_argument("--results-dir",
                       default=os.path.join("benchmarks", "results"),
                       help="where the rendered tables go "
                            "(default benchmarks/results)")
    bench.add_argument("--out", default="bench_results.json",
                       help="machine-readable timing/headline report path")
    bench.add_argument("--check", action="store_true",
                       help="exit non-zero if the paper's headline claim "
                            "(PATCH-All within noise of Token Coherence) "
                            "regressed")
    bench.add_argument("--seed", type=_seed_value, default=None,
                       help="override the seed-parameterized grids "
                            "(figures 4-7, the scenario matrix, and the "
                            "trace-replay row) with this single seed; "
                            "figures 8-10, the ablations and Tables 2 "
                            "and 4 keep their fixed seeds")

    trace = sub.add_parser(
        "trace", help="record, inspect, transform, and replay access "
                      "traces (see docs/SCENARIOS.md, 'Trace recipes')")
    tsub = trace.add_subparsers(dest="trace_command", required=True)

    record = tsub.add_parser(
        "record", help="record a workload's per-core access streams")
    record.add_argument("--workload", default="microbench",
                        choices=RUNNABLE_WORKLOADS)
    record.add_argument("--cores", type=int, default=16,
                        help="number of cores (default 16)")
    record.add_argument("--refs", type=_nonneg_int, default=100,
                        help="references per core to record (default 100)")
    record.add_argument("--seed", type=_seed_value, default=1)
    record.add_argument("--out", required=True, metavar="FILE",
                        help="trace file to write")

    info = tsub.add_parser(
        "info", help="print a trace file's header, per-core counts, "
                     "read/write mix, and digest")
    info.add_argument("path", metavar="FILE")

    tprofile = tsub.add_parser(
        "profile", help="fit a statistical workload profile to a trace "
                        "(sharing degrees, read/write mix, reuse "
                        "distances, burstiness)")
    tprofile.add_argument("path", metavar="FILE")
    tprofile.add_argument("--out", default=None, metavar="PROFILE.json",
                          help="write the fitted profile as JSON (the "
                               "input to `repro synth` and the "
                               "'synthetic' workload)")

    replay = tsub.add_parser(
        "replay", help="run one simulation driven by a recorded trace")
    replay.add_argument("path", metavar="FILE")
    _add_exec_options(replay)
    replay.add_argument("--protocol", default="patch", choices=PROTOCOLS)
    replay.add_argument("--predictor", default="all", choices=PREDICTORS)
    replay.add_argument("--topology", default="torus",
                        choices=topology_names())
    replay.add_argument("--bandwidth", type=float, default=16.0,
                        help="link bandwidth in bytes/cycle")
    replay.add_argument("--refs", type=_nonneg_int, default=None,
                        help="references per core (default: the full "
                             "recorded length)")
    replay.add_argument("--seed", type=_seed_value, default=1,
                        help="config seed (replay content is fixed by the "
                             "trace; this only distinguishes cells)")

    transform = tsub.add_parser(
        "transform", help="derive a new trace: truncate, fold onto fewer "
                          "cores, interleave with another trace, perturb "
                          "timing (applied in that order)")
    transform.add_argument("path", metavar="FILE")
    transform.add_argument("--out", required=True, metavar="FILE",
                           help="derived trace file to write")
    transform.add_argument("--truncate", type=_nonneg_int, default=None,
                           metavar="REFS",
                           help="keep only the first REFS accesses per core")
    transform.add_argument("--fold-cores", type=int, default=None,
                           metavar="N",
                           help="remap onto N cores (old core i -> i %% N)")
    transform.add_argument("--interleave", default=None, metavar="FILE",
                           help="alternate accesses with a second trace "
                                "(its blocks are offset past this trace's)")
    transform.add_argument("--perturb-seed", type=_seed_value, default=None,
                           metavar="SEED",
                           help="jitter think times deterministically")
    transform.add_argument("--jitter", type=_nonneg_int, default=None,
                           help="max think-time jitter in cycles "
                                "(requires --perturb-seed; default 4)")

    synth = sub.add_parser(
        "synth", help="synthesize an access stream matching a fitted "
                      "profile, echo its fidelity, and optionally "
                      "record or run it (see docs/VERIFICATION.md)")
    synth.add_argument("--profile", required=True, metavar="PROFILE.json",
                       help="profile JSON from `repro trace profile "
                            "--out` (a starter corpus ships under "
                            "examples/profiles/)")
    synth.add_argument("--cores", type=_positive_int, default=None,
                       help="number of cores (default: the profile's)")
    synth.add_argument("--refs", type=_positive_int, default=None,
                       help="references per core (default: the "
                            "profile's fitted length)")
    synth.add_argument("--seed", type=_seed_value, default=1)
    synth.add_argument("--out", default=None, metavar="FILE",
                       help="record the synthesized stream as a trace "
                            "file")
    synth.add_argument("--run", action="store_true",
                       help="also run one simulation driven by the "
                            "synthesized workload")
    synth.add_argument("--protocol", default="patch", choices=PROTOCOLS,
                       help="protocol for --run (default patch)")
    _add_exec_options(synth)
    synth.add_argument("--write-fraction", type=float, default=None,
                       metavar="F",
                       help="dial: rescale the read/write mix to F")
    synth.add_argument("--sharing-boost", type=float, default=None,
                       metavar="B",
                       help="dial: multiply access weight by "
                            "B**(degree-1), shifting traffic toward "
                            "(B>1) or away from (B<1) shared blocks")
    synth.add_argument("--blocks", type=_positive_int, default=None,
                       help="dial: resize the block population")
    synth.add_argument("--repeat-fraction", type=float, default=None,
                       metavar="F",
                       help="dial: override per-core burstiness "
                            "(P(next access repeats the previous "
                            "block))")

    verify = sub.add_parser(
        "verify", help="property-based protocol verification "
                       "(docs/VERIFICATION.md catalogs the invariants)")
    vsub = verify.add_subparsers(dest="verify_command", required=True)
    fuzz = vsub.add_parser(
        "fuzz", help="fuzz random and synthesized race scenarios "
                     "through the schedule explorer on every protocol; "
                     "violations are shrunk and saved as replayable "
                     "cases")
    fuzz.add_argument("--scenarios", type=_positive_int, default=10,
                      help="scenarios to generate (default 10)")
    fuzz.add_argument("--schedules", type=_positive_int, default=10,
                      help="network schedules per scenario x protocol "
                           "(default 10)")
    fuzz.add_argument("--seed", type=_seed_value, default=1,
                      help="campaign seed (the whole campaign is a "
                           "deterministic function of it)")
    fuzz.add_argument("--protocols", nargs="+", default=list(PROTOCOLS),
                      choices=PROTOCOLS,
                      help="protocols to hammer (default: all three)")
    fuzz.add_argument("--max-cores", type=_positive_int, default=4,
                      help="largest scenario core count (default 4)")
    fuzz.add_argument("--inject", action="store_true",
                      help="plant the deterministic canary violation to "
                           "prove the campaign catches, shrinks, and "
                           "persists failures (CI runs this)")
    fuzz.add_argument("--out-dir", metavar="DIR",
                      default=os.path.join("benchmarks", "repro_cases"),
                      help="where violating cases are saved as "
                           "replayable JSON + trace artifacts "
                           "(default benchmarks/repro_cases)")
    fuzz.add_argument("--report", default=None, metavar="FILE",
                      help="write the machine-readable campaign report "
                           "as JSON")
    fuzz.add_argument("--time-budget", type=float, default=None,
                      metavar="SECONDS",
                      help="stop starting new scenarios after this many "
                           "seconds (the report records truncation; "
                           "omit for a fully deterministic campaign)")
    fuzz.add_argument("--replay", default=None, metavar="CASE.json",
                      help="re-run one saved case instead of fuzzing; "
                           "exit 0 iff the violation reproduces")

    study = sub.add_parser(
        "study", help="validate, inspect, and run declarative study "
                      "specs (JSON experiment grids; see docs/API.md)")
    stsub = study.add_subparsers(dest="study_command", required=True)

    svalidate = stsub.add_parser(
        "validate", help="check a spec file: schema version, axes, "
                         "configs, and workload names")
    svalidate.add_argument("spec", metavar="SPEC.json")

    sshow = stsub.add_parser(
        "show", help="print a spec's axes, grid points, and cell count")
    sshow.add_argument("spec", metavar="SPEC.json")

    srun = stsub.add_parser(
        "run", help="run every cell of a study and print per-point "
                    "aggregates (deterministic grid order)")
    srun.add_argument("spec", metavar="SPEC.json")
    _add_exec_options(srun)
    _add_obs_options(srun)
    srun.add_argument("--resume", action="store_true",
                      help="continue the study's recorded manifest: cells "
                           "already done load from the cache, only the "
                           "missing ones execute")
    srun.add_argument("--max-cells", type=_positive_int, default=None,
                      metavar="N",
                      help="execute at most N missing cells, record "
                           "progress, and stop (finish later with "
                           "--resume or more --max-cells chunks)")

    sstatus = stsub.add_parser(
        "status", help="report a study's recorded progress (done/pending/"
                       "failed cells) without running anything")
    sstatus.add_argument("spec", metavar="SPEC.json")
    _add_cache_options(sstatus)

    slist = stsub.add_parser(
        "list", help="list every study manifest recorded beside the "
                     "result cache (digest, study, progress)")
    _add_cache_options(slist)

    ssubmit = stsub.add_parser(
        "submit", help="submit a spec to a running service daemon and "
                       "render the same result table as a local run "
                       "(docs/SERVICE.md)")
    ssubmit.add_argument("spec", metavar="SPEC.json")
    ssubmit.add_argument("--server", required=True, metavar="URL",
                         help="service base URL, e.g. "
                              "http://127.0.0.1:8273 (start one with: "
                              "repro serve)")
    ssubmit.add_argument("--timeout", type=float, default=600.0,
                         metavar="SECONDS",
                         help="seconds to wait for the study to finish "
                              "(default 600)")
    ssubmit.add_argument("--no-wait", action="store_true",
                         help="submit, print the study id, and return "
                              "without waiting for completion")

    serve = sub.add_parser(
        "serve", help="run the experiment service daemon: studies over "
                      "HTTP with a shared warm cache and in-flight "
                      "dedup (docs/SERVICE.md)")
    serve.add_argument("--host", default="127.0.0.1",
                       help="interface to bind (default 127.0.0.1)")
    serve.add_argument("--port", type=_nonneg_int, default=8273,
                       help="TCP port; 0 binds an ephemeral port "
                            "(default 8273)")
    _add_exec_options(serve)

    obs_cmd = sub.add_parser(
        "obs", help="observability utilities (docs/OBSERVABILITY.md)")
    osub = obs_cmd.add_subparsers(dest="obs_command", required=True)
    otop = osub.add_parser(
        "top", help="merged hotspot table from per-cell --profile dumps")
    otop.add_argument("dir", metavar="DIR",
                      help="directory of .pstats files written by "
                           "--profile DIR (or REPRO_PROFILE_DIR)")
    otop.add_argument("--limit", type=_positive_int, default=15,
                      help="rows to print (default 15)")
    otop.add_argument("--sort", default="cumulative", choices=SORT_KEYS,
                      help="pstats sort key (default cumulative)")

    sub.add_parser("list", help="list workloads and configurations")
    list_scenarios = sub.add_parser(
        "list-scenarios",
        help="list every registered workload generator and "
             "interconnect topology")
    list_scenarios.add_argument("--kind", default=None,
                                choices=WORKLOAD_KINDS,
                                help="only show generators of this kind")
    return parser


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def _print_run(result) -> None:
    print(result.summary())
    print(bar_chart("traffic/miss by class (bytes)",
                    {k: v for k, v in result.traffic_per_miss().items()
                     if v}))


def cmd_run(args) -> int:
    cores = args.cores
    refs = args.refs
    workload = args.workload
    workload_kwargs = {}
    if args.trace is not None:
        from repro.traces import TraceFormatError
        try:
            meta, refs = _resolve_trace_refs(args.trace, refs)
        except (OSError, TraceFormatError, ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        cores = meta.num_cores
        workload = "trace"
        workload_kwargs = {"path": args.trace}
    elif refs is None:
        refs = 100
    config = SystemConfig(num_cores=cores, protocol=args.protocol,
                          predictor=(args.predictor
                                     if args.protocol == "patch" else "none"),
                          topology=args.topology,
                          link_bandwidth=args.bandwidth,
                          encoding_coarseness=args.coarseness,
                          best_effort_direct=not args.non_adaptive)
    # Through the session's runner (not run_one) so --jobs /
    # --cache-dir / --no-cache apply.
    with _session(args) as session:
        result = run_experiment(config, workload,
                                references_per_core=refs,
                                seeds=(args.seed,), runner=session.runner,
                                **workload_kwargs).runs[0]
    _print_run(result)
    return 0


def cmd_bench(args) -> int:
    with _session(args) as session:
        return run_bench(quick=args.quick, runner=session.runner,
                         results_dir=args.results_dir, out_path=args.out,
                         check=args.check, seed=args.seed)


def cmd_list(args) -> int:
    print("Workloads:")
    for name in sorted(WORKLOAD_NAMES):
        print(f"  {name}")
    print("\nFigure 4/5 configurations:")
    for label, overrides in PAPER_CONFIGS.items():
        print(f"  {label:24} {overrides}")
    print("\nBandwidth-adaptivity configurations:")
    for label, overrides in ADAPTIVITY_CONFIGS.items():
        print(f"  {label:24} {overrides}")
    return 0


def cmd_list_scenarios(args) -> int:
    specs = workload_specs()
    if args.kind is not None:
        specs = tuple(spec for spec in specs if spec.kind == args.kind)
    shown = (f"{args.kind} workload generators" if args.kind
             else "Workload generators")
    print(f"{shown} (repro run --workload NAME):")
    for spec in specs:
        print(f"  {spec.name:20} [{spec.kind:7}] {spec.description}")
    if not specs:
        print("  (none)")
    print("\nInterconnect topologies (repro run --topology NAME):")
    for spec in TOPOLOGIES.values():
        print(f"  {spec.name:20} {spec.description}")
    print("\nCross them with: repro study run "
          "examples/specs/scenario_matrix.json")
    return 0


# ---------------------------------------------------------------------------
# `repro study` subcommands
# ---------------------------------------------------------------------------

def _study_shape(spec: StudySpec) -> str:
    return (f"{len(spec.keys())} grid points x {len(spec.seeds)} "
            f"seed(s) = {spec.num_cells()} cells")


def _cmd_study_validate(args) -> int:
    spec = StudySpec.load(args.spec)
    print(f"ok: {args.spec}: study {spec.name!r} — {_study_shape(spec)}")
    return 0


def _cmd_study_show(args) -> int:
    spec = StudySpec.load(args.spec)
    print(f"study:     {spec.name}")
    if spec.description:
        print(f"about:     {spec.description}")
    resolved = [spec.resolve(key) for key in spec.keys()]
    workloads = sorted({point.workload for point in resolved})
    print(f"workloads: {', '.join(workloads)}")
    refs = sorted({point.references_per_core for point in resolved})
    if len(refs) == 1:
        print(f"refs/core: {refs[0]}")
    else:
        print(f"refs/core: per point, {refs[0]}..{refs[-1]}")
    print(f"seeds:     {', '.join(str(seed) for seed in spec.seeds)}")
    print(f"grid:      {spec.grid} — {_study_shape(spec)}")
    for axis in spec.axes:
        print(f"axis {axis.name} ({len(axis.points)} points): "
              f"{', '.join(axis.labels)}")
    if spec.base_config:
        overrides = ", ".join(f"{key}={value}" for key, value
                              in spec.base_config.items())
        print(f"base:      {overrides}")
    return 0


def _cmd_study_run(args) -> int:
    spec = StudySpec.load(args.spec)
    with _session(args) as session:
        if args.max_cells is not None:
            # Chunked execution: run a slice of the grid, report
            # progress, stop.  The table only renders once the study
            # completes.
            manifest = session.advance(spec, limit=args.max_cells,
                                       validate=False)
            # Progress chatter goes to stderr so stdout stays
            # machine-parseable; only the summary line is the result.
            print(f"[exec] workers={session.jobs}", file=sys.stderr)
            print(f"study {spec.name}: {manifest.summary()}")
            if not manifest.complete:
                print(f"(continue with: repro study run {args.spec} "
                      f"--resume or more --max-cells chunks)",
                      file=sys.stderr)
            return 0
        result = session.run(spec, validate=False,  # load() validated
                             resume=args.resume)
    _print_study_table(result)
    _print_exec_epilogue(result)
    return 0


def _print_study_table(result) -> None:
    """The deterministic per-point table — the *same* renderer for a
    local run and a ``study submit`` fetch, so their stdout is
    byte-identical for the same grid."""
    spec = result.spec
    axis_names = list(result.axis_names) or ["study"]
    rows = []
    for key in result.keys:
        experiment = result.experiment(key)
        ci = experiment.runtime_ci
        rows.append(list(key) if key else [spec.name])
        rows[-1] += [f"{ci.mean:.1f}", f"{ci.half_width:.1f}",
                     f"{experiment.bytes_per_miss_mean:.1f}"]
    print(format_table(f"Study {spec.name}: {_study_shape(spec)}",
                       axis_names + ["runtime", "+-95%", "bytes/miss"],
                       rows))


def _print_exec_epilogue(result) -> None:
    # stdout carries exactly the result table; execution chatter
    # ([exec]/[cache]) goes to stderr so pipelines can diff/parse it.
    print(f"[exec] workers={result.jobs}", file=sys.stderr)
    delta = result.cache_delta
    if delta is not None:
        line = (f"[cache] {delta['hits']} hits, {delta['misses']} "
                f"misses, {delta['stores']} stores")
        if delta.get("shared"):
            # Service-only bucket: cells this study waited on another
            # in-flight study to execute.
            line += f", {delta['shared']} shared"
        print(line, file=sys.stderr)


def _cmd_study_status(args) -> int:
    from repro.exec.manifest import spec_digest
    spec = StudySpec.load(args.spec)
    with _session(args) as session:
        # strict=True: a manifest file that exists but cannot be parsed
        # is a pointed ManifestError naming the path (rendered by
        # cmd_study), never a silent "no recorded progress".
        manifest = session.status(spec, strict=True)
        expected = session.manifest_store().path_for(spec_digest(spec))
    if manifest is None:
        print(f"study {spec.name}: no recorded progress — no manifest "
              f"at {expected} (run it with: repro study run {args.spec})")
        return 0
    print(f"study {spec.name}: {manifest.summary()}")
    for cell in manifest.failed_cells():
        where = "/".join(cell.key) if cell.key else spec.name
        print(f"  failed: {where} seed={cell.seed}: {cell.error}")
    for cell in manifest.cells:
        # Per-cell timings, recorded by every run: wall time and the
        # [phase] breakdown, or `cached` for a hit.
        if cell.state != "done" or cell.wall_time is None:
            continue
        where = "/".join(cell.key) if cell.key else spec.name
        if cell.cached:
            timing = "cached"
        else:
            timing = f"{cell.wall_time:.3f}s"
            if cell.events_per_second:
                timing += f", {cell.events_per_second:,.0f} events/s"
        line = f"  done: {where} seed={cell.seed}: {timing}"
        if cell.phases:
            line += " [" + ", ".join(
                f"{name} {seconds:.3f}s" for name, seconds
                in sorted(cell.phases.items())) + "]"
        print(line)
    if manifest.code_version != code_version():
        print("note: progress was recorded under a different code "
              "version; its done cells will miss the cache and re-run")
    return 0


def _cmd_study_list(args) -> int:
    with _session(args) as session:
        store = session.manifest_store()
    entries = store.list()
    if not entries:
        print(f"no recorded studies under {store.root}")
        return 0
    rows = []
    corrupt = []
    for path, manifest in entries:
        if manifest is None:
            corrupt.append(path)
            continue
        counts = manifest.counts()
        progress = f"{counts['done']}/{len(manifest.cells)}"
        rows.append([manifest.digest, manifest.study, progress,
                     str(counts["failed"])])
    if rows:
        print(format_table(f"Recorded studies ({store.root})",
                           ["digest", "study", "done", "failed"], rows))
    for path in corrupt:
        print(f"corrupt manifest: {path} (delete it and re-run the "
              f"study)", file=sys.stderr)
    return 0


def _cmd_study_submit(args) -> int:
    from repro.service.client import ServiceClient
    spec = StudySpec.load(args.spec)
    client = ServiceClient(args.server, timeout=args.timeout)
    submitted = client.submit(spec)
    study_id = submitted["study"]
    sub = submitted["submission"]
    print(f"[service] study {study_id} {submitted['state']} on "
          f"{args.server} ({sub['hits']} cached, {sub['shared']} shared, "
          f"{sub['queued']} queued)", file=sys.stderr)
    if args.no_wait:
        print(study_id)
        print(f"(fetch later with: repro study submit {args.spec} "
              f"--server {args.server})", file=sys.stderr)
        return 0
    result = client.wait(study_id, timeout=args.timeout)
    _print_study_table(result)
    _print_exec_epilogue(result)
    return 0


_STUDY_COMMANDS = {
    "validate": _cmd_study_validate,
    "show": _cmd_study_show,
    "run": _cmd_study_run,
    "status": _cmd_study_status,
    "list": _cmd_study_list,
    "submit": _cmd_study_submit,
}


def cmd_study(args) -> int:
    from repro.service.client import ServiceError
    try:
        return _STUDY_COMMANDS[args.study_command](args)
    except (OSError, ValueError) as exc:
        # User errors, not tracebacks: missing/corrupt spec files and
        # schema violations (SpecError), a manifest file that exists
        # but cannot be parsed (ManifestError names the path; never
        # "no progress"), and progress commands on an uncached session.
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ServiceError as exc:
        # Unreachable server or a server-side rejection (the body is
        # the same pointed SpecError text a local run prints).
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except TimeoutError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except CellExecutionError as exc:
        # A failed cell is recorded in the study's manifest; point the
        # user at the status/resume workflow instead of a traceback.
        print(f"error: {exc}", file=sys.stderr)
        print(f"(progress so far is recorded; inspect it with "
              f"`repro study status {args.spec}` and retry with "
              f"`repro study run {args.spec} --resume`)", file=sys.stderr)
        return 1


# ---------------------------------------------------------------------------
# `repro serve`
# ---------------------------------------------------------------------------

def cmd_serve(args) -> int:
    import signal
    import threading

    from repro.service import make_server
    from repro.service.scheduler import StudyScheduler

    # The daemon owns the session described by --jobs / --cache-dir /
    # --no-cache, and with it one worker pool, for its whole lifetime;
    # scheduler.stop() closes it.
    session = _session(args)
    scheduler = StudyScheduler(session, autostart=False)
    try:
        server = make_server(args.host, args.port, scheduler)
    except OSError as exc:
        print(f"error: cannot bind {args.host}:{args.port}: {exc}",
              file=sys.stderr)
        return 2
    scheduler.start()
    cache = session.cache
    where = str(cache.root) if cache is not None else "DISABLED"
    print(f"[service] listening on http://{args.host}:{server.port} "
          f"(jobs={session.jobs}, cache={where}); "
          f"SIGINT/SIGTERM stop gracefully", file=sys.stderr)
    if cache is None:
        print("[service] warning: running --no-cache — no dedup across "
              "daemon restarts, no resumable manifests", file=sys.stderr)

    def request_shutdown(signum, frame):
        # shutdown() blocks until serve_forever returns, so it must run
        # off the signal-handling (main) thread.
        threading.Thread(target=server.shutdown, daemon=True).start()

    previous = {sig: signal.signal(sig, request_shutdown)
                for sig in (signal.SIGINT, signal.SIGTERM)}
    try:
        server.serve_forever()
    finally:
        for sig, handler in previous.items():
            signal.signal(sig, handler)
        server.server_close()
        # Finishes the in-flight batch, leaves queued cells pending in
        # their manifests — `repro study run SPEC --resume` picks any
        # interrupted study back up — and stops the workers.
        scheduler.stop()
        print("[service] stopped; study manifests persisted "
              "(resume interrupted studies with: repro study run "
              "SPEC.json --resume)", file=sys.stderr)
    return 0


# ---------------------------------------------------------------------------
# `repro trace` subcommands
# ---------------------------------------------------------------------------

def _cmd_trace_record(args) -> int:
    from repro.traces import record_trace, save_trace, trace_info
    trace = record_trace(args.workload, num_cores=args.cores,
                         references_per_core=args.refs, seed=args.seed)
    save_trace(trace, args.out)
    info = trace_info(args.out)
    print(f"recorded {args.workload} [{args.cores} cores x {args.refs} "
          f"refs, seed {args.seed}] -> {args.out} "
          f"({info['records']} records, {info['file_bytes']} bytes, "
          f"digest {info['digest'][:16]})")
    return 0


def _cmd_trace_info(args) -> int:
    from repro.traces import trace_info
    info = trace_info(args.path)
    width = max(len(key) for key in info)
    for key, value in info.items():
        print(f"  {key:{width}}  {value}")
    return 0


def _cmd_trace_replay(args) -> int:
    # ValueError (over-quota --refs) renders via cmd_trace's handler.
    meta, refs = _resolve_trace_refs(args.path, args.refs)
    config = SystemConfig(num_cores=meta.num_cores, protocol=args.protocol,
                          predictor=(args.predictor
                                     if args.protocol == "patch" else "none"),
                          topology=args.topology,
                          link_bandwidth=args.bandwidth)
    with _session(args) as session:
        result = run_experiment(config, "trace", references_per_core=refs,
                                seeds=(args.seed,), runner=session.runner,
                                path=args.path).runs[0]
    _print_run(result)
    return 0


def _cmd_trace_transform(args) -> int:
    from repro.traces import (fold_cores, interleave, load_trace,
                              perturb_think, save_trace, truncate)
    if args.jitter is not None and args.perturb_seed is None:
        print("error: --jitter only applies with --perturb-seed",
              file=sys.stderr)
        return 2
    steps = (args.truncate, args.fold_cores, args.interleave,
             args.perturb_seed)
    if all(step is None for step in steps):
        print("error: nothing to do; give at least one of --truncate, "
              "--fold-cores, --interleave, --perturb-seed",
              file=sys.stderr)
        return 2
    trace = load_trace(args.path)
    if args.truncate is not None:
        trace = truncate(trace, args.truncate)
    if args.fold_cores is not None:
        trace = fold_cores(trace, args.fold_cores)
    if args.interleave is not None:
        trace = interleave(trace, load_trace(args.interleave))
    if args.perturb_seed is not None:
        trace = perturb_think(trace, args.perturb_seed,
                              jitter=4 if args.jitter is None
                              else args.jitter)
    save_trace(trace, args.out)
    print(f"{args.path} -> {args.out}: {trace.num_cores} cores, "
          f"{trace.num_records} records, "
          f"lineage {' | '.join(trace.meta.lineage)}")
    return 0


def _cmd_trace_profile(args) -> int:
    from repro.synth import profile_trace
    from repro.traces import load_trace
    profile = profile_trace(load_trace(args.path))
    print(profile.summary())
    if args.out is not None:
        profile.save(args.out)
        print(f"profile -> {args.out}")
    return 0


_TRACE_COMMANDS = {
    "record": _cmd_trace_record,
    "info": _cmd_trace_info,
    "profile": _cmd_trace_profile,
    "replay": _cmd_trace_replay,
    "transform": _cmd_trace_transform,
}


def cmd_trace(args) -> int:
    from repro.traces import TraceFormatError
    try:
        return _TRACE_COMMANDS[args.trace_command](args)
    except (OSError, TraceFormatError, ValueError) as exc:
        # Missing/corrupt/unwritable trace files and invalid transform
        # parameters are user errors, not tracebacks.
        print(f"error: {exc}", file=sys.stderr)
        return 2


# ---------------------------------------------------------------------------
# `repro synth` and `repro verify` subcommands
# ---------------------------------------------------------------------------

def _synth_knobs(args) -> dict:
    """The dial knobs actually set on the command line."""
    knobs = {}
    for name in ("write_fraction", "sharing_boost", "blocks",
                 "repeat_fraction"):
        value = getattr(args, name)
        if value is not None:
            knobs[name] = value
    return knobs


def cmd_synth(args) -> int:
    from repro.synth import WorkloadProfile, profile_trace, tv_distance
    from repro.traces import record_trace, save_trace
    try:
        profile = WorkloadProfile.load(args.profile)
        cores = args.cores if args.cores is not None else profile.num_cores
        refs = (args.refs if args.refs is not None
                else (profile.references_per_core or 100))
        knobs = _synth_knobs(args)
        trace = record_trace("synthetic", num_cores=cores,
                             references_per_core=refs, seed=args.seed,
                             profile=args.profile, **knobs)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    fitted = profile_trace(trace, source=f"synthetic:{profile.source}")
    print(fitted.summary())
    target_wf = knobs.get("write_fraction", profile.write_fraction)
    print(f"fidelity vs {args.profile}: sharing tv-distance "
          f"{tv_distance(fitted.sharing_accesses, profile.sharing_accesses):.3f}, "
          f"write-mix delta {abs(fitted.write_fraction - target_wf):.3f}")
    if args.out is not None:
        try:
            save_trace(trace, args.out)
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        print(f"synthesized trace -> {args.out} "
              f"({trace.num_records} records)")
    if args.run:
        config = SystemConfig(num_cores=cores, protocol=args.protocol,
                              predictor=("all" if args.protocol == "patch"
                                         else "none"))
        with _session(args) as session:
            result = run_experiment(config, "synthetic",
                                    references_per_core=refs,
                                    seeds=(args.seed,),
                                    runner=session.runner,
                                    profile=args.profile, **knobs).runs[0]
        _print_run(result)
    return 0


def _cmd_verify_fuzz(args) -> int:
    import json as _json
    from repro.synth import FuzzCampaign, load_case, replay_case
    if args.replay is not None:
        case = load_case(args.replay)
        reproduced, error = replay_case(case)
        scenario = case.scenario
        print(f"replaying {args.replay}: scenario {scenario.name!r} "
              f"({scenario.cores} cores) on {case.protocol}, "
              f"schedule seed {case.schedule_seed}")
        if reproduced:
            print(f"reproduced: {error}")
            return 0
        print(f"NOT reproduced: {error}")
        return 1
    campaign = FuzzCampaign(seed=args.seed, scenarios=args.scenarios,
                            schedules=args.schedules,
                            protocols=tuple(args.protocols),
                            inject=args.inject, max_cores=args.max_cores,
                            out_dir=args.out_dir,
                            time_budget=args.time_budget)
    report = campaign.run()
    for line in report.lines:
        print(f"  {line}")
    for case, path in zip(report.cases,
                          report.saved_paths or [None] * len(report.cases)):
        print(f"violation on {case.protocol}: {case.error}")
        print(f"  shrunk to {case.scenario.cores} core(s) / "
              f"{sum(len(s) for s in case.scenario.scripts.values())} "
              f"access(es) in {case.shrink_steps} step(s)"
              + (f"; saved -> {path} (replay with: repro verify fuzz "
                 f"--replay {path})" if path else ""))
    print(report.summary())
    if args.report is not None:
        with open(args.report, "w", encoding="utf-8") as handle:
            _json.dump(report.to_dict(), handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"campaign report -> {args.report}")
    return 0 if report.ok else 1


_VERIFY_COMMANDS = {
    "fuzz": _cmd_verify_fuzz,
}


def cmd_verify(args) -> int:
    try:
        return _VERIFY_COMMANDS[args.verify_command](args)
    except (OSError, ValueError) as exc:
        # Missing/corrupt case files and invalid campaign parameters are
        # user errors, not tracebacks.
        print(f"error: {exc}", file=sys.stderr)
        return 2


# ---------------------------------------------------------------------------
# `repro obs` subcommands
# ---------------------------------------------------------------------------

def _cmd_obs_top(args) -> int:
    print(render_top(args.dir, limit=args.limit, sort=args.sort))
    return 0


_OBS_COMMANDS = {
    "top": _cmd_obs_top,
}


def cmd_obs(args) -> int:
    try:
        return _OBS_COMMANDS[args.obs_command](args)
    except (OSError, ValueError) as exc:
        # A missing/empty profile directory is a user error, not a
        # traceback.
        print(f"error: {exc}", file=sys.stderr)
        return 2


COMMANDS = {
    "run": cmd_run,
    "serve": cmd_serve,
    "study": cmd_study,
    "synth": cmd_synth,
    "trace": cmd_trace,
    "verify": cmd_verify,
    "bench": cmd_bench,
    "obs": cmd_obs,
    "list": cmd_list,
    "list-scenarios": cmd_list_scenarios,
}


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    configure_logging()  # honors REPRO_LOG; no-op when unset
    # The observability flags resolve through the environment, so
    # every pool worker started under this command inherits them.
    overrides = {}
    # `hasattr(args, "timeline")` marks the commands wired through
    # _add_obs_options; `repro synth` has an unrelated --profile.
    if hasattr(args, "timeline"):
        if args.timeline is not None:
            overrides[TIMELINE_ENV] = args.timeline
        if args.profile is not None:
            overrides[PROFILE_ENV] = args.profile
    saved = {name: os.environ.get(name) for name in overrides}
    os.environ.update(overrides)
    try:
        return COMMANDS[args.command](args)
    finally:
        for name, value in saved.items():
            if value is None:
                os.environ.pop(name, None)
            else:
                os.environ[name] = value


if __name__ == "__main__":  # pragma: no cover - exercised via console script
    sys.exit(main())
