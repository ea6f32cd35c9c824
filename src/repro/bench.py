"""The figure suite as a library: grids, renderers, and ``repro bench``.

One module computes and renders every table committed under
``benchmarks/results/``: the figures of the paper's evaluation
(Section 8), its Tables 2 and 4, the ablations of its Section 5.2
design choices, and two studies beyond the paper (sharing pattern x
interconnect topology, and trace replay):

* :class:`BenchScale` pins the grid sizes; :data:`FULL_SCALE` renders
  the committed tables, :data:`QUICK_SCALE` is the CI smoke-test size.
* ``*_spec`` functions and :func:`ablation_specs` are the one
  definition of each grid, a declarative
  :class:`~repro.api.spec.StudySpec` (the figures' are committed under
  ``examples/specs/`` and replayable via ``repro study run``).
* ``*_results`` functions run those specs through the parallel runner
  (and therefore the shared on-disk result cache) and reshape each
  study into the nested dict its renderer reads.
* ``render_*`` functions turn bundles into the published text tables
  plus the derived metrics the benchmark assertions check.
* :func:`suite` yields every table with its metrics, on one runner.
  ``benchmarks/`` checks the tables against the committed files and
  the metrics against the paper's claims.
* :func:`run_bench` writes the suite's tables to
  ``benchmarks/results/`` and a machine-readable ``bench_results.json``
  with per-table wall-clock timings, exec-cache hit/miss counts (total
  and per table), the paper's headline comparison (PATCH-All vs.
  Directory and Token Coherence), and the trace-replay identity verdict
  (recorded traces must replay bit-identically to their live runs).

Simulation throughput is measured by the repository benchmark,
``benchmarks/perf/run.py``, not here (see docs/PERFORMANCE.md).
"""

from __future__ import annotations

import json
import os
import random
import sys
import tempfile
import time
from dataclasses import dataclass, field, replace
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.analysis import format_table
from repro.api import AxisSpec, PointSpec, Session, StudySpec, \
    config_overrides
from repro.coherence.states import state_from_tokens
from repro.coherence.tokens import ZERO, TokenCount
from repro.config import SystemConfig
from repro.core.results import RunResult
from repro.core.runner import (ADAPTIVITY_CONFIGS, PAPER_CONFIGS,
                               normalized_runtimes, normalized_traffic)
from repro.core.system import build_random_delay_system
from repro.exec import ParallelRunner
from repro.exec.serialization import comparable_result_dict
from repro.stats.counters import geometric_mean
from repro.stats.traffic import FIGURE5_ORDER
from repro.verify.explorer import RaceScenario, ScriptWorkload
from repro.workloads.base import Access
from repro.workloads.patterns import PATTERN_NAMES

#: Figure-10 message groups, in the paper's plotting order.
FIG10_GROUPS = ("Data", "Ack", "Ind. Req.", "Forward")

#: ``repro bench --check``: PATCH-All's geomean normalized runtime must
#: beat Directory and sit within this tolerance of Token Coherence.  The
#: paper's 64-core setup puts them within ~2%; at our scaled-down core
#: counts Token Coherence's broadcasts are cheaper than at 64 cores and
#: it leads PATCH-All by ~6% (see benchmarks/results/fig4_runtime.txt),
#: so the regression guard allows up to 10%.
HEADLINE_TOLERANCE = 0.10


@dataclass(frozen=True)
class BenchScale:
    """Grid sizes for one rendering of the figure suite.

    The paper simulates 64-core full-system workloads for days; these
    scales re-run the same protocol configurations at reduced core and
    reference counts, so the whole suite renders in minutes.  The
    comparisons are within-run and normalized, so the *shape* of each
    figure is preserved.
    """

    name: str
    # Figures 4/5: the 6-config x N-workload grid.
    fig4_workloads: Tuple[str, ...]
    fig4_cores: int
    fig4_refs: int
    fig4_seeds: Tuple[int, ...]
    # Figures 6/7: bandwidth adaptivity.  The Section 5.2 ablations
    # run at bw_cores x bw_refs too.
    bw_cores: int
    bw_refs: int
    bw_seeds: Tuple[int, ...]
    bw_points: Tuple[float, ...]
    # Figure 8: scalability.
    scale_cores: Tuple[int, ...]
    scale_refs: Mapping[int, int]
    # Figures 9/10: inexact sharer encodings.
    enc_core_counts: Tuple[int, ...]
    enc_refs: Mapping[int, int]
    enc_table_blocks: Mapping[int, int]
    # Scenario matrix: sharing patterns x interconnect topologies.
    scenario_workloads: Tuple[str, ...] = PATTERN_NAMES
    scenario_topologies: Tuple[str, ...] = ("torus", "mesh",
                                            "fully-connected")
    scenario_cores: int = 16
    scenario_refs: int = 80
    scenario_seeds: Tuple[int, ...] = (1, 2)
    # Trace replay: each workload is recorded once and replayed; the
    # replayed run must be bit-identical to the live one.
    trace_workloads: Tuple[str, ...] = ("microbench", "migratory")
    trace_cores: int = 8
    trace_refs: int = 40
    trace_seed: int = 1

    def with_seed(self, seed: int) -> "BenchScale":
        """This scale with the seed-parameterized grids (figures 4-7,
        the scenario matrix, and the trace row) pinned to one seed.
        Figures 8-10, the ablations and Tables 2 and 4 run fixed seeds
        and are unaffected."""
        return replace(self, fig4_seeds=(seed,), bw_seeds=(seed,),
                       scenario_seeds=(seed,), trace_seed=seed)


#: The benchmark suite's scale (regenerates the committed tables).
FULL_SCALE = BenchScale(
    name="full",
    fig4_workloads=("jbb", "oltp", "apache", "barnes", "ocean"),
    fig4_cores=16, fig4_refs=120, fig4_seeds=(1, 2),
    bw_cores=16, bw_refs=100, bw_seeds=(1, 2),
    bw_points=(0.3, 0.6, 0.9, 2.0, 4.0, 8.0),
    scale_cores=(4, 8, 16, 32, 64, 128, 256),
    scale_refs={4: 200, 8: 140, 16: 100, 32: 60, 64: 36, 128: 20, 256: 10,
                512: 6},
    enc_core_counts=(64, 128, 256),
    enc_refs={16: 80, 32: 40, 64: 20, 128: 10, 256: 6},
    enc_table_blocks={16: 96, 32: 192, 64: 384, 128: 768, 256: 1536},
)

#: CI smoke-test scale (``repro bench --quick``): same figures, smaller
#: grids, single seeds.
QUICK_SCALE = BenchScale(
    name="quick",
    fig4_workloads=("jbb", "oltp", "apache", "barnes", "ocean"),
    fig4_cores=8, fig4_refs=60, fig4_seeds=(1,),
    bw_cores=8, bw_refs=50, bw_seeds=(1,),
    bw_points=(0.3, 2.0, 8.0),
    scale_cores=(4, 8, 16, 32),
    scale_refs={4: 100, 8: 70, 16: 50, 32: 30},
    enc_core_counts=(16, 32),
    enc_refs={16: 80, 32: 40},
    enc_table_blocks={16: 96, 32: 192},
    scenario_cores=8, scenario_refs=40, scenario_seeds=(1,),
    trace_cores=4, trace_refs=25,
)


# ---------------------------------------------------------------------------
# Figure studies as declarative specs (see repro.api and docs/API.md).
# These builders are the one definition of each figure's grid: the
# bundles below run them, and `examples/specs/` commits their JSON form
# (regenerated by examples/specs/regen.py), so `repro study run`
# replays any figure.
# ---------------------------------------------------------------------------

def coarseness_points(num_cores: int) -> List[int]:
    """The Figure-9/10 sharer-encoding coarseness values (cores per
    sharer bit) at ``num_cores``: 1, 4, 16, ... and finally
    ``num_cores`` itself (a single bit)."""
    points = []
    k = 1
    while k < num_cores:
        points.append(k)
        k *= 4
    points.append(num_cores)
    return points


def _config_axis(name: str, configs: Mapping[str, dict]) -> AxisSpec:
    """An axis with one point per named set of config overrides."""
    return AxisSpec(name, tuple(PointSpec(label=label, config=overrides)
                                for label, overrides in configs.items()))


def _workload_axis(workloads: Sequence[str]) -> AxisSpec:
    return AxisSpec("workload", tuple(PointSpec(label=workload,
                                                workload=workload)
                                      for workload in workloads))


def fig4_spec(scale: BenchScale = FULL_SCALE) -> StudySpec:
    """The Figure-4/5 grid: six protocol configs x workloads x seeds."""
    return StudySpec(
        name=f"fig4-grid-{scale.name}",
        description="Figures 4/5: runtime and traffic of the six paper "
                    "configurations",
        base_config=config_overrides(SystemConfig(
            num_cores=scale.fig4_cores)),
        references_per_core=scale.fig4_refs,
        seeds=scale.fig4_seeds,
        axes=(_workload_axis(scale.fig4_workloads),
              _config_axis("variant", PAPER_CONFIGS)))


def bandwidth_spec(workload: str,
                   scale: BenchScale = FULL_SCALE) -> StudySpec:
    """The Figure-6/7 grid: link bandwidth x adaptivity variants."""
    bandwidths = AxisSpec("bandwidth", tuple(
        PointSpec(label=str(bandwidth),
                  config={"link_bandwidth": bandwidth})
        for bandwidth in scale.bw_points))
    return StudySpec(
        name=f"bandwidth-{workload}-{scale.name}",
        description=f"Figures 6/7 [{workload}]: runtime vs link "
                    "bandwidth, Directory vs PATCH-All[-NA]",
        base_config=config_overrides(SystemConfig(
            num_cores=scale.bw_cores)),
        workload=workload,
        references_per_core=scale.bw_refs,
        seeds=scale.bw_seeds,
        axes=(bandwidths, _config_axis("variant", ADAPTIVITY_CONFIGS)))


def scalability_spec(scale: BenchScale = FULL_SCALE) -> StudySpec:
    """The Figure-8 grid: core count x adaptivity variants.

    Each core-count point carries its own reference quota (scaled down
    at large N to keep simulation cost sane; the metric is normalized
    per core count) and sizes the microbenchmark's table with N so
    block reuse stays constant across the sweep.
    """
    cores_axis = AxisSpec("cores", tuple(
        PointSpec(label=str(cores),
                  config={"num_cores": cores, "torus_dims": None},
                  references_per_core=scale.scale_refs[cores],
                  workload_kwargs={"table_blocks":
                                   min(16 * 1024, 24 * cores)})
        for cores in scale.scale_cores))
    return StudySpec(
        name=f"scalability-{scale.name}",
        description="Figure 8: runtime vs core count on the "
                    "microbenchmark (2B/cycle links)",
        base_config={"num_cores": 4, "link_bandwidth": 2.0},
        workload="microbench",
        # Never applies (every point sets its own quota), but the
        # schema needs a real value.
        references_per_core=scale.scale_refs[scale.scale_cores[0]],
        axes=(cores_axis, _config_axis("variant", ADAPTIVITY_CONFIGS)))


def encoding_spec(num_cores: int, bounded: bool,
                  scale: BenchScale = FULL_SCALE) -> StudySpec:
    """The Figure-9/10 grid: sharer-encoding coarseness x protocol."""
    coarseness = AxisSpec("coarseness", tuple(
        PointSpec(label=f"1:{k}", config={"encoding_coarseness": k})
        for k in coarseness_points(num_cores)))
    return StudySpec(
        name=f"coarseness-{num_cores}p-"
             f"{'bounded' if bounded else 'unbounded'}-{scale.name}",
        description=f"Figures 9/10 [{num_cores} cores]: inexact sharer "
                    "encodings, Directory vs PATCH",
        base_config={"num_cores": num_cores,
                     "link_bandwidth": 2.0 if bounded else 1000.0,
                     "torus_dims": None, "predictor": "none"},
        workload="microbench",
        workload_kwargs={"table_blocks": scale.enc_table_blocks[num_cores]},
        references_per_core=scale.enc_refs[num_cores],
        axes=(coarseness, _config_axis("protocol", {
            "Directory": {"protocol": "directory"},
            "PATCH": {"protocol": "patch"}})))


def scenario_spec(scale: BenchScale = FULL_SCALE) -> StudySpec:
    """The scenario-matrix grid: sharing patterns x topologies."""
    topologies = AxisSpec("topology", tuple(
        PointSpec(label=topology, config={"topology": topology})
        for topology in scale.scenario_topologies))
    return StudySpec(
        name=f"scenario-matrix-{scale.name}",
        description="Cross-scenario ablation: sharing patterns x "
                    "interconnect fabrics, Directory vs PATCH-All",
        base_config=config_overrides(SystemConfig(
            num_cores=scale.scenario_cores)),
        references_per_core=scale.scenario_refs,
        seeds=scale.scenario_seeds,
        axes=(_workload_axis(scale.scenario_workloads), topologies,
              _config_axis("variant", {
                  "Directory": {"protocol": "directory"},
                  "PATCH-All": {"protocol": "patch", "predictor": "all"}})))


def trace_replay_spec(scale: BenchScale,
                      trace_paths: Mapping[str, str]) -> StudySpec:
    """The trace-replay study: each workload live, then trace-driven.

    One explicit axis interleaves every workload's live generator run
    with its recorded-trace replay (``trace_paths`` maps workload name
    to trace file) — a trace-backed axis, replayed like any other spec.
    """
    points = []
    for workload in scale.trace_workloads:
        points.append(PointSpec(label=f"{workload}/live",
                                workload=workload))
        points.append(PointSpec(
            label=f"{workload}/replay", workload="trace",
            workload_kwargs={"path": trace_paths[workload]}))
    base = SystemConfig(num_cores=scale.trace_cores, protocol="patch",
                        predictor="all")
    return StudySpec(name=f"trace-replay-{scale.name}",
                     description="Recorded traces must replay "
                                 "bit-identically to their live runs",
                     base_config=config_overrides(base),
                     references_per_core=scale.trace_refs,
                     seeds=(scale.trace_seed,),
                     axes=(AxisSpec("run", tuple(points)),))


def ablation_specs(scale: BenchScale = FULL_SCALE) -> Dict[str, StudySpec]:
    """The ablation grids, by table name: PATCH's Section 5.2 design
    choices, Directory's migratory optimization, and BASH's issue-time
    throttling.  Each runs ``oltp`` at ``bw_cores`` x ``bw_refs`` under
    the fixed seed 1."""
    patch_all = {"protocol": "patch", "predictor": "all"}
    grids = {
        "ablation_tenure_timeout": (patch_all, _config_axis("multiplier", {
            f"x{multiplier}": {"tenure_timeout_multiplier": multiplier}
            for multiplier in (0.5, 1.0, 2.0, 8.0)})),
        "ablation_drop_age": (patch_all, _config_axis("drop age", {
            f"{age}cy": {"direct_request_drop_age": age}
            for age in (25, 100, 400)})),
        "ablation_deactivation_window": (patch_all, _config_axis("variant", {
            "window on": {"deactivation_ignore_window": True},
            "window off": {"deactivation_ignore_window": False}})),
        "ablation_migratory": ({"protocol": "directory"}, _config_axis(
            "variant", {"migratory on": {"migratory_optimization": True},
                        "migratory off": {"migratory_optimization": False}})),
        "ablation_bash_vs_best_effort": ({}, _config_axis("bandwidth", {
            f"{bandwidth:g}": {"link_bandwidth": bandwidth}
            for bandwidth in (0.6, 16.0)}), _config_axis("variant", {
                "Directory": {"protocol": "directory"},
                "PATCH-All-BASH": {"protocol": "patch",
                                   "predictor": "bash-all",
                                   "best_effort_direct": False},
                "PATCH-All": patch_all})),
    }
    return {table: StudySpec(
        name=f"{table.replace('_', '-')}-{scale.name}",
        base_config=config_overrides(SystemConfig(num_cores=scale.bw_cores,
                                                  **base)),
        workload="oltp", references_per_core=scale.bw_refs, seeds=(1,),
        axes=axes) for table, (base, *axes) in grids.items()}


# ---------------------------------------------------------------------------
# Experiment bundles (each one parallel batch through the runner/cache).
# Each bundle runs its spec above and reshapes the StudyResult into the
# nested dict its renderer reads.
# ---------------------------------------------------------------------------

def _run_spec(spec, runner: Optional[ParallelRunner]):
    with Session(runner=runner) as session:
        return session.run(spec)


def fig45_results(scale: BenchScale = FULL_SCALE,
                  runner: Optional[ParallelRunner] = None):
    """The 6-configuration x N-workload grid behind Figures 4 and 5:
    ``{workload: {variant: ExperimentResult}}``."""
    return _run_spec(fig4_spec(scale), runner).nested()


def bandwidth_results(workload: str, scale: BenchScale = FULL_SCALE,
                      runner: Optional[ParallelRunner] = None):
    """Runtime vs link bandwidth (Figures 6 and 7):
    ``{bandwidth: {variant: ExperimentResult}}``, float keys."""
    result = _run_spec(bandwidth_spec(workload, scale), runner)
    return result.nested(key_maps={"bandwidth": {
        str(bandwidth): bandwidth for bandwidth in scale.bw_points}})


def scalability_results(scale: BenchScale = FULL_SCALE,
                        runner: Optional[ParallelRunner] = None):
    """Runtime vs core count on the microbenchmark (Figure 8):
    ``{cores: {variant: ExperimentResult}}``, int keys."""
    result = _run_spec(scalability_spec(scale), runner)
    return result.nested(key_maps={"cores": {
        str(cores): cores for cores in scale.scale_cores}})


def scenario_matrix_results(scale: BenchScale = FULL_SCALE,
                            runner: Optional[ParallelRunner] = None):
    """The sharing-pattern x topology ablation grid (scenario matrix):
    ``{workload: {topology: {variant: ExperimentResult}}}``."""
    return _run_spec(scenario_spec(scale), runner).nested()


def trace_replay_results(scale: BenchScale = FULL_SCALE,
                         runner: Optional[ParallelRunner] = None):
    """Record each trace workload once, then run it live and replayed.

    Returns ``{workload: (live RunResult, replayed RunResult)}`` — the
    pair the trace-replay table diffs.  Replayed cells go through the
    runner like any other cell, so they exercise the digest-keyed
    result cache; recording itself costs generator time only (see
    :func:`repro.traces.record_trace`).  Trace files land in a
    temporary directory.
    """
    from repro.traces import record_trace, save_trace

    with Session(runner=runner) as session, \
            tempfile.TemporaryDirectory() as out_dir:
        trace_paths = {}
        for workload in scale.trace_workloads:
            path = os.path.join(out_dir, f"{workload}.rpt")
            save_trace(record_trace(workload, scale.trace_cores,
                                    scale.trace_refs,
                                    seed=scale.trace_seed), path)
            trace_paths[workload] = path
        spec = trace_replay_spec(scale, trace_paths)
        result = session.run(spec)
    return {workload: (result.runs_by_key[(f"{workload}/live",)][0],
                       result.runs_by_key[(f"{workload}/replay",)][0])
            for workload in scale.trace_workloads}


def _single_runs(spec: StudySpec, runner: Optional[ParallelRunner]
                 ) -> Dict[object, RunResult]:
    """The one run of each point of a single-seed grid, in grid order:
    keyed by the point's label, or by its labels on a multi-axis grid."""
    result = _run_spec(spec, runner)
    return {key[0] if len(key) == 1 else key: runs[0]
            for key, runs in result.runs_by_key.items()}


def render_trace_replay(results):
    """Trace-replay table; metrics ``identical`` (every pair) and ``pairs``."""
    rows = []
    all_identical = True
    for workload, (live, replayed) in results.items():
        # Compare simulation outputs only: wall time, phases and the
        # cached flag are runtime metadata, different every run.
        identical = (comparable_result_dict(live)
                     == comparable_result_dict(replayed))
        all_identical = all_identical and identical
        rows.append([workload, f"{live.runtime_cycles}",
                     f"{replayed.runtime_cycles}",
                     "yes" if identical else "NO"])
    text = format_table(
        "Trace replay [PATCH-All]: recorded traces vs live generators "
        "(replay must be bit-identical)",
        ["workload", "live cycles", "replay cycles", "identical"], rows)
    return text, {"identical": all_identical, "pairs": results}


def encoding_results(num_cores: int, bounded: bool,
                     scale: BenchScale = FULL_SCALE,
                     runner: Optional[ParallelRunner] = None):
    """Runtime/traffic vs encoding coarseness (Figures 9 and 10):
    ``{protocol: {coarseness: ExperimentResult}}``, int coarseness."""
    result = _run_spec(encoding_spec(num_cores, bounded, scale), runner)
    return result.nested(
        order=("protocol", "coarseness"),
        key_maps={"coarseness": {f"1:{k}": k
                                 for k in coarseness_points(num_cores)}})


# ---------------------------------------------------------------------------
# Table renderers (shared by benchmarks/ and `repro bench`)
# ---------------------------------------------------------------------------

def render_fig4(results, workloads: Sequence[str]):
    """Figure 4 table; metrics ``geo`` and per-workload ``normalized``."""
    labels = list(next(iter(results.values())).keys())
    rows = []
    normalized_by_workload = {}
    for workload in workloads:
        normalized = normalized_runtimes(results[workload])
        normalized_by_workload[workload] = normalized
        rows.append([workload] + [f"{normalized[label]:.3f}"
                                  for label in labels])
    geo = {label: geometric_mean([normalized_by_workload[w][label]
                                  for w in workloads])
           for label in labels}
    rows.append(["geomean"] + [f"{geo[label]:.3f}" for label in labels])
    text = format_table(
        "Figure 4: runtime normalized to Directory (lower is better)",
        ["workload"] + labels, rows)
    return text, {"geo": geo, "normalized": normalized_by_workload}


def render_fig5(results, workloads: Sequence[str]):
    """Figure 5 tables; metrics ``avg`` total and per-workload ``traffic``."""
    labels = list(next(iter(results.values())).keys())
    sections = []
    totals: Dict[str, List[float]] = {label: [] for label in labels}
    traffic_by_workload = {}
    for workload in workloads:
        traffic = normalized_traffic(results[workload])
        traffic_by_workload[workload] = traffic
        rows = []
        for label in labels:
            breakdown = traffic[label]
            total = sum(breakdown.values())
            totals[label].append(total)
            rows.append([label, f"{total:.2f}"] +
                        [f"{breakdown[group]:.2f}"
                         for group in FIGURE5_ORDER])
        sections.append(format_table(
            f"Figure 5 [{workload}]: traffic/miss normalized to Directory",
            ["config", "total"] + list(FIGURE5_ORDER), rows))
    text = "\n\n".join(sections)
    avg = {label: sum(values) / len(values)
           for label, values in totals.items()}
    return text, {"avg": avg, "traffic": traffic_by_workload}


def render_bandwidth(sweep, workload: str, figure_number: int,
                     points: Sequence[float]):
    """Figure 6/7 table; metrics: each PATCH variant's ``series``."""
    rows = []
    series = {"PATCH-All-NA": {}, "PATCH-All": {}}
    for bandwidth in points:
        row = sweep[bandwidth]
        base = row["Directory"].runtime_mean
        na = row["PATCH-All-NA"].runtime_mean / base
        be = row["PATCH-All"].runtime_mean / base
        series["PATCH-All-NA"][bandwidth] = na
        series["PATCH-All"][bandwidth] = be
        rows.append([f"{bandwidth * 1000:.0f}", "1.000", f"{na:.3f}",
                     f"{be:.3f}"])
    text = format_table(
        f"Figure {figure_number} [{workload}]: runtime normalized to "
        "Directory vs link bandwidth",
        ["bytes/1000cy", "Directory", "PATCH-All-NA", "PATCH-All"], rows)
    return text, {"series": series}


def render_fig8(sweep, core_counts: Sequence[int]):
    """Figure 8 table; metrics ``na`` and ``be``: PATCH-All-NA, -All."""
    rows = []
    na = {}
    be = {}
    for cores in core_counts:
        row = sweep[cores]
        base = row["Directory"].runtime_mean
        na[cores] = row["PATCH-All-NA"].runtime_mean / base
        be[cores] = row["PATCH-All"].runtime_mean / base
        rows.append([cores, "1.000", f"{na[cores]:.3f}", f"{be[cores]:.3f}"])
    text = format_table(
        "Figure 8 [microbenchmark, 2B/cycle links]: runtime normalized "
        "to Directory vs cores",
        ["cores", "Directory", "PATCH-All-NA", "PATCH-All"], rows)
    return text, {"na": na, "be": be}


def render_fig9(data, core_counts: Sequence[int]):
    """Figure 9 tables; metrics: ``worst`` per (cores, label, bounded).

    ``data`` maps ``(cores, bounded)`` to an encoding sweep.
    """
    sections = []
    worst = {}
    for cores in core_counts:
        points = coarseness_points(cores)
        rows = []
        for label in ("Directory", "PATCH"):
            for bounded in (False, True):
                sweep = data[(cores, bounded)][label]
                base = sweep[1].runtime_mean
                normalized = {k: sweep[k].runtime_mean / base
                              for k in points}
                worst[(cores, label, bounded)] = max(normalized.values())
                bw = "2B/cy" if bounded else "unbounded"
                rows.append([f"{label}-{cores}p", bw] +
                            [f"{normalized[k]:.3f}" for k in points])
        sections.append(format_table(
            f"Figure 9 [{cores} cores]: runtime normalized to full-map "
            "(coarseness = cores per sharer bit)",
            ["config", "bandwidth"] + [f"1:{k}" for k in points], rows))
    text = "\n\n".join(sections)
    return text, {"worst": worst}


def render_fig10(data, core_counts: Sequence[int]):
    """Figure 10 tables; metrics ``growth`` and ``ack_share`` per config.

    ``data`` maps ``cores`` to a bounded-bandwidth encoding sweep.
    """
    sections = []
    growth = {}
    ack_share = {}
    for cores in core_counts:
        points = coarseness_points(cores)
        rows = []
        for label in ("Directory", "PATCH"):
            sweep = data[cores][label]
            base_total = sweep[1].bytes_per_miss_mean
            for coarseness in points:
                per_miss = sweep[coarseness].traffic_per_miss_mean()
                total = sum(per_miss.values())
                growth[(cores, label, coarseness)] = total / base_total
                ack_share[(cores, label, coarseness)] = (
                    per_miss["Ack"] / total if total else 0.0)
                rows.append(
                    [f"{label}-{cores}p", f"1:{coarseness}",
                     f"{total / base_total:.2f}"] +
                    [f"{per_miss[g] / base_total:.2f}"
                     for g in FIG10_GROUPS])
        sections.append(format_table(
            f"Figure 10 [{cores} cores, 2B/cy]: traffic/miss normalized "
            "to the protocol's full-map total",
            ["config", "enc", "total"] + list(FIG10_GROUPS), rows))
    text = "\n\n".join(sections)
    return text, {"growth": growth, "ack_share": ack_share}


def render_scenarios(results, workloads: Sequence[str],
                     topologies: Sequence[str]):
    """Scenario-matrix tables; metrics ``ratio`` and ``fabric`` per cell.

    ``results`` is :func:`scenario_matrix_results` output.
    Section one: PATCH-All runtime normalized to Directory on the same
    (workload, topology) — the paper's headline metric per scenario.
    Section two: Directory runtime per topology normalized to its torus
    run — how much the fabric alone costs each scenario.
    """
    ratio = {}
    rows = []
    for workload in workloads:
        row = [workload]
        for topology in topologies:
            per = results[workload][topology]
            value = (per["PATCH-All"].runtime_mean
                     / per["Directory"].runtime_mean)
            ratio[(workload, topology)] = value
            row.append(f"{value:.3f}")
        rows.append(row)
    patch_table = format_table(
        "Scenario matrix: PATCH-All runtime / Directory runtime "
        "(lower favors PATCH)",
        ["workload"] + list(topologies), rows)

    fabric = {}
    rows = []
    baseline_topo = topologies[0]
    for workload in workloads:
        base = results[workload][baseline_topo]["Directory"].runtime_mean
        row = [workload]
        for topology in topologies:
            value = (results[workload][topology]["Directory"].runtime_mean
                     / base)
            fabric[(workload, topology)] = value
            row.append(f"{value:.3f}")
        rows.append(row)
    fabric_table = format_table(
        f"Scenario matrix: Directory runtime normalized to "
        f"{baseline_topo} (fabric cost per scenario)",
        ["workload"] + list(topologies), rows)
    return patch_table + "\n\n" + fabric_table, {"ratio": ratio,
                                                 "fabric": fabric}


def _ablation_table(title: str, headers: Sequence[str], runs, row):
    """An ablation table, one row per run: its label, then ``row(run)``;
    metrics: the ``runs``, by label."""
    rows = [[label] + row(run) for label, run in runs.items()]
    return format_table(title, headers, rows), {"runs": runs}


def render_tenure_timeout(runs):
    base = runs["x2.0"].runtime_cycles
    return _ablation_table(
        "Ablation: tenure timeout multiplier (PATCH-All, oltp)",
        ["multiplier", "cycles", "vs 2.0x", "probation discards"], runs,
        lambda run: [run.runtime_cycles, f"{run.runtime_cycles / base:.3f}",
                     run.cache_stats.get("probation_discards", 0)])


def render_drop_age(runs):
    return _ablation_table(
        "Ablation: best-effort drop age (PATCH-All, oltp, 16B/cy links)",
        ["drop age", "cycles", "direct requests dropped"], runs,
        lambda run: [run.runtime_cycles, run.dropped_direct_requests])


def render_deactivation_window(runs):
    return _ablation_table(
        "Ablation: post-deactivation direct-request-ignore window",
        ["variant", "cycles", "directs ignored", "probation discards"],
        runs, lambda run: [run.runtime_cycles,
                           run.cache_stats.get("direct_ignored_window", 0),
                           run.cache_stats.get("probation_discards", 0)])


def render_migratory(runs):
    return _ablation_table(
        "Ablation: migratory optimization (Directory, oltp)",
        ["variant", "cycles", "misses"], runs,
        lambda run: [run.runtime_cycles, run.misses])


def render_bash_vs_best_effort(runs):
    """BASH ablation table; metrics: each run's runtime ``normalized``
    to Directory's at its bandwidth, by (bytes/cycle, variant)."""
    normalized = {(float(bandwidth), variant): run.runtime_cycles
                  / runs[(bandwidth, "Directory")].runtime_cycles
                  for (bandwidth, variant), run in runs.items()}
    text = format_table(
        "Ablation: BASH issue-throttling vs best-effort delivery (oltp)",
        ["B/cyc", "config", "runtime vs Directory"],
        [[f"{bandwidth:g}", variant, f"{value:.3f}"]
         for (bandwidth, variant), value in normalized.items()])
    return text, {"normalized": normalized}


#: Each ablation table's renderer; its grid is in :func:`ablation_specs`.
ABLATION_RENDERERS = {
    "ablation_tenure_timeout": render_tenure_timeout,
    "ablation_drop_age": render_drop_age,
    "ablation_deactivation_window": render_deactivation_window,
    "ablation_migratory": render_migratory,
    "ablation_bash_vs_best_effort": render_bash_vs_best_effort,
}

#: Tokens per block in the regenerated Table 2.
TABLE2_TOKENS = 64


def render_table2():
    """Table 2, read off :func:`~repro.coherence.states.state_from_tokens`
    for one holding per MOESI state; metrics: its ``rows``."""
    tokens = TABLE2_TOKENS
    holdings = (TokenCount(tokens, owner=True, dirty=True),   # M
                TokenCount(3, owner=True, dirty=True),        # O
                TokenCount(tokens, owner=True, dirty=False),  # E
                TokenCount(3, owner=True, dirty=False),       # F
                TokenCount(3),                                # S
                ZERO)                                         # I
    rows = [[state_from_tokens(holding, tokens, valid_data=True).value,
             ("All" if holding.count == tokens
              else "Some" if holding.count else "None"),
             ("Dirty" if holding.owner and holding.dirty
              else "Clean" if holding.owner else "No")]
            for holding in holdings]
    text = format_table(
        "Table 2: mapping of MOESI states to token counts "
        f"(regenerated, T={tokens})", ["State", "Tokens", "Owner?"], rows)
    return text, {"rows": rows}


def contention_storm(protocol: str, seed: int = 5, max_delay: int = 60,
                     drop_prob: float = 0.0, **overrides):
    """Table 4's storm: 6 cores make 12 scripted accesses each to 2
    blocks on the random-delay network, ``predictor="all"``.  ``seed``
    draws the scripts and the delays.  Returns the run and whether any
    cache keeps a persistent-request table."""
    rng = random.Random(seed)
    scenario = RaceScenario("contention-storm", 6, {
        core: [Access(100 + rng.randrange(2), rng.random() < 0.6,
                      rng.randrange(4)) for _ in range(12)]
        for core in range(6)})
    config = SystemConfig(num_cores=scenario.cores, protocol=protocol,
                          predictor="all", **overrides)
    system = build_random_delay_system(
        config, ScriptWorkload(scenario.padded_scripts()),
        scenario.references_per_core, seed=seed, max_delay=max_delay,
        drop_prob=drop_prob)
    try:
        result = system.run(max_cycles=20_000_000)
        keeps_table = any(getattr(cache, "persistent_table", None)
                          is not None for cache in system.caches)
    finally:
        system.close()
    return result, keeps_table


def render_table4():
    """Table 4 with its reissue column measured on the seed-5
    :func:`contention_storm`: TokenB reissuing once before it goes
    persistent, PATCH with half its direct requests dropped.  Metrics:
    per protocol, the run and whether it keeps a P.R. table."""
    tokenb = contention_storm("tokenb", max_delay=200, tokenb_max_retries=1)
    patch = contention_storm("patch", drop_prob=0.5)
    # "Broadcast-free" means correctness never requires a message to all
    # cores.  TokenB's requests and persistent activates are broadcasts;
    # PATCH's only broadcast-ish traffic is the best-effort direct
    # requests, which are droppable hints.
    rows = [
        ["Persistent/priority requests (TokenB)", "no", "any",
         f"yes ({tokenb[0].cache_stats.get('reissues', 0)} observed)",
         "tokens & P.R. table", "tokens"],
        ["Token tenure (PATCH)", "yes", "any",
         f"no ({patch[0].cache_stats.get('reissues', 0)} observed)",
         "tokens", "tokens & sharers set"],
    ]
    text = format_table(
        "Table 4: forward-progress mechanisms (measured under a "
        "2-block contention storm on an adversarial network)",
        ["Mechanism", "Broadcast-free?", "Interconnect", "Reissues?",
         "State at processor", "State at home"], rows)
    return text, {"tokenb": tokenb, "patch": patch}


# ---------------------------------------------------------------------------
# `repro bench` driver
# ---------------------------------------------------------------------------

def _echo(message: str) -> None:
    """Default echo: ``[...]``-prefixed progress chatter goes to stderr
    so stdout carries only the verdict lines (``headline:`` and any
    regression or replay-mismatch notes) and stays machine-parseable."""
    print(message,
          file=sys.stderr if message.startswith("[") else sys.stdout)


def headline_check(geo: Mapping[str, float],
                   tolerance: float = HEADLINE_TOLERANCE) -> Dict[str, object]:
    """The paper's headline comparison, as a machine-readable verdict.

    PATCH-All must outperform Directory overall and stay within noise
    of Token Coherence (the paper's Section 8.2 conclusion).
    """
    patch_all = geo["PATCH-All"]
    tokenb = geo["Token Coherence"]
    return {
        "patch_all_geomean": patch_all,
        "token_coherence_geomean": tokenb,
        "tolerance": tolerance,
        "beats_directory": patch_all < 1.0,
        "within_noise_of_token_coherence": patch_all <= tokenb + tolerance,
        "ok": patch_all < 1.0 and patch_all <= tokenb + tolerance,
    }


def suite(scale: BenchScale, runner: ParallelRunner):
    """Compute and render every committed table on one runner.

    Yields ``(name, text, metrics)`` per table, in a fixed order:
    ``name`` is the table's file under ``benchmarks/results/`` without
    ``.txt``, and ``text`` and ``metrics`` are its renderer's.  Figs.
    4/5 and 9/10 share grids, each run before the first of its pair.
    """
    results45 = fig45_results(scale, runner)
    yield "fig4_runtime", *render_fig4(results45, scale.fig4_workloads)
    yield "fig5_traffic", *render_fig5(results45, scale.fig4_workloads)
    for number, workload in ((6, "ocean"), (7, "jbb")):
        yield f"fig{number}_bandwidth_{workload}", *render_bandwidth(
            bandwidth_results(workload, scale, runner), workload, number,
            scale.bw_points)
    yield "fig8_scalability", *render_fig8(
        scalability_results(scale, runner), scale.scale_cores)
    encodings = {(cores, bounded): encoding_results(cores, bounded, scale,
                                                    runner)
                 for cores in scale.enc_core_counts
                 for bounded in (False, True)}
    yield "fig9_inexact_runtime", *render_fig9(encodings,
                                               scale.enc_core_counts)
    yield "fig10_inexact_traffic", *render_fig10(
        {cores: encodings[(cores, True)] for cores in scale.enc_core_counts},
        scale.enc_core_counts)
    yield "scenario_matrix", *render_scenarios(
        scenario_matrix_results(scale, runner), scale.scenario_workloads,
        scale.scenario_topologies)
    yield "trace_replay", *render_trace_replay(
        trace_replay_results(scale, runner))
    for name, spec in ablation_specs(scale).items():
        yield name, *ABLATION_RENDERERS[name](_single_runs(spec, runner))
    yield "table2_state_mapping", *render_table2()
    yield "table4_forward_progress", *render_table4()


def run_bench(quick: bool = False,
              runner: Optional[ParallelRunner] = None,
              results_dir: str = os.path.join("benchmarks", "results"),
              out_path: str = "bench_results.json",
              check: bool = False,
              scale: Optional[BenchScale] = None,
              seed: Optional[int] = None,
              echo=_echo) -> int:
    """Write every table of :func:`suite` and ``bench_results.json``.

    Returns a process exit code: non-zero only when ``check`` is set and
    the headline assertion (or the trace-replay identity) fails.
    ``scale`` overrides the quick/full selection (tests use this to run
    a miniature suite); ``seed`` (the CLI's ``--seed``) pins the
    seed-parameterized grids — see :meth:`BenchScale.with_seed`.
    """
    if runner is None:
        # The environment's defaults, with one worker pool for the
        # whole suite.
        with Session() as session:
            return run_bench(quick, session.runner, results_dir, out_path,
                             check, scale, seed, echo)
    if scale is None:
        scale = QUICK_SCALE if quick else FULL_SCALE
    if seed is not None:
        scale = scale.with_seed(seed)
    os.makedirs(results_dir, exist_ok=True)
    timings: Dict[str, float] = {}
    table_paths: List[str] = []
    metrics: Dict[str, Dict] = {}
    # Per-table exec-cache hit/miss deltas (None when caching is off).
    cache_by_table: Dict[str, Dict[str, int]] = {}
    cache_mark = dict(runner.cache.stats()) if runner.cache else None
    suite_start = start = time.perf_counter()
    for name, text, table_metrics in suite(scale, runner):
        elapsed = time.perf_counter() - start
        metrics[name] = table_metrics
        path = os.path.join(results_dir, f"{name}.txt")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
        table_paths.append(path)
        timings[name] = round(elapsed, 6)
        if cache_mark is not None:
            stats = runner.cache.stats()
            cache_by_table[name] = {key: stats[key] - cache_mark[key]
                                    for key in stats}
            cache_mark = dict(stats)
        echo(f"[ table] {elapsed:8.2f}s  -> {path}")
        start = time.perf_counter()

    total = time.perf_counter() - suite_start
    headline = headline_check(metrics["fig4_runtime"]["geo"])
    replay_identical = metrics["trace_replay"]["identical"]
    cache_stats = runner.cache.stats() if runner.cache is not None else None
    report = {
        "schema": 2,
        "scale": scale.name,
        "quick": quick,
        "jobs": runner.jobs,
        "cache": cache_stats,
        "cache_per_figure": cache_by_table if cache_stats is not None
                            else None,
        "cache_dir": (str(runner.cache.root) if runner.cache is not None
                      else None),
        "timings_seconds": timings,
        "total_seconds": round(total, 6),
        "tables": table_paths,
        "headline": headline,
        "trace_replay": {
            "identical": replay_identical,
            "workloads": list(scale.trace_workloads),
            "cores": scale.trace_cores,
            "references_per_core": scale.trace_refs,
        },
    }
    with open(out_path, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")
    echo(f"[ total] {total:8.2f}s  -> {out_path}")
    if cache_stats is not None:
        echo(f"[ cache] {cache_stats['hits']} hits, "
             f"{cache_stats['misses']} misses, "
             f"{cache_stats['stores']} stores "
             f"({runner.cache.root})")
    echo("headline: PATCH-All geomean "
         f"{headline['patch_all_geomean']:.3f} vs Token Coherence "
         f"{headline['token_coherence_geomean']:.3f} "
         f"({'OK' if headline['ok'] else 'REGRESSION'})")
    failed = False
    if check and not headline["ok"]:
        echo("headline regression: PATCH-All no longer within noise of "
             "Token Coherence / Directory")
        failed = True
    if not replay_identical:
        echo("trace replay mismatch: a replayed trace no longer "
             "reproduces its live run bit-for-bit")
        if check:
            failed = True
    return 1 if failed else 0
