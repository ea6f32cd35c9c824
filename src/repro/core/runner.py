"""Experiment runner: seeded repetitions, the named protocol
configurations used throughout the paper's evaluation, and the
normalizations its figures plot.

:func:`run_experiment` is the one-configuration path (``repro run``,
``repro trace replay``, ``repro synth --run``): it builds an axis-less
:class:`~repro.api.spec.StudySpec` (:func:`experiment_spec`) and
executes it through a :class:`~repro.api.session.Session` wrapping the
given :class:`~repro.exec.parallel.ParallelRunner` (the environment's
defaults when none is given).
Figure grids are defined once, as the ``*_spec`` builders in
:mod:`repro.bench`.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

from repro.api import (ExperimentResult, Session, StudySpec,
                       config_overrides)
from repro.config import SystemConfig
from repro.core.results import RunResult
from repro.exec import ParallelRunner, execute_cell, make_cell

#: The six configurations of Figures 4 and 5, in the paper's order.
PAPER_CONFIGS: Dict[str, dict] = {
    "Directory": {"protocol": "directory"},
    "PATCH-None": {"protocol": "patch", "predictor": "none"},
    "PATCH-Owner": {"protocol": "patch", "predictor": "owner"},
    "Broadcast-If-Shared": {"protocol": "patch",
                            "predictor": "broadcast-if-shared"},
    "PATCH-All": {"protocol": "patch", "predictor": "all"},
    "Token Coherence": {"protocol": "tokenb"},
}

#: Bandwidth-adaptivity variants (Figures 6-8).
ADAPTIVITY_CONFIGS: Dict[str, dict] = {
    "Directory": {"protocol": "directory"},
    "PATCH-All-NA": {"protocol": "patch", "predictor": "all",
                     "best_effort_direct": False},
    "PATCH-All": {"protocol": "patch", "predictor": "all",
                  "best_effort_direct": True},
}


def run_one(config: SystemConfig, workload_name: str,
            references_per_core: int, seed: int = 1,
            check_integrity: bool = True, **workload_kwargs) -> RunResult:
    """Run a single seeded simulation in-process (no pool, no cache)."""
    return execute_cell(make_cell(config, workload_name,
                                  references_per_core, seed,
                                  check_integrity=check_integrity,
                                  **workload_kwargs))


def experiment_spec(config: SystemConfig, workload_name: str,
                    references_per_core: int,
                    seeds: Sequence[int] = (1, 2, 3),
                    name: Optional[str] = None,
                    **workload_kwargs) -> StudySpec:
    """The axis-less study behind :func:`run_experiment`: one
    configuration, several seeds."""
    return StudySpec(name=name or f"experiment-{workload_name}",
                     base_config=config_overrides(config),
                     workload=workload_name,
                     workload_kwargs=workload_kwargs,
                     references_per_core=references_per_core,
                     seeds=tuple(seeds))


def run_experiment(config: SystemConfig, workload_name: str,
                   references_per_core: int,
                   seeds: Sequence[int] = (1, 2, 3),
                   label: Optional[str] = None,
                   runner: Optional[ParallelRunner] = None,
                   **workload_kwargs) -> ExperimentResult:
    """Run one configuration across several seeds (paper methodology)."""
    spec = experiment_spec(config, workload_name, references_per_core,
                           seeds=seeds, **workload_kwargs)
    with Session(runner=runner) as session:
        result = session.run(spec)
    return result.experiment(label=label or config.describe())


def normalized_runtimes(results: Dict[str, ExperimentResult],
                        baseline: str = "Directory") -> Dict[str, float]:
    """Mean runtimes normalized to the baseline configuration."""
    base = results[baseline].runtime_mean
    if base <= 0:
        raise ValueError("baseline runtime must be positive")
    return {label: res.runtime_mean / base for label, res in results.items()}


def normalized_traffic(results: Dict[str, ExperimentResult],
                       baseline: str = "Directory") -> Dict[str, Dict[str, float]]:
    """Traffic/miss per group normalized to the baseline's total (Fig 5)."""
    base_total = results[baseline].bytes_per_miss_mean
    if base_total <= 0:
        raise ValueError("baseline traffic must be positive")
    return {label: {name: value / base_total
                    for name, value in res.traffic_per_miss_mean().items()}
            for label, res in results.items()}
