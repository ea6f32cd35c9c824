"""repro: reproduction of "Token Tenure: PATCHing Token Counting Using
Directory-Based Cache Coherence" (Raghavan, Blundell, Martin, MICRO-41,
2008).

The package provides:

* three full coherence protocols — DIRECTORY (GEMS-style blocking MOESI+F
  baseline), PATCH (the paper's contribution: directory + token counting +
  token tenure + best-effort direct requests), and TokenB (broadcast token
  coherence) — running on
* an event-driven 2D-torus interconnect with priority virtual networks and
  best-effort message dropping, plus
* workload generators, destination-set predictors, invariant checkers, and
  the experiment harness that regenerates every figure in the paper's
  evaluation.

Quickstart::

    from repro import System, SystemConfig, make_workload

    config = SystemConfig(num_cores=16, protocol="patch", predictor="all")
    workload = make_workload("oltp", num_cores=16, seed=1)
    result = System(config, workload, references_per_core=200).run()
    print(result.summary())
"""

from repro import model
from repro.config import SystemConfig, torus_dims_for
from repro.core.results import RunResult
from repro.core.runner import (PAPER_CONFIGS, normalized_runtimes,
                               run_experiment, run_one)
from repro.core.system import System
# After repro.core: run_experiment is a spec builder over repro.api, so
# the api package initializes as part of the core import chain.
from repro.api import (ExperimentResult, Session, SpecError, StudyResult,
                       StudySpec)
from repro.exec import ParallelRunner, ResultCache
from repro.interconnect.topology import make_topology, topology_names
from repro.workloads.presets import WORKLOAD_NAMES, make_workload
from repro.workloads.registry import workload_names, workload_specs

__version__ = "1.3.0"

__all__ = [
    "ExperimentResult", "PAPER_CONFIGS", "ParallelRunner", "ResultCache",
    "RunResult", "Session", "SpecError", "StudyResult", "StudySpec",
    "System", "SystemConfig", "WORKLOAD_NAMES", "__version__",
    "make_topology", "make_workload", "model", "normalized_runtimes",
    "run_experiment", "run_one", "topology_names", "torus_dims_for",
    "workload_names", "workload_specs",
]
