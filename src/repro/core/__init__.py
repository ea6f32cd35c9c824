"""System assembly and the experiment runner."""

from repro.core.results import RunResult
from repro.core.runner import (ADAPTIVITY_CONFIGS, PAPER_CONFIGS,
                               ExperimentResult, normalized_runtimes,
                               normalized_traffic, run_experiment, run_one)
from repro.core.system import (DEFAULT_MAX_CYCLES, System,
                               build_random_delay_system)

__all__ = [
    "ADAPTIVITY_CONFIGS", "DEFAULT_MAX_CYCLES", "ExperimentResult",
    "PAPER_CONFIGS", "RunResult", "System", "build_random_delay_system",
    "normalized_runtimes", "normalized_traffic", "run_experiment",
    "run_one",
]
