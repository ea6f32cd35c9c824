"""Determinism regression: same seed => byte-identical streams everywhere.

Two layers for every pattern workload plus the synthetic sampler:

* the *recorded trace* of a (workload, cores, refs, seed) cell is
  byte-identical across repeated recordings — the generator contract
  the trace/cache subsystems build on;
* the *simulated results* of that cell are field-identical in-process
  (``jobs=1``) and on the process pool (``jobs=2``) — generation must
  not depend on which process drains the generator.
"""

import pytest

from repro.config import SystemConfig
from repro.exec import ParallelRunner, make_cell, comparable_result_dict
from repro.synth import profile_workload
from repro.traces import record_trace, save_trace
from repro.workloads.patterns import PATTERN_NAMES

CORES = 4
REFS = 30
SEED = 7

WORKLOADS = tuple(PATTERN_NAMES) + ("synthetic",)


@pytest.fixture(scope="module")
def profile_path(tmp_path_factory):
    """One fitted profile on disk for the synthetic cells."""
    path = tmp_path_factory.mktemp("profiles") / "fit.json"
    profile_workload("migratory", num_cores=CORES,
                     references_per_core=60, seed=1).save(path)
    return path


def _kwargs(workload, profile_path):
    return {"profile": str(profile_path)} if workload == "synthetic" else {}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_recorded_trace_is_byte_identical_per_seed(workload, profile_path,
                                                   tmp_path):
    kwargs = _kwargs(workload, profile_path)
    paths = []
    for attempt in range(2):
        trace = record_trace(workload, num_cores=CORES,
                             references_per_core=REFS, seed=SEED, **kwargs)
        path = tmp_path / f"{attempt}.rpt"
        save_trace(trace, path)
        paths.append(path)
    assert paths[0].read_bytes() == paths[1].read_bytes()
    other = record_trace(workload, num_cores=CORES,
                         references_per_core=REFS, seed=SEED + 1, **kwargs)
    changed = tmp_path / "other.rpt"
    save_trace(other, changed)
    assert changed.read_bytes() != paths[0].read_bytes()


def test_all_executors_produce_identical_results(profile_path):
    cells = [make_cell(SystemConfig(num_cores=CORES), workload, REFS,
                       SEED, **_kwargs(workload, profile_path))
             for workload in WORKLOADS]
    per_jobs = {}
    for jobs in (1, 2):
        with ParallelRunner(jobs=jobs) as runner:
            results = runner.run_cells(cells)
        per_jobs[jobs] = [comparable_result_dict(result)
                          for result in results]
    assert per_jobs[1] == per_jobs[2]
