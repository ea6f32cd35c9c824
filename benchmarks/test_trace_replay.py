"""Trace replay: recorded access traces vs their live generators.

Beyond the paper's figures: the trace subsystem's headline guarantee,
regenerated at full bench scale.  Claims checked:

* Replaying a recorded trace reproduces the live run **bit-for-bit**
  (the full serialized :class:`RunResult`, not just the runtime) — the
  property that makes traces interchangeable with their source
  generators in every experiment grid.
* A folded trace (N -> N/2 cores) still drives a complete run, so one
  recording really does span a family of machine sizes.
"""

import os
import tempfile

from repro.bench import FULL_SCALE
from repro.config import SystemConfig
from repro.core.runner import run_one
from repro.traces import fold_cores, load_trace, save_trace


def test_trace_replay(tables):
    _, metrics = tables["trace_replay"]
    results, identical = metrics["pairs"], metrics["identical"]

    assert set(results) == set(FULL_SCALE.trace_workloads)
    assert identical, "a replayed trace diverged from its live run"
    for workload, (live, replayed) in results.items():
        assert live.runtime_cycles == replayed.runtime_cycles, workload
        assert live.total_references > 0, workload


def test_folded_trace_runs():
    scale = FULL_SCALE
    folded_cores = scale.trace_cores // 2
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "fold.rpt")
        from repro.traces import record_trace
        full = record_trace(scale.trace_workloads[0], scale.trace_cores,
                            scale.trace_refs, seed=scale.trace_seed)
        save_trace(fold_cores(full, folded_cores), path)
        folded = load_trace(path)
        assert folded.num_cores == folded_cores
        assert folded.num_records == full.num_records
        result = run_one(SystemConfig(num_cores=folded_cores,
                                      protocol="patch", predictor="all"),
                         "trace", scale.trace_refs, seed=scale.trace_seed,
                         path=path)
        assert result.total_references == folded_cores * scale.trace_refs
