"""Replay: a recorded trace as a first-class registered workload.

Registering the ``"trace"`` workload (kind ``"trace"``) makes trace
files runnable everywhere a generator name is accepted — ``repro run
--trace``, study specs (``repro study run``), the bench suite — with
the trace file carried in the cell's ``workload_kwargs`` as
``path=...``.  Because the path travels inside the (picklable) cell,
replay works across the parallel runner's worker processes, and
:mod:`repro.exec.cache` substitutes the file's content digest for the
path in cache keys, so cached replays stay sound when the file is
edited and stay shared when it is merely moved.
"""

from __future__ import annotations

import os
from typing import Optional

from repro.traces.format import Trace, load_trace
from repro.workloads import registry
from repro.workloads.base import Access, WorkloadGenerator

#: The registered name replayed traces run under.
TRACE_WORKLOAD_NAME = "trace"


class TraceExhaustedError(RuntimeError):
    """A run asked for more references than the trace recorded."""


class TraceWorkload(WorkloadGenerator):
    """Serves a trace's per-core streams back in recorded order.

    Replay is exact: the generator yields precisely the accesses the
    recording captured, so a simulation driven by it is bit-identical
    to the live run the trace came from (same config, same reference
    quota).  Asking for more references than were recorded raises
    :class:`TraceExhaustedError` rather than inventing accesses.
    """

    def __init__(self, trace: Trace,
                 path: Optional[os.PathLike] = None) -> None:
        self.trace = trace
        self.path = os.fspath(path) if path is not None else None
        self.num_cores = trace.num_cores
        self._cursor = [0] * trace.num_cores

    @property
    def references_per_core(self) -> int:
        """The largest per-core quota this trace can drive."""
        return self.trace.references_per_core

    def next_access(self, core_id: int) -> Access:
        stream = self.trace.streams[core_id]
        index = self._cursor[core_id]
        if index >= len(stream):
            origin = self.path or f"trace of {self.trace.meta.source!r}"
            raise TraceExhaustedError(
                f"{origin} exhausted for core {core_id} after "
                f"{len(stream)} accesses; run with references_per_core <= "
                f"{self.references_per_core} or record a longer trace")
        self._cursor[core_id] = index + 1
        return stream[index]


def _make_trace_workload(num_cores: int, seed: int = 1,
                         path: Optional[os.PathLike] = None
                         ) -> TraceWorkload:
    """Registry factory: ``make_workload("trace", N, path=FILE)``.

    ``seed`` is accepted (every registered factory takes it) but does
    not influence replay — the trace is the stream.  Distinct seeds
    still produce distinct experiment cells, which is what lets a
    replayed trace participate in seeded repetition grids unchanged.
    """
    if path is None:
        raise ValueError(
            "the 'trace' workload needs path=FILE (a trace recorded by "
            "`repro trace record` or repro.traces.record_trace)")
    trace = load_trace(path)
    if trace.num_cores != num_cores:
        raise ValueError(
            f"trace {os.fspath(path)} was recorded for {trace.num_cores} "
            f"cores but this run wants {num_cores}; fold it first "
            f"(`repro trace transform --fold-cores {num_cores}`)")
    return TraceWorkload(trace, path=path)


registry.register_factory(
    TRACE_WORKLOAD_NAME, _make_trace_workload,
    "replay a recorded access trace (pass path=FILE / `repro run --trace`)",
    kind="trace")
