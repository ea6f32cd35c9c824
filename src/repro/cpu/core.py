"""Simple in-order core model.

The paper models "simple single-issue cores" (Section 8.1): each core has
one outstanding memory operation.  Our core pulls (address, is_write,
think_time) records from its workload generator, issues the access to its
cache controller, waits for completion, idles for the think time, and
repeats until it has retired its quota of references.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.sim.kernel import Simulator
from repro.workloads.base import WorkloadGenerator


class Core:
    """One in-order core bound to a cache controller."""

    def __init__(self, core_id: int, sim: Simulator, controller,
                 workload: WorkloadGenerator, references: int,
                 on_finish: Optional[Callable[[int], None]] = None) -> None:
        if references < 0:
            raise ValueError("references must be non-negative")
        self.core_id = core_id
        self.sim = sim
        self.controller = controller
        self.workload = workload
        self.quota = references
        self.retired = 0
        self.finish_time: Optional[int] = None
        self._on_finish = on_finish

    @property
    def done(self) -> bool:
        return self.retired >= self.quota

    def start(self) -> None:
        """Begin issuing references (call once, before sim.run())."""
        if self.quota == 0:
            self._finish()
            return
        self.sim.post(0, self._issue_next)

    def _issue_next(self) -> None:
        access = self.workload.next_access(self.core_id)
        self.controller.access(access.block, access.is_write,
                               lambda a=access: self._completed(a))

    def _completed(self, access) -> None:
        self.retired += 1
        if self.done:
            self._finish()
            return
        self.sim.post(max(0, access.think_time), self._issue_next)

    def _finish(self) -> None:
        self.finish_time = self.sim.now
        if self._on_finish is not None:
            self._on_finish(self.core_id)

    def close(self) -> None:
        """Drop the controller and the finish callback: an outstanding
        miss's completion callback refers back to this core, and the
        finish callback to the owner."""
        self.controller = self._on_finish = None
