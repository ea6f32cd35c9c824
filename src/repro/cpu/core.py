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
from repro.workloads.base import Access, WorkloadGenerator


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
        # The one outstanding access, and the two callbacks every
        # reference schedules, bound once (close() drops them).
        self._access: Optional[Access] = None
        self._issue_cb = self._issue_next
        self._completed_cb = self._completed

    @property
    def done(self) -> bool:
        return self.retired >= self.quota

    def start(self) -> None:
        """Begin issuing references (call once, before sim.run())."""
        if self.quota == 0:
            self._finish()
            return
        self.sim.post(0, self._issue_cb)

    def _issue_next(self) -> None:
        access = self._access = self.workload.next_access(self.core_id)
        self.controller.access(access.block, access.is_write,
                               self._completed_cb)

    def _completed(self) -> None:
        self.retired += 1
        if self.retired >= self.quota:
            self._finish()
            return
        think = self._access.think_time
        self.sim.post(think if think > 0 else 0, self._issue_cb)

    def _finish(self) -> None:
        self.finish_time = self.sim.now
        if self._on_finish is not None:
            self._on_finish(self.core_id)

    def close(self) -> None:
        """Drop the controller and every callback: an outstanding miss's
        completion callback and the bound issue and completion callbacks
        refer back to this core, and the finish callback to the owner."""
        self.controller = self._on_finish = None
        self._issue_cb = self._completed_cb = None
