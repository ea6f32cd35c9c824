"""Token-tenure bookkeeping (paper Section 4, Table 3).

This module implements the cache-side mechanics of the token-tenure rules:

* Rule #2 (Token Arrival): tokens arriving at a non-active processor are
  untenured.
* Rule #3 (Promotion): the active requester tenures everything it holds or
  receives.
* Rule #4 (Probationary Period): untenured tokens are held at most one
  probation interval, then discarded to the home.

The probation interval is adaptive: ``multiplier`` x the EWMA of the
processor's observed miss round-trip latency (paper Section 5.2), floored
so tiny systems do not thrash.  The same interval is reused as the
post-deactivation window during which direct requests are ignored.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

from repro.sim.kernel import Event, Simulator
from repro.stats.counters import Ewma


class ProbationTimers:
    """One non-extending probation timer per block holding untenured tokens.

    The timer is armed at the *first* untenured arrival and is deliberately
    not extended by later arrivals, keeping the holding period bounded
    (Rule #4) even under a continuous trickle of stale responses.
    """

    def __init__(self, sim: Simulator, rtt: Ewma, multiplier: float,
                 floor: int, expire: Callable[[int], None]) -> None:
        self.sim = sim
        self.rtt = rtt
        self.multiplier = multiplier
        self.floor = floor
        self._expire = expire
        self._timers: Dict[int, Event] = {}

    # ------------------------------------------------------------------
    def probation_interval(self) -> int:
        """Current adaptive probation duration in cycles."""
        estimate = self.rtt.value or float(self.floor)
        return max(self.floor, int(self.multiplier * estimate))

    def arm(self, block: int) -> None:
        """Start the probation clock for ``block`` unless already running."""
        if block in self._timers:
            return
        interval = self.probation_interval()
        self._timers[block] = self.sim.schedule(
            interval, lambda: self._fire(block))

    def cancel(self, block: int) -> None:
        event = self._timers.pop(block, None)
        if event is not None:
            event.cancel()

    def is_armed(self, block: int) -> bool:
        return block in self._timers

    def close(self) -> None:
        """Drop the expiry callback and every armed timer: both refer
        back to the cache controller."""
        self._expire = None
        self._timers.clear()

    def _fire(self, block: int) -> None:
        self._timers.pop(block, None)
        self._expire(block)


class IgnoreWindows:
    """Per-block windows during which direct requests are ignored.

    PATCH re-arms the probation timer when a processor deactivates; during
    that window the processor ignores direct (but not forwarded) requests,
    giving the home a clear shot at routing tokens to the next active
    requester (paper Section 5.2).

    ``PatchCache._on_direct`` inlines :meth:`active` against
    ``_deadlines`` (block -> first cycle the window is closed), so the
    two must change together.
    """

    def __init__(self, sim: Simulator) -> None:
        self.sim = sim
        self._deadlines: Dict[int, int] = {}

    def open(self, block: int, duration: int) -> None:
        self._deadlines[block] = self.sim.now + duration

    def active(self, block: int) -> bool:
        deadline = self._deadlines.get(block)
        if deadline is None:
            return False
        if self.sim.now >= deadline:
            del self._deadlines[block]
            return False
        return True
