"""Network messages.

A :class:`Message` is the unit the interconnect moves around.  The protocol
payload is opaque to the network; the network only cares about size, class
(for traffic accounting), priority (normal vs best-effort) and destinations.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from enum import IntEnum
from typing import Any, Tuple

from repro.stats.traffic import MsgClass


class Priority(IntEnum):
    """Virtual-network priority.

    ``BEST_EFFORT`` messages (PATCH's direct requests) are strictly
    deprioritized by every link and dropped once stale (paper Section 6).
    """

    NORMAL = 0
    BEST_EFFORT = 1


_message_ids = itertools.count()


@dataclass(slots=True)
class Message:
    """One coherence message in flight.

    ``dests`` may name several nodes, in which case the torus network
    delivers it along a bandwidth-efficient fan-out multicast tree
    (each tree edge charged once, as in the paper's interconnect).
    Slotted: the interconnect reads these fields on every hop.
    """

    src: int
    dests: Tuple[int, ...]
    size_bytes: int
    msg_class: MsgClass
    priority: Priority = Priority.NORMAL
    payload: Any = None
    msg_id: int = field(default_factory=_message_ids.__next__)
    inject_time: int = -1

    def __post_init__(self) -> None:
        if not self.dests:
            raise ValueError("message needs at least one destination")
        if self.size_bytes <= 0:
            raise ValueError("message size must be positive")

    @property
    def is_multicast(self) -> bool:
        return len(self.dests) > 1

    @property
    def dest(self) -> int:
        """Single destination (unicast convenience accessor)."""
        if len(self.dests) != 1:
            raise ValueError("dest is only defined for unicast messages")
        return self.dests[0]

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        kind = "mc" if self.is_multicast else "uc"
        return (f"<Msg#{self.msg_id} {self.msg_class.value} {kind} "
                f"{self.src}->{list(self.dests)} {self.size_bytes}B "
                f"prio={self.priority.name}>")
