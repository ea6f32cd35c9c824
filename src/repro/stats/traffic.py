"""Traffic accounting by message class.

The paper's Figures 5 and 10 break interconnect traffic down by message
class (Data, Ack, Direct Request, Indirect Request, Forward, Reissue,
Activation).  We count *link-traversal bytes*: each time a message (or one
edge of a multicast tree) crosses a directed link, its size is charged to
its class.  This matches the paper's "interconnect link traffic" metric.
"""

from __future__ import annotations

from enum import Enum
from typing import Dict, Iterable, Mapping


class MsgClass(Enum):
    """Message classes used for traffic accounting (paper Fig. 5/10)."""

    DATA = "data"
    ACK = "ack"
    DIRECT_REQUEST = "direct_request"
    INDIRECT_REQUEST = "indirect_request"
    FORWARD = "forward"
    REISSUE = "reissue"
    ACTIVATION = "activation"
    DEACTIVATION = "deactivation"
    WRITEBACK = "writeback"

    # Members are singletons compared by identity, so the identity hash
    # is equivalent to Enum's name-based hash — but C-speed.  Meter
    # dicts are keyed by MsgClass on the per-traversal hot path.
    __hash__ = object.__hash__

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


#: Grouping used when reproducing the paper's stacked traffic bars.
#: The paper folds deactivations (present in both DIRECTORY and PATCH)
#: into the indirect-request category and counts token/data writebacks
#: as data traffic.
FIGURE5_GROUPS: Mapping[MsgClass, str] = {
    MsgClass.DATA: "Data",
    MsgClass.WRITEBACK: "Data",
    MsgClass.ACK: "Ack",
    MsgClass.DIRECT_REQUEST: "Dir. Req.",
    MsgClass.INDIRECT_REQUEST: "Ind. Req.",
    MsgClass.DEACTIVATION: "Ind. Req.",
    MsgClass.FORWARD: "Forward",
    MsgClass.REISSUE: "Reissue",
    MsgClass.ACTIVATION: "Activation",
}

FIGURE5_ORDER = ("Data", "Ack", "Dir. Req.", "Ind. Req.",
                 "Forward", "Reissue", "Activation")


class TrafficMeter:
    """Accumulates bytes and message counts per :class:`MsgClass`.

    ``messages`` counts logical injections, independent of hops; the
    networks' ``send`` methods bump it directly, once per message.
    """

    def __init__(self) -> None:
        self.bytes: Dict[MsgClass, int] = {cls: 0 for cls in MsgClass}
        self.messages: Dict[MsgClass, int] = {cls: 0 for cls in MsgClass}
        self.link_traversals: Dict[MsgClass, int] = {cls: 0 for cls in MsgClass}
        self.dropped_messages = 0
        self.dropped_bytes = 0

    def record_traversal(self, msg_class: MsgClass, size_bytes: int) -> None:
        """Charge one directed-link traversal."""
        self.bytes[msg_class] += size_bytes
        self.link_traversals[msg_class] += 1

    def record_drop(self, size_bytes: int) -> None:
        self.dropped_messages += 1
        self.dropped_bytes += size_bytes

    # ------------------------------------------------------------------
    @property
    def total_bytes(self) -> int:
        return sum(self.bytes.values())

    def bytes_by_group(self) -> Dict[str, int]:
        """Traffic grouped into the paper's Figure-5 categories."""
        grouped = {name: 0 for name in FIGURE5_ORDER}
        for cls, count in self.bytes.items():
            grouped[FIGURE5_GROUPS[cls]] += count
        return grouped

    def merge(self, other: "TrafficMeter") -> None:
        for cls in MsgClass:
            self.bytes[cls] += other.bytes[cls]
            self.messages[cls] += other.messages[cls]
            self.link_traversals[cls] += other.link_traversals[cls]
        self.dropped_messages += other.dropped_messages
        self.dropped_bytes += other.dropped_bytes

    def as_dict(self) -> Dict[str, int]:
        return {cls.value: self.bytes[cls] for cls in MsgClass}


def bytes_per_miss(meter: TrafficMeter, misses: int) -> Dict[str, float]:
    """Per-miss traffic in the Figure-5 grouping."""
    if misses <= 0:
        return {name: 0.0 for name in FIGURE5_ORDER}
    return {name: value / misses
            for name, value in meter.bytes_by_group().items()}


def normalize(traffic: Mapping[str, float],
              baseline_total: float) -> Dict[str, float]:
    """Normalize a traffic breakdown to a baseline's total (Fig. 5 style)."""
    if baseline_total <= 0:
        raise ValueError("baseline_total must be positive")
    return {name: value / baseline_total for name, value in traffic.items()}


def stacked_bar(traffic: Mapping[str, float], width: int = 40,
                order: Iterable[str] = FIGURE5_ORDER) -> str:
    """Render a one-line ASCII stacked bar (for CLI output)."""
    total = sum(traffic.values())
    if total <= 0:
        return "(no traffic)"
    glyphs = {"Data": "D", "Ack": "a", "Dir. Req.": "d", "Ind. Req.": "i",
              "Forward": "f", "Reissue": "r", "Activation": "v"}
    parts = []
    for name in order:
        share = traffic.get(name, 0.0) / total
        parts.append(glyphs.get(name, "?") * max(0, round(share * width)))
    return "".join(parts)
