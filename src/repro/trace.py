"""Protocol traces: record, filter, and pretty-print coherence messages.

A :class:`MessageTracer` is a system network's message sink: it records
every injected message.  Traces make protocol behaviour testable at the
sequence level ("a sharing miss is exactly request → forward → data →
deactivate") and debuggable when it is not.

>>> from repro import System, SystemConfig, make_workload
>>> from repro.trace import MessageTracer
>>> system = System(SystemConfig(num_cores=4),
...                 make_workload("microbench", num_cores=4), 10)
>>> tracer = MessageTracer(system)
>>> _ = system.run()
>>> len(tracer.records) > 0
True
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, List, Optional, Sequence, Tuple

from repro.coherence.messages import CoherenceMsg, MsgType
from repro.interconnect.message import Message, Priority


@dataclass(frozen=True)
class TraceRecord:
    """One injected message."""

    time: int
    src: int
    dests: Tuple[int, ...]
    mtype: MsgType
    block: int
    requester: int
    txn_id: int
    tokens: str
    has_data: bool
    priority: Priority
    to_home: bool

    def format(self) -> str:
        dests = ",".join(map(str, self.dests))
        bits = [f"t={self.time:<7}", f"{self.src}->{dests:<9}",
                f"{self.mtype.value:<12}", f"blk={self.block:<6}",
                f"req={self.requester}"]
        if self.tokens != "t=0":
            bits.append(self.tokens)
        if self.has_data:
            bits.append("+data")
        if self.priority is Priority.BEST_EFFORT:
            bits.append("[BE]")
        return " ".join(bits)


class MessageTracer:
    """Records every message a system's network injects.

    Installs itself as the network's message sink, which replaces any
    sink already there (a timeline recorder, say).
    """

    def __init__(self, system, block: Optional[int] = None,
                 capacity: int = 100_000) -> None:
        self.system = system
        self.block_filter = block
        self.capacity = capacity
        self.records: List[TraceRecord] = []
        self.dropped_records = 0
        system.network.set_message_sink(self)

    def detach(self) -> None:
        """Stop tracing: clear the network's message sink."""
        self.system.network.set_message_sink(None)

    # ------------------------------------------------------------------
    def message(self, msg: Message) -> None:
        """Message-sink hook: record one injected coherence message."""
        payload = msg.payload
        if isinstance(payload, CoherenceMsg) and (
                self.block_filter is None
                or payload.block == self.block_filter):
            if len(self.records) < self.capacity:
                self.records.append(TraceRecord(
                    time=msg.inject_time, src=msg.src, dests=msg.dests,
                    mtype=payload.mtype, block=payload.block,
                    requester=payload.requester, txn_id=payload.txn_id,
                    tokens=str(payload.tokens), has_data=payload.has_data,
                    priority=msg.priority, to_home=payload.to_home))
            else:
                self.dropped_records += 1

    def link_busy(self, src: int, dst: int, start: int, duration: int,
                  msg_class: Any, size_bytes: int) -> None:
        """Message-sink hook: link occupancy is not part of a trace."""

    # ------------------------------------------------------------------
    def filter(self, block: Optional[int] = None,
               mtype: Optional[MsgType] = None,
               txn_id: Optional[int] = None,
               src: Optional[int] = None,
               predicate: Optional[Callable[[TraceRecord], bool]] = None,
               ) -> List[TraceRecord]:
        """Select records matching every given criterion."""
        out = []
        for record in self.records:
            if block is not None and record.block != block:
                continue
            if mtype is not None and record.mtype is not mtype:
                continue
            if txn_id is not None and record.txn_id != txn_id:
                continue
            if src is not None and record.src != src:
                continue
            if predicate is not None and not predicate(record):
                continue
            out.append(record)
        return out

    def message_types(self, block: Optional[int] = None) -> List[MsgType]:
        """The sequence of message types (optionally for one block)."""
        return [r.mtype for r in self.filter(block=block)]

    def transaction(self, txn_id: int) -> List[TraceRecord]:
        """All messages belonging to one transaction, in order."""
        return self.filter(txn_id=txn_id)

    def format(self, records: Optional[Sequence[TraceRecord]] = None,
               limit: int = 200) -> str:
        """Human-readable dump (most protocol bugs are visible here)."""
        records = self.records if records is None else list(records)
        lines = [record.format() for record in records[:limit]]
        if len(records) > limit:
            lines.append(f"... {len(records) - limit} more")
        return "\n".join(lines)


def sequence_matches(types: Sequence[MsgType],
                     pattern: Sequence[MsgType]) -> bool:
    """Is ``pattern`` a subsequence of ``types`` (in order)?"""
    iterator = iter(types)
    return all(p in iterator for p in pattern)
