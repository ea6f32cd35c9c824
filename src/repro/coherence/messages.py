"""Coherence message vocabulary shared by all three protocols.

A :class:`CoherenceMsg` is the payload carried inside an interconnect
:class:`~repro.interconnect.message.Message`.  Not every field is used by
every protocol: ``acks_expected`` only matters to DIRECTORY, ``tokens`` and
``activation`` only to the token protocols.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from enum import Enum
from typing import Optional

from repro.coherence.states import CacheState
from repro.coherence.tokens import ZERO, TokenCount


class MsgType(Enum):
    """Protocol-level message types."""

    # Requests
    GETS = "GETS"                      # read request (indirect, to home)
    GETM = "GETM"                      # write request (indirect, to home)
    DIRECT_GETS = "DIRECT_GETS"        # predictive direct read request
    DIRECT_GETM = "DIRECT_GETM"        # predictive direct write request
    FWD_GETS = "FWD_GETS"              # home-forwarded read
    FWD_GETM = "FWD_GETM"              # home-forwarded write / invalidation
    INV = "INV"                        # DIRECTORY invalidation

    # Responses
    DATA = "DATA"                      # data (+ tokens in token protocols)
    ACK = "ACK"                        # data-less ack (+ tokens)
    ACK_COUNT = "ACK_COUNT"            # DIRECTORY: acks-to-expect for upgrades

    # Home-bound control
    DEACT = "DEACT"                    # unblock/deactivate home, carries state
    PUT = "PUT"                        # writeback (data if dirty)
    WB_ACK = "WB_ACK"                  # DIRECTORY writeback acknowledgement
    TOKEN_WB = "TOKEN_WB"              # token protocols: eviction / bounce

    # PATCH token tenure
    ACTIVATION = "ACTIVATION"          # home -> requester: you are active

    # TokenB forward progress
    PERSISTENT_REQ = "PERSISTENT_REQ"          # starver -> home arbiter
    PERSISTENT_ACTIVATE = "PERSISTENT_ACTIVATE"  # home -> all (broadcast)
    PERSISTENT_DEACTIVATE = "PERSISTENT_DEACTIVATE"  # home -> all

    # Members are singletons compared by identity, so the identity hash
    # is equivalent to Enum's name-based hash — but C-speed.  Every
    # controller dispatches on dicts keyed by MsgType per message.
    __hash__ = object.__hash__


REQUEST_TYPES = frozenset({MsgType.GETS, MsgType.GETM})
DIRECT_TYPES = frozenset({MsgType.DIRECT_GETS, MsgType.DIRECT_GETM})
FORWARD_TYPES = frozenset({MsgType.FWD_GETS, MsgType.FWD_GETM})


_txn_ids = itertools.count(1)


def next_txn_id() -> int:
    """Fresh transaction id (matches requests to their responses)."""
    return next(_txn_ids)


@dataclass(slots=True)
class CoherenceMsg:
    """Payload of one coherence message (slotted: controllers read
    these fields on every dispatch)."""

    mtype: MsgType
    block: int                      # block number (address / block_size)
    requester: int                  # node id of the original requester
    sender: int                     # node id that built this message
    txn_id: int = 0                 # transaction this belongs to
    tokens: TokenCount = ZERO       # tokens carried (token protocols)
    has_data: bool = False          # carries the 64-byte data payload
    acks_expected: Optional[int] = None  # DIRECTORY: invalidation ack count
    activation: bool = False        # PATCH: the activated bit
    grant_state: Optional[CacheState] = None  # DIRECTORY: state granted
    state_report: Optional[CacheState] = None  # DEACT: requester's new state
    is_write: bool = False          # persistent requests / forwards
    data_version: int = 0           # data value model (integrity checking)
    to_home: bool = False           # route to the home controller at dest

    def __post_init__(self) -> None:
        # Rule #4 (tokens.requires_data), inlined: runs per message.
        tokens = self.tokens
        if tokens.owner and tokens.dirty and not self.has_data:
            raise ValueError(
                "Rule #4 violation: dirty owner token without data "
                f"({self.mtype.value} block={self.block})")

    def describe(self) -> str:  # pragma: no cover - debug aid
        bits = [self.mtype.value, f"blk={self.block}", f"req={self.requester}",
                f"from={self.sender}"]
        if not self.tokens.is_zero:
            bits.append(str(self.tokens))
        if self.has_data:
            bits.append("+data")
        if self.activation:
            bits.append("+act")
        if self.acks_expected is not None:
            bits.append(f"acks={self.acks_expected}")
        return " ".join(bits)
