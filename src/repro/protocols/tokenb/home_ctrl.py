"""TokenB home controller: memory token holder + persistent arbiter.

TokenB keeps *no directory state* — the home is just the memory module
(which holds tokens like any other component) plus the centralized
per-block arbiter for persistent requests (paper Section 2, Table 4:
"State at home: tokens").
"""

from __future__ import annotations

from typing import Dict, List, Set, Tuple

from repro.coherence.messages import CoherenceMsg, MsgType
from repro.coherence.tokens import TokenCount
from repro.protocols.base import Memory, Node, ProtocolError


class TokenBHome(Node):
    """TokenB home slice: token-holding memory + persistent arbiter.

    TokenB keeps no directory state (Table 4: "State at home: tokens").
    The home is only the memory module — which holds and hands out
    tokens like any cache — plus the per-block arbiter that serializes
    persistent requests when a starving requester escalates, the
    centralized piece of TokenB's forward-progress story.
    """

    label = "tokenb home"

    def __init__(self, node_id, sim, network, config) -> None:
        super().__init__(node_id, sim, network, config)
        self.memory = Memory(config.tokens_per_block)
        self.total_tokens = config.tokens_per_block
        # Persistent arbitration: one active starver per block + FIFO.
        self._active: Dict[int, CoherenceMsg] = {}
        self._queues: Dict[int, List[CoherenceMsg]] = {}
        # (block, requester, txn_id) of deactivates that overtook their
        # own request: that request is dropped when it arrives.
        self._finished_early: Set[Tuple[int, int, int]] = set()
        self._handlers = {
            MsgType.GETS: self._on_request,
            MsgType.GETM: self._on_request,
            MsgType.TOKEN_WB: self._on_token_wb,
            MsgType.PERSISTENT_REQ: self._on_persistent_req,
            MsgType.PERSISTENT_DEACTIVATE: self._on_persistent_done,
        }

    # -- transient requests ---------------------------------------------------
    def _on_request(self, payload: CoherenceMsg) -> None:
        block = payload.block
        if block in self._active:
            # Tokens are reserved for the starver; transient requests from
            # anyone else are ignored until deactivation.
            if self._active[block].requester != payload.requester:
                return
        held = self.memory.held(block)
        if held.is_zero:
            return  # token counting: nothing to contribute, no ack
        write = payload.mtype is MsgType.GETM
        if not (write or held.owner):
            return  # read request: only the owner-token holder responds
        # A read of memory's full holding is an exclusive grant.
        exclusive = write or held.count == self.total_tokens
        taken = self.memory.take(block, owner_only=not exclusive)
        self._grant(payload.requester, block, payload.txn_id, taken)

    def _grant(self, dest: int, block: int, txn_id: int,
               tokens: TokenCount) -> None:
        response = self.memory.response(block, tokens, dest, self.node_id,
                                        txn_id)
        delay = (self.config.dram_latency if response.has_data
                 else self.config.directory_latency)
        self.send([dest], response, delay=delay)
        self.stats.add("memory_token_grants")

    # -- token writebacks -----------------------------------------------------
    def _on_token_wb(self, payload: CoherenceMsg) -> None:
        block = payload.block
        tokens = self.memory.write_back(payload)
        active = self._active.get(block)
        if active is not None and active.requester != payload.sender:
            # The starver has priority over memory for arriving tokens.
            self._grant(active.requester, block, active.txn_id, tokens)
            self.stats.add("tokens_redirected")
            return
        self.memory.absorb(block, tokens)
        self.stats.add("tokens_absorbed")

    # -- persistent arbitration ------------------------------------------------
    def _on_persistent_req(self, payload: CoherenceMsg) -> None:
        block = payload.block
        key = (block, payload.requester, payload.txn_id)
        if key in self._finished_early:
            # Its miss completed from tokens already in flight, and the
            # deactivate got here first: nothing is left to arbitrate.
            self._finished_early.remove(key)
            return
        if block in self._active:
            self._queues.setdefault(block, []).append(payload)
            return
        self._start_persistent(payload)

    def _start_persistent(self, payload: CoherenceMsg) -> None:
        block = payload.block
        self._active[block] = payload
        self.stats.add("persistent_activations")
        activate = CoherenceMsg(mtype=MsgType.PERSISTENT_ACTIVATE,
                                block=block, requester=payload.requester,
                                sender=self.node_id, txn_id=payload.txn_id,
                                is_write=payload.is_write)
        self.send(sorted(range(self.config.num_cores)), activate)
        # Memory immediately contributes everything it holds.
        taken = self.memory.take(block)
        if not taken.is_zero:
            self._grant(payload.requester, block, payload.txn_id, taken)

    def _on_persistent_done(self, payload: CoherenceMsg) -> None:
        block = payload.block
        active = self._active.get(block)
        if (active is None or active.requester != payload.requester
                or active.txn_id != payload.txn_id):
            self._done_before_activation(payload)
            return
        del self._active[block]
        deactivate = CoherenceMsg(mtype=MsgType.PERSISTENT_DEACTIVATE,
                                  block=block, requester=payload.requester,
                                  sender=self.node_id, txn_id=payload.txn_id)
        self.send(sorted(range(self.config.num_cores)), deactivate)
        queue = self._queues.get(block)
        if queue:
            nxt = queue.pop(0)
            if not queue:
                del self._queues[block]
            self._start_persistent(nxt)

    def _done_before_activation(self, payload: CoherenceMsg) -> None:
        """A requester finished a persistent request this home never
        activated.

        A miss that escalated can still complete from tokens already in
        flight.  Its deactivate then finds the request queued, or, on an
        unordered network, not yet arrived.  Either way the request must
        never activate.
        """
        block = payload.block
        queue = self._queues.get(block, [])
        for index, queued in enumerate(queue):
            if (queued.requester == payload.requester
                    and queued.txn_id == payload.txn_id):
                del queue[index]
                if not queue:
                    del self._queues[block]
                return
        key = (block, payload.requester, payload.txn_id)
        if key in self._finished_early:
            raise ProtocolError(
                f"second persistent deactivate from {payload.requester} "
                f"(txn {payload.txn_id}) with no matching activation at "
                f"home {self.node_id}")
        self._finished_early.add(key)

    # -- diagnosis ---------------------------------------------------------
    def in_flight(self) -> List[Tuple[int, str, CoherenceMsg]]:
        """``(block, state, request)`` for each persistent request the
        arbiter holds: the active one per block, then its queue."""
        held = [(block, "active on", payload)
                for block, payload in self._active.items()]
        held.extend((block, "queued on", payload)
                    for block, queue in self._queues.items()
                    for payload in queue)
        return held
