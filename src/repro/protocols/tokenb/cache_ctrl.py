"""TokenB cache controller (Martin et al. [20], paper Section 2).

TokenB broadcasts transient requests to every node on an unordered
interconnect; token counting guarantees safety.  Forward progress uses:

* reissued transient requests after a timeout (counted as Reissue
  traffic, as in the paper's Figure 5), then
* persistent requests: broadcast-activated, arbitrated per-block at the
  home, with a persistent-request table at every processor that forwards
  all present and future tokens for the block to the starving requester.

This is the Table-4 baseline: broadcast-based, reissues, per-processor
persistent-request table state.  The token-counting rules it shares
with PATCH (completion, answering requests without zero-token acks,
stray absorb and token writeback) live in
:class:`~repro.protocols.base.TokenCacheBase`; this module adds the
broadcast issue path, reissues and the persistent-request table.
"""

from __future__ import annotations

from typing import Dict, List, Set, Tuple

from repro.cache.array import CacheLine
from repro.coherence.messages import CoherenceMsg, MsgType
from repro.protocols.base import Mshr, TokenCacheBase


class TokenBCache(TokenCacheBase):
    """Cache controller for broadcast token coherence (TokenB, Section 2).

    The paper's token-counting baseline (Martin et al.): every miss
    broadcasts a transient request to all nodes, token counting alone
    guarantees safety on the unordered interconnect, and forward
    progress escalates from timed reissues to home-arbitrated
    persistent requests.  Its per-miss broadcast is what limits
    scalability — the cost PATCH avoids by looking the destination set
    up in the directory instead.
    """

    label = "tokenb cache"

    def __init__(self, node_id, sim, network, config) -> None:
        super().__init__(node_id, sim, network, config)
        # Persistent-request table: block -> starving requester node.
        self.persistent_table: Dict[int, int] = {}
        # Activations whose deactivate has not arrived yet, per block:
        # (requester, txn_id) in arrival order; the table names the
        # last one's requester.
        self._activations: Dict[int, List[Tuple[int, int]]] = {}
        # (block, requester, txn_id) of deactivates that overtook their
        # own activate: that activate is dropped when it arrives.
        self._deactivated_early: Set[Tuple[int, int, int]] = set()
        self._retry_generation = 0
        self._handlers = {
            MsgType.GETS: self._on_transient,
            MsgType.GETM: self._on_transient,
            MsgType.DATA: self._on_tokens,
            MsgType.ACK: self._on_tokens,
            MsgType.PERSISTENT_ACTIVATE: self._on_persistent_activate,
            MsgType.PERSISTENT_DEACTIVATE: self._on_persistent_deactivate,
        }

    # ------------------------------------------------------------------
    # Miss issue, reissue, and persistent escalation
    # ------------------------------------------------------------------
    def _all_nodes(self):
        return range(self.config.num_cores)

    def _issue_miss(self, mshr: Mshr) -> None:
        self._broadcast_request(mshr)
        self._arm_retry_timer(mshr)

    def _broadcast_request(self, mshr: Mshr) -> None:
        mtype = MsgType.GETM if mshr.is_write else MsgType.GETS
        payload = CoherenceMsg(mtype=mtype, block=mshr.block,
                               requester=self.node_id, sender=self.node_id,
                               txn_id=mshr.txn_id, is_write=mshr.is_write)
        dests = {n for n in self._all_nodes() if n != self.node_id}
        dests.add(self.home_of(mshr.block))  # home sees it even if local
        self.send(sorted(dests), payload)

    def _retry_interval(self, retries: int = 0) -> int:
        estimate = self.rtt_ewma.value or float(
            4 * self.config.total_link_latency)
        base = max(self.config.tenure_timeout_floor,
                   int(self.config.tokenb_retry_multiplier * estimate))
        # Deterministic per-node jitter desynchronizes symmetric racers
        # (real TokenB randomizes its backoff for the same reason).
        jitter = (self.node_id * 17 + retries * 29) % max(1, base // 2)
        return base + jitter

    def _arm_retry_timer(self, mshr: Mshr) -> None:
        self._retry_generation += 1
        generation = self._retry_generation
        self.sim.post(self._retry_interval(mshr.retries),
                      lambda: self._retry_fired(mshr.txn_id, generation))

    def _retry_fired(self, txn_id: int, generation: int) -> None:
        mshr = self.mshr
        if (mshr is None or mshr.txn_id != txn_id or mshr.complete
                or generation != self._retry_generation):
            return
        if mshr.persistent:
            return  # arbitration in progress; no more transient retries
        if mshr.retries < self.config.tokenb_max_retries:
            mshr.retries += 1
            self._reissue(mshr)
            self._arm_retry_timer(mshr)
        else:
            self._go_persistent(mshr)

    def _reissue(self, mshr: Mshr) -> None:
        """Broadcast a reissued transient request (Reissue traffic class)."""
        from repro.interconnect.message import Message
        from repro.stats.traffic import MsgClass
        mtype = MsgType.GETM if mshr.is_write else MsgType.GETS
        payload = CoherenceMsg(mtype=mtype, block=mshr.block,
                               requester=self.node_id, sender=self.node_id,
                               txn_id=mshr.txn_id, is_write=mshr.is_write)
        dests = {n for n in self._all_nodes() if n != self.node_id}
        dests.add(self.home_of(mshr.block))
        msg = Message(src=self.node_id, dests=tuple(sorted(dests)),
                      size_bytes=self.config.control_msg_bytes,
                      msg_class=MsgClass.REISSUE, payload=payload)
        self.network.send(msg)
        self.stats.add("reissues")

    def _go_persistent(self, mshr: Mshr) -> None:
        """Escalate to a persistent request at the home arbiter."""
        mshr.persistent = True
        self.stats.add("persistent_requests")
        payload = CoherenceMsg(mtype=MsgType.PERSISTENT_REQ,
                               block=mshr.block, requester=self.node_id,
                               sender=self.node_id, txn_id=mshr.txn_id,
                               is_write=mshr.is_write, to_home=True)
        self.send([self.home_of(mshr.block)], payload)

    # ------------------------------------------------------------------
    # Requests and token arrival
    # ------------------------------------------------------------------
    def _on_transient(self, payload: CoherenceMsg) -> None:
        if payload.requester == self.node_id:
            return
        if payload.block in self.persistent_table:
            return  # tokens reserved for the starver
        # TokenB processes incoming transient requests against its current
        # holdings even while it has its own request outstanding — tokens
        # collected so far can be stolen, which is exactly why TokenB needs
        # reissues and persistent requests for forward progress.
        self._yield_tokens(payload)

    def _on_tokens(self, payload: CoherenceMsg) -> None:
        block = payload.block
        starver = self.persistent_table.get(block)
        if starver is not None and starver != self.node_id:
            # Table says all tokens for this block flow to the starver.
            self._respond(starver, block, payload.txn_id, payload.tokens,
                          payload.has_data, payload.data_version)
            return
        mshr = self.mshr
        if mshr is not None and mshr.block == block:
            self._gather(mshr, payload)
            self._try_complete(mshr)
            return
        self._absorb_stray(payload)

    def _complete(self, mshr: Mshr) -> None:
        self._fill(mshr)
        self.mshr = None
        self._finish_miss(mshr)
        if mshr.persistent:
            done = CoherenceMsg(mtype=MsgType.PERSISTENT_DEACTIVATE,
                                block=mshr.block, requester=self.node_id,
                                sender=self.node_id, txn_id=mshr.txn_id,
                                to_home=True)
            self.send([self.home_of(mshr.block)], done)

    # ------------------------------------------------------------------
    # Persistent-request table maintenance
    # ------------------------------------------------------------------
    def _on_persistent_activate(self, payload: CoherenceMsg) -> None:
        block = payload.block
        key = (block, payload.requester, payload.txn_id)
        if key in self._deactivated_early:
            # On an unordered network the home's deactivate can overtake
            # its activate: this request is already over.
            self._deactivated_early.remove(key)
            return
        self._activations.setdefault(block, []).append(
            (payload.requester, payload.txn_id))
        self._install(block, payload.requester, payload.txn_id)

    def _install(self, block: int, starver: int, txn_id: int) -> None:
        """Point the table at ``starver`` and forward it every token
        this cache holds for ``block``.

        While the entry names another core, :meth:`_on_tokens` forwards
        every arrival, so the cache holds no tokens for the block and
        evicting its line sends nothing (``LiveAuditor`` checks this).
        """
        self.persistent_table[block] = starver
        if starver == self.node_id:
            return  # we hoard
        # Forward everything we currently hold for the block: the line's
        # tokens and the MSHR's go as two responses.
        line = self.cache.lookup(block)
        if line is not None and not line.tokens.is_zero:
            self._hand_over(line, starver, txn_id)
        mshr = self.mshr
        if (mshr is not None and mshr.block == block
                and not mshr.tokens.is_zero):
            tokens, mshr.tokens = mshr.tokens.take_all()
            has_data = tokens.owner and mshr.have_data
            version = mshr.data_version
            mshr.have_data = False if tokens.owner else mshr.have_data
            self._respond(starver, block, txn_id, tokens, has_data,
                          version)

    def _on_persistent_deactivate(self, payload: CoherenceMsg) -> None:
        block = payload.block
        request = (payload.requester, payload.txn_id)
        open_requests = self._activations.get(block, [])
        if request not in open_requests:
            # Its activate is still on the way; it is dropped on
            # arrival.  Every deactivate whose activate was seen finds
            # it here, so this record holds only messages in flight.
            self._deactivated_early.add((block,) + request)
            return
        open_requests.remove(request)
        if not open_requests:
            del self._activations[block]
            del self.persistent_table[block]
        elif self.persistent_table[block] != open_requests[-1][0]:
            # The open activation arrived before this one, though the
            # home sent it later: its starver is the current one.
            self._install(block, *open_requests[-1])

    def _hand_over(self, line: CacheLine, dest: int, txn_id: int) -> None:
        """Drop the line and send its whole holding to ``dest``."""
        tokens = line.tokens
        has_data = tokens.owner and line.valid_data
        self._drop_line(line)
        if not tokens.is_zero:
            self._respond(dest, line.block, txn_id, tokens, has_data,
                          line.version)
