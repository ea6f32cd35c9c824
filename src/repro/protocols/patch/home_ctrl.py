"""PATCH home controller.

The home keeps DIRECTORY's per-block serialization (busy + FIFO) and
directory entry (exact owner, encoded sharers), and its memory holds
tokens (:class:`~repro.protocols.base.Memory`).  Its tenure-specific
duties (Table 3):

* Rule #1a: fairly activate one request at a time per block; tell the
  requester with an explicit ACTIVATION message; respond with any tokens
  memory holds.
* Rule #1b: on activation (and only then) forward the request to a
  superset of the caches holding tenured tokens — exactly the directory's
  owner + sharers set, since only activated (hence recorded) processors
  ever tenure tokens.
* Rule #5: redirect tokens that are discarded to the home (tenure
  timeouts, evictions) to the block's active requester.

Because completion is by token counting, the home never computes
acks-to-expect, and forwarded requests reach a *superset* of holders
without generating acknowledgements from non-holders — the property
behind PATCH's graceful scaling under coarse sharer encodings (§7).
"""

from __future__ import annotations

from repro.coherence.messages import CoherenceMsg, MsgType
from repro.coherence.states import CacheState
from repro.coherence.tokens import TokenCount
from repro.protocols.base import DirEntry, HomeControllerBase, ProtocolError


class PatchHome(HomeControllerBase):
    """Home controller for PATCH: the token-tenure arbiter (Table 3).

    Keeps DIRECTORY's per-block serialization and directory entry, lets
    memory hold tokens, and implements the home-side tenure rules:
    activate one requester at a time with an explicit ACTIVATION
    (Rule #1a), forward activated requests to a superset of tenured
    token holders (Rule #1b), and redirect tokens discarded on tenure
    timeout or eviction to the active requester (Rule #5).  Because
    completion is token counting, no ack counting is ever needed —
    the property that lets PATCH scale under inexact sharer encodings.
    """

    label = "patch home"

    def __init__(self, node_id, sim, network, config) -> None:
        super().__init__(node_id, sim, network, config)
        self.total_tokens = config.tokens_per_block
        self._handlers = {
            MsgType.GETS: self._enqueue_or_activate,
            MsgType.GETM: self._enqueue_or_activate,
            MsgType.DEACT: self._on_deact,
            MsgType.TOKEN_WB: self._on_token_wb,
        }

    # -- activation (Rule #1) -------------------------------------------------
    def _activate(self, payload: CoherenceMsg) -> None:
        entry = self.entry(payload.block)
        self._activation_piggybacked = False
        if payload.mtype is MsgType.GETS:
            self._activate_read(payload, entry)
        else:
            self._activate_write(payload, entry)
        if not self._activation_piggybacked:
            # The home sent the requester nothing itself (tokens are all
            # out in caches): notify activation explicitly, as the paper
            # does for owner-upgrade misses.
            activation = CoherenceMsg(mtype=MsgType.ACTIVATION,
                                      block=payload.block,
                                      requester=payload.requester,
                                      sender=self.node_id,
                                      txn_id=payload.txn_id)
            self.send([payload.requester], activation)

    def _activate_read(self, payload: CoherenceMsg,
                       entry: DirEntry) -> None:
        if self._migratory_read(entry, payload.requester):
            self._forward_exclusive(payload, entry)
        else:
            self._supply_owner_token(payload, entry)

    def _supply_owner_token(self, payload: CoherenceMsg,
                            entry: DirEntry) -> None:
        """Read: hand over ownership, mirroring DIRECTORY's owner transfer."""
        requester = payload.requester
        held = self.memory.held(payload.block)
        if held.owner:
            others = entry.sharers.sharers() - {requester}
            exclusive = held.count == self.total_tokens and not others
            taken = self.memory.take(payload.block,
                                     owner_only=not exclusive)  # E if all
            self._send_memory_tokens(payload, taken)
        elif entry.owner is not None and entry.owner != requester:
            self._forward(payload, [entry.owner], MsgType.FWD_GETS)
        elif entry.owner == requester:
            # Requester evicted its ownership; the writeback is in flight
            # and will be redirected to it (Rule #5).  Nothing to forward.
            self.stats.add("owner_self_requests")
        else:
            # Owner token is in flight or untenured somewhere: token
            # tenure will funnel it here and Rule #5 redirects it.
            self.stats.add("tokens_in_flight_waits")

    def _activate_write(self, payload: CoherenceMsg,
                        entry: DirEntry) -> None:
        self._note_write(entry, payload.requester)
        self._forward_exclusive(payload, entry)

    def _forward_exclusive(self, payload: CoherenceMsg,
                           entry: DirEntry) -> None:
        """Write (or migratory read): memory contributes all of its tokens;
        forward to the owner + sharers superset (Rule #1b)."""
        requester = payload.requester
        taken = self.memory.take(payload.block)
        if not taken.is_zero:
            self._send_memory_tokens(payload, taken)
        targets = entry.sharers.sharers() - {requester}
        if entry.owner is not None and entry.owner != requester:
            targets.add(entry.owner)
        if targets:
            self._forward(payload, sorted(targets), MsgType.FWD_GETM)

    def _forward(self, payload: CoherenceMsg, targets, mtype) -> None:
        fwd = CoherenceMsg(mtype=mtype, block=payload.block,
                           requester=payload.requester, sender=self.node_id,
                           txn_id=payload.txn_id, is_write=payload.is_write)
        self.send(targets, fwd)
        self.stats.add("forwards_sent", len(targets))

    def _send_memory_tokens(self, payload: CoherenceMsg,
                            tokens: TokenCount) -> None:
        """Send memory-held tokens to the activated requester."""
        response = self.memory.response(payload.block, tokens,
                                        payload.requester, self.node_id,
                                        payload.txn_id, activation=True)
        self._activation_piggybacked = True
        delay = self.config.dram_latency if response.has_data else 0
        self.send([payload.requester], response, delay=delay)
        self.stats.add("memory_token_grants")

    # -- token writebacks and redirects (Rule #5) ----------------------------
    def _on_token_wb(self, payload: CoherenceMsg) -> None:
        entry = self.entry(payload.block)
        if payload.state_report in (None, CacheState.I):
            # Sender kept nothing; safe to drop from the sharers superset.
            entry.sharers.remove(payload.sender)
        if entry.owner == payload.sender and payload.tokens.owner:
            entry.owner = None
        tokens = self.memory.write_back(payload)
        active = self.active_request(payload.block)
        if active is not None:
            # Rule #5 is unconditional: even tokens the active requester
            # itself discarded (probation fired while its activation was
            # still in flight) are sent back to it.
            self._redirect(active, tokens)
        else:
            self.memory.absorb(payload.block, tokens)
            self.stats.add("tokens_absorbed")

    def _redirect(self, active: CoherenceMsg, tokens: TokenCount) -> None:
        """Funnel discarded tokens to the block's active requester."""
        self.send([active.requester],
                  self.memory.response(active.block, tokens,
                                       active.requester, self.node_id,
                                       active.txn_id))
        self.stats.add("tokens_redirected")

    # -- deactivation (Rule #7 bookkeeping) -----------------------------------
    def _on_deact(self, payload: CoherenceMsg) -> None:
        entry = self._deact_entry(payload)
        requester = payload.requester
        report = payload.state_report
        old_owner = entry.owner
        if report in (CacheState.M, CacheState.E):
            entry.sharers.clear()
            entry.sharers.add(requester)
            entry.owner = requester
        elif report in (CacheState.O, CacheState.F):
            if old_owner is not None and old_owner != requester:
                entry.sharers.add(old_owner)
            entry.sharers.add(requester)
            entry.owner = requester
        elif report is CacheState.S:
            entry.sharers.add(requester)
        elif report is CacheState.I:
            if self.config.encoding_coarseness == 1:
                entry.sharers.remove(requester)
            if entry.owner == requester:
                entry.owner = None
        else:
            raise ProtocolError(f"unexpected DEACT state {report}")
        self._deactivate(payload.block)
