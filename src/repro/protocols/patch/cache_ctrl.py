"""PATCH cache controller.

PATCH's cache side is a token-counting controller grafted onto the
DIRECTORY request flow (paper Section 5.2):

* Misses always send an indirect request to the home; the predictor may
  add best-effort direct requests to other caches.
* Completion is by token counting: a read needs valid data plus >= 1
  token, a write needs all T tokens (Table 1, Rules #2/#3).  No
  zero-token acknowledgements are ever sent.
* Token tenure (Table 3): tokens arriving while we are not the active
  requester are untenured and ride a probation timer; on expiry they are
  discarded to the home.  The activation message from the home tenures
  everything.  After deactivation, direct requests are ignored for one
  probation window.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.cache.array import CacheLine
from repro.coherence.messages import CoherenceMsg, MsgType
from repro.coherence.states import CacheState, state_from_tokens
from repro.coherence.tokens import ZERO, TokenCount
from repro.interconnect.message import Priority
from repro.protocols.base import CacheControllerBase, Mshr, ProtocolError
from repro.protocols.patch.tenure import IgnoreWindows, ProbationTimers


class PatchCache(CacheControllerBase):
    """Cache controller for PATCH, the paper's contribution (Section 5).

    Token counting grafted onto the DIRECTORY request flow: every miss
    still indirects through the home (so the directory stays exact),
    but a destination-set predictor may add *best-effort direct
    requests* that fetch data cache-to-cache in two hops when they
    land.  Completion is by token counting (read: data + >= 1 token;
    write: all T tokens), and the token-tenure discipline (Table 3)
    holds untenured tokens on a probation timer so dropped or stray
    direct requests can never break the directory's invariants.
    """

    def __init__(self, node_id, sim, network, config, predictor) -> None:
        super().__init__(node_id, sim, network, config)
        self.predictor = predictor
        self.total_tokens = config.tokens_per_block
        self.probation = ProbationTimers(
            sim, self.rtt_ewma, config.tenure_timeout_multiplier,
            config.tenure_timeout_floor, self._on_probation_expired)
        self.ignore_windows = IgnoreWindows(sim)
        # Transactions whose miss already completed (the core moved on)
        # but whose activation has not yet arrived from the home.  The
        # paper calls activation "typically not on the critical path"
        # (Section 5.2); these entries only wait to deactivate.
        self.zombies: Dict[int, Mshr] = {}
        # Message dispatch table, built once (handle_message is hot).
        self._dispatch = {
            MsgType.DATA: self._on_tokens,
            MsgType.ACK: self._on_tokens,
            MsgType.ACTIVATION: self._on_activation,
            MsgType.FWD_GETS: self._on_forward,
            MsgType.FWD_GETM: self._on_forward,
            MsgType.DIRECT_GETS: self._on_direct,
            MsgType.DIRECT_GETM: self._on_direct,
        }
        self._direct_seen_counter = self.stats.counter("direct_requests_seen")

    # ------------------------------------------------------------------
    # Miss issue
    # ------------------------------------------------------------------
    def _issue_miss(self, mshr: Mshr) -> None:
        mtype = MsgType.GETM if mshr.is_write else MsgType.GETS
        indirect = CoherenceMsg(mtype=mtype, block=mshr.block,
                                requester=self.node_id, sender=self.node_id,
                                txn_id=mshr.txn_id, is_write=mshr.is_write,
                                to_home=True)
        self.send([self.home_of(mshr.block)], indirect)
        dests = self.predictor.predict(mshr.block, mshr.is_write)
        dests = sorted(set(dests) - {self.node_id})
        if dests:
            direct_type = (MsgType.DIRECT_GETM if mshr.is_write
                           else MsgType.DIRECT_GETS)
            direct = CoherenceMsg(mtype=direct_type, block=mshr.block,
                                  requester=self.node_id,
                                  sender=self.node_id, txn_id=mshr.txn_id,
                                  is_write=mshr.is_write)
            priority = (Priority.BEST_EFFORT if self.config.best_effort_direct
                        else Priority.NORMAL)
            self.send(dests, direct, priority=priority)
            self.stats.add("direct_requests_sent", len(dests))

    # ------------------------------------------------------------------
    # Message dispatch
    # ------------------------------------------------------------------
    def handle_message(self, msg) -> None:
        payload: CoherenceMsg = msg.payload
        handler = self._dispatch.get(payload.mtype)
        if handler is None:
            raise ProtocolError(
                f"patch cache {self.node_id}: unexpected "
                f"{payload.mtype.value}")
        handler(payload)

    # ------------------------------------------------------------------
    # Token arrival (DATA / ACK)
    # ------------------------------------------------------------------
    def _on_tokens(self, payload: CoherenceMsg) -> None:
        if payload.tokens.is_zero and not payload.has_data:
            raise ProtocolError("empty token message (ack elision violated)")
        if payload.has_data and not payload.tokens.is_zero:
            self.predictor.record_owner(payload.block, payload.sender)
        if payload.activation:
            # The home piggybacked our activation on its token response.
            self._apply_activation_flag(payload)
        mshr = self.mshr
        if mshr is not None and mshr.block == payload.block:
            self._gather_for_mshr(mshr, payload)
            return
        self._absorb_stray(payload)

    def _apply_activation_flag(self, payload: CoherenceMsg) -> None:
        mshr = self.mshr
        if mshr is not None and mshr.txn_id == payload.txn_id:
            if not mshr.activated:
                mshr.activated = True
                self.probation.cancel(mshr.block)   # Rule #3
                line = self.cache.lookup(mshr.block)
                if line is not None:
                    line.untenured = ZERO
            return
        zombie = self.zombies.get(payload.txn_id)
        if zombie is not None and not zombie.activated:
            # Deactivate via the regular path once the tokens land; the
            # token payload itself is handled by the stray-absorb path.
            self._activate_zombie(zombie)

    def _gather_for_mshr(self, mshr: Mshr, payload: CoherenceMsg) -> None:
        mshr.tokens = mshr.tokens.add(payload.tokens)
        if payload.has_data:
            mshr.have_data = True
            mshr.data_version = payload.data_version
            if payload.tokens.owner and payload.tokens.dirty:
                mshr.data_dirty = True
        if mshr.activated:
            pass  # Rule #3: the active requester tenures everything.
        elif not payload.tokens.is_zero:
            self.probation.arm(mshr.block)  # Rules #2 and #4
        self._try_complete(mshr)

    def _absorb_stray(self, payload: CoherenceMsg) -> None:
        """Tokens for a block with no outstanding miss (stale responses,
        home redirects that raced our completion)."""
        block = payload.block
        line = self.cache.lookup(block)
        if line is None:
            if self.cache.victim_for(block) is not None:
                # No free way: bounce straight home (zero-length probation).
                self._send_tokens_home(block, payload.tokens,
                                       payload.has_data,
                                       payload.data_version,
                                       CacheState.I)
                self.stats.add("stray_bounced")
                return
            line = self.cache.allocate(block)
        line.tokens = line.tokens.add(payload.tokens)
        line.untenured = line.untenured.add(payload.tokens)  # Rule #2
        if payload.has_data:
            line.valid_data = True   # Rule #5: data + token arrived
            line.version = payload.data_version
        line.state = state_from_tokens(line.tokens, self.total_tokens,
                                       line.valid_data)
        self.probation.arm(block)
        self.stats.add("stray_tokens")

    # ------------------------------------------------------------------
    # Activation / completion / deactivation
    # ------------------------------------------------------------------
    def _on_activation(self, payload: CoherenceMsg) -> None:
        mshr = self.mshr
        if mshr is not None and mshr.txn_id == payload.txn_id:
            mshr.activated = True
            self.probation.cancel(mshr.block)   # Rule #3: tenure everything
            line = self.cache.lookup(mshr.block)
            if line is not None:
                line.untenured = ZERO
            if mshr.complete:
                self._send_deact(mshr)
            else:
                self._try_complete(mshr)
            return
        zombie = self.zombies.get(payload.txn_id)
        if zombie is None:
            raise ProtocolError(
                f"ACTIVATION at {self.node_id} for txn {payload.txn_id} "
                "with no matching request")
        self._activate_zombie(zombie)

    def _activate_zombie(self, zombie: Mshr) -> None:
        zombie.activated = True
        block = zombie.block
        self.probation.cancel(block)
        line = self.cache.lookup(block)
        if line is not None:
            line.untenured = ZERO   # Rule #3 applies per block
        # A newer miss to the same block may hold untenured tokens whose
        # timer we just cancelled; keep its probation bounded (Rule #4).
        if (self.mshr is not None and self.mshr.block == block
                and not self.mshr.activated
                and not self.mshr.tokens.is_zero):
            self.probation.arm(block)
        self._send_deact(zombie)

    def _line_tokens(self, block: int) -> TokenCount:
        line = self.cache.lookup(block)
        return line.tokens if line is not None else ZERO

    def _try_complete(self, mshr: Mshr) -> None:
        held = mshr.tokens.add(self._line_tokens(mshr.block))
        line = self.cache.lookup(mshr.block)
        have_data = mshr.have_data or (line is not None and line.valid_data)
        if not have_data:
            return
        if mshr.is_write:
            if not held.is_all(self.total_tokens):
                return
        elif held.is_zero:
            return
        self._fill_and_complete(mshr)

    def _fill_and_complete(self, mshr: Mshr) -> None:
        self._make_room(mshr.block)
        line = self.cache.allocate(mshr.block)
        line.tokens = line.tokens.add(mshr.tokens)
        if mshr.have_data:
            line.valid_data = True
            line.version = mshr.data_version
        if mshr.activated:
            line.untenured = ZERO
            self.probation.cancel(mshr.block)
        else:
            line.untenured = line.untenured.add(mshr.tokens)
        mshr.tokens = ZERO
        mshr.complete = True
        if mshr.is_write:
            self._commit_write(line)
        else:
            line.state = state_from_tokens(line.tokens, self.total_tokens,
                                           line.valid_data)
            self._observe_read(line)
        self._finish_miss(mshr)
        self.stats.add("write_completions" if mshr.is_write
                       else "read_completions")
        if mshr.activated:
            self._send_deact(mshr)
        elif mshr.issued:
            # Completed before activation (a direct-request 2-hop miss):
            # release the core now; deactivate when the home reaches us.
            self.zombies[mshr.txn_id] = mshr
            self.mshr = None
        else:
            # Satisfied before the request ever left (redirected tokens
            # from an earlier transaction): nothing to deactivate.
            self.mshr = None

    def _send_deact(self, mshr: Mshr) -> None:
        """Rule #7: give up active status, reporting our resulting state."""
        line = self.cache.lookup(mshr.block)
        report = line.state if line is not None else CacheState.I
        deact = CoherenceMsg(mtype=MsgType.DEACT, block=mshr.block,
                             requester=self.node_id, sender=self.node_id,
                             txn_id=mshr.txn_id, state_report=report,
                             to_home=True)
        self.send([self.home_of(mshr.block)], deact)
        if self.config.deactivation_ignore_window:
            self.ignore_windows.open(mshr.block,
                                     self.probation.probation_interval())
        if self.mshr is mshr:
            self.mshr = None
        self.zombies.pop(mshr.txn_id, None)

    # ------------------------------------------------------------------
    # Responding to forwarded requests (Rules #1b, #6a, #6b)
    # ------------------------------------------------------------------
    def _on_forward(self, payload: CoherenceMsg) -> None:
        if payload.requester == self.node_id:
            raise ProtocolError("home forwarded a request to its requester")
        self.predictor.record_foreign_request(payload.block,
                                              payload.requester)
        mshr = self.mshr
        mshr_here = mshr is not None and mshr.block == payload.block
        if mshr_here and mshr.activated:
            self.stats.add("forwards_hoarded")   # Rule #6a
            return
        want_all = payload.mtype is MsgType.FWD_GETM
        if want_all:
            self._yield_all_tokens(payload, include_mshr=mshr_here)
        else:
            self._yield_ownership(payload, include_mshr=mshr_here)

    def _on_direct(self, payload: CoherenceMsg) -> None:
        # Pre-bound counter: this handler runs once per broadcast copy,
        # the highest-frequency protocol event in PATCH-All runs.
        self._direct_seen_counter.value += 1
        self.predictor.record_foreign_request(payload.block,
                                              payload.requester)
        mshr = self.mshr
        block = payload.block
        if mshr is not None and mshr.block == block:
            return  # outstanding miss: always ignore direct requests
        if self.ignore_windows.active(block):
            self.stats.add("direct_ignored_window")
            return
        line = self.cache.lookup(block)
        if line is not None and not line.untenured.is_zero:
            self.stats.add("direct_ignored_untenured")   # Rule #6c
            return
        if line is None or line.tokens.is_zero:
            # Nearly every broadcast copy ends here: nothing to yield,
            # and ack elision sends no reply.
            self.stats.add("requests_ignored_no_tokens")
            return
        if payload.mtype is MsgType.DIRECT_GETM:
            self._yield_all_tokens(payload, include_mshr=False)
        else:
            self._yield_ownership(payload, include_mshr=False)

    # -- token yielding helpers -------------------------------------------
    def _yield_all_tokens(self, payload: CoherenceMsg,
                          include_mshr: bool) -> None:
        """Send every token we hold for the block to the requester."""
        block = payload.block
        tokens = ZERO
        version = 0
        has_data = False
        line = self.cache.lookup(block)
        if line is not None and not line.tokens.is_zero:
            tokens = tokens.add(line.tokens)
            if line.valid_data:
                version = line.version
                has_data = True
            self._drop_line(line)
        if include_mshr and self.mshr is not None and not self.mshr.tokens.is_zero:
            tokens = tokens.add(self.mshr.tokens)
            if self.mshr.have_data:
                version = self.mshr.data_version
                has_data = True
            self.mshr.tokens = ZERO
            self.mshr.have_data = False
        if tokens.is_zero:
            self.stats.add("requests_ignored_no_tokens")  # ack elision
            return
        has_data = has_data and tokens.owner  # only the owner sends data
        self._respond(payload.requester, block, payload.txn_id, tokens,
                      has_data, version)

    def _yield_ownership(self, payload: CoherenceMsg,
                         include_mshr: bool) -> None:
        """Read request: transfer the owner token (+ data), keep the rest.

        Exception: a dirty-exclusive (M) holding transfers *all* tokens —
        the classic token-coherence migratory-sharing policy.  Without it
        a reader of migratory data would be left collecting the remaining
        T-1 tokens on its subsequent write, defeating 2-hop direct
        requests on exactly the pattern they help most.
        """
        block = payload.block
        line = self.cache.lookup(block)
        if (self.config.migratory_optimization
                and line is not None and line.tokens.dirty
                and line.tokens.is_all(self.total_tokens)):
            self._yield_all_tokens(payload, include_mshr)
            self.stats.add("migratory_full_transfers")
            return
        if line is not None and line.tokens.owner:
            if not line.valid_data:
                raise ProtocolError(
                    f"owner token without data at cache {self.node_id}")
            taken, remaining = line.tokens.take(1, take_owner=True)
            line.tokens = remaining
            if not line.untenured.is_zero:
                # The owner token leaves; clamp untenured to what remains.
                keep = min(line.untenured.count - (1 if line.untenured.owner
                                                   else 0),
                           remaining.count)
                line.untenured = TokenCount(max(0, keep), False, False)
            version = line.version
            if remaining.is_zero:
                self._drop_line(line)
            else:
                line.state = state_from_tokens(line.tokens,
                                               self.total_tokens,
                                               line.valid_data)
            self._respond(payload.requester, block, payload.txn_id, taken,
                          True, version)
            return
        if (include_mshr and self.mshr is not None
                and self.mshr.tokens.owner and self.mshr.have_data):
            taken, remaining = self.mshr.tokens.take(1, take_owner=True)
            self.mshr.tokens = remaining
            version = self.mshr.data_version
            if remaining.is_zero:
                self.mshr.have_data = False
            self._respond(payload.requester, block, payload.txn_id, taken,
                          True, version)
            return
        self.stats.add("requests_ignored_no_tokens")

    def _respond(self, dest: int, block: int, txn_id: int,
                 tokens: TokenCount, has_data: bool, version: int) -> None:
        mtype = MsgType.DATA if has_data else MsgType.ACK
        response = CoherenceMsg(mtype=mtype, block=block, requester=dest,
                                sender=self.node_id, txn_id=txn_id,
                                tokens=tokens, has_data=has_data,
                                data_version=version)
        self.send([dest], response, delay=self.config.cache_latency)
        self.stats.add("token_responses")

    # ------------------------------------------------------------------
    # Probation expiry, eviction, and token writeback
    # ------------------------------------------------------------------
    def _on_probation_expired(self, block: int) -> None:
        """Rule #4: discard untenured tokens to the home."""
        discarded = ZERO
        has_data = False
        version = 0
        line = self.cache.lookup(block)
        if line is not None and not line.untenured.is_zero:
            untenured = line.untenured
            keep_count = line.tokens.count - untenured.count
            keep_owner = line.tokens.owner and not untenured.owner
            kept = TokenCount(keep_count, keep_owner,
                              line.tokens.dirty and keep_owner)
            if untenured.owner and line.valid_data:
                has_data = True
                version = line.version
            discarded = discarded.add(
                TokenCount(untenured.count, untenured.owner,
                           line.tokens.dirty and untenured.owner))
            line.tokens = kept
            line.untenured = ZERO
            if kept.is_zero:
                self._drop_line(line)
            else:
                line.state = state_from_tokens(line.tokens,
                                               self.total_tokens,
                                               line.valid_data)
        mshr = self.mshr
        if (mshr is not None and mshr.block == block and not mshr.activated
                and not mshr.tokens.is_zero):
            if mshr.tokens.owner and mshr.have_data:
                has_data = True
                version = mshr.data_version
            discarded = discarded.add(mshr.tokens)
            mshr.tokens = ZERO
            mshr.have_data = False
        if discarded.is_zero:
            return
        has_data = has_data and discarded.owner
        remaining = self.resident_state(block)
        self._send_tokens_home(block, discarded, has_data, version, remaining)
        self.stats.add("probation_discards")

    def _drop_line(self, line: CacheLine) -> None:
        line.tokens = ZERO
        line.untenured = ZERO
        line.valid_data = False
        line.state = CacheState.I
        self.cache.evict(line.block)
        self.probation.cancel(line.block)

    def _make_room(self, block: int) -> None:
        victim = self.cache.victim_for(block)
        if victim is None:
            return
        self._evict(victim)

    def _evict(self, line: CacheLine) -> None:
        """All PATCH evictions are non-silent token writebacks (Rule #1)."""
        tokens = line.tokens
        has_data = tokens.owner and line.valid_data
        version = line.version
        block = line.block
        self._drop_line(line)
        self.stats.add("evictions")
        if tokens.is_zero:
            return
        self._send_tokens_home(block, tokens, has_data, version, CacheState.I)
        self.stats.add("token_writebacks")

    def _send_tokens_home(self, block: int, tokens: TokenCount,
                          has_data: bool, version: int,
                          remaining_state: CacheState) -> None:
        """Discard tokens to the home (eviction or Rule #4 timeout).

        ``remaining_state`` tells the home whether we kept any (tenured)
        tokens: only an I report may remove us from the sharers set, or
        the directory would stop being a superset of tenured holders
        (Rule #1b).
        """
        if tokens.owner and tokens.dirty and not has_data:
            raise ProtocolError("dirty owner token going home without data")
        wb = CoherenceMsg(mtype=MsgType.TOKEN_WB, block=block,
                          requester=self.node_id, sender=self.node_id,
                          tokens=tokens, has_data=has_data,
                          data_version=version, state_report=remaining_state,
                          to_home=True)
        self.send([self.home_of(block)], wb)
