"""PATCH cache controller.

PATCH's cache side is a token-counting controller grafted onto the
DIRECTORY request flow (paper Section 5.2).  The token-counting rules
it shares with TokenB (completion by token counting, answering
requests without zero-token acks, stray absorb and token writeback)
live in :class:`~repro.protocols.base.TokenCacheBase`.  This module
adds what PATCH alone has:

* Misses always send an indirect request to the home; the predictor may
  add best-effort direct requests to other caches.
* Token tenure (Table 3): tokens arriving while we are not the active
  requester are untenured and ride a probation timer; on expiry they are
  discarded to the home.  The activation message from the home tenures
  everything.  After deactivation, direct requests are ignored for one
  probation window.
* Zombies: a miss that completed on direct responses before the home
  activated it waits for its activation only to deactivate.
"""

from __future__ import annotations

from typing import Dict

from repro.coherence.messages import CoherenceMsg, MsgType
from repro.coherence.states import CacheState, state_from_tokens
from repro.coherence.tokens import ZERO, TokenCount
from repro.interconnect.message import Priority
from repro.prediction.predictors import Predictor
from repro.protocols.base import (IGNORED, MIGRATORY, Mshr, ProtocolError,
                                  TokenCacheBase)
from repro.protocols.patch.tenure import IgnoreWindows, ProbationTimers


class PatchCache(TokenCacheBase):
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

    label = "patch cache"

    def __init__(self, node_id, sim, network, config, predictor) -> None:
        super().__init__(node_id, sim, network, config)
        self.predictor = predictor
        self.probation = ProbationTimers(
            sim, self.rtt_ewma, config.tenure_timeout_multiplier,
            config.tenure_timeout_floor, self._on_probation_expired)
        self.ignore_windows = IgnoreWindows(sim)
        # Transactions whose miss already completed (the core moved on)
        # but whose activation has not yet arrived from the home.  The
        # paper calls activation "typically not on the critical path"
        # (Section 5.2); these entries only wait to deactivate.
        self.zombies: Dict[int, Mshr] = {}
        self._handlers = {
            MsgType.DATA: self._on_tokens,
            MsgType.ACK: self._on_tokens,
            MsgType.ACTIVATION: self._on_activation,
            MsgType.FWD_GETS: self._on_forward,
            MsgType.FWD_GETM: self._on_forward,
            MsgType.DIRECT_GETS: self._on_direct,
            MsgType.DIRECT_GETM: self._on_direct,
        }
        # What _on_direct, run once per broadcast copy, reads without a
        # call: the counters it bumps (requests_ignored_no_tokens is
        # bound on first use, so a run that ignores no copy reports no
        # such key), whether the predictor learns from requests at all,
        # and the ignore windows' and cache sets' dicts.
        self._direct_seen_counter = self.stats.counter("direct_requests_seen")
        self._no_tokens_counter = None
        self._records_requests = (type(predictor).record_foreign_request
                                  is not Predictor.record_foreign_request)
        self._ignore_deadlines = self.ignore_windows._deadlines
        self._cache_sets = self.cache._sets
        self._num_sets = self.cache.num_sets

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
            self._gather(mshr, payload)
            if not mshr.activated and not payload.tokens.is_zero:
                self.probation.arm(mshr.block)  # Rules #2 and #4
            # Once activated, Rule #3 tenures everything.
            self._try_complete(mshr)
            return
        line = self._absorb_stray(payload)
        if line is None:
            self.stats.add("stray_bounced")   # zero-length probation
            return
        line.untenured = line.untenured.add(payload.tokens)  # Rule #2
        self.probation.arm(payload.block)

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

    def _complete(self, mshr: Mshr) -> None:
        moved = mshr.tokens
        line = self._fill(mshr)
        if mshr.activated:
            line.untenured = ZERO
            self.probation.cancel(mshr.block)
        else:
            line.untenured = line.untenured.add(moved)
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
    # Responding to forwarded and direct requests (Rules #1b, #6a-c)
    # ------------------------------------------------------------------
    def _on_forward(self, payload: CoherenceMsg) -> None:
        if payload.requester == self.node_id:
            raise ProtocolError("home forwarded a request to its requester")
        self.predictor.record_foreign_request(payload.block,
                                              payload.requester)
        mshr = self.mshr
        if (mshr is not None and mshr.block == payload.block
                and mshr.activated):
            self.stats.add("forwards_hoarded")   # Rule #6a
            return
        self._answer(payload)

    def _on_direct(self, payload: CoherenceMsg) -> None:
        # The highest-frequency protocol event of PATCH-All runs, so the
        # ignore-window probe (IgnoreWindows.active) and the cache-set
        # probe (CacheArray.lookup) are inlined: an ignored copy makes
        # no call past this one.
        self._direct_seen_counter.value += 1
        block = payload.block
        if self._records_requests:
            self.predictor.record_foreign_request(block, payload.requester)
        mshr = self.mshr
        if mshr is not None and mshr.block == block:
            return  # outstanding miss: always ignore direct requests
        deadlines = self._ignore_deadlines
        if block in deadlines:
            if self.sim.now < deadlines[block]:
                self.stats.add("direct_ignored_window")
                return
            del deadlines[block]   # the window has closed
        cache_set = self._cache_sets[block % self._num_sets]
        if block in cache_set:
            line = cache_set[block]
            if line.untenured.count:
                self.stats.add("direct_ignored_untenured")   # Rule #6c
                return
            if line.tokens.count:
                self._answer(payload)
                return
        # Nearly every broadcast copy ends here: nothing to yield, and
        # ack elision sends no reply.
        counter = self._no_tokens_counter
        if counter is None:
            counter = self._no_tokens_counter = self.stats.counter(
                "requests_ignored_no_tokens")
        counter.value += 1

    def _answer(self, payload: CoherenceMsg) -> None:
        """Yield what we hold for the request and count the outcome."""
        answer = self._yield_tokens(payload)
        if answer == IGNORED:
            self.stats.add("requests_ignored_no_tokens")  # ack elision
            return
        self.stats.add("token_responses")
        if answer == MIGRATORY:
            self.stats.add("migratory_full_transfers")

    # ------------------------------------------------------------------
    # Probation expiry (Rule #4)
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

    def _line_dropped(self, block: int) -> None:
        self.probation.cancel(block)

    def close(self) -> None:
        super().close()
        self.probation.close()
