"""Shared protocol infrastructure.

Every node hosts a cache controller (attached to one core) and a home
controller (one slice of the distributed directory/memory).  Blocks are
address-interleaved across homes: ``home(block) = block % num_nodes``.

The classes here are shared by the protocols: message plumbing and
dispatch, the single-entry MSHR (the paper models simple single-issue
cores, so each core has one outstanding miss), victim selection, the
memory model (data versioning for the integrity checker, and memory's
token holding), the directory entry DIRECTORY and PATCH share, and the
cache-side token-counting rules PATCH and TokenB share
(:class:`TokenCacheBase`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.cache.array import CacheArray, CacheLine
from repro.coherence.messages import CoherenceMsg, MsgType, next_txn_id
from repro.coherence.states import CacheState, state_from_tokens
from repro.coherence.tokens import ZERO, TokenCount, initial_tokens
from repro.config import SystemConfig
from repro.directory_state.encodings import SharerEncoding, make_encoding
from repro.interconnect.message import Message, Priority
from repro.interconnect.network import NetworkInterface
from repro.sim.kernel import Simulator
from repro.stats.counters import Counter, Ewma, Histogram, StatGroup
from repro.stats.traffic import MsgClass

#: Interconnect traffic class for each protocol message type.
MSG_CLASS: Dict[MsgType, MsgClass] = {
    MsgType.GETS: MsgClass.INDIRECT_REQUEST,
    MsgType.GETM: MsgClass.INDIRECT_REQUEST,
    MsgType.DIRECT_GETS: MsgClass.DIRECT_REQUEST,
    MsgType.DIRECT_GETM: MsgClass.DIRECT_REQUEST,
    MsgType.FWD_GETS: MsgClass.FORWARD,
    MsgType.FWD_GETM: MsgClass.FORWARD,
    MsgType.INV: MsgClass.FORWARD,
    MsgType.DATA: MsgClass.DATA,
    MsgType.ACK: MsgClass.ACK,
    MsgType.ACK_COUNT: MsgClass.ACK,
    MsgType.DEACT: MsgClass.DEACTIVATION,
    MsgType.PUT: MsgClass.WRITEBACK,
    MsgType.WB_ACK: MsgClass.ACK,
    MsgType.TOKEN_WB: MsgClass.WRITEBACK,
    MsgType.ACTIVATION: MsgClass.ACTIVATION,
    MsgType.PERSISTENT_REQ: MsgClass.REISSUE,
    MsgType.PERSISTENT_ACTIVATE: MsgClass.REISSUE,
    MsgType.PERSISTENT_DEACTIVATE: MsgClass.REISSUE,
}


@dataclass(slots=True)
class Mshr:
    """The single outstanding miss of a core."""

    block: int
    is_write: bool
    txn_id: int
    issue_time: int
    done_callback: Callable[[], None]
    # Token-protocol bookkeeping -------------------------------------
    tokens: TokenCount = ZERO        # tokens gathered before line fill
    data_version: int = -1           # version of gathered data (or -1)
    have_data: bool = False
    activated: bool = False          # PATCH: home named us active
    core_done: bool = False          # permissions obtained, core released
    complete: bool = False           # transaction fully finished
    # DIRECTORY bookkeeping ------------------------------------------
    issued: bool = False             # request messages actually sent
    acks_expected: Optional[int] = None
    acks_received: int = 0
    grant_state: Optional[CacheState] = None
    # TokenB bookkeeping ----------------------------------------------
    retries: int = 0
    persistent: bool = False


class ProtocolError(RuntimeError):
    """The protocol reached a state its specification forbids."""


class Memory:
    """Per-home memory slice: the data record and memory's tokens.

    ``version`` models the data value for the integrity checker; the
    valid bit implements token Rule #5 at the home.  Under the token
    protocols ``tokens`` maps a block to the tokens memory holds for
    it; blocks memory has not touched yet are absent and hold all T,
    the reset state.
    """

    def __init__(self, total_tokens: int) -> None:
        self._version: Dict[int, int] = {}
        self._valid: Dict[int, bool] = {}
        self._initial = initial_tokens(total_tokens)
        self.tokens: Dict[int, TokenCount] = {}

    def version(self, block: int) -> int:
        return self._version.get(block, 0)

    def write(self, block: int, version: int) -> None:
        self._version[block] = version
        self._valid[block] = True

    def is_valid(self, block: int) -> bool:
        return self._valid.get(block, True)

    def set_valid(self, block: int, valid: bool) -> None:
        self._valid[block] = valid

    # -- token holding (PATCH and TokenB) --------------------------------
    def held(self, block: int) -> TokenCount:
        """The tokens memory holds for ``block``."""
        tokens = self.tokens.get(block)
        if tokens is None:
            tokens = self.tokens[block] = self._initial
        return tokens

    def take(self, block: int, owner_only: bool = False) -> TokenCount:
        """Hand out memory's tokens for ``block``: every one, or with
        ``owner_only`` the owner token alone."""
        held = self.held(block)
        if owner_only:
            taken, self.tokens[block] = held.take(1, take_owner=True)
        else:
            taken, self.tokens[block] = held.take_all()
        return taken

    def absorb(self, block: int, tokens: TokenCount) -> None:
        self.tokens[block] = self.held(block).add(tokens)

    def write_back(self, payload: CoherenceMsg) -> TokenCount:
        """Receive a token writeback; returns its tokens for the home to
        absorb or redirect.

        With the owner token the data comes home too, so memory's copy
        is valid again (Rule #5), and memory sets the owner token clean
        (Rule #1).
        """
        tokens = payload.tokens
        if tokens.owner:
            if payload.has_data:
                self.write(payload.block, payload.data_version)
            else:
                self.set_valid(payload.block, True)
            tokens = tokens.mark_clean()
        return tokens

    def response(self, block: int, tokens: TokenCount, requester: int,
                 sender: int, txn_id: int,
                 activation: bool = False) -> CoherenceMsg:
        """A message carrying ``tokens`` from memory to ``requester``:
        the data goes with the owner token."""
        has_data = tokens.owner
        if has_data and not self.is_valid(block):
            raise ProtocolError(
                f"memory owns block {block} but its data is invalid")
        return CoherenceMsg(
            mtype=MsgType.DATA if has_data else MsgType.ACK, block=block,
            requester=requester, sender=sender, txn_id=txn_id,
            tokens=tokens, has_data=has_data, activation=activation,
            data_version=self.version(block) if has_data else 0)


@dataclass
class DirEntry:
    """Directory entry: exact owner + encoded sharers + migratory state.

    The per-block state of Section 5.1's directory: the owner is always
    exact, the sharer set goes through the configured
    :mod:`repro.directory_state.encodings` encoding (full map down to a
    single bit, Section 7's inexactness experiments), and the migratory
    bits drive the migratory-sharing optimization.  PATCH uses it
    unchanged (Table 2: the directory's state already holds what token
    counting needs at the home); memory's tokens live in :class:`Memory`.
    """

    sharers: SharerEncoding
    owner: Optional[int] = None          # None => memory owns the block
    owner_txn: int = 0                   # DIRECTORY: txn that installed it
    migratory: bool = False
    pending_read_by: Optional[int] = None
    pending_read_was_remote: bool = False


class Node:
    """Base class for cache and home controllers: message plumbing.

    A subclass names itself in ``label`` and fills ``_handlers``
    (message type -> handler) in its constructor;
    :meth:`handle_message` dispatches through that one table.
    """

    #: How errors name the controller, e.g. ``"tokenb home"``.
    label = "node"

    def __init__(self, node_id: int, sim: Simulator,
                 network: NetworkInterface, config: SystemConfig) -> None:
        self.node_id = node_id
        self.sim = sim
        self.network = network
        self.config = config
        self.stats = StatGroup()
        self._handlers: Dict[MsgType, Callable[[CoherenceMsg], None]] = {}

    # ------------------------------------------------------------------
    def home_of(self, block: int) -> int:
        return block % self.config.num_cores

    def send(self, dests: Sequence[int], payload: CoherenceMsg,
             priority: Priority = Priority.NORMAL, delay: int = 0) -> None:
        """Send ``payload`` to ``dests`` after ``delay`` cycles.

        A data message is ``data_msg_bytes`` long, any other
        ``control_msg_bytes``.
        """
        # Built positionally: runs once per message, and a keyword call
        # to a dataclass __init__ costs about twice a positional one.
        config = self.config
        msg = Message(self.node_id, tuple(dests),
                      config.data_msg_bytes if payload.has_data
                      else config.control_msg_bytes,
                      MSG_CLASS[payload.mtype], priority, payload)
        if delay > 0:
            self.sim.post(delay, lambda: self.network.send(msg))
        else:
            self.network.send(msg)

    def handle_message(self, msg: Message) -> None:
        payload: CoherenceMsg = msg.payload
        handler = self._handlers.get(payload.mtype)
        if handler is None:
            raise ProtocolError(f"{self.label} {self.node_id}: unexpected "
                                f"{payload.mtype.value}")
        handler(payload)

    def close(self) -> None:
        """Drop the handler table, whose bound methods refer back to
        this controller (see :meth:`repro.core.system.System.close`)."""
        self._handlers.clear()


class CacheControllerBase(Node):
    """Common cache-side behaviour: hits, the MSHR, victim selection.

    Subclasses implement the protocol-specific miss issue path and message
    handlers.
    """

    def __init__(self, node_id: int, sim: Simulator,
                 network: NetworkInterface, config: SystemConfig) -> None:
        super().__init__(node_id, sim, network, config)
        self.cache = CacheArray(config.cache_sets, config.cache_assoc)
        self.mshr: Optional[Mshr] = None
        self.miss_latency = Histogram(bucket_width=25)
        self.rtt_ewma = Ewma(alpha=0.125,
                             initial=float(4 * config.total_link_latency
                                           + 2 * config.directory_latency))
        self._integrity = None  # set by System when checking is enabled
        # The counters access() bumps once per reference, bound on
        # first use so that a run with no hit (say) reports no "hits".
        self._hits: Optional[Counter] = None
        self._misses: Optional[Counter] = None
        self._read_misses: Optional[Counter] = None
        self._write_misses: Optional[Counter] = None

    # -- core-facing API ------------------------------------------------
    def access(self, block: int, is_write: bool,
               done: Callable[[], None]) -> None:
        """Core issues a load or store; ``done`` fires on completion."""
        if self.mshr is not None:
            raise ProtocolError(
                f"core {self.node_id} issued a second outstanding access")
        line = self.cache.lookup(block, touch=True)
        if line is not None and self._is_hit(line, is_write):
            counter = self._hits
            if counter is None:
                counter = self._hits = self.stats.counter("hits")
            counter.value += 1
            self._apply_access(line, is_write)
            self.sim.post(self.config.cache_latency, done)
            return
        counter = self._misses
        if counter is None:
            counter = self._misses = self.stats.counter("misses")
        counter.value += 1
        if is_write:
            counter = self._write_misses
            if counter is None:
                counter = self._write_misses = self.stats.counter(
                    "write_misses")
        else:
            counter = self._read_misses
            if counter is None:
                counter = self._read_misses = self.stats.counter(
                    "read_misses")
        counter.value += 1
        mshr = Mshr(block, is_write, next_txn_id(), self.sim.now, done)
        self.mshr = mshr
        self.sim.post(self.config.cache_latency,
                      lambda: self._maybe_issue(mshr))

    def _maybe_issue(self, mshr: Mshr) -> None:
        """Issue the miss unless it already completed (tokens redirected
        from an earlier transaction can satisfy a miss during the cache
        lookup delay, before any request message goes out)."""
        if mshr.complete or self.mshr is not mshr:
            return
        mshr.issued = True
        self._issue_miss(mshr)

    def _is_hit(self, line: CacheLine, is_write: bool) -> bool:
        if is_write:
            return line.state in (CacheState.M, CacheState.E)
        return line.state is not CacheState.I and line.valid_data

    def _apply_access(self, line: CacheLine, is_write: bool) -> None:
        """Perform the access on a line with sufficient permission."""
        if is_write:
            if line.state is CacheState.E:
                self._silent_upgrade(line)
            self._commit_write(line)
        else:
            self._observe_read(line)

    def _silent_upgrade(self, line: CacheLine) -> None:
        """E -> M on a store hit (no message needed)."""
        line.state = CacheState.M
        if not line.tokens.is_zero:
            line.tokens = line.tokens.mark_dirty()

    def _commit_write(self, line: CacheLine) -> None:
        line.state = CacheState.M
        if not line.tokens.is_zero:
            line.tokens = line.tokens.mark_dirty()
        line.valid_data = True
        if self._integrity is not None:
            line.version = self._integrity.commit_write(self.node_id,
                                                        line.block)

    def _observe_read(self, line: CacheLine) -> None:
        if self._integrity is not None:
            self._integrity.observe_read(self.node_id, line.block,
                                         line.version)

    # -- completion helpers ---------------------------------------------
    def _finish_miss(self, mshr: Mshr) -> None:
        """Release the core and record the miss latency."""
        if mshr.core_done:
            return
        mshr.core_done = True
        latency = self.sim.now - mshr.issue_time
        self.miss_latency.add(latency)
        self.rtt_ewma.add(latency)
        self.sim.post(0, mshr.done_callback)

    def _make_room(self, block: int) -> None:
        """Evict the LRU victim if ``block``'s set is full."""
        victim = self.cache.victim_for(block)
        if victim is not None:
            self._evict(victim)

    # -- subclass hooks ---------------------------------------------------
    def _issue_miss(self, mshr: Mshr) -> None:
        raise NotImplementedError

    def _evict(self, line: CacheLine) -> None:
        raise NotImplementedError

    def resident_state(self, block: int) -> CacheState:
        line = self.cache.lookup(block)
        return line.state if line is not None else CacheState.I


#: Requests that take every token a holder has: writes, and migratory
#: reads, which the PATCH home forwards as FWD_GETM.
TAKE_ALL_TYPES = frozenset({MsgType.GETM, MsgType.DIRECT_GETM,
                            MsgType.FWD_GETM})

#: How :meth:`TokenCacheBase._yield_tokens` answered a request.
IGNORED, SENT, MIGRATORY = "ignored", "sent", "migratory"


class TokenCacheBase(CacheControllerBase):
    """Cache-side token counting (Table 1), shared by PATCH and TokenB.

    * Completion: a read needs valid data plus >= 1 token, a write all
      T tokens (Rules #2/#3).  The MSHR gathers what arrives until the
      line and the MSHR together hold enough.
    * Requests: a write-type request takes every token we hold, line
      and MSHR; a read takes the owner token with the data and leaves
      the rest, except that a dirty-exclusive (M) holding moves whole
      (the migratory-sharing policy).  A holder with nothing to give
      stays silent: no zero-token acks.
    * Tokens with nowhere to go: strays are absorbed into the line, or
      bounced home from a full set, and every eviction writes its
      tokens back to the home (Rule #1).

    Subclasses issue misses, say what follows a fill (:meth:`_complete`)
    and register their message handlers.
    """

    def __init__(self, node_id: int, sim: Simulator,
                 network: NetworkInterface, config: SystemConfig) -> None:
        super().__init__(node_id, sim, network, config)
        self.total_tokens = config.tokens_per_block

    # -- completion -------------------------------------------------------
    def _gather(self, mshr: Mshr, payload: CoherenceMsg) -> None:
        """Collect a response's tokens, and its data, in the MSHR."""
        mshr.tokens = mshr.tokens.add(payload.tokens)
        if payload.has_data:
            mshr.have_data = True
            mshr.data_version = payload.data_version

    def _try_complete(self, mshr: Mshr) -> None:
        line = self.cache.lookup(mshr.block)
        held = mshr.tokens.add(line.tokens if line is not None else ZERO)
        if not (mshr.have_data or (line is not None and line.valid_data)):
            return
        if mshr.is_write:
            if not held.is_all(self.total_tokens):
                return
        elif held.is_zero:
            return
        self._complete(mshr)

    def _fill(self, mshr: Mshr) -> CacheLine:
        """Move the MSHR's tokens and data into the line and perform
        the access."""
        self._make_room(mshr.block)
        line = self.cache.allocate(mshr.block)
        line.tokens = line.tokens.add(mshr.tokens)
        if mshr.have_data:
            line.valid_data = True
            line.version = mshr.data_version
        mshr.tokens = ZERO
        mshr.complete = True
        if mshr.is_write:
            self._commit_write(line)
        else:
            line.state = state_from_tokens(line.tokens, self.total_tokens,
                                           line.valid_data)
            self._observe_read(line)
        return line

    def _complete(self, mshr: Mshr) -> None:
        """The miss holds enough: :meth:`_fill` and finish it."""
        raise NotImplementedError

    # -- answering requests -----------------------------------------------
    def _yield_tokens(self, payload: CoherenceMsg) -> str:
        """Answer a request from what we hold for its block.

        The message type picks yield-all, not ``is_write``: a migratory
        read arrives as FWD_GETM.  Returns IGNORED (nothing to give),
        SENT, or MIGRATORY (a read took a dirty-exclusive holding whole;
        without that, a reader of migratory data would have to collect
        the other T-1 tokens on its next write).
        """
        if payload.mtype in TAKE_ALL_TYPES:
            return SENT if self._yield_all(payload) else IGNORED
        block = payload.block
        line = self.cache.lookup(block)
        if (self.config.migratory_optimization
                and line is not None and line.tokens.dirty
                and line.tokens.is_all(self.total_tokens)):
            self._yield_all(payload)
            return MIGRATORY
        if line is not None and line.tokens.owner:
            if not line.valid_data:
                raise ProtocolError(f"owner token without data at "
                                    f"{self.label} {self.node_id}")
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
            return SENT
        mshr = self.mshr
        if (mshr is not None and mshr.block == block
                and mshr.tokens.owner and mshr.have_data):
            taken, mshr.tokens = mshr.tokens.take(1, take_owner=True)
            if mshr.tokens.is_zero:
                mshr.have_data = False
            self._respond(payload.requester, block, payload.txn_id, taken,
                          True, mshr.data_version)
            return SENT
        return IGNORED

    def _yield_all(self, payload: CoherenceMsg) -> bool:
        """Send every token we hold for the block, line and MSHR, to the
        requester in one response; False when we hold none."""
        block = payload.block
        tokens = ZERO
        version = 0
        has_data = False
        line = self.cache.lookup(block)
        if line is not None and not line.tokens.is_zero:
            tokens = line.tokens
            if line.valid_data:
                version = line.version
                has_data = True
            self._drop_line(line)
        mshr = self.mshr
        if (mshr is not None and mshr.block == block
                and not mshr.tokens.is_zero):
            tokens = tokens.add(mshr.tokens)
            if mshr.have_data:
                version = mshr.data_version
                has_data = True
            mshr.tokens = ZERO
            mshr.have_data = False
        if tokens.is_zero:
            return False
        # Only the owner-token holder sends data.
        self._respond(payload.requester, block, payload.txn_id, tokens,
                      has_data and tokens.owner, version)
        return True

    def _respond(self, dest: int, block: int, txn_id: int,
                 tokens: TokenCount, has_data: bool, version: int) -> None:
        mtype = MsgType.DATA if has_data else MsgType.ACK
        response = CoherenceMsg(mtype=mtype, block=block, requester=dest,
                                sender=self.node_id, txn_id=txn_id,
                                tokens=tokens, has_data=has_data,
                                data_version=version)
        self.send([dest], response, delay=self.config.cache_latency)

    # -- tokens with nowhere to go ------------------------------------------
    def _absorb_stray(self, payload: CoherenceMsg) -> Optional[CacheLine]:
        """Keep tokens for a block with no outstanding miss (stale
        responses, home redirects that raced our completion).

        Returns the line they joined, or None when the block's set had
        no free way and they bounced straight home.
        """
        block = payload.block
        line = self.cache.lookup(block)
        if line is None:
            if self.cache.victim_for(block) is not None:
                self._send_tokens_home(block, payload.tokens,
                                       payload.has_data,
                                       payload.data_version, CacheState.I)
                return None
            line = self.cache.allocate(block)
        line.tokens = line.tokens.add(payload.tokens)
        if payload.has_data:
            line.valid_data = True   # Rule #5: data + token arrived
            line.version = payload.data_version
        line.state = state_from_tokens(line.tokens, self.total_tokens,
                                       line.valid_data)
        self.stats.add("stray_tokens")
        return line

    def _evict(self, line: CacheLine) -> None:
        """Evictions are non-silent: the tokens go home (Rule #1)."""
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

    def _drop_line(self, line: CacheLine) -> None:
        line.tokens = ZERO
        line.untenured = ZERO
        line.valid_data = False
        line.state = CacheState.I
        self.cache.evict(line.block)
        self._line_dropped(line.block)

    def _line_dropped(self, block: int) -> None:
        """Hook: the line for ``block`` left the cache."""

    def _send_tokens_home(self, block: int, tokens: TokenCount,
                          has_data: bool, version: int,
                          remaining_state: CacheState) -> None:
        """Write tokens back to the home.

        ``remaining_state`` tells the home whether we kept any (tenured)
        tokens: only an I report may remove us from PATCH's sharers set,
        or the directory would stop being a superset of tenured holders
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


class HomeControllerBase(Node):
    """Common home-side behaviour for DIRECTORY and PATCH.

    Both process requests one at a time per block (GEMS-style blocking,
    no NACKs); the arrival order at the home decides the service order.
    This is the serialization point token tenure leverages (Rule #1a).
    Both keep a :class:`DirEntry` per block and detect migratory
    sharing the same way.
    """

    def __init__(self, node_id: int, sim: Simulator,
                 network: NetworkInterface, config: SystemConfig) -> None:
        super().__init__(node_id, sim, network, config)
        self.memory = Memory(config.tokens_per_block)
        self.entries: Dict[int, DirEntry] = {}
        self._busy: Dict[int, CoherenceMsg] = {}    # block -> active request
        self._queues: Dict[int, List[CoherenceMsg]] = {}
        # Bumped per request, so bound on first use (a home that
        # activates nothing reports no "activations").
        self._activations: Optional[Counter] = None

    # ------------------------------------------------------------------
    def entry(self, block: int) -> DirEntry:
        entry = self.entries.get(block)
        if entry is None:
            entry = self.entries[block] = DirEntry(
                sharers=make_encoding(self.config.num_cores,
                                      self.config.encoding_coarseness))
        return entry

    def is_busy(self, block: int) -> bool:
        return block in self._busy

    def active_request(self, block: int) -> Optional[CoherenceMsg]:
        return self._busy.get(block)

    def in_flight(self) -> List[Tuple[int, str, CoherenceMsg]]:
        """``(block, state, request)`` for each request being served,
        for stall diagnosis (:func:`~repro.verify.watchdog.describe_stall`)."""
        return [(block, "busy on", payload)
                for block, payload in self._busy.items()]

    def _enqueue_or_activate(self, payload: CoherenceMsg) -> None:
        block = payload.block
        if block in self._busy:
            self._queues.setdefault(block, []).append(payload)
            self.stats.add("queued_requests")
            return
        self._busy[block] = payload
        counter = self._activations
        if counter is None:
            counter = self._activations = self.stats.counter("activations")
        counter.value += 1
        self.sim.post(self.config.directory_latency,
                      lambda: self._activate(payload))

    def _deactivate(self, block: int) -> None:
        """Finish the active request; start the next queued one, if any."""
        if block not in self._busy:
            raise ProtocolError(f"deactivate on idle block {block}")
        del self._busy[block]
        queue = self._queues.get(block)
        if queue:
            payload = queue.pop(0)
            if not queue:
                del self._queues[block]
            self._busy[block] = payload
            self.stats.add("activations")
            self.sim.post(self.config.directory_latency,
                          lambda: self._activate(payload))

    def _deact_entry(self, payload: CoherenceMsg) -> DirEntry:
        """The entry a DEACT updates; it must end the active request."""
        entry = self.entry(payload.block)
        active = self.active_request(payload.block)
        if active is None or active.txn_id != payload.txn_id:
            raise ProtocolError(
                f"DEACT for txn {payload.txn_id} does not match the active "
                f"request at home {self.node_id}")
        return entry

    # -- migratory-sharing detection ----------------------------------------
    def _migratory_read(self, entry: DirEntry, requester: int) -> bool:
        """Track a read; True when it should move the block exclusively.

        A block is migratory once the same core read remotely owned data
        and then wrote it; a read of a migratory block held elsewhere is
        served like a write.  Two reads in a row break the pattern.
        """
        remote_owner = entry.owner is not None and entry.owner != requester
        migratory = (self.config.migratory_optimization and entry.migratory
                     and remote_owner)
        if migratory:
            self.stats.add("migratory_reads")
        if entry.pending_read_by is not None:
            entry.migratory = False
        entry.pending_read_by = requester
        entry.pending_read_was_remote = remote_owner
        return migratory

    def _note_write(self, entry: DirEntry, requester: int) -> None:
        """Read-then-write by the same core on remotely sourced data
        marks the block migratory."""
        if (entry.pending_read_by == requester
                and entry.pending_read_was_remote):
            entry.migratory = True
            self.stats.add("migratory_detected")
        entry.pending_read_by = None

    # -- subclass hooks ---------------------------------------------------
    def _activate(self, payload: CoherenceMsg) -> None:
        raise NotImplementedError
