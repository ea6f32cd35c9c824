"""DIRECTORY cache controller.

Implements the cache side of the GEMS-style blocking MOESI+F directory
protocol described in paper Section 5.1:

* misses send GETS/GETM to the block's home and wait;
* completion is by acknowledgement counting (data message carries the
  number of invalidation acks to expect);
* ownership transfers to the most recent requester on both read and write
  misses;
* E is granted on reads with no other sharers; E and F/O/M evictions are
  non-silent (writeback with ack), S evictions are silent.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.cache.array import CacheLine
from repro.coherence.messages import CoherenceMsg, MsgType, next_txn_id
from repro.coherence.states import (DIRTY_STATES, OWNER_STATES, CacheState)
from repro.protocols.base import CacheControllerBase, Mshr, ProtocolError


@dataclass
class WbEntry:
    """A block between eviction and writeback acknowledgement.

    DIRECTORY's non-silent evictions (E/F/O/M send PUT and await
    WB_ACK, Section 5.1) leave the block in this transient holding so
    a forwarded request racing the writeback can still be answered
    with the departing data.
    """

    block: int
    dirty: bool
    version: int
    txn_id: int
    surrendered: bool = False  # responded to a forward from this buffer


class DirectoryCache(CacheControllerBase):
    """Cache controller for the DIRECTORY protocol (paper Section 5.1).

    The paper's baseline: a GEMS-style blocking MOESI+F controller in
    which every miss indirects through the block's home and completes
    by acknowledgement counting (the data response names how many
    invalidation acks to await).  This is the protocol whose three-hop
    sharing misses PATCH's direct requests exist to shortcut, and whose
    directory state PATCH reuses verbatim for token tenure.
    """

    label = "directory cache"

    def __init__(self, node_id, sim, network, config) -> None:
        super().__init__(node_id, sim, network, config)
        self.wb_buffer: Dict[int, WbEntry] = {}
        self._handlers = {
            MsgType.FWD_GETS: self._on_fwd_gets,
            MsgType.FWD_GETM: self._on_fwd_getm,
            MsgType.INV: self._on_inv,
            MsgType.DATA: self._on_data,
            MsgType.ACK: self._on_ack,
            MsgType.ACK_COUNT: self._on_ack_count,
            MsgType.WB_ACK: self._on_wb_ack,
        }

    # -- miss path -------------------------------------------------------
    def _issue_miss(self, mshr: Mshr) -> None:
        mtype = MsgType.GETM if mshr.is_write else MsgType.GETS
        payload = CoherenceMsg(mtype=mtype, block=mshr.block,
                               requester=self.node_id, sender=self.node_id,
                               txn_id=mshr.txn_id, is_write=mshr.is_write,
                               to_home=True)
        self.send([self.home_of(mshr.block)], payload)

    # -- forwarded requests -------------------------------------------------
    def _owner_source(self, block: int):
        """Where our ownership of ``block`` lives: live line or WB buffer."""
        line = self.cache.lookup(block)
        if line is not None and line.state in OWNER_STATES:
            return line
        entry = self.wb_buffer.get(block)
        if entry is not None:
            return entry
        return None

    def _on_fwd_gets(self, payload: CoherenceMsg) -> None:
        source = self._owner_source(payload.block)
        if source is None:
            raise ProtocolError(
                f"FWD_GETS at {self.node_id} for block {payload.block} "
                "but not owner")
        migratory = payload.grant_state is CacheState.M
        if (self.config.migratory_optimization
                and not isinstance(source, WbEntry)
                and source.state is CacheState.M):
            # Dirty-exclusive data migrates on a read (the same migratory
            # response policy the token protocols apply), keeping the
            # DIRECTORY baseline's sharing behaviour equal to PATCH-None.
            migratory = True
        if isinstance(source, WbEntry):
            dirty, version = source.dirty, source.version
            source.surrendered = True
        else:
            dirty, version = source.state in DIRTY_STATES, source.version
            if migratory:
                self._invalidate_line(source)
            else:
                source.state = CacheState.S
        if migratory:
            grant = CacheState.M
            self.stats.add("migratory_transfers")
        else:
            grant = CacheState.O if dirty else CacheState.F
        response = CoherenceMsg(
            mtype=MsgType.DATA, block=payload.block,
            requester=payload.requester, sender=self.node_id,
            txn_id=payload.txn_id, has_data=True,
            acks_expected=payload.acks_expected or 0, grant_state=grant,
            data_version=version)
        self.send([payload.requester], response,
                  delay=self.config.cache_latency)
        self.stats.add("forwards_served")

    def _on_fwd_getm(self, payload: CoherenceMsg) -> None:
        source = self._owner_source(payload.block)
        if source is None:
            raise ProtocolError(
                f"FWD_GETM at {self.node_id} for block {payload.block} "
                "but not owner")
        if isinstance(source, WbEntry):
            version = source.version
            source.surrendered = True
        else:
            version = source.version
            self._invalidate_line(source)
        response = CoherenceMsg(
            mtype=MsgType.DATA, block=payload.block,
            requester=payload.requester, sender=self.node_id,
            txn_id=payload.txn_id, has_data=True,
            acks_expected=payload.acks_expected or 0,
            grant_state=CacheState.M, data_version=version)
        self.send([payload.requester], response,
                  delay=self.config.cache_latency)
        self.stats.add("forwards_served")

    def _on_inv(self, payload: CoherenceMsg) -> None:
        line = self.cache.lookup(payload.block)
        if line is not None:
            self._invalidate_line(line)
        ack = CoherenceMsg(mtype=MsgType.ACK, block=payload.block,
                           requester=payload.requester, sender=self.node_id,
                           txn_id=payload.txn_id)
        self.send([payload.requester], ack, delay=self.config.cache_latency)
        self.stats.add("inv_acks_sent")

    def _invalidate_line(self, line: CacheLine) -> None:
        line.state = CacheState.I
        line.valid_data = False
        self.cache.evict(line.block)

    # -- responses -----------------------------------------------------------
    def _mshr_for(self, payload: CoherenceMsg) -> Mshr:
        mshr = self.mshr
        if mshr is None or mshr.block != payload.block:
            raise ProtocolError(
                f"{payload.mtype.value} at {self.node_id} with no matching "
                f"MSHR (block {payload.block})")
        return mshr

    def _on_data(self, payload: CoherenceMsg) -> None:
        mshr = self._mshr_for(payload)
        mshr.have_data = True
        mshr.grant_state = payload.grant_state
        mshr.data_version = payload.data_version
        if payload.acks_expected is not None:
            mshr.acks_expected = payload.acks_expected
        self._try_finish(mshr)

    def _on_ack(self, payload: CoherenceMsg) -> None:
        mshr = self._mshr_for(payload)
        mshr.acks_received += 1
        self._try_finish(mshr)

    def _on_ack_count(self, payload: CoherenceMsg) -> None:
        """Owner-upgrade path: home tells us how many acks to expect."""
        mshr = self._mshr_for(payload)
        mshr.acks_expected = payload.acks_expected
        line = self.cache.lookup(mshr.block)
        if line is None or not line.valid_data:
            raise ProtocolError(
                f"ACK_COUNT at {self.node_id} without owned data")
        mshr.have_data = True
        mshr.grant_state = CacheState.M
        mshr.data_version = line.version
        self._try_finish(mshr)

    def _try_finish(self, mshr: Mshr) -> None:
        if not mshr.have_data:
            return
        # Exclusive grants (writes, and migratory reads granted M) must
        # collect every invalidation acknowledgement before completing.
        if mshr.is_write or mshr.grant_state is CacheState.M:
            if mshr.acks_expected is None:
                return
            if mshr.acks_received < mshr.acks_expected:
                return
            if mshr.acks_received > mshr.acks_expected:
                raise ProtocolError(
                    f"core {self.node_id} got {mshr.acks_received} acks, "
                    f"expected {mshr.acks_expected}")
        self._fill_and_finish(mshr)

    # -- fill / completion ---------------------------------------------------
    def _fill_and_finish(self, mshr: Mshr) -> None:
        self._make_room(mshr.block)
        line = self.cache.allocate(mshr.block)
        line.valid_data = True
        line.version = mshr.data_version
        if mshr.is_write:
            self._commit_write(line)   # sets M + bumps version
            report = CacheState.M
        else:
            line.state = mshr.grant_state or CacheState.S
            report = line.state
            self._observe_read(line)
        deact = CoherenceMsg(mtype=MsgType.DEACT, block=mshr.block,
                             requester=self.node_id, sender=self.node_id,
                             txn_id=mshr.txn_id, state_report=report,
                             to_home=True)
        self.send([self.home_of(mshr.block)], deact)
        self.mshr = None
        self._finish_miss(mshr)

    def _evict(self, line: CacheLine) -> None:
        self.cache.evict(line.block)
        self.stats.add("evictions")
        if line.state is CacheState.S:
            self.stats.add("silent_evictions")
            return  # silent drop: directory keeps a stale (superset) sharer
        if line.state not in OWNER_STATES:
            return
        dirty = line.state in DIRTY_STATES
        entry = WbEntry(block=line.block, dirty=dirty, version=line.version,
                        txn_id=next_txn_id())
        self.wb_buffer[line.block] = entry
        put = CoherenceMsg(mtype=MsgType.PUT, block=line.block,
                           requester=self.node_id, sender=self.node_id,
                           txn_id=entry.txn_id, has_data=dirty,
                           data_version=line.version, to_home=True)
        self.send([self.home_of(line.block)], put)
        self.stats.add("writebacks")

    def _on_wb_ack(self, payload: CoherenceMsg) -> None:
        entry = self.wb_buffer.pop(payload.block, None)
        if entry is None:
            raise ProtocolError(
                f"WB_ACK at {self.node_id} with no pending writeback "
                f"(block {payload.block})")
