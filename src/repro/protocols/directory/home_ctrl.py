"""DIRECTORY home controller.

The home serializes requests per block (busy + FIFO queue, no NACKs): the
arrival order at the home unambiguously determines the service order
(paper Section 5.1).  Owner is tracked exactly; sharers use the configured
encoding (full map or coarse vector).  Invalidations go out as one fan-out
multicast; the invalidated caches acknowledge the *requester* directly.

The migratory-sharing optimization is implemented at the home: a block is
marked migratory when the home observes the read-then-write pattern by the
same core on remotely-owned data; migratory reads are converted into
exclusive (GETM-like) transfers.
"""

from __future__ import annotations

from repro.coherence.messages import CoherenceMsg, MsgType
from repro.coherence.states import CacheState
from repro.protocols.base import DirEntry, HomeControllerBase, ProtocolError


class DirectoryHome(HomeControllerBase):
    """Home controller for the DIRECTORY protocol (paper Section 5.1).

    One slice of the distributed directory: it serializes requests per
    block (busy bit + FIFO, no NACKs), tracks the exact owner and the
    (possibly coarsely encoded, Section 7) sharer set, forwards
    requests to the owner, and multicasts invalidations that are
    acknowledged directly to the requester.  Also hosts the
    migratory-sharing optimization, which detects read-then-write by
    the same core and converts migratory reads to exclusive transfers.
    """

    label = "directory home"

    def __init__(self, node_id, sim, network, config) -> None:
        super().__init__(node_id, sim, network, config)
        self._handlers = {
            MsgType.GETS: self._enqueue_or_activate,
            MsgType.GETM: self._enqueue_or_activate,
            MsgType.PUT: self._enqueue_or_activate,
            MsgType.DEACT: self._on_deact,
        }

    def _activate(self, payload: CoherenceMsg) -> None:
        if payload.mtype is MsgType.GETS:
            self._process_gets(payload)
        elif payload.mtype is MsgType.GETM:
            self._process_getm(payload)
        elif payload.mtype is MsgType.PUT:
            self._process_put(payload)
        else:  # pragma: no cover - guarded by the handler table
            raise ProtocolError(f"cannot activate {payload.mtype.value}")

    # -- reads ----------------------------------------------------------------
    def _process_gets(self, payload: CoherenceMsg) -> None:
        entry = self.entry(payload.block)
        requester = payload.requester
        if self._migratory_read(entry, requester):
            # Migratory read: transfer exclusively, invalidating sharers.
            self._transfer_exclusive(payload, entry, migratory=True)
        elif entry.owner is None:
            self._respond_from_memory_read(payload, entry)
        else:
            fwd = CoherenceMsg(mtype=MsgType.FWD_GETS, block=payload.block,
                               requester=requester, sender=self.node_id,
                               txn_id=payload.txn_id, acks_expected=0)
            self.send([entry.owner], fwd)
            self.stats.add("read_forwards")

    def _respond_from_memory_read(self, payload: CoherenceMsg,
                                  entry: DirEntry) -> None:
        requester = payload.requester
        others = entry.sharers.sharers() - {requester}
        grant = CacheState.E if not others else CacheState.F
        if not self.memory.is_valid(payload.block):
            raise ProtocolError(
                f"memory owner of block {payload.block} but data invalid")
        data = CoherenceMsg(mtype=MsgType.DATA, block=payload.block,
                            requester=requester, sender=self.node_id,
                            txn_id=payload.txn_id, has_data=True,
                            acks_expected=0, grant_state=grant,
                            data_version=self.memory.version(payload.block))
        self.send([requester], data, delay=self.config.dram_latency)
        self.stats.add("memory_reads")

    # -- writes ---------------------------------------------------------------
    def _process_getm(self, payload: CoherenceMsg) -> None:
        entry = self.entry(payload.block)
        self._note_write(entry, payload.requester)
        self._transfer_exclusive(payload, entry, migratory=False)

    def _transfer_exclusive(self, payload: CoherenceMsg, entry: DirEntry,
                            migratory: bool) -> None:
        """Common path: give the requester an exclusive (M) copy."""
        requester = payload.requester
        owner = entry.owner
        inv_targets = entry.sharers.sharers() - {requester}
        if owner is not None:
            inv_targets.discard(owner)
        if owner is None:
            if not self.memory.is_valid(payload.block):
                raise ProtocolError(
                    f"memory owner of block {payload.block} but data invalid")
            data = CoherenceMsg(
                mtype=MsgType.DATA, block=payload.block, requester=requester,
                sender=self.node_id, txn_id=payload.txn_id, has_data=True,
                acks_expected=len(inv_targets), grant_state=CacheState.M,
                data_version=self.memory.version(payload.block))
            self.send([requester], data, delay=self.config.dram_latency)
            self.stats.add("memory_reads")
        elif owner == requester:
            # Owner upgrade: no data needed, just the ack count.
            count = CoherenceMsg(mtype=MsgType.ACK_COUNT, block=payload.block,
                                 requester=requester, sender=self.node_id,
                                 txn_id=payload.txn_id,
                                 acks_expected=len(inv_targets))
            self.send([requester], count)
            self.stats.add("owner_upgrades")
        else:
            fwd_type = MsgType.FWD_GETS if migratory else MsgType.FWD_GETM
            fwd = CoherenceMsg(mtype=fwd_type, block=payload.block,
                               requester=requester, sender=self.node_id,
                               txn_id=payload.txn_id,
                               acks_expected=len(inv_targets),
                               grant_state=CacheState.M)
            self.send([owner], fwd)
            self.stats.add("write_forwards")
        if inv_targets:
            inv = CoherenceMsg(mtype=MsgType.INV, block=payload.block,
                               requester=requester, sender=self.node_id,
                               txn_id=payload.txn_id)
            self.send(sorted(inv_targets), inv)
            self.stats.add("invalidations_sent", len(inv_targets))

    # -- writebacks --------------------------------------------------------
    def _process_put(self, payload: CoherenceMsg) -> None:
        entry = self.entry(payload.block)
        sender = payload.sender
        accepted = (entry.owner == sender
                    and payload.txn_id > entry.owner_txn)
        if accepted:
            entry.owner = None
            entry.owner_txn = payload.txn_id
            entry.sharers.remove(sender)
            if payload.has_data:
                self.memory.write(payload.block, payload.data_version)
            else:
                self.memory.set_valid(payload.block, True)
            self.stats.add("writebacks_accepted")
        else:
            # Stale PUT: ownership moved (or was re-acquired) while the
            # writeback was in flight.  The data is obsolete; drop it.
            if entry.owner != sender:
                entry.sharers.remove(sender)
            self.stats.add("writebacks_stale")
        ack = CoherenceMsg(mtype=MsgType.WB_ACK, block=payload.block,
                           requester=sender, sender=self.node_id,
                           txn_id=payload.txn_id)
        self.send([sender], ack)
        self._deactivate(payload.block)

    # -- deactivation --------------------------------------------------------
    def _on_deact(self, payload: CoherenceMsg) -> None:
        entry = self._deact_entry(payload)
        requester = payload.requester
        report = payload.state_report
        old_owner = entry.owner
        if report is CacheState.M:
            entry.sharers.clear()
            entry.sharers.add(requester)
            entry.owner = requester
        elif report in (CacheState.O, CacheState.F, CacheState.E):
            if old_owner is not None and old_owner != requester:
                entry.sharers.add(old_owner)   # downgraded to S, keeps a copy
            entry.sharers.add(requester)
            entry.owner = requester
        elif report is CacheState.S:
            entry.sharers.add(requester)
        else:
            raise ProtocolError(f"unexpected DEACT state {report}")
        entry.owner_txn = payload.txn_id
        self._deactivate(payload.block)
