"""Live (mid-run) invariant auditing.

The quiescent audits in :mod:`repro.verify.invariants` need the network
drained; this module samples invariants that are sound *at any instant*,
on a periodic timer while the simulation runs:

* no two caches hold an owner token for the same block;
* no cache holds more than T tokens for a block;
* single-writer/many-readers over cache states;
* (PATCH) whenever the home is idle for a block, every cache holding
  tenured tokens for it appears in the directory's sharers superset —
  the precondition Rule #1b relies on;
* (TokenB) no cache holds tokens, in its line or its MSHR, for a block
  whose persistent table names another core: activation handed them to
  that starver and every later arrival is forwarded, which is why an
  eviction under the entry has nothing to send.

Attach one to a system before running:

>>> auditor = LiveAuditor(system, period=500)   # doctest: +SKIP
>>> system.run()                                # doctest: +SKIP
>>> auditor.samples > 0                         # doctest: +SKIP
True
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, List

from repro.verify.invariants import CoherenceViolation, audit_single_writer


class LiveAuditor:
    """Periodically audits instant-safe invariants during a run."""

    def __init__(self, system, period: int = 1000) -> None:
        if period < 1:
            raise ValueError("period must be >= 1")
        self.system = system
        self.period = period
        self.samples = 0
        self.checks = 0
        self._armed = True
        system.sim.schedule(period, self._tick)

    def stop(self) -> None:
        self._armed = False

    # ------------------------------------------------------------------
    def _tick(self) -> None:
        if not self._armed:
            return
        self.audit_now()
        self.samples += 1
        if self.system.sim.pending() > 0:
            self.system.sim.schedule(self.period, self._tick)

    def audit_now(self) -> None:
        """Run every instant-safe check once."""
        self._check_owner_uniqueness()
        self._check_token_bounds()
        self._check_single_writer()
        if self.system.config.protocol == "patch":
            self._check_tenured_holders_in_sharers()
        elif self.system.config.protocol == "tokenb":
            self._check_persistent_tables()

    # -- individual checks ---------------------------------------------------
    def _holdings(self) -> Dict[int, List]:
        per_block: Dict[int, List] = defaultdict(list)
        for cache in self.system.caches:
            for line in cache.cache.lines():
                if not line.tokens.is_zero:
                    per_block[line.block].append((cache.node_id, line))
        return per_block

    def _check_owner_uniqueness(self) -> None:
        self.checks += 1
        homes = self.system.homes
        for block, holders in self._holdings().items():
            owners = [node for node, line in holders if line.tokens.owner]
            # The home's memory may also hold the owner token; caches +
            # memory combined can still only have one.
            home = homes[block % len(homes)]
            memory_tokens = home.memory.tokens.get(block)
            if memory_tokens is not None and memory_tokens.owner:
                owners.append(f"home{home.node_id}")
            if len(owners) > 1:
                raise CoherenceViolation(
                    f"t={self.system.sim.now}: block {block} owner token "
                    f"at multiple places: {owners}")

    def _check_token_bounds(self) -> None:
        self.checks += 1
        total = self.system.config.tokens_per_block
        for block, holders in self._holdings().items():
            for node, line in holders:
                if line.tokens.count > total:
                    raise CoherenceViolation(
                        f"t={self.system.sim.now}: cache {node} holds "
                        f"{line.tokens.count} > T={total} tokens for "
                        f"block {block}")

    def _check_single_writer(self) -> None:
        self.checks += 1
        try:
            audit_single_writer(self.system)
        except CoherenceViolation as exc:
            raise CoherenceViolation(
                f"t={self.system.sim.now}: {exc}") from None

    def _check_tenured_holders_in_sharers(self) -> None:
        """Rule #1b's precondition: sharers ⊇ tenured holders when the
        home is idle for the block."""
        self.checks += 1
        for cache in self.system.caches:
            for line in cache.cache.lines():
                tenured = line.tenured
                if tenured.is_zero:
                    continue
                home = self.system.homes[line.block
                                         % self.system.config.num_cores]
                if home.is_busy(line.block):
                    continue  # mid-transaction: directory update pending
                entry = home.entries.get(line.block)
                if entry is None:
                    raise CoherenceViolation(
                        f"t={self.system.sim.now}: cache {cache.node_id} "
                        f"holds tenured tokens for block {line.block} "
                        "but the home has no entry")
                recorded = (entry.owner == cache.node_id
                            or entry.sharers.might_contain(cache.node_id))
                if not recorded:
                    raise CoherenceViolation(
                        f"t={self.system.sim.now}: cache {cache.node_id} "
                        f"holds tenured tokens for block {line.block} but "
                        "is not in the directory's sharers superset "
                        "(Rule #1b precondition violated)")

    def _check_persistent_tables(self) -> None:
        """A cache whose persistent table names another core's starver
        for a block holds no tokens for it."""
        self.checks += 1
        for cache in self.system.caches:
            mshr = cache.mshr
            for block, starver in cache.persistent_table.items():
                if starver == cache.node_id:
                    continue
                line = cache.cache.lookup(block)
                if line is not None and not line.tokens.is_zero:
                    where = "its line"
                elif (mshr is not None and mshr.block == block
                      and not mshr.tokens.is_zero):
                    where = "its MSHR"
                else:
                    continue
                raise CoherenceViolation(
                    f"t={self.system.sim.now}: cache {cache.node_id} "
                    f"holds tokens in {where} for block {block} while "
                    f"its persistent table names core {starver}")
