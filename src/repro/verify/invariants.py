"""Runtime invariant checking.

Three layers of defence:

1. :class:`TokenCount` arithmetic structurally enforces conservation
   (Rule #1) on every token movement — two owner tokens for a block can
   never be merged.
2. :class:`IntegrityChecker` models data values as per-block version
   numbers: every write commits a new version while holding write
   permission, and every read must observe the latest committed version.
   This catches stale-data bugs that state bookkeeping alone would miss.
3. :func:`audit_token_conservation` and :func:`audit_single_writer`
   sweep a quiesced system and check the global token census and the
   single-writer/many-reader invariant.
"""

from __future__ import annotations

from typing import Dict, List

from repro.coherence.states import CacheState
from repro.coherence.tokens import TokenCount, ZERO


class CoherenceViolation(AssertionError):
    """An invariant of the coherence protocol was violated."""


class IntegrityChecker:
    """Data-value model: per-block monotone version numbers."""

    def __init__(self) -> None:
        self._committed: Dict[int, int] = {}
        self.reads_checked = 0
        self.writes_committed = 0

    def committed_version(self, block: int) -> int:
        return self._committed.get(block, 0)

    def commit_write(self, node: int, block: int) -> int:
        """A core completed a store while holding write permission."""
        version = self._committed.get(block, 0) + 1
        self._committed[block] = version
        self.writes_committed += 1
        return version

    def observe_read(self, node: int, block: int, version: int) -> None:
        """A core read a block; it must see the latest committed value."""
        self.reads_checked += 1
        expected = self._committed.get(block, 0)
        if version != expected:
            raise CoherenceViolation(
                f"stale read at core {node}: block {block} version "
                f"{version}, latest committed is {expected}")


def audit_token_conservation(system) -> None:
    """At quiescence, every block's tokens must sum to exactly T with one
    owner token (Rule #1).  Only meaningful for the token protocols."""
    config = system.config
    total = config.tokens_per_block
    census: Dict[int, TokenCount] = {}

    def fold(block: int, tokens: TokenCount) -> None:
        if tokens.is_zero:
            return
        try:
            census[block] = census.get(block, ZERO).add(tokens)
        except Exception as exc:
            raise CoherenceViolation(
                f"token census merge failed for block {block}: {exc}")

    for cache in system.caches:
        for line in cache.cache.lines():
            fold(line.block, line.tokens)
        if cache.mshr is not None:
            fold(cache.mshr.block, cache.mshr.tokens)
    for home in system.homes:
        for block, tokens in home.memory.tokens.items():
            fold(block, tokens)

    # Blocks memory never touched stay out of the census: memory still
    # holds all T tokens for them and no cache holds any.
    for block, tokens in census.items():
        if tokens.count != total or not tokens.owner:
            raise CoherenceViolation(
                f"block {block}: census {tokens} != {total} tokens "
                "with one owner")


def audit_single_writer(system) -> None:
    """No block may be writable at one cache while readable at another."""
    writers: Dict[int, List[int]] = {}
    readers: Dict[int, List[int]] = {}
    for cache in system.caches:
        for line in cache.cache.lines():
            if line.state in (CacheState.M, CacheState.E):
                writers.setdefault(line.block, []).append(cache.node_id)
            elif line.state is not CacheState.I and line.valid_data:
                readers.setdefault(line.block, []).append(cache.node_id)
    for block, nodes in writers.items():
        if len(nodes) > 1:
            raise CoherenceViolation(
                f"block {block} writable at multiple caches: {nodes}")
        if block in readers:
            raise CoherenceViolation(
                f"block {block} writable at {nodes[0]} while readable at "
                f"{readers[block]}")
