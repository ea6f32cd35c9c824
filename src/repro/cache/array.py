"""Set-associative cache array with LRU replacement.

The array stores per-line coherence state and (for the token protocols)
the line's token holding, plus PATCH's tenure bookkeeping.  The array is
policy-free: controllers decide what to do with victims.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.coherence.states import CacheState
from repro.coherence.tokens import ZERO, TokenCount


class CacheLine:
    """One cache line.

    ``tokens`` is the full holding for the block; ``untenured`` is the
    subset of that holding still on probation (PATCH only; always ZERO
    elsewhere).  ``valid_data`` tracks Rule #5's valid-data bit.
    """

    __slots__ = ("block", "state", "tokens", "untenured", "valid_data",
                 "last_use", "version")

    def __init__(self, block: int) -> None:
        self.block = block
        self.state = CacheState.I
        self.tokens: TokenCount = ZERO
        self.untenured: TokenCount = ZERO
        self.valid_data = False
        self.last_use = 0
        self.version = 0  # data version (integrity checking)

    @property
    def tenured(self) -> TokenCount:
        """Tokens past probation: total minus the untenured subset."""
        owner_tenured = self.tokens.owner and not self.untenured.owner
        count = self.tokens.count - self.untenured.count
        if count == 0:
            return ZERO
        return TokenCount(count, owner_tenured,
                          self.tokens.dirty and owner_tenured)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"<Line blk={self.block} {self.state.value} {self.tokens}"
                f" untenured={self.untenured} data={self.valid_data}>")


#: The one set every untouched set of every array shares.  Only
#: :meth:`CacheArray.allocate` and :meth:`CacheArray.evict` write a
#: set, and neither writes this one, so it stays empty.
_UNTOUCHED: Dict[int, CacheLine] = {}


class CacheArray:
    """``num_sets`` x ``assoc`` array indexed by block number.

    ``_sets[block % num_sets]`` maps a resident block to its line.
    A set gets a dict of its own on its first :meth:`allocate`; until
    then it is :data:`_UNTOUCHED`, so a short run builds only the sets
    it uses.  ``PatchCache._on_direct`` inlines :meth:`lookup` against
    ``_sets``, once per broadcast copy, so the two must change together.
    """

    def __init__(self, num_sets: int, assoc: int) -> None:
        if num_sets < 1 or assoc < 1:
            raise ValueError("cache geometry must be positive")
        self.num_sets = num_sets
        self.assoc = assoc
        self._sets: List[Dict[int, CacheLine]] = [_UNTOUCHED] * num_sets
        self._tick = 0

    # ------------------------------------------------------------------
    def _set_for(self, block: int) -> Dict[int, CacheLine]:
        return self._sets[block % self.num_sets]

    def lookup(self, block: int, touch: bool = False) -> Optional[CacheLine]:
        """Find the line for ``block``; optionally refresh its LRU stamp."""
        # Inlined _set_for: controllers probe the cache per message.
        line = self._sets[block % self.num_sets].get(block)
        if line is not None and touch:
            self._tick += 1
            line.last_use = self._tick
        return line

    def touch(self, block: int) -> None:
        self.lookup(block, touch=True)

    # ------------------------------------------------------------------
    def victim_for(self, block: int) -> Optional[CacheLine]:
        """Line that must be evicted before ``block`` can be allocated.

        Returns None when the set has a free way (or the block is already
        resident).  The LRU line is chosen among the set's lines.
        """
        cache_set = self._set_for(block)
        if block in cache_set or len(cache_set) < self.assoc:
            return None
        return min(cache_set.values(), key=lambda line: line.last_use)

    def allocate(self, block: int) -> CacheLine:
        """Install (or return existing) line for ``block``.

        The caller must have handled the victim first; allocating into a
        full set raises.
        """
        index = block % self.num_sets
        cache_set = self._sets[index]
        line = cache_set.get(block)
        if line is not None:
            return line
        if len(cache_set) >= self.assoc:
            raise RuntimeError(
                f"set full while allocating block {block}; evict first")
        if cache_set is _UNTOUCHED:
            cache_set = self._sets[index] = {}
        line = CacheLine(block)
        self._tick += 1
        line.last_use = self._tick
        cache_set[block] = line
        return line

    def evict(self, block: int) -> CacheLine:
        """Remove and return the line for ``block``."""
        cache_set = self._set_for(block)
        if block not in cache_set:
            raise KeyError(f"block {block} not resident")
        return cache_set.pop(block)

    # ------------------------------------------------------------------
    def lines(self):
        """Iterate over all resident lines (invariant checking)."""
        for cache_set in self._sets:
            if cache_set:   # most sets of a short run stay empty
                yield from cache_set.values()

    def resident_blocks(self) -> List[int]:
        return [line.block for line in self.lines()]

    def __len__(self) -> int:
        return sum(len(s) for s in self._sets)
