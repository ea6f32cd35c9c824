"""MOESI(+F) coherence states and the Table-2 token mapping.

=====  =======  =============
State  Tokens   Owner token
=====  =======  =============
M      All      Dirty
O      Some     Dirty
E      All      Clean
F      Some     Clean
S      Some     No
I      None     No
=====  =======  =============
"""

from __future__ import annotations

from enum import Enum

from repro.coherence.tokens import TokenCount


class CacheState(Enum):
    """Stable MOESI + F cache states."""

    M = "M"   # modified: sole copy, dirty
    O = "O"   # owned: dirty owner, other sharers may exist
    E = "E"   # exclusive clean
    F = "F"   # forward: clean owner, other sharers may exist [13]
    S = "S"   # shared
    I = "I"   # invalid  # noqa: E741 - canonical protocol name

    # Members are singletons compared by identity, so the identity hash
    # is equivalent to Enum's name-based hash — but C-speed.  Lines are
    # probed against OWNER_STATES and DIRTY_STATES per request.
    __hash__ = object.__hash__

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


#: States granting read permission.
READABLE = frozenset({CacheState.M, CacheState.O, CacheState.E,
                      CacheState.F, CacheState.S})
#: States granting write permission without a coherence request.
WRITABLE = frozenset({CacheState.M})
#: States where this cache is the block's owner (responds with data).
OWNER_STATES = frozenset({CacheState.M, CacheState.O, CacheState.E,
                          CacheState.F})
#: States with a dirty block that must be written back on eviction.
DIRTY_STATES = frozenset({CacheState.M, CacheState.O})


def state_from_tokens(tokens: TokenCount, total: int,
                      valid_data: bool) -> CacheState:
    """Map a token holding onto a MOESI state (paper Table 2).

    A holding without valid data confers no read permission, so it maps to
    I regardless of token count (such lines exist transiently while tokens
    await tenure-timeout or data arrival).
    """
    if total < 1:
        raise ValueError("total tokens must be >= 1")
    if tokens.count > total:
        raise ValueError(f"holding {tokens.count} of {total} tokens")
    if tokens.is_zero or not valid_data:
        return CacheState.I
    if tokens.owner:
        if tokens.count == total:
            return CacheState.M if tokens.dirty else CacheState.E
        return CacheState.O if tokens.dirty else CacheState.F
    return CacheState.S


def tokens_consistent_with(state: CacheState, tokens: TokenCount,
                           total: int) -> bool:
    """Check a (state, tokens) pair against Table 2 (used by invariants)."""
    if state is CacheState.I:
        return tokens.is_zero
    mapped = state_from_tokens(tokens, total, valid_data=True)
    return mapped is state
