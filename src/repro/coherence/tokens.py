"""Token-counting algebra (paper Table 1).

A :class:`TokenCount` is a small immutable value: a non-negative count of
plain tokens plus optionally *the* owner token with its clean/dirty status.
All movement of tokens in the simulator goes through checked ``add`` /
``take`` operations, so Rule #1 (conservation — tokens are never created or
destroyed, and the owner token is unique) is enforced structurally: merging
two counts that both claim the owner token raises immediately.

Rule #4 (a message carrying the *dirty* owner token must carry data) is
:func:`requires_data`, checked at message-construction time by
:class:`~repro.coherence.messages.CoherenceMsg`, which inlines it.
"""

from __future__ import annotations

from dataclasses import dataclass


class TokenError(ValueError):
    """A token-counting rule was violated."""


@dataclass(frozen=True, slots=True)
class TokenCount:
    """``count`` tokens total, ``owner`` of them being the owner token.

    ``count`` includes the owner token when ``owner`` is True, mirroring the
    paper's accounting where the owner token is one of the T tokens.
    """

    count: int = 0
    owner: bool = False
    dirty: bool = False

    def __post_init__(self) -> None:
        if self.count < 0:
            raise TokenError(f"negative token count {self.count}")
        if self.owner and self.count < 1:
            raise TokenError("owner token requires count >= 1")
        if self.dirty and not self.owner:
            raise TokenError("dirty flag is only meaningful on the owner token")

    # ------------------------------------------------------------------
    @property
    def is_zero(self) -> bool:
        return self.count == 0

    def is_all(self, total: int) -> bool:
        """Does this hold every token for the block (write permission)?"""
        return self.count == total and self.owner

    # ------------------------------------------------------------------
    def add(self, other: "TokenCount") -> "TokenCount":
        """Merge two disjoint token holdings (Rule #1 checked)."""
        if self.owner and other.owner:
            raise TokenError("two owner tokens for one block")
        return TokenCount(self.count + other.count,
                          self.owner or other.owner,
                          self.dirty or other.dirty)

    def take(self, count: int, take_owner: bool = False) -> tuple:
        """Split off ``count`` tokens (``take_owner`` selects the owner
        token as part of them).  Returns ``(taken, remaining)``."""
        if count < 0 or count > self.count:
            raise TokenError(f"cannot take {count} of {self.count} tokens")
        if take_owner and not self.owner:
            raise TokenError("no owner token to take")
        if take_owner and count < 1:
            raise TokenError("taking the owner token requires count >= 1")
        if not take_owner and self.owner and self.count - count < 1:
            raise TokenError("cannot strand the owner token with count 0")
        taken = TokenCount(count, take_owner, self.dirty if take_owner else False)
        remaining = TokenCount(self.count - count,
                               self.owner and not take_owner,
                               self.dirty and not take_owner)
        return taken, remaining

    def take_all(self) -> tuple:
        """``(everything, ZERO)``."""
        return self, ZERO

    def mark_dirty(self) -> "TokenCount":
        """Set the owner token dirty (after a write, Rule #2)."""
        if not self.owner:
            raise TokenError("only the owner-token holder can dirty a block")
        return TokenCount(self.count, True, True)

    def mark_clean(self) -> "TokenCount":
        """Memory sets the owner token clean on receipt (Rule #1)."""
        if not self.owner:
            return self
        return TokenCount(self.count, True, False)

    def __str__(self) -> str:
        if self.is_zero:
            return "t=0"
        owner = ("/O" + ("d" if self.dirty else "c")) if self.owner else ""
        return f"t={self.count}{owner}"


#: The empty holding.
ZERO = TokenCount(0, False, False)


def initial_tokens(total: int) -> TokenCount:
    """All T tokens, owner clean — the home memory's holding at reset."""
    if total < 1:
        raise TokenError("need at least one token per block")
    return TokenCount(total, True, False)


def requires_data(tokens: TokenCount) -> bool:
    """Rule #4: messages carrying the dirty owner token must carry data."""
    return tokens.owner and tokens.dirty
