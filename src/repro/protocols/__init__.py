"""Coherence protocols: DIRECTORY (baseline), PATCH (contribution), TokenB."""

from repro.protocols.base import (MSG_CLASS, CacheControllerBase, DirEntry,
                                  HomeControllerBase, Memory, Mshr, Node,
                                  ProtocolError, TokenCacheBase)

__all__ = ["CacheControllerBase", "DirEntry", "HomeControllerBase",
           "MSG_CLASS", "Memory", "Mshr", "Node", "ProtocolError",
           "TokenCacheBase"]
