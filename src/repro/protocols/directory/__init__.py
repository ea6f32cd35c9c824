"""The DIRECTORY baseline protocol (GEMS-style blocking MOESI+F)."""

from repro.protocols.base import DirEntry
from repro.protocols.directory.cache_ctrl import DirectoryCache, WbEntry
from repro.protocols.directory.home_ctrl import DirectoryHome

__all__ = ["DirEntry", "DirectoryCache", "DirectoryHome", "WbEntry"]
