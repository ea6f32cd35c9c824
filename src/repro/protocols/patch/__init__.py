"""PATCH: Predictive/Adaptive Token Counting Hybrid (the paper's protocol)."""

from repro.protocols.patch.cache_ctrl import PatchCache
from repro.protocols.patch.home_ctrl import PatchHome
from repro.protocols.patch.tenure import IgnoreWindows, ProbationTimers

__all__ = ["IgnoreWindows", "PatchCache", "PatchHome", "ProbationTimers"]
