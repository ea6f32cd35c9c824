"""System configuration.

Defaults follow Section 8.1 of the paper: 64-byte blocks, 4-way private
caches, 12-cycle private cache, 16-cycle directory lookup, 80-cycle DRAM,
2D torus with ~15-cycle end-to-end link latency and 16 bytes/cycle links,
best-effort direct requests dropped after queueing 100 cycles.  The
``topology`` field selects an alternative interconnect fabric (``mesh``,
``fully-connected``) from :mod:`repro.interconnect.topology`'s registry.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional, Tuple

PROTOCOLS = ("directory", "patch", "tokenb")
PREDICTORS = ("none", "owner", "broadcast-if-shared", "group", "all",
              "bash-all")


def torus_dims_for(n: int) -> Tuple[int, int]:
    """Pick near-square 2D torus dimensions for ``n`` nodes.

    >>> torus_dims_for(64)
    (8, 8)
    >>> torus_dims_for(32)
    (8, 4)
    """
    if n < 1:
        raise ValueError("need at least one node")
    best = (n, 1)
    for a in range(1, int(math.isqrt(n)) + 1):
        if n % a == 0:
            best = (n // a, a)
    return best


@dataclass(frozen=True)
class SystemConfig:
    """Complete description of one simulated system.

    The object is immutable; use :meth:`with_updates` to derive variants
    for parameter sweeps.
    """

    # --- topology / cores -------------------------------------------------
    num_cores: int = 16
    topology: str = "torus"              # torus | mesh | fully-connected
    torus_dims: Optional[Tuple[int, int]] = None  # grid shape, derived if None

    # --- protocol selection ----------------------------------------------
    protocol: str = "directory"          # directory | patch | tokenb
    predictor: str = "none"              # none | owner | broadcast-if-shared | all
    best_effort_direct: bool = True      # False => PATCH-All-NonAdaptive style
    migratory_optimization: bool = True
    deactivation_ignore_window: bool = True  # PATCH §5.2 optimization

    # --- directory sharer encoding (Section 8.5) --------------------------
    # Cores per sharer bit.  1 == exact full map; num_cores == single bit.
    encoding_coarseness: int = 1

    # --- cache geometry ----------------------------------------------------
    block_size: int = 64                 # bytes
    cache_kb: int = 64                   # private cache capacity (scaled-down 1MB L2)
    cache_assoc: int = 4
    cache_latency: int = 12              # cycles (private L2 lookup)

    # --- memory / directory timing ----------------------------------------
    directory_latency: int = 16          # on-chip directory lookup
    dram_latency: int = 80

    # --- interconnect -------------------------------------------------------
    link_bandwidth: float = 16.0         # bytes / cycle / link
    total_link_latency: int = 15         # target end-to-end latency (cycles)
    direct_request_drop_age: int = 100   # cycles queued before best-effort drop
    control_msg_bytes: int = 8
    data_msg_bytes: int = 72             # 64B block + 8B header

    # --- forward progress tuning ------------------------------------------
    tenure_timeout_multiplier: float = 2.0   # x avg round trip (PATCH)
    tenure_timeout_floor: int = 100          # minimum probation, cycles
    tokenb_retry_multiplier: float = 2.0     # x avg round trip before reissue
    tokenb_max_retries: int = 3              # transient reissues before persistent

    # --- prediction ---------------------------------------------------------
    predictor_entries: int = 8192
    predictor_macroblock_bytes: int = 1024

    # --- workload / run control --------------------------------------------
    seed: int = 1

    def __post_init__(self) -> None:
        # Imported here so the frozen config stays importable before the
        # interconnect package (which registers the topologies) loads.
        from repro.interconnect.topology import TOPOLOGIES
        if self.protocol not in PROTOCOLS:
            raise ValueError(f"unknown protocol {self.protocol!r}; "
                             f"choose from {PROTOCOLS}")
        if self.predictor not in PREDICTORS:
            raise ValueError(f"unknown predictor {self.predictor!r}; "
                             f"choose from {PREDICTORS}")
        if self.topology not in TOPOLOGIES:
            raise ValueError(f"unknown topology {self.topology!r}; "
                             f"choose from {tuple(sorted(TOPOLOGIES))}")
        if self.num_cores < 1:
            raise ValueError("num_cores must be positive")
        if self.encoding_coarseness < 1 or self.encoding_coarseness > self.num_cores:
            raise ValueError("encoding_coarseness must be in [1, num_cores]")
        if self.link_bandwidth <= 0:
            raise ValueError("link_bandwidth must be positive")
        if self.torus_dims is None:
            object.__setattr__(self, "torus_dims", torus_dims_for(self.num_cores))
        dx, dy = self.torus_dims
        if dx * dy != self.num_cores:
            raise ValueError(
                f"torus {dx}x{dy} does not match num_cores={self.num_cores}")

    # ------------------------------------------------------------------
    @property
    def num_blocks_in_cache(self) -> int:
        return self.cache_kb * 1024 // self.block_size

    @property
    def cache_sets(self) -> int:
        return max(1, self.num_blocks_in_cache // self.cache_assoc)

    @property
    def tokens_per_block(self) -> int:
        """T in the token-counting rules: one token per core."""
        return self.num_cores

    @property
    def hop_latency(self) -> int:
        """Per-hop link latency so an average traversal costs
        approximately ``total_link_latency`` cycles on the selected
        topology (fewer expected hops => a slower individual hop)."""
        from repro.interconnect.topology import mean_hops_estimate
        avg_hops = mean_hops_estimate(self.topology, self.torus_dims)
        return max(1, round(self.total_link_latency / avg_hops))

    def with_updates(self, **kwargs) -> "SystemConfig":
        """Return a copy with the given fields replaced."""
        return replace(self, **kwargs)

    def describe(self) -> str:
        """One-line human-readable summary used by the CLI and benches."""
        pred = f"+{self.predictor}" if self.protocol == "patch" else ""
        be = "" if self.best_effort_direct else "-NA"
        enc = (f" enc=1:{self.encoding_coarseness}"
               if self.encoding_coarseness > 1 else "")
        topo = f" topo={self.topology}" if self.topology != "torus" else ""
        return (f"{self.protocol}{pred}{be} cores={self.num_cores} "
                f"bw={self.link_bandwidth}B/cyc{enc}{topo}")
