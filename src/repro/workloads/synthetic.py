"""Parameterized synthetic sharing-pattern workload.

The paper evaluates on SPLASH-2 and Wisconsin commercial workloads, which
we cannot run (no Simics/SPARC full-system stack).  The protocols only see
the reference stream, so we substitute generators that reproduce the
*sharing-pattern mix* that drives every protocol-level effect the paper
measures:

* ``private``   — per-core working set; hits and capacity misses.
* ``migratory`` — lock-protected data: a core reads then writes the same
  block before another core takes it (classic migratory sharing; this is
  the pattern that makes directory indirection expensive and direct
  requests/migratory optimization valuable).
* ``producer_consumer`` — one writer core per block, several readers.
* ``read_mostly`` — widely shared, rarely written data.

Weights, pool sizes and think times are tuned per benchmark preset in
:mod:`repro.workloads.presets`.
"""

from __future__ import annotations

import math
import random
from bisect import bisect
from dataclasses import dataclass
from itertools import accumulate
from typing import List, Optional

from repro.workloads.base import Access, WorkloadGenerator

CATEGORIES = ("private", "migratory", "producer_consumer", "read_mostly")
_LAST = len(CATEGORIES) - 1   # random.choices' bisect bound


@dataclass(frozen=True)
class SharingMix:
    """Relative weights of the four sharing categories in one stream.

    The categories are the classic sharing-pattern taxonomy the paper's
    workloads decompose into (private, migratory, producer-consumer,
    read-mostly); the migratory weight in particular controls the
    sharing-miss fraction that determines how much direct requests can
    help.  Weights are relative and need not sum to one.
    """

    private: float = 0.5
    migratory: float = 0.2
    producer_consumer: float = 0.2
    read_mostly: float = 0.1

    def weights(self) -> List[float]:
        values = [self.private, self.migratory, self.producer_consumer,
                  self.read_mostly]
        if any(v < 0 for v in values) or sum(values) <= 0:
            raise ValueError("sharing mix weights must be non-negative "
                             "and not all zero")
        return values


@dataclass(frozen=True)
class SyntheticParams:
    """Knobs for the synthetic generator.

    Region sizes set the working set relative to cache capacity (and so
    the capacity-miss rate the paper's ocean preset is dominated by);
    write fractions and think times shape the per-category reference
    streams.  Presets in :mod:`repro.workloads.presets` pin these per
    emulated benchmark.
    """

    mix: SharingMix = SharingMix()
    private_blocks_per_core: int = 512   # vs cache capacity => miss ratio
    migratory_blocks: int = 64
    producer_consumer_blocks: int = 128
    read_mostly_blocks: int = 128
    private_write_fraction: float = 0.4
    read_mostly_write_fraction: float = 0.02
    consumer_read_fraction: float = 0.8  # readers vs the producer writing
    think_time_max: int = 20


class SyntheticWorkload(WorkloadGenerator):
    """Deterministic per-seed synthetic reference stream.

    Substitutes for the paper's SPLASH-2 / Wisconsin commercial
    workloads by mixing the four sharing categories those applications
    are built from (private, migratory, producer-consumer, read-mostly)
    in preset-tunable proportions over disjoint block regions.  The
    protocols only ever see the reference stream, so preserving the
    sharing-pattern mix preserves every protocol-level effect the
    paper's evaluation measures (sharing-miss fraction, indirection
    cost, predictor accuracy); see :mod:`repro.workloads.presets` for
    the per-benchmark tunings.
    """

    def __init__(self, num_cores: int, params: SyntheticParams,
                 seed: int = 1, block_offset: int = 0) -> None:
        if num_cores < 1:
            raise ValueError("num_cores must be positive")
        self.num_cores = num_cores
        self.params = params
        self._rngs = [random.Random(f"{seed}-syn-{core}") for core in range(num_cores)]
        # The category draw is random.choices(CATEGORIES, weights) with
        # its per-call work hoisted here: the cumulative weights and
        # their float total.  next_access makes the same single
        # rng.random() draw and the same bisect, so streams match.
        self._cum_weights = list(accumulate(params.mix.weights()))
        self._total_weight = self._cum_weights[-1] + 0.0
        if not math.isfinite(self._total_weight):
            raise ValueError("sharing mix weights must be finite")
        # A pending follow-up write per core (migratory read-then-write).
        self._pending: List[Optional[Access]] = [None] * num_cores
        # Address map: disjoint block ranges per region.
        base = block_offset
        self._private_base = base
        base += params.private_blocks_per_core * num_cores
        self._migratory_base = base
        base += params.migratory_blocks
        self._pc_base = base
        base += params.producer_consumer_blocks
        self._rm_base = base
        base += params.read_mostly_blocks
        self.total_blocks = base - block_offset

    # ------------------------------------------------------------------
    def next_access(self, core_id: int) -> Access:
        pending = self._pending[core_id]
        if pending is not None:
            self._pending[core_id] = None
            return pending
        rng = self._rngs[core_id]
        category = bisect(self._cum_weights,
                          rng.random() * self._total_weight, 0, _LAST)
        return _BUILDERS[category](self, core_id, rng)

    def _private_access(self, core_id: int, rng: random.Random) -> Access:
        p = self.params
        block = (self._private_base + core_id * p.private_blocks_per_core
                 + rng.randrange(p.private_blocks_per_core))
        is_write = rng.random() < p.private_write_fraction
        return Access(block, is_write, rng.randint(0, p.think_time_max))

    def _migratory_access(self, core_id: int, rng: random.Random) -> Access:
        """Read-then-write on the same block (critical-section pattern)."""
        p = self.params
        block = self._migratory_base + rng.randrange(p.migratory_blocks)
        self._pending[core_id] = Access(block, True,
                                        rng.randint(0, p.think_time_max))
        return Access(block, False, 0)

    def _pc_access(self, core_id: int, rng: random.Random) -> Access:
        p = self.params
        block = self._pc_base + rng.randrange(p.producer_consumer_blocks)
        producer = (block - self._pc_base) % self.num_cores
        if core_id == producer:
            is_write = rng.random() > p.consumer_read_fraction / 2
        else:
            is_write = rng.random() > p.consumer_read_fraction
        return Access(block, is_write, rng.randint(0, p.think_time_max))

    def _rm_access(self, core_id: int, rng: random.Random) -> Access:
        p = self.params
        block = self._rm_base + rng.randrange(p.read_mostly_blocks)
        is_write = rng.random() < p.read_mostly_write_fraction
        return Access(block, is_write, rng.randint(0, p.think_time_max))


#: The builder of each category, in ``CATEGORIES`` order, called as
#: ``builder(workload, core_id, rng)``.  Plain functions, not bound
#: methods: a tuple of bound methods on the instance would tie every
#: workload into a reference cycle.
_BUILDERS = (SyntheticWorkload._private_access,
             SyntheticWorkload._migratory_access,
             SyntheticWorkload._pc_access,
             SyntheticWorkload._rm_access)
