"""`SyntheticProfileWorkload`: sample accesses that match a fitted profile.

The generator inverts :mod:`repro.synth.characterize`: given a
:class:`~repro.synth.profile.WorkloadProfile` it builds a block
population whose sharing degrees follow ``sharing_blocks``, weights
each block so access mass follows ``sharing_accesses``, and then lets
every core draw from its own seeded RNG — so, like every other
generator, the stream is a pure function of the constructor arguments
regardless of cross-core interleaving, and experiment cells stay
cacheable and bit-identical in-process or on a pool.

Registered as workload ``"synthetic"`` (kind ``"synthetic"``), taking
``profile=FILE`` the way the trace replayer takes ``path=FILE``; the
profile file's content digest rides into experiment-cell cache keys
(see :mod:`repro.exec.cache`).  Dial knobs let one fitted profile spawn
a family ("producer-consumer but 4x hotter"):

* ``write_fraction=``  — rescale the read/write mix.
* ``sharing_boost=``   — multiply access weight by ``boost**(degree-1)``,
  shifting traffic toward (or away from) widely shared blocks.
* ``blocks=``          — resize the block population.
* ``repeat_fraction=`` — override per-core burstiness.
"""

from __future__ import annotations

import bisect
import os
import random
from typing import List, Optional, Tuple, Union

from repro.synth.profile import (WorkloadProfile, sample_distribution)
from repro.workloads import registry
from repro.workloads.base import Access, WorkloadGenerator

#: The registered name synthesized workloads run under.
SYNTHETIC_WORKLOAD_NAME = "synthetic"

#: Block ids at or above this base are per-core private fallbacks for
#: cores the degree assignment left without any shared block.
_PRIVATE_BASE = 1 << 20


class SyntheticProfileWorkload(WorkloadGenerator):
    """Samples a per-core access stream matching a fitted profile.

    The match is statistical, not literal: the synthesized stream's
    access-weighted sharing-degree distribution, read/write mix,
    think-time distribution, and burstiness converge to the profile's
    as the reference count grows (asserted with tolerance in
    ``tests/synth/``).  Sampling uses one ``random.Random`` per core
    plus a deterministic build-time RNG, so equal constructor arguments
    always produce byte-identical streams.
    """

    def __init__(self, num_cores: int, seed: int = 1,
                 profile: Union[WorkloadProfile, str, os.PathLike,
                                None] = None,
                 write_fraction: Optional[float] = None,
                 sharing_boost: float = 1.0,
                 blocks: Optional[int] = None,
                 repeat_fraction: Optional[float] = None) -> None:
        if profile is None:
            raise ValueError(
                "the 'synthetic' workload needs profile=FILE (a JSON "
                "profile written by `repro trace profile --out` or "
                "repro.synth.WorkloadProfile.save) or a WorkloadProfile")
        if not isinstance(profile, WorkloadProfile):
            profile = WorkloadProfile.load(profile)
        if num_cores < 1:
            raise ValueError("num_cores must be positive")
        if sharing_boost <= 0:
            raise ValueError("sharing_boost must be positive")
        if write_fraction is not None \
                and not 0.0 <= write_fraction <= 1.0:
            raise ValueError("write_fraction must be in [0, 1]")
        if repeat_fraction is not None \
                and not 0.0 <= repeat_fraction <= 1.0:
            raise ValueError("repeat_fraction must be in [0, 1]")
        self.profile = profile
        self.num_cores = num_cores
        self.seed = seed
        self.sharing_boost = sharing_boost
        self.repeat_fraction = (profile.repeat_fraction
                                if repeat_fraction is None
                                else repeat_fraction)
        num_blocks = profile.blocks if blocks is None else blocks
        if num_blocks < 1:
            raise ValueError("blocks must be positive")

        # Write-mix rescale: shift every per-degree write probability by
        # the ratio of the requested overall mix to the fitted one.
        scale = 1.0
        if write_fraction is not None and profile.write_fraction > 0:
            scale = write_fraction / profile.write_fraction
        degree_wf = dict(profile.degree_write_fraction)
        fallback_wf = (write_fraction if write_fraction is not None
                       else profile.write_fraction)

        # Degree distribution clamped to this machine's core count (a
        # 16-core profile synthesized on 4 cores folds excess degrees
        # onto "everyone").
        def clamp(dist):
            folded = {}
            for degree, mass in dist:
                degree = max(1, min(num_cores, degree))
                folded[degree] = folded.get(degree, 0.0) + mass
            return tuple(sorted(folded.items()))

        sharing_blocks = clamp(profile.sharing_blocks) or ((1, 1.0),)
        sharing_accesses = dict(clamp(profile.sharing_accesses))

        # Build the block population with one deterministic RNG.
        build_rng = random.Random(f"{seed}-synth-build")
        degrees: List[int] = []
        per_degree_count = {}
        for _ in range(num_blocks):
            degree = sample_distribution(sharing_blocks, build_rng.random())
            degrees.append(degree)
            per_degree_count[degree] = per_degree_count.get(degree, 0) + 1

        # Access weight per block: spread each degree's access mass
        # evenly over the blocks assigned that degree, then apply the
        # sharing boost.  Degrees with no access-mass entry (possible on
        # clamping or tiny populations) inherit their block-mass share.
        core_entries: List[List[Tuple[int, float, float]]] = \
            [[] for _ in range(num_cores)]
        for block, degree in enumerate(degrees):
            mass = sharing_accesses.get(degree)
            if mass is None:
                mass = dict(sharing_blocks).get(degree, 1.0 / num_blocks)
            weight = ((mass / per_degree_count[degree])
                      * (sharing_boost ** (degree - 1)))
            if degree >= num_cores:
                cores = range(num_cores)
            else:
                cores = build_rng.sample(range(num_cores), degree)
            wf = min(1.0, max(0.0,
                              degree_wf.get(degree, fallback_wf) * scale))
            for core in cores:
                # Each sharing core contributes an equal slice of the
                # block's access mass.
                core_entries[core].append((block, weight / degree, wf))

        # Per-core cumulative weight tables for bisect sampling; a core
        # the assignment left empty gets a private fallback block.
        self._blocks: List[List[int]] = []
        self._write_fractions: List[List[float]] = []
        self._cumulative: List[List[float]] = []
        for core in range(num_cores):
            entries = core_entries[core]
            if not entries:
                entries = [(_PRIVATE_BASE + core, 1.0, fallback_wf)]
            self._blocks.append([entry[0] for entry in entries])
            self._write_fractions.append([entry[2] for entry in entries])
            acc, cumulative = 0.0, []
            for _, weight, _ in entries:
                acc += weight
                cumulative.append(acc)
            self._cumulative.append(cumulative)

        # A fresh sample can repeat the previous block by chance (its
        # collision probability q = sum(p_i^2)), and the profile's
        # repeat_fraction counts those natural repeats too.  Solve
        # m + (1 - m) * q = target per core so the *observed* repeat
        # rate matches the profile instead of overshooting it.
        self._markov: List[float] = []
        target = self.repeat_fraction
        for core in range(num_cores):
            cumulative = self._cumulative[core]
            total = cumulative[-1]
            collision = 0.0
            previous_acc = 0.0
            for acc in cumulative:
                weight = (acc - previous_acc) / total
                collision += weight * weight
                previous_acc = acc
            if collision >= 1.0:
                self._markov.append(0.0)
            else:
                self._markov.append(
                    min(1.0, max(0.0, (target - collision)
                                 / (1.0 - collision))))

        self._rngs = [random.Random(f"{seed}-synthetic-{core}")
                      for core in range(num_cores)]
        self._previous: List[Optional[int]] = [None] * num_cores
        self._think = profile.think_time

    def _sample_index(self, core_id: int, rng: random.Random) -> int:
        cumulative = self._cumulative[core_id]
        u = rng.random() * cumulative[-1]
        return min(bisect.bisect_right(cumulative, u),
                   len(cumulative) - 1)

    def next_access(self, core_id: int) -> Access:
        rng = self._rngs[core_id]
        previous = self._previous[core_id]
        if previous is not None and rng.random() < self._markov[core_id]:
            index = previous
        else:
            index = self._sample_index(core_id, rng)
        self._previous[core_id] = index
        block = self._blocks[core_id][index]
        is_write = rng.random() < self._write_fractions[core_id][index]
        think = sample_distribution(self._think, rng.random())
        return Access(block=block, is_write=is_write, think_time=think)


def _make_synthetic_workload(num_cores: int, seed: int = 1,
                             profile: Union[str, os.PathLike, None] = None,
                             **knobs) -> SyntheticProfileWorkload:
    """Registry factory: ``make_workload("synthetic", N, profile=FILE)``."""
    return SyntheticProfileWorkload(num_cores=num_cores, seed=seed,
                                    profile=profile, **knobs)


registry.register_factory(
    SYNTHETIC_WORKLOAD_NAME, _make_synthetic_workload,
    "sample a workload matching a fitted profile (pass profile=FILE / "
    "`repro synth`)",
    kind="synthetic")
