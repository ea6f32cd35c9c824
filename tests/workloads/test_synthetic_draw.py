"""The synthetic generator's category draw is ``random.choices``.

``SyntheticWorkload.next_access`` picks a sharing category with the
single ``rng.random()`` draw and bisect that ``random.choices`` makes,
over cumulative weights computed once.  The reference generator here
is the straightforward form, ``rng.choices(CATEGORIES, weights=...)``
and then the class's own builder for that category; both must yield
the same stream and leave every core's RNG in the same state, for
every preset and for mixes that zero out each category in turn (a
zero weight is where an off-by-one in the bisect would show).
"""

import itertools
import math
import random

import pytest

from repro.workloads.presets import PRESETS
from repro.workloads.synthetic import (CATEGORIES, SharingMix,
                                       SyntheticParams, SyntheticWorkload)

CORES = 4
ACCESSES_PER_CORE = 2000
SEEDS = (1, 29)

ZERO_WEIGHT_MIXES = {
    f"no-{category}": SharingMix(**{
        name: (0.0 if name == category else weight)
        for name, weight in zip(CATEGORIES, (0.3, 0.4, 0.2, 0.1))})
    for category in CATEGORIES
}

PARAMS = dict(PRESETS)
PARAMS.update({name: SyntheticParams(mix=mix)
               for name, mix in ZERO_WEIGHT_MIXES.items()})


def reference_next_access(workload, core_id):
    """``next_access`` written with ``random.choices``."""
    pending = workload._pending[core_id]
    if pending is not None:
        workload._pending[core_id] = None
        return pending
    rng = workload._rngs[core_id]
    category = rng.choices(CATEGORIES,
                           weights=workload.params.mix.weights())[0]
    builder = {
        "private": workload._private_access,
        "migratory": workload._migratory_access,
        "producer_consumer": workload._pc_access,
        "read_mostly": workload._rm_access,
    }[category]
    return builder(core_id, rng)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name", sorted(PARAMS))
def test_stream_matches_random_choices(name, seed):
    params = PARAMS[name]
    workload = SyntheticWorkload(CORES, params, seed=seed)
    reference = SyntheticWorkload(CORES, params, seed=seed)
    for step in range(ACCESSES_PER_CORE):
        for core in range(CORES):
            got = workload.next_access(core)
            want = reference_next_access(reference, core)
            assert got == want, (name, seed, core, step)
    for core in range(CORES):
        assert (workload._rngs[core].getstate()
                == reference._rngs[core].getstate())


class BoundaryRandom(random.Random):
    """Returns scripted ``random()`` values, cycling: a real generator
    almost never lands a draw exactly on a cumulative weight."""

    def __init__(self, values):
        super().__init__(7)
        self._values = itertools.cycle(values)

    def random(self):
        return next(self._values)


def test_draws_on_the_weight_boundaries_match_random_choices():
    # Integer weights 1, 2, 0, 1 sum to 4.0, so these values scale to
    # the cumulative weights 0, 1, 3 and 4 exactly.  A draw at 1.0 or
    # 3.0 must pick the category above the boundary (skipping the
    # zero-weight one), and a draw of 1.0, which random() never returns
    # but choices' bound allows for, must pick the last category.
    params = SyntheticParams(mix=SharingMix(1, 2, 0, 1))
    values = [0.0, 0.25, 0.75, 1.0, 0.5, 0.1]
    workload = SyntheticWorkload(2, params)
    reference = SyntheticWorkload(2, params)
    workload._rngs = [BoundaryRandom(values) for _ in range(2)]
    reference._rngs = [BoundaryRandom(values) for _ in range(2)]
    for step in range(200):
        for core in range(2):
            assert (workload.next_access(core)
                    == reference_next_access(reference, core)), (core, step)


def test_zero_weight_categories_never_drawn():
    # The equivalence above would also hold if both sides drew a
    # zero-weight category; pin that neither does.
    for name, mix in ZERO_WEIGHT_MIXES.items():
        workload = SyntheticWorkload(2, SyntheticParams(mix=mix), seed=3)
        absent = name[len("no-"):]
        base = {"private": workload._private_base,
                "migratory": workload._migratory_base,
                "producer_consumer": workload._pc_base,
                "read_mostly": workload._rm_base}
        ends = sorted(base.values()) + [workload.total_blocks]
        low = base[absent]
        high = ends[ends.index(low) + 1]
        for _ in range(500):
            for core in range(2):
                block = workload.next_access(core).block
                assert not low <= block < high, (name, block)


@pytest.mark.parametrize("bad", [math.inf, math.nan])
def test_non_finite_weights_are_rejected_as_choices_would(bad):
    with pytest.raises(ValueError):
        random.Random(1).choices(CATEGORIES, weights=[bad, 1, 1, 1])
    with pytest.raises(ValueError):
        SyntheticWorkload(2, SyntheticParams(mix=SharingMix(private=bad)))
