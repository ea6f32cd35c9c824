"""Isolated sharing-pattern generators (the scenario suite).

The synthetic benchmark presets (:mod:`repro.workloads.presets`) blend
sharing categories the way full applications do; the generators here
run each pattern *pure*, so an experiment can attribute a protocol
effect to one sharing behaviour:

* ``migratory``         — lock-protected read-modify-write, the pattern
  that makes directory indirection expensive (paper Sections 2, 8.2).
* ``producer-consumer`` — one writer, several readers per block.
* ``false-sharing``     — independent per-core data packed into shared
  blocks, so ownership ping-pongs without any true communication.
* ``lock-contention``   — cores spin on a few lock blocks, then write
  them on acquire/release (the serialization traffic of barriers).
* ``hot-home``          — every shared block homed on one node,
  hot-spotting a single directory slice.

All generators are deterministic per seed: each core draws from its own
``random.Random`` seeded from (seed, pattern, core), so the access
stream is a pure function of the constructor arguments regardless of
the interleaving of ``next_access`` calls across cores.
"""

from __future__ import annotations

import random
from typing import List, Optional, Tuple

from repro.workloads.base import Access, WorkloadGenerator
from repro.workloads.registry import register_workload

#: The isolated sharing patterns, in presentation order — the canonical
#: set behind the bench scenario matrix
#: (`examples/specs/scenario_matrix.json`) and the sharing-patterns
#: example.
PATTERN_NAMES = ("migratory", "producer-consumer", "false-sharing",
                 "lock-contention", "hot-home")


def _per_core_rngs(seed: int, tag: str, num_cores: int) -> List[random.Random]:
    if num_cores < 1:
        raise ValueError("num_cores must be positive")
    return [random.Random(f"{seed}-{tag}-{core}")
            for core in range(num_cores)]


@register_workload(
    "migratory",
    "lock-protected read-modify-write blocks migrating core to core")
class MigratoryWorkload(WorkloadGenerator):
    """Pure migratory sharing (paper Sections 2 and 8.2).

    Each core repeatedly enters a critical section on a random block
    from a shared pool: it reads the block ``reads_per_visit`` times and
    then writes it, after which another core typically takes the block.
    Every visit by a new core is therefore a sharing miss that a
    directory must resolve with a three-hop forward, which is exactly
    the indirection PATCH's direct requests (and the migratory-sharing
    optimization) exist to shortcut.
    """

    def __init__(self, num_cores: int, seed: int = 1, blocks: int = 64,
                 reads_per_visit: int = 2, think_time_max: int = 8) -> None:
        if blocks < 1:
            raise ValueError("blocks must be positive")
        if reads_per_visit < 1:
            raise ValueError("reads_per_visit must be positive")
        self.num_cores = num_cores
        self.blocks = blocks
        self.reads_per_visit = reads_per_visit
        self.think_time_max = think_time_max
        self._rngs = _per_core_rngs(seed, "migratory", num_cores)
        # Per-core critical section in progress: (block, reads_left).
        self._visit: List[Optional[Tuple[int, int]]] = [None] * num_cores

    def next_access(self, core_id: int) -> Access:
        rng = self._rngs[core_id]
        visit = self._visit[core_id]
        if visit is None:
            block = rng.randrange(self.blocks)
            self._visit[core_id] = (block, self.reads_per_visit - 1)
            return Access(block, False, 0)
        block, reads_left = visit
        if reads_left > 0:
            self._visit[core_id] = (block, reads_left - 1)
            return Access(block, False, 0)
        self._visit[core_id] = None
        return Access(block, True, rng.randint(0, self.think_time_max))


@register_workload(
    "producer-consumer",
    "one designated writer per block, all other cores only read")
class ProducerConsumerWorkload(WorkloadGenerator):
    """Pure producer-consumer sharing.

    Each block has exactly one producer core that writes it (and
    occasionally re-reads it); every other core only reads.  Consumers
    repeatedly re-fetch freshly written blocks, which rewards protocols
    that can source data cache-to-cache and predictors that learn the
    stable writer (the paper's owner predictor is built for this
    pattern).  Producers are offset from the block's home node so the
    three-hop directory indirection stays visible.
    """

    def __init__(self, num_cores: int, seed: int = 1, blocks: int = 128,
                 producer_write_fraction: float = 0.8,
                 think_time_max: int = 10) -> None:
        if blocks < 1:
            raise ValueError("blocks must be positive")
        if not 0.0 <= producer_write_fraction <= 1.0:
            raise ValueError("producer_write_fraction must be in [0, 1]")
        self.num_cores = num_cores
        self.blocks = blocks
        self.producer_write_fraction = producer_write_fraction
        self.think_time_max = think_time_max
        self._rngs = _per_core_rngs(seed, "pc", num_cores)

    def producer_of(self, block: int) -> int:
        """The single writer core for ``block`` (offset from its home)."""
        return (block + 1) % self.num_cores

    def next_access(self, core_id: int) -> Access:
        rng = self._rngs[core_id]
        block = rng.randrange(self.blocks)
        is_write = (core_id == self.producer_of(block)
                    and rng.random() < self.producer_write_fraction)
        return Access(block, is_write, rng.randint(0, self.think_time_max))


@register_workload(
    "false-sharing",
    "independent per-core words packed into a few shared blocks")
class FalseSharingWorkload(WorkloadGenerator):
    """False sharing: coherence conflicts without true communication.

    Logically each core updates only its own word, but the words are
    packed into a small pool of shared cache blocks, so at block
    granularity every write invalidates everyone else and exclusive
    ownership ping-pongs continuously.  The data movement is pure
    protocol overhead — the worst case for write-invalidate coherence
    and a stress test for token-counting's ownership hand-off.
    """

    def __init__(self, num_cores: int, seed: int = 1, blocks: int = 8,
                 write_fraction: float = 0.6,
                 think_time_max: int = 4) -> None:
        if blocks < 1:
            raise ValueError("blocks must be positive")
        if not 0.0 <= write_fraction <= 1.0:
            raise ValueError("write_fraction must be in [0, 1]")
        self.num_cores = num_cores
        self.blocks = blocks
        self.write_fraction = write_fraction
        self.think_time_max = think_time_max
        self._rngs = _per_core_rngs(seed, "fs", num_cores)

    def next_access(self, core_id: int) -> Access:
        rng = self._rngs[core_id]
        block = rng.randrange(self.blocks)
        is_write = rng.random() < self.write_fraction
        return Access(block, is_write, rng.randint(0, self.think_time_max))


@register_workload(
    "lock-contention",
    "cores spin-read a few lock blocks, writing on acquire and release")
class LockContentionWorkload(WorkloadGenerator):
    """Lock/barrier contention: spin-read then acquire-write.

    Each core cycles through a four-phase state machine per lock: spin
    (repeated reads of the lock block, all hitting a widely shared
    line), acquire (a write that invalidates every spinner), a short
    critical section on the lock's payload blocks, and release (a second
    write).  The widely-shared-then-written lock line is the pattern
    where broadcast-style protocols shine and where the paper's
    broadcast-if-shared predictor earns its name.
    """

    def __init__(self, num_cores: int, seed: int = 1, locks: int = 4,
                 spins_per_acquire: int = 3, payload_blocks_per_lock: int = 4,
                 payload_refs: int = 2, think_time_max: int = 4) -> None:
        if locks < 1:
            raise ValueError("locks must be positive")
        if spins_per_acquire < 0:
            raise ValueError("spins_per_acquire must be non-negative")
        if payload_blocks_per_lock < 1:
            raise ValueError("payload_blocks_per_lock must be positive")
        self.num_cores = num_cores
        self.locks = locks
        self.spins_per_acquire = spins_per_acquire
        self.payload_blocks_per_lock = payload_blocks_per_lock
        self.payload_refs = payload_refs
        self.think_time_max = think_time_max
        self._rngs = _per_core_rngs(seed, "lock", num_cores)
        # Per-core machine: (lock, phase, count); phases "spin" ->
        # "critical" -> release write -> next lock.
        self._state: List[Optional[Tuple[int, str, int]]] = [None] * num_cores

    def _lock_block(self, lock: int) -> int:
        return lock

    def _payload_block(self, lock: int, rng: random.Random) -> int:
        return (self.locks + lock * self.payload_blocks_per_lock
                + rng.randrange(self.payload_blocks_per_lock))

    def next_access(self, core_id: int) -> Access:
        rng = self._rngs[core_id]
        state = self._state[core_id]
        if state is None:
            lock = rng.randrange(self.locks)
            state = (lock, "spin", self.spins_per_acquire)
            self._state[core_id] = state
        lock, phase, count = state
        if phase == "spin":
            if count > 0:
                self._state[core_id] = (lock, "spin", count - 1)
                return Access(self._lock_block(lock), False, 0)
            # Acquire: the write that invalidates every spinner.
            self._state[core_id] = (lock, "critical", self.payload_refs)
            return Access(self._lock_block(lock), True, 0)
        if count > 0:  # critical section on the lock's payload
            self._state[core_id] = (lock, "critical", count - 1)
            return Access(self._payload_block(lock, rng),
                          rng.random() < 0.5, 0)
        # Release write, then think before contending again.
        self._state[core_id] = None
        return Access(self._lock_block(lock), True,
                      rng.randint(0, self.think_time_max))


@register_workload(
    "hot-home",
    "shared blocks all homed on one node, hot-spotting its directory")
class HotHomeWorkload(WorkloadGenerator):
    """Home-node hot-spotting: one directory slice serves everything.

    Blocks are address-interleaved across homes (``home = block %
    num_cores``), so this generator picks its shared pool exclusively
    from blocks congruent to one hot node, concentrating every
    indirection, activation, and memory access on a single home
    controller.  Protocols that bypass the home on the common case
    (PATCH's direct requests, TokenB's broadcasts) degrade gracefully;
    pure directory protocols serialize on the hot slice.  A fraction of
    private background traffic keeps the other caches busy.
    """

    def __init__(self, num_cores: int, seed: int = 1, hot_node: int = 0,
                 hot_blocks: int = 32, hot_fraction: float = 0.8,
                 background_blocks_per_core: int = 64,
                 write_fraction: float = 0.3,
                 think_time_max: int = 8) -> None:
        if hot_blocks < 1:
            raise ValueError("hot_blocks must be positive")
        if not 0.0 <= hot_fraction <= 1.0:
            raise ValueError("hot_fraction must be in [0, 1]")
        if not 0 <= hot_node < num_cores:
            raise ValueError("hot_node must be a valid core id")
        self.num_cores = num_cores
        self.hot_node = hot_node
        self.hot_blocks = hot_blocks
        self.hot_fraction = hot_fraction
        self.background_blocks_per_core = background_blocks_per_core
        self.write_fraction = write_fraction
        self.think_time_max = think_time_max
        self._rngs = _per_core_rngs(seed, "hot", num_cores)
        # Hot pool: blocks congruent to hot_node live in [0, N*hot_blocks);
        # per-core private background ranges start above it.
        self._background_base = num_cores * hot_blocks

    def hot_block(self, index: int) -> int:
        """The ``index``-th block homed on the hot node."""
        return self.hot_node + index * self.num_cores

    def next_access(self, core_id: int) -> Access:
        rng = self._rngs[core_id]
        if rng.random() < self.hot_fraction:
            block = self.hot_block(rng.randrange(self.hot_blocks))
        else:
            block = (self._background_base
                     + core_id * self.background_blocks_per_core
                     + rng.randrange(self.background_blocks_per_core))
        is_write = rng.random() < self.write_fraction
        return Access(block, is_write, rng.randint(0, self.think_time_max))
