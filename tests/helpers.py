"""Shared test utilities: build small systems and drive scripted accesses."""

from __future__ import annotations

from typing import List, Optional

from repro.config import SystemConfig
from repro.core.system import System, build_random_delay_system
from repro.verify.explorer import ScriptWorkload
from repro.workloads.base import Access, WorkloadGenerator


class ScriptedWorkload(ScriptWorkload):
    """A :class:`ScriptWorkload` whose scripts may also list
    ``(block, is_write)`` pairs."""

    def __init__(self, scripts: dict) -> None:
        super().__init__({
            core: [a if isinstance(a, Access) else Access(a[0], a[1])
                   for a in accesses]
            for core, accesses in scripts.items()
        })


def make_config(protocol: str = "directory", cores: int = 4,
                **overrides) -> SystemConfig:
    defaults = dict(num_cores=cores, protocol=protocol)
    defaults.update(overrides)
    return SystemConfig(**defaults)


def make_system(protocol: str = "directory", cores: int = 4,
                workload: Optional[WorkloadGenerator] = None,
                references: int = 0, adversarial: bool = False,
                net_seed: int = 0, drop_prob: float = 0.0,
                max_delay: int = 60, **overrides) -> System:
    """Build a System; adversarial=True uses the random-delay network."""
    config = make_config(protocol, cores, **overrides)
    if workload is None:
        workload = ScriptedWorkload({c: [] for c in range(cores)})
    if adversarial:
        return build_random_delay_system(config, workload, references,
                                         net_seed, max_delay=max_delay,
                                         drop_prob=drop_prob)
    return System(config, workload, references)


class AccessDriver:
    """Issue individual accesses on a System and wait for completion."""

    def __init__(self, system: System) -> None:
        self.system = system

    def access(self, core: int, block: int, is_write: bool,
               max_cycles: int = 1_000_000) -> int:
        """Perform one access to completion; returns its latency."""
        done: List[int] = []
        sim = self.system.sim
        start = sim.now
        self.system.caches[core].access(block, is_write,
                                        lambda: done.append(sim.now))
        sim.run(until=start + max_cycles)
        assert done, f"access by core {core} to block {block} did not complete"
        return done[0] - start

    def access_concurrent(self, requests, max_cycles: int = 1_000_000):
        """Issue several (core, block, is_write) at once; run to completion."""
        done = {i: False for i in range(len(requests))}

        def mark(i):
            done[i] = True

        for i, (core, block, is_write) in enumerate(requests):
            self.system.caches[core].access(block, is_write,
                                            lambda i=i: mark(i))
        start = self.system.sim.now
        self.system.sim.run(until=start + max_cycles)
        assert all(done.values()), f"incomplete: {done}"

    def drain(self, cycles: int = 200_000) -> None:
        self.system.sim.run(until=self.system.sim.now + cycles)

