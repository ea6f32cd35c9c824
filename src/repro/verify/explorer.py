"""Systematic schedule exploration for small protocol races.

Coherence bugs live in message interleavings.  The :class:`ScheduleExplorer`
re-runs a small scripted scenario under many *distinct* network schedules —
seeded random delay assignments over the adversarial
:class:`~repro.interconnect.network.RandomDelayNetwork` — and checks the
full invariant battery after each run.  It is a pragmatic substitute for
exhaustive model checking: per-message delays drawn from a wide window
subsume a large space of arrival orders, and every explored schedule is
reproducible from its seed.

Used by tests and available to library users hunting protocol races:

>>> from repro.verify.explorer import ScheduleExplorer, RaceScenario
>>> scenario = RaceScenario.two_writers(block=7)
>>> report = ScheduleExplorer(scenario, protocol="patch").explore(25)
>>> report.failures
[]
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.config import SystemConfig
from repro.core.system import System, build_random_delay_system
from repro.verify.invariants import (audit_single_writer,
                                     audit_token_conservation)
from repro.workloads.base import Access, WorkloadGenerator


class ScriptWorkload(WorkloadGenerator):
    """Fixed per-core scripts: core ``c`` issues ``scripts[c]`` in order."""

    def __init__(self, scripts: Dict[int, List[Access]]) -> None:
        self._scripts = scripts
        self._position = {core: 0 for core in scripts}

    def next_access(self, core_id: int) -> Access:
        index = self._position[core_id]
        self._position[core_id] += 1
        return self._scripts[core_id][index]


@dataclass(frozen=True)
class RaceScenario:
    """A small scripted contention scenario to explore."""

    name: str
    cores: int
    scripts: Dict[int, List[Access]]

    @property
    def references_per_core(self) -> int:
        return max(len(s) for s in self.scripts.values())

    def padded_scripts(self) -> Dict[int, List[Access]]:
        """Equal-length scripts (idle cores touch private filler blocks)."""
        quota = self.references_per_core
        padded = {}
        for core in range(self.cores):
            script = list(self.scripts.get(core, []))
            while len(script) < quota:
                script.append(Access(10_000 + core, False, 0))
            padded[core] = script
        return padded

    # -- canned scenarios ---------------------------------------------------
    @staticmethod
    def two_writers(block: int = 100, cores: int = 4) -> "RaceScenario":
        """Figure 1's shape: split tokens, then two racing writers."""
        return RaceScenario("two-writers", cores, {
            0: [Access(block, True, 0), Access(9_000, False, 0)],
            1: [Access(9_001, False, 300), Access(block, False, 0)],
            2: [Access(9_002, False, 900), Access(block, True, 0)],
            3: [Access(9_003, False, 900), Access(block, True, 0)],
        })

    @staticmethod
    def reader_writer_storm(block: int = 100,
                            cores: int = 4) -> "RaceScenario":
        """Everyone alternates reads and writes of one block."""
        return RaceScenario("reader-writer-storm", cores, {
            core: [Access(block, bool((i + core) % 2), 0)
                   for i in range(4)]
            for core in range(cores)
        })

    @staticmethod
    def eviction_race(block: int = 100, cores: int = 2) -> "RaceScenario":
        """Writebacks racing forwards (needs a tiny cache)."""
        return RaceScenario("eviction-race", cores, {
            0: [Access(block, True, 0), Access(block + 16, True, 0),
                Access(block, False, 0)],
            1: [Access(9_001, False, 50), Access(block, False, 0),
                Access(block, True, 0)],
        })


@dataclass
class ScheduleFailure:
    """One schedule under which the scenario misbehaved."""

    seed: int
    error: str


@dataclass
class ExplorationReport:
    """Result of exploring many schedules."""

    scenario: str
    protocol: str
    schedules: int = 0
    failures: List[ScheduleFailure] = field(default_factory=list)
    runtimes: List[int] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    def summary(self) -> str:
        status = "OK" if self.ok else f"{len(self.failures)} FAILURES"
        spread = (f"runtimes {min(self.runtimes)}-{max(self.runtimes)}"
                  if self.runtimes else "no runs")
        return (f"[{status}] {self.scenario} on {self.protocol}: "
                f"{self.schedules} schedules, {spread}")


class ScheduleExplorer:
    """Run a scenario under many adversarial schedules with full checks."""

    def __init__(self, scenario: RaceScenario, protocol: str = "patch",
                 predictor: str = "all", min_delay: int = 1,
                 max_delay: int = 120, drop_prob: float = 0.3,
                 config_overrides: Optional[dict] = None) -> None:
        self.scenario = scenario
        self.protocol = protocol
        self.predictor = predictor if protocol == "patch" else "none"
        self.min_delay = min_delay
        self.max_delay = max_delay
        self.drop_prob = drop_prob if protocol == "patch" else 0.0
        self.config_overrides = config_overrides or {}

    def _build_system(self, seed: int) -> System:
        config = SystemConfig(num_cores=self.scenario.cores,
                              protocol=self.protocol,
                              predictor=self.predictor,
                              **self.config_overrides)
        return build_random_delay_system(
            config, ScriptWorkload(self.scenario.padded_scripts()),
            self.scenario.references_per_core, seed, self.min_delay,
            self.max_delay, self.drop_prob)

    def run_schedule(self, seed: int,
                     max_cycles: int = 10_000_000) -> Tuple[bool, str, int]:
        """Run one schedule; returns (ok, error message, runtime).

        The schedule's :class:`System` is closed once its audits (or
        its failure's message) are done, so it is freed on return.
        """
        system = self._build_system(seed)
        try:
            result = system.run(max_cycles=max_cycles)
            audit_single_writer(system)
            if self.protocol != "directory" and system.sim.pending() == 0:
                audit_token_conservation(system)
            return True, "", result.runtime_cycles
        except Exception as exc:  # noqa: BLE001 - report any failure mode
            return False, f"{type(exc).__name__}: {exc}", 0
        finally:
            system.close()

    def explore(self, schedules: int,
                first_seed: int = 0) -> ExplorationReport:
        """Run ``schedules`` distinct schedules and collect failures."""
        report = ExplorationReport(self.scenario.name, self.protocol)
        for seed in range(first_seed, first_seed + schedules):
            ok, error, runtime = self.run_schedule(seed)
            report.schedules += 1
            if ok:
                report.runtimes.append(runtime)
            else:
                report.failures.append(ScheduleFailure(seed, error))
        return report


def explore_all_protocols(scenario: RaceScenario, schedules: int = 20,
                          ) -> Dict[str, ExplorationReport]:
    """Explore one scenario under all three protocols."""
    reports = {}
    for protocol in ("directory", "patch", "tokenb"):
        explorer = ScheduleExplorer(scenario, protocol=protocol)
        reports[protocol] = explorer.explore(schedules)
    return reports
