"""System assembly: cores + caches + homes + interconnect + protocol.

:class:`System` is the library's main entry point.  Build one from a
:class:`~repro.config.SystemConfig` and a workload, call :meth:`run`, and
read the returned :class:`~repro.core.results.RunResult`.

>>> from repro import SystemConfig, System, make_workload
>>> config = SystemConfig(num_cores=4, protocol="patch", predictor="all")
>>> workload = make_workload("microbench", num_cores=4, seed=7)
>>> result = System(config, workload, references_per_core=50).run()
>>> result.misses > 0
True
"""

from __future__ import annotations

import random
from time import perf_counter
from typing import Callable, List, Optional

from repro.config import SystemConfig
from repro.coherence.messages import MsgType
from repro.cpu.core import Core
from repro.interconnect.message import Message
from repro.interconnect.network import (NetworkInterface, RandomDelayNetwork,
                                        SwitchedNetwork)
from repro.interconnect.topology import make_topology
from repro.prediction.predictors import make_predictor
from repro.protocols.directory.cache_ctrl import DirectoryCache
from repro.protocols.directory.home_ctrl import DirectoryHome
from repro.protocols.patch.cache_ctrl import PatchCache
from repro.protocols.patch.home_ctrl import PatchHome
from repro.protocols.tokenb.cache_ctrl import TokenBCache
from repro.protocols.tokenb.home_ctrl import TokenBHome
from repro.sim.kernel import Simulator
from repro.stats.counters import RunningStat, StatGroup
from repro.stats.traffic import FIGURE5_GROUPS, FIGURE5_ORDER, MsgClass
from repro.verify.invariants import (IntegrityChecker,
                                     audit_single_writer,
                                     audit_token_conservation)
from repro.verify.watchdog import check_all_done
from repro.workloads.base import WorkloadGenerator

from repro.core.results import RunResult

#: Default stall horizon: generous but finite, so protocol livelocks fail
#: tests loudly instead of hanging them.
DEFAULT_MAX_CYCLES = 30_000_000


class System:
    """One simulated multiprocessor running one workload."""

    def __init__(self, config: SystemConfig, workload: WorkloadGenerator,
                 references_per_core: int,
                 network: Optional[NetworkInterface] = None,
                 check_integrity: bool = True,
                 audit_tokens: bool = True) -> None:
        self.config = config
        self.workload = workload
        self.references_per_core = references_per_core
        self.integrity = IntegrityChecker() if check_integrity else None
        self.audit_tokens = audit_tokens and config.protocol != "directory"

        if network is None:
            topology = make_topology(config.topology, config.num_cores,
                                     config.torus_dims)
            network = SwitchedNetwork(
                Simulator(), topology, bandwidth=config.link_bandwidth,
                hop_latency=config.hop_latency,
                drop_age=config.direct_request_drop_age)
        self.network = network
        self.sim = network.sim  # a given network brings its own clock

        self.caches = [self._make_cache(node) for node in
                       range(config.num_cores)]
        self.homes = [self._make_home(node) for node in
                      range(config.num_cores)]
        for cache in self.caches:
            cache._integrity = self.integrity
        for node in range(config.num_cores):
            self.network.register_endpoint(node, self._make_endpoint(node))

        self._finished = 0
        self._runtime: Optional[int] = None
        self._traffic_snapshot = None
        self._closed = False
        self.cores = [
            Core(node, self.sim, self.caches[node], workload,
                 references_per_core, on_finish=self._core_finished)
            for node in range(config.num_cores)
        ]

    # ------------------------------------------------------------------
    def _make_cache(self, node: int):
        protocol = self.config.protocol
        if protocol == "directory":
            return DirectoryCache(node, self.sim, self.network, self.config)
        if protocol == "patch":
            kind = self.config.predictor
            if kind == "bash-all":
                # BASH-style all-or-nothing throttling (paper Section 6's
                # comparison point): broadcast like PATCH-All, but gate the
                # *issue* of direct requests on estimated utilization
                # instead of deprioritizing their delivery.
                from repro.prediction.predictors import (
                    AllPredictor, BashThrottledPredictor)
                inner = AllPredictor(self.config.num_cores, node)
                predictor = BashThrottledPredictor(
                    inner, self.network.utilization)
            else:
                predictor = make_predictor(
                    kind, self.config.num_cores, node,
                    entries=self.config.predictor_entries,
                    macroblock_bytes=self.config.predictor_macroblock_bytes,
                    block_bytes=self.config.block_size)
            return PatchCache(node, self.sim, self.network, self.config,
                              predictor)
        if protocol == "tokenb":
            return TokenBCache(node, self.sim, self.network, self.config)
        raise ValueError(f"unknown protocol {protocol!r}")

    def _make_home(self, node: int):
        protocol = self.config.protocol
        if protocol == "directory":
            return DirectoryHome(node, self.sim, self.network, self.config)
        if protocol == "patch":
            return PatchHome(node, self.sim, self.network, self.config)
        if protocol == "tokenb":
            return TokenBHome(node, self.sim, self.network, self.config)
        raise ValueError(f"unknown protocol {protocol!r}")

    def _make_endpoint(self, node: int) -> Callable[[Message], None]:
        # This closure runs for every delivered message, so it indexes
        # the controller's handler table itself.  ``handle_message`` is
        # left only to raise the controller-named error for a type the
        # table lacks.
        is_tokenb = self.config.protocol == "tokenb"
        num_cores = self.config.num_cores
        home = self.homes[node]
        cache = self.caches[node]
        home_handlers = home._handlers
        cache_handlers = cache._handlers

        def handler(msg: Message) -> None:
            payload = msg.payload
            mtype = payload.mtype
            if payload.to_home:
                if mtype in home_handlers:
                    home_handlers[mtype](payload)
                else:
                    home.handle_message(msg)
                return
            if (is_tokenb and mtype in (MsgType.GETS, MsgType.GETM)
                    and node == payload.block % num_cores):
                # TokenB broadcasts reach the block's memory module too.
                home.handle_message(msg)
            if mtype in cache_handlers:
                cache_handlers[mtype](payload)
            else:
                cache.handle_message(msg)

        return handler

    def _core_finished(self, core_id: int) -> None:
        self._finished += 1
        if self._finished == len(self.cores):
            self._runtime = self.sim.now
            self._traffic_snapshot = self._snapshot_traffic()
            self.sim.stop()

    def _snapshot_traffic(self):
        meter = self.network.meter
        return ({cls: meter.bytes[cls] for cls in MsgClass},
                meter.dropped_messages)

    # ------------------------------------------------------------------
    def attach_timeline(self, recorder) -> None:
        """Wire a :class:`~repro.obs.timeline.TimelineRecorder` in.

        The recorder becomes the kernel's event sink and the network's
        message sink.  Both hooks are observation-only, so a recorded
        run stays bit-identical to an unrecorded one.
        """
        self.sim.set_event_sink(recorder.kernel_tick)
        self.network.set_message_sink(recorder)

    # ------------------------------------------------------------------
    def run(self, max_cycles: int = DEFAULT_MAX_CYCLES,
            drain: bool = True) -> RunResult:
        """Run the workload to completion and return the results.

        ``max_cycles`` bounds the run; a stall raises
        :class:`~repro.verify.watchdog.StarvationError` with a diagnostic
        dump.  With ``drain`` the simulation then runs the in-flight
        messages dry so the token-conservation audit can run.

        The result's ``phases`` holds the seconds each phase took:
        ``sim``, ``drain`` (only with ``drain``) and ``collect``.
        """
        if self._closed:
            raise RuntimeError("this System was closed; build a new one "
                               "to run again")
        start = perf_counter()
        for core in self.cores:
            core.start()
        self.sim.run(until=max_cycles)
        phases = {"sim": perf_counter() - start}
        check_all_done(self, max_cycles)
        if self._runtime is None:  # pragma: no cover - guarded above
            raise RuntimeError("cores finished but runtime not recorded")
        if drain:
            start = perf_counter()
            self.sim.run(until=self.sim.now + 10 * max(
                1, self.config.tenure_timeout_floor) * 100)
            if self.integrity is not None or self.audit_tokens:
                audit_single_writer(self)
            if self.audit_tokens and self.sim.pending() == 0:
                audit_token_conservation(self)
            phases["drain"] = perf_counter() - start
        start = perf_counter()
        result = self._build_result()
        phases["collect"] = perf_counter() - start
        result.phases = phases
        return result

    def close(self) -> None:
        """Release the run: each part drops its references to its peers.

        The network's endpoints, the controllers' handler tables, the
        cores' callbacks and the kernel's queued events all refer back
        into the System, so a finished one is cyclic garbage that lives
        until a gen-2 collection.  After ``close``, reference counting
        frees it as soon as its last holder lets go.  Idempotent; a
        closed System cannot :meth:`run`.
        :func:`~repro.exec.cells.execute_cell` and
        :meth:`~repro.verify.explorer.ScheduleExplorer.run_schedule`
        close the Systems they build; one built elsewhere is its
        builder's to close, or the cycle collector's to free.
        """
        if self._closed:
            return
        self._closed = True
        self.network.close()
        for controller in (*self.caches, *self.homes):
            controller.close()
        for core in self.cores:
            core.close()
        self.sim.close()

    # ------------------------------------------------------------------
    def _build_result(self) -> RunResult:
        traffic_raw, dropped = (self._traffic_snapshot
                                if self._traffic_snapshot is not None
                                else self._snapshot_traffic())
        grouped = {name: 0 for name in FIGURE5_ORDER}
        for cls, value in traffic_raw.items():
            grouped[FIGURE5_GROUPS[cls]] += value

        cache_stats = StatGroup()
        latency = RunningStat()
        hits = misses = read_misses = write_misses = 0
        for cache in self.caches:
            for name, value in cache.stats.as_dict().items():
                cache_stats.add(name, value)
            latency.merge(cache.miss_latency.stat)
            hits += cache.stats.value("hits")
            misses += cache.stats.value("misses")
            read_misses += cache.stats.value("read_misses")
            write_misses += cache.stats.value("write_misses")
        home_stats = StatGroup()
        for home in self.homes:
            for name, value in home.stats.as_dict().items():
                home_stats.add(name, value)

        return RunResult(
            config_summary=self.config.describe(),
            runtime_cycles=self._runtime or self.sim.now,
            total_references=sum(core.retired for core in self.cores),
            hits=hits, misses=misses,
            read_misses=read_misses, write_misses=write_misses,
            traffic_bytes=grouped,
            traffic_bytes_raw={cls.value: value
                               for cls, value in traffic_raw.items()},
            dropped_direct_requests=dropped,
            miss_latency=latency,
            link_utilization=self.network.utilization(),
            cache_stats=cache_stats.as_dict(),
            home_stats=home_stats.as_dict(),
            events_processed=self.sim.events_processed,
        )


def build_random_delay_system(config: SystemConfig,
                              workload: WorkloadGenerator,
                              references_per_core: int,
                              seed: int = 0, min_delay: int = 1,
                              max_delay: int = 80,
                              drop_prob: float = 0.0) -> System:
    """A System on the adversarial random-delay network, as Table 4's
    contention storm (:func:`repro.bench.contention_storm`) and the
    protocol race tests build it."""
    network = RandomDelayNetwork(Simulator(), config.num_cores,
                                 random.Random(seed), min_delay, max_delay,
                                 best_effort_drop_prob=drop_prob)
    return System(config, workload, references_per_core, network=network)
