"""A released System is freed by reference counting alone.

A finished :class:`System` refers to itself through its network's
endpoints, its controllers' handler tables, its cores' callbacks and
its kernel's queued events.  :meth:`System.close` breaks those cycles;
``execute_cell`` and the schedule explorer call it on every System
they build.  Each check here runs with the cycle collector disabled:
the System must be dead as soon as its builder returns, and
``gc.collect()`` under ``DEBUG_SAVEALL`` must find nothing.
"""

import gc
import weakref
from collections import Counter

import pytest

import repro.core.system as system_module
import repro.verify.explorer as explorer_module
from repro.config import PREDICTORS, SystemConfig
from repro.core.system import System
from repro.exec import execute_cell, make_cell
from repro.verify.explorer import RaceScenario, ScheduleExplorer
from repro.verify.watchdog import StarvationError
from repro.workloads.presets import make_workload

TOPOLOGIES = ("torus", "mesh", "fully-connected")
VARIANTS = ([("directory", "none"), ("tokenb", "none")]
            + [("patch", predictor) for predictor in PREDICTORS])


def _cyclic_garbage(run, built):
    """Call ``run`` with the cycle collector off.  Returns the Systems
    it built (``built`` holds weak references) that outlived it, and
    the objects only the cycle collector could free, counted by type."""
    gc.collect()
    gc.disable()
    try:
        run()
        alive = [ref for ref in built if ref() is not None]
        gc.set_debug(gc.DEBUG_SAVEALL)
        gc.collect()
        found = Counter(type(obj).__name__ for obj in gc.garbage)
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        gc.enable()
    return alive, found


def _track(monkeypatch, module):
    """Keep a weak reference to every System built through ``module``."""
    built = []

    class Tracked(System):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            built.append(weakref.ref(self))

    monkeypatch.setattr(module, "System", Tracked)
    return built


@pytest.mark.parametrize("topology", TOPOLOGIES)
@pytest.mark.parametrize("protocol,predictor", VARIANTS)
def test_execute_cell_leaves_no_cyclic_garbage(monkeypatch, protocol,
                                               predictor, topology):
    built = _track(monkeypatch, system_module)
    config = SystemConfig(num_cores=4, protocol=protocol,
                          predictor=predictor, topology=topology)
    cell = make_cell(config, "oltp", 30, seed=1)
    alive, found = _cyclic_garbage(lambda: execute_cell(cell), built)
    assert len(built) == 1
    assert alive == [] and found == Counter()


@pytest.mark.parametrize("protocol", ("directory", "patch", "tokenb"))
def test_explored_schedules_leave_no_cyclic_garbage(monkeypatch, protocol):
    built = _track(monkeypatch, explorer_module)
    explorer = ScheduleExplorer(RaceScenario.two_writers(),
                                protocol=protocol)

    def explore():
        assert explorer.explore(3).ok
        # A failing schedule (here a starved one) is released too.
        ok, error, _ = explorer.run_schedule(0, max_cycles=50)
        assert not ok and error.startswith("StarvationError")

    alive, found = _cyclic_garbage(explore, built)
    assert len(built) == 4
    assert alive == [] and found == Counter()


def _starved(protocol, predictor="none"):
    config = SystemConfig(num_cores=4, protocol=protocol,
                          predictor=predictor)
    system = System(config, make_workload("oltp", num_cores=4, seed=1),
                    references_per_core=30)
    with pytest.raises(StarvationError, match="stalled"):
        system.run(max_cycles=200)
    return system


@pytest.mark.parametrize("protocol,predictor", VARIANTS)
def test_a_starved_system_is_freed_once_closed(protocol, predictor):
    """Closing after the watchdog fired releases the stalled misses'
    state too: their completion callbacks refer to the cores."""
    built = []

    def run():
        system = _starved(protocol, predictor)
        built.append(weakref.ref(system))
        system.close()

    alive, found = _cyclic_garbage(run, built)
    assert alive == [] and found == Counter()


def test_closing_drops_armed_probation_timers():
    """A PATCH run stopped mid-probation: an armed timer's callback
    refers back to its ProbationTimers, so closing drops the timers."""
    built = []

    def run():
        config = SystemConfig(num_cores=8, protocol="patch",
                              predictor="all")
        system = System(config, make_workload("false-sharing",
                                              num_cores=8, seed=2),
                        references_per_core=40)
        with pytest.raises(StarvationError):
            system.run(max_cycles=700)
        assert any(cache.probation._timers for cache in system.caches)
        built.append(weakref.ref(system))
        system.close()

    alive, found = _cyclic_garbage(run, built)
    assert alive == [] and found == Counter()


def test_close_is_idempotent_and_a_closed_system_cannot_run():
    config = SystemConfig(num_cores=4, protocol="patch", predictor="all")
    system = System(config, make_workload("microbench", num_cores=4,
                                          seed=1), references_per_core=10)
    result = system.run()
    system.close()
    system.close()
    assert result.total_references == 40
    with pytest.raises(RuntimeError, match="System was closed"):
        system.run()


def test_an_unclosed_system_is_its_builders_to_keep():
    """Only a released System is broken up: one built directly still
    answers for its parts after it ran."""
    config = SystemConfig(num_cores=4, protocol="directory")
    system = System(config, make_workload("microbench", num_cores=4,
                                          seed=1), references_per_core=10)
    system.run()
    assert all(cache._handlers for cache in system.caches)
    assert all(core.controller is system.caches[core.core_id]
               for core in system.cores)
