"""Fuzz violations that were fixed, replayed as regression tests.

Each ``cases/*.json`` is a shrunk case that ``repro verify fuzz`` saved
when it found a protocol bug (format: benchmarks/repro_cases/README.md),
committed with the fix.  Its recorded schedule must now run to
completion with every invariant holding.

* ``random-24-tokenb-sched19`` (campaign seed 7): a TokenB miss that
  escalated to a persistent request completed from tokens already in
  flight, and its PERSISTENT_DEACTIVATE reached the home before its
  PERSISTENT_REQ.

A violation the invariants do not flag is replayed from its campaign
instead: seed 4's ``random-30`` scenario, schedule 1, once ended with a
PERSISTENT_ACTIVATE that reached a cache after its own deactivate
installing a table entry that nothing cleared.
"""

from pathlib import Path

import pytest

from repro.synth import FuzzCampaign, load_case, replay_case
from repro.verify.explorer import ScheduleExplorer

CASES = sorted((Path(__file__).parent / "cases").glob("*.json"))


def test_fixed_cases_are_committed():
    # Guards the parametrization below against an empty glob.
    assert "random-24-tokenb-sched19" in [path.stem for path in CASES]


@pytest.mark.parametrize("path", CASES, ids=[path.stem for path in CASES])
def test_fixed_violation_replays_clean(path):
    case = load_case(path)
    reproduced, error = replay_case(case)
    assert not reproduced, f"{path.name} still fails: {error}"


def test_late_persistent_activate_leaves_no_table_entry():
    campaign = FuzzCampaign(seed=4, scenarios=40, schedules=20,
                            protocols=("tokenb",))
    scenario = campaign._nth_scenario(30)
    assert scenario.name == "random-30"
    system = ScheduleExplorer(scenario, protocol="tokenb",
                              **campaign.explorer_params)._build_system(1)
    system.run()
    assert all(home.in_flight() == [] for home in system.homes)
    assert [cache.persistent_table for cache in system.caches] == \
        [{}] * len(system.caches)
