"""Fuzz violations that were fixed, replayed as regression tests.

Each ``cases/*.json`` is a shrunk case that ``repro verify fuzz`` saved
when it found a protocol bug (format: benchmarks/repro_cases/README.md),
committed with the fix.  Its recorded schedule must now run to
completion with every invariant holding.

* ``random-24-tokenb-sched19`` (campaign seed 7): a TokenB miss that
  escalated to a persistent request completed from tokens already in
  flight, and its PERSISTENT_DEACTIVATE reached the home before its
  PERSISTENT_REQ.
"""

from pathlib import Path

import pytest

from repro.synth import load_case, replay_case

CASES = sorted((Path(__file__).parent / "cases").glob("*.json"))


def test_fixed_cases_are_committed():
    # Guards the parametrization below against an empty glob.
    assert "random-24-tokenb-sched19" in [path.stem for path in CASES]


@pytest.mark.parametrize("path", CASES, ids=[path.stem for path in CASES])
def test_fixed_violation_replays_clean(path):
    case = load_case(path)
    reproduced, error = replay_case(case)
    assert not reproduced, f"{path.name} still fails: {error}"
