"""A per-cell budget of Python calls into the simulator.

Host time is too noisy to gate in the unit suite, but the number of
Python-level calls a cell makes into :mod:`repro` is deterministic:
the same cell runs the same code path on every machine and at any
load.  Each cell below is run twice back to back, since the first run
also builds the process-wide routing tables and fills the multicast
tree memo, and only the second run is counted.  Its count must stay
within 2% of the count measured when the budget was set; a change
that adds work to a per-reference or per-message path shows up here
as a failure naming the cell.

CPython 3.10 and 3.11 give the budgeted counts exactly, and 3.12 about
1% fewer, so one upper bound holds on every supported interpreter.
After a deliberate change to the hot path, re-measure with this file's
``count_calls`` and update ``MEASURED``.
"""

import os
import sys

import pytest

import repro
from repro.config import SystemConfig
from repro.exec import execute_cell, make_cell

_PACKAGE_DIR = os.path.dirname(os.path.abspath(repro.__file__)) + os.sep

#: Headroom over the measured count before a cell fails.
SLACK = 0.02

#: ``(name, config, workload, cores, refs per core, measured calls)``,
#: seed 1, counted with CPython 3.11.
MEASURED = [
    ("directory-oltp-16x50", dict(protocol="directory"),
     "oltp", 16, 50, 49_595),
    ("patch-all-oltp-16x50", dict(protocol="patch", predictor="all"),
     "oltp", 16, 50, 111_767),
    ("tokenb-oltp-16x50", dict(protocol="tokenb"),
     "oltp", 16, 50, 98_153),
    ("patch-all-microbench-64x5", dict(protocol="patch", predictor="all"),
     "microbench", 64, 5, 155_241),
]


def count_calls(cell) -> int:
    """Python calls into functions defined under the ``repro`` package
    while ``execute_cell(cell)`` runs."""
    calls = 0

    def profile(frame, event, arg):
        nonlocal calls
        if (event == "call"
                and frame.f_code.co_filename.startswith(_PACKAGE_DIR)):
            calls += 1

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        execute_cell(cell)
    finally:
        sys.setprofile(previous)
    return calls


@pytest.mark.parametrize(
    "name, config, workload, cores, refs, measured", MEASURED,
    ids=[row[0] for row in MEASURED])
def test_cell_stays_within_its_call_budget(name, config, workload, cores,
                                           refs, measured):
    cell = make_cell(SystemConfig(num_cores=cores, **config), workload,
                     refs, 1)
    execute_cell(cell)          # warm the routing tables and tree memo
    count = count_calls(cell)
    budget = int(measured * (1 + SLACK))
    assert count <= budget, (
        f"{name}: {count:,} calls into repro, over its budget of "
        f"{budget:,} ({measured:,} measured + {SLACK:.0%})")


def test_a_warm_cell_repeats_its_count_exactly():
    # The budgets rest on this: once warm, a cell's count is a property
    # of the code, not of the run.
    cell = make_cell(SystemConfig(num_cores=2, protocol="directory"),
                     "oltp", 5, 1)
    execute_cell(cell)
    assert 0 < count_calls(cell) == count_calls(cell)
