"""The committed tables, rendered once for the whole session.

:func:`repro.bench.suite` computes every table in ``benchmarks/results/``
at :data:`~repro.bench.FULL_SCALE`, on one :class:`~repro.api.Session`:
one worker pool (``REPRO_JOBS`` workers; default the CPU count) and the
shared result cache, ``~/.cache/repro`` (``REPRO_CACHE_DIR`` moves it;
``REPRO_NO_CACHE=1`` turns it off).  Cells are keyed by their config,
workload and seed and by a hash of every ``repro`` source file, so a
re-run after no change to ``src/`` loads them all from the cache.
Nothing here writes a table: ``repro bench`` does.
"""

import pytest

from repro.api import Session
from repro.bench import FULL_SCALE, suite


@pytest.fixture(scope="session")
def tables():
    """``{name: (text, metrics)}`` for every table ``repro bench``
    renders at full scale."""
    with Session() as session:
        return {name: (text, metrics) for name, text, metrics
                in suite(FULL_SCALE, session.runner)}
