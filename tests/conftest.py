"""Shared fixtures for the unit suite.

Unit tests must be hermetic: they never read or write the user-level
result cache (``~/.cache/repro``), and they run simulations in-process
unless a test explicitly constructs a :class:`ParallelRunner`.  (The
``benchmarks/`` suite deliberately *does* use the shared cache — that is
the behavior under test there.)
"""

import pytest


@pytest.fixture(autouse=True)
def _hermetic_exec_defaults(monkeypatch):
    monkeypatch.setenv("REPRO_NO_CACHE", "1")
    monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
    monkeypatch.delenv("REPRO_JOBS", raising=False)
    monkeypatch.delenv("REPRO_EXECUTOR", raising=False)
    monkeypatch.delenv("REPRO_OBS", raising=False)
    monkeypatch.delenv("REPRO_TIMELINE", raising=False)
    monkeypatch.delenv("REPRO_PROFILE_DIR", raising=False)
    monkeypatch.delenv("REPRO_LOG", raising=False)
