"""Verification layer tests: the checkers must actually catch violations."""

from types import SimpleNamespace

import pytest

from repro.coherence.messages import CoherenceMsg, MsgType
from repro.coherence.states import CacheState
from repro.coherence.tokens import TokenCount, ZERO
from repro.verify.invariants import (CoherenceViolation, IntegrityChecker,
                                     audit_single_writer,
                                     audit_token_conservation)
from repro.verify.watchdog import (StarvationError, check_all_done,
                                   describe_stall)
from tests.helpers import AccessDriver, make_system


# ---------------------------------------------------------------------------
# IntegrityChecker
# ---------------------------------------------------------------------------

def test_integrity_write_bumps_version():
    checker = IntegrityChecker()
    v1 = checker.commit_write(0, 10)
    v2 = checker.commit_write(1, 10)
    assert v2 == v1 + 1
    assert checker.committed_version(10) == v2


def test_integrity_fresh_read_passes():
    checker = IntegrityChecker()
    version = checker.commit_write(0, 10)
    checker.observe_read(1, 10, version)
    assert checker.reads_checked == 1


def test_integrity_stale_read_raises():
    checker = IntegrityChecker()
    checker.commit_write(0, 10)
    checker.commit_write(0, 10)
    with pytest.raises(CoherenceViolation, match="stale read"):
        checker.observe_read(1, 10, 1)


def test_integrity_unwritten_block_reads_version_zero():
    checker = IntegrityChecker()
    checker.observe_read(0, 99, 0)   # fine
    with pytest.raises(CoherenceViolation):
        checker.observe_read(0, 99, 3)


# ---------------------------------------------------------------------------
# Token conservation audit
# ---------------------------------------------------------------------------

def test_token_audit_passes_on_clean_system():
    system = make_system("patch", cores=4)
    driver = AccessDriver(system)
    driver.access(0, 100, is_write=True)
    driver.access(1, 100, is_write=False)
    driver.drain(300_000)
    audit_token_conservation(system)   # must not raise


def test_token_audit_detects_lost_tokens():
    system = make_system("patch", cores=4)
    driver = AccessDriver(system)
    driver.access(0, 100, is_write=True)
    driver.drain(100_000)
    line = system.caches[0].cache.lookup(100)
    line.tokens, _ = line.tokens.take(line.tokens.count - 1)  # drop owner
    with pytest.raises(CoherenceViolation):
        audit_token_conservation(system)


def test_token_audit_detects_duplicated_tokens():
    system = make_system("patch", cores=4)
    driver = AccessDriver(system)
    driver.access(0, 100, is_write=True)
    driver.drain(100_000)
    # Forge extra tokens at another cache.
    forged = system.caches[1].cache.allocate(100)
    forged.tokens = TokenCount(2)
    with pytest.raises(CoherenceViolation):
        audit_token_conservation(system)


@pytest.mark.parametrize("protocol", ["patch", "tokenb"])
def test_token_audit_counts_memory_held_tokens(protocol):
    system = make_system(protocol, cores=4)
    driver = AccessDriver(system)
    driver.access(0, 100, is_write=True)
    driver.drain(100_000)
    home = system.homes[100 % 4]
    audit_token_conservation(system)   # memory's ZERO holding is counted
    # Forge one extra token at the home's memory.
    home.memory.tokens[100] = home.memory.held(100).add(TokenCount(1))
    with pytest.raises(CoherenceViolation, match="block 100"):
        audit_token_conservation(system)


# ---------------------------------------------------------------------------
# Single-writer audit
# ---------------------------------------------------------------------------

def test_single_writer_audit_passes_normally():
    system = make_system("directory", cores=4)
    driver = AccessDriver(system)
    driver.access(0, 100, is_write=True)
    driver.access(1, 100, is_write=False)
    audit_single_writer(system)


def test_single_writer_audit_detects_two_writers():
    system = make_system("directory", cores=4)
    for core in (0, 1):
        line = system.caches[core].cache.allocate(100)
        line.state = CacheState.M
        line.valid_data = True
    with pytest.raises(CoherenceViolation, match="multiple caches"):
        audit_single_writer(system)


def test_single_writer_audit_detects_writer_plus_reader():
    system = make_system("directory", cores=4)
    writer = system.caches[0].cache.allocate(100)
    writer.state = CacheState.M
    writer.valid_data = True
    reader = system.caches[1].cache.allocate(100)
    reader.state = CacheState.S
    reader.valid_data = True
    with pytest.raises(CoherenceViolation, match="readable"):
        audit_single_writer(system)


# ---------------------------------------------------------------------------
# Watchdog
# ---------------------------------------------------------------------------

def test_watchdog_passes_when_all_done():
    system = make_system("directory", cores=2)
    for core in system.cores:
        core.retired = core.quota
    check_all_done(system, 1000)


def test_watchdog_raises_with_diagnostics():
    system = make_system("directory", cores=2)
    system.cores[0].quota = 5   # pretend it still has work
    with pytest.raises(StarvationError, match="core 0"):
        check_all_done(system, 1000)


def test_stall_dump_lists_tokenb_persistent_arbitration():
    """A TokenB stall names the home's active and queued persistent
    requests, and the MSHR line shows the retry count and whether the
    miss went persistent."""
    system = make_system("tokenb", cores=2)
    system.caches[1].access(100, True, lambda: None)
    home = system.homes[100 % 2]
    for requester, txn in ((1, 777), (0, 778)):
        home.handle_message(SimpleNamespace(payload=CoherenceMsg(
            mtype=MsgType.PERSISTENT_REQ, block=100, requester=requester,
            sender=requester, txn_id=txn, is_write=True, to_home=True)))
    dump = describe_stall(system).splitlines()
    assert "home 0: block 100 active on PERSISTENT_REQ from 1 (txn 777)" \
        in dump
    assert "home 0: block 100 queued on PERSISTENT_REQ from 0 (txn 778)" \
        in dump
    (mshr_line,) = [line for line in dump if "MSHR" in line]
    assert mshr_line.startswith("cache 1: MSHR block=100 write=True")
    assert "retries=0 persistent=False" in mshr_line


def test_stall_dump_lists_busy_directory_blocks():
    system = make_system("directory", cores=2)
    system.caches[1].access(100, True, lambda: None)
    system.sim.run(until=50)   # at its home, not yet answered
    assert any(line.startswith("home 0: block 100 busy on GETM from 1")
               for line in describe_stall(system).splitlines())


def test_integrity_catches_protocol_data_bugs_end_to_end():
    """Corrupt a line's version mid-run; the next read must trip."""
    system = make_system("patch", cores=2)
    driver = AccessDriver(system)
    driver.access(0, 100, is_write=True)
    line = system.caches[0].cache.lookup(100)
    line.version -= 1   # simulate a stale-data protocol bug
    with pytest.raises(CoherenceViolation):
        driver.access(0, 100, is_write=False)
