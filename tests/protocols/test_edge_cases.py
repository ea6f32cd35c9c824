"""Edge-case protocol scenarios across all three protocols."""

from types import SimpleNamespace

import pytest

from repro.coherence.messages import CoherenceMsg, MsgType
from repro.coherence.states import CacheState
from repro.coherence.tokens import ZERO
from repro.protocols.base import ProtocolError
from tests.helpers import AccessDriver, make_system


# ---------------------------------------------------------------------------
# Dispatch: every controller rejects a message type it has no handler for
# ---------------------------------------------------------------------------

#: (protocol, side, the controller's name, a type it does not handle).
UNHANDLED = [
    ("directory", "caches", "directory cache", MsgType.GETS),
    ("directory", "homes", "directory home", MsgType.DATA),
    ("patch", "caches", "patch cache", MsgType.INV),
    ("patch", "homes", "patch home", MsgType.PUT),
    ("tokenb", "caches", "tokenb cache", MsgType.FWD_GETM),
    ("tokenb", "homes", "tokenb home", MsgType.DEACT),
]


@pytest.mark.parametrize("protocol,side,name,mtype", UNHANDLED,
                         ids=[row[2].replace(" ", "-") for row in UNHANDLED])
def test_unhandled_message_names_controller_and_type(protocol, side, name,
                                                     mtype):
    """Both ways in name the controller: its own ``handle_message``, and
    the network endpoint ``System`` registers, which indexes the
    controller's handler table itself."""
    system = make_system(protocol, cores=2)
    controller = getattr(system, side)[0]
    endpoint = system.network._endpoints[0]
    payload = CoherenceMsg(mtype=mtype, block=0, requester=1, sender=1,
                           to_home=side == "homes")
    for deliver in (controller.handle_message, endpoint):
        with pytest.raises(ProtocolError,
                           match=f"^{name} 0: unexpected {mtype.value}$"):
            deliver(SimpleNamespace(payload=payload))


# ---------------------------------------------------------------------------
# Silent E->M upgrades
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("protocol,predictor", [
    ("directory", "none"), ("patch", "none"), ("tokenb", "none")])
def test_exclusive_clean_write_hit_is_silent(protocol, predictor):
    system = make_system(protocol, cores=4, predictor=predictor)
    driver = AccessDriver(system)
    driver.access(0, 100, is_write=False)     # E grant
    line = system.caches[0].cache.lookup(100)
    assert line.state is CacheState.E
    before_messages = system.network.meter.messages.copy()
    latency = driver.access(0, 100, is_write=True)
    assert latency <= system.config.cache_latency + 1
    assert line.state is CacheState.M
    # No coherence traffic for the silent upgrade.
    assert system.network.meter.messages == before_messages


# ---------------------------------------------------------------------------
# Upgrade races
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("protocol,predictor", [
    ("directory", "none"), ("patch", "all"), ("tokenb", "none")])
def test_upgrade_race_losers_refetch(protocol, predictor):
    """Several sharers upgrade simultaneously: exactly one serialized
    winner at a time, everyone eventually writes."""
    system = make_system(protocol, cores=4, predictor=predictor)
    driver = AccessDriver(system)
    for core in range(4):
        driver.access(core, 100, is_write=False)
    driver.access_concurrent([(core, 100, True) for core in range(4)],
                             max_cycles=4_000_000)
    assert system.integrity.committed_version(100) == 4


# ---------------------------------------------------------------------------
# PATCH-specific corners
# ---------------------------------------------------------------------------

def test_patch_eviction_of_untenured_line_discards_to_home():
    """An untenured placeholder line evicted as a victim sends its tokens
    home rather than losing them."""
    system = make_system("patch", cores=2, predictor="none", cache_kb=1,
                         cache_assoc=1)
    cache = system.caches[0]
    home = system.homes[0]
    from repro.coherence.messages import CoherenceMsg, MsgType
    from repro.interconnect.message import Message
    from repro.stats.traffic import MsgClass
    taken, home.memory.tokens[0] = home.memory.held(0).take(1)
    stray = CoherenceMsg(mtype=MsgType.ACK, block=0, requester=0, sender=1,
                         tokens=taken)
    system.network.send(Message(src=1, dests=(0,), size_bytes=8,
                                msg_class=MsgClass.ACK, payload=stray))
    system.sim.run(until=30)
    assert cache.cache.lookup(0) is not None
    # Fill the set with a real access (same set index 0 given 1 way...).
    sets = system.config.cache_sets
    AccessDriver(system).access(0, sets, is_write=False)  # same set as 0
    AccessDriver(system).drain(100_000)
    # Token was not lost: conservation holds at the home.
    assert home.memory.held(0).count == system.config.tokens_per_block


def test_patch_sequential_writers_round_robin():
    """Ownership migrates cleanly through every core twice."""
    system = make_system("patch", cores=4, predictor="owner")
    driver = AccessDriver(system)
    for round_ in range(2):
        for core in range(4):
            driver.access(core, 300, is_write=True)
    line_states = [system.caches[c].cache.lookup(300) for c in range(4)]
    holders = [l for l in line_states if l is not None
               and not l.tokens.is_zero]
    assert len(holders) == 1
    assert holders[0].tokens.is_all(system.config.tokens_per_block)
    assert system.integrity.committed_version(300) == 8


def test_patch_read_from_memory_after_all_evictions():
    system = make_system("patch", cores=2, predictor="none", cache_kb=1,
                         cache_assoc=1)
    driver = AccessDriver(system)
    sets = system.config.cache_sets
    driver.access(0, 100, is_write=True)
    driver.access(0, 100 + sets, is_write=True)   # evict dirty 100
    driver.drain(60_000)
    # Memory must now serve the block with the written version.
    driver.access(1, 100, is_write=False)
    line = system.caches[1].cache.lookup(100)
    assert line is not None and line.valid_data


# ---------------------------------------------------------------------------
# TokenB-specific corners
# ---------------------------------------------------------------------------

def test_tokenb_two_queued_persistent_requests_serialize():
    system = make_system("tokenb", cores=4)
    home = system.homes[0]
    from repro.coherence.messages import CoherenceMsg, MsgType

    class Probe:
        def __init__(self, payload):
            self.payload = payload

    def persistent(requester, txn):
        return CoherenceMsg(mtype=MsgType.PERSISTENT_REQ, block=0,
                            requester=requester, sender=requester,
                            txn_id=txn, is_write=True, to_home=True)

    home.handle_message(Probe(persistent(1, 10)))
    home.handle_message(Probe(persistent(2, 11)))
    assert home._active[0].requester == 1
    assert len(home._queues[0]) == 1
    done = CoherenceMsg(mtype=MsgType.PERSISTENT_DEACTIVATE, block=0,
                        requester=1, sender=1, txn_id=10, to_home=True)
    home.handle_message(Probe(done))
    assert home._active[0].requester == 2


def test_tokenb_mismatched_persistent_done_rejected():
    """A deactivate the arbiter never activated may have overtaken its
    request, so the home remembers it; a second one for the same
    transaction matches nothing and is rejected."""
    system = make_system("tokenb", cores=4)
    home = system.homes[0]
    from repro.coherence.messages import CoherenceMsg, MsgType
    from repro.protocols.base import ProtocolError

    class Probe:
        def __init__(self, payload):
            self.payload = payload

    done = CoherenceMsg(mtype=MsgType.PERSISTENT_DEACTIVATE, block=0,
                        requester=9, sender=9, txn_id=1, to_home=True)
    home.handle_message(Probe(done))
    with pytest.raises(ProtocolError, match="no matching activation"):
        home.handle_message(Probe(done))


def _persistent(mtype, requester, txn, block=0):
    return SimpleNamespace(payload=CoherenceMsg(
        mtype=mtype, block=block, requester=requester, sender=requester,
        txn_id=txn, is_write=True, to_home=True))


@pytest.mark.parametrize("done_first", [False, True],
                         ids=["request-then-done", "done-then-request"])
def test_tokenb_persistent_done_in_either_arrival_order(done_first):
    """A miss that escalated can complete from tokens already in flight;
    on an unordered network its deactivate may reach the home before
    its request.  Either order leaves the arbiter idle, and a request
    that arrives after its own deactivate never activates."""
    system = make_system("tokenb", cores=4)
    home = system.homes[0]
    request = _persistent(MsgType.PERSISTENT_REQ, 1, 10)
    done = _persistent(MsgType.PERSISTENT_DEACTIVATE, 1, 10)
    for msg in ((done, request) if done_first else (request, done)):
        home.handle_message(msg)
    assert home.in_flight() == []
    assert home.stats.value("persistent_activations") == (
        0 if done_first else 1)
    # The arbiter serves the next starver as usual.
    home.handle_message(_persistent(MsgType.PERSISTENT_REQ, 2, 11))
    assert [(block, state, msg.requester)
            for block, state, msg in home.in_flight()] == [
                (0, "active on", 2)]


def test_tokenb_persistent_done_unqueues_its_waiting_request():
    system = make_system("tokenb", cores=4)
    home = system.homes[0]
    home.handle_message(_persistent(MsgType.PERSISTENT_REQ, 1, 10))
    home.handle_message(_persistent(MsgType.PERSISTENT_REQ, 2, 11))
    home.handle_message(_persistent(MsgType.PERSISTENT_DEACTIVATE, 2, 11))
    assert [(state, msg.requester)
            for _block, state, msg in home.in_flight()] == [
                ("active on", 1)]
    home.handle_message(_persistent(MsgType.PERSISTENT_DEACTIVATE, 1, 10))
    assert home.in_flight() == []
    assert home.stats.value("persistent_activations") == 1


def _broadcast_to(cache):
    """Deliver a home's persistent broadcast for block 0 to ``cache``."""
    def broadcast(mtype, requester, txn):
        cache.handle_message(SimpleNamespace(payload=CoherenceMsg(
            mtype=mtype, block=0, requester=requester, sender=0,
            txn_id=txn)))
    return broadcast


def test_tokenb_stale_deactivate_keeps_the_next_starvers_entry():
    """The home deactivates starver 1 and then activates starver 2; a
    cache that sees the two broadcasts reordered keeps 2's entry."""
    system = make_system("tokenb", cores=4)
    cache = system.caches[0]
    broadcast = _broadcast_to(cache)
    broadcast(MsgType.PERSISTENT_ACTIVATE, 1, 10)
    broadcast(MsgType.PERSISTENT_ACTIVATE, 2, 11)
    broadcast(MsgType.PERSISTENT_DEACTIVATE, 1, 10)   # late
    assert cache.persistent_table == {0: 2}
    # Its activate was seen, so nothing waits for it.
    assert cache._deactivated_early == set()
    broadcast(MsgType.PERSISTENT_DEACTIVATE, 2, 11)
    assert cache.persistent_table == {}


@pytest.mark.parametrize("deactivate_first", [False, True],
                         ids=["activate-then-deactivate",
                              "deactivate-then-activate"])
def test_tokenb_cache_clears_its_table_in_either_arrival_order(
        deactivate_first):
    """The home's activate and deactivate for one request can reach a
    cache in either order on an unordered network; either way the
    table ends empty and the next activation installs as usual."""
    system = make_system("tokenb", cores=4)
    cache = system.caches[0]
    broadcast = _broadcast_to(cache)
    order = [MsgType.PERSISTENT_ACTIVATE, MsgType.PERSISTENT_DEACTIVATE]
    for mtype in (reversed(order) if deactivate_first else order):
        broadcast(mtype, 1, 10)
    assert cache.persistent_table == {}
    assert cache._deactivated_early == set()
    broadcast(MsgType.PERSISTENT_ACTIVATE, 2, 11)
    assert cache.persistent_table == {0: 2}
    broadcast(MsgType.PERSISTENT_DEACTIVATE, 2, 11)
    assert cache.persistent_table == {}


def test_tokenb_cache_keeps_the_open_activation_when_two_cross():
    """The home activates 1, deactivates it, then activates 2; a cache
    that receives 2's activate before 1's points its table at 2 once
    1's deactivate lands."""
    system = make_system("tokenb", cores=4)
    cache = system.caches[0]
    broadcast = _broadcast_to(cache)
    broadcast(MsgType.PERSISTENT_ACTIVATE, 2, 11)
    broadcast(MsgType.PERSISTENT_ACTIVATE, 1, 10)
    assert cache.persistent_table == {0: 1}
    broadcast(MsgType.PERSISTENT_DEACTIVATE, 1, 10)
    assert cache.persistent_table == {0: 2}
    broadcast(MsgType.PERSISTENT_DEACTIVATE, 2, 11)
    assert cache.persistent_table == {}


# ---------------------------------------------------------------------------
# DIRECTORY-specific corners
# ---------------------------------------------------------------------------

def test_directory_inv_to_stale_sharer_still_acked():
    """After a silent S eviction the directory's sharer list is stale;
    the invalidation still gets acknowledged so the writer completes."""
    system = make_system("directory", cores=4, cache_kb=1, cache_assoc=1)
    driver = AccessDriver(system)
    sets = system.config.cache_sets
    driver.access(0, 100, is_write=False)      # E at 0
    driver.access(1, 100, is_write=False)      # F at 1, S at 0
    driver.access(1, 100 + sets, is_write=False)  # core 1 evicts F (WB)
    driver.access(0, 100 + 2 * sets, is_write=False)  # core 0 silent-evicts S
    driver.drain(100_000)
    # Core 2 writes: directory still lists core 0 as a sharer.
    driver.access(2, 100, is_write=True)
    assert system.caches[2].cache.lookup(100).state is CacheState.M


def test_directory_coarse_encoding_acks_from_non_sharers():
    """With a coarse vector, addressed non-sharers ack anyway — the ack
    implosion Figures 9/10 quantify."""
    system = make_system("directory", cores=8, encoding_coarseness=8)
    driver = AccessDriver(system)
    driver.access(0, 100, is_write=False)   # sharers bit covers everyone
    driver.access(1, 100, is_write=False)
    driver.access(2, 100, is_write=True)
    acks = sum(c.stats.value("inv_acks_sent") for c in system.caches)
    # 8-core single-bit encoding: the write invalidated the whole group
    # (minus requester and owner), so far more acks than true sharers.
    assert acks >= 5


def test_directory_memory_serves_after_clean_owner_eviction():
    system = make_system("directory", cores=2, cache_kb=1, cache_assoc=1)
    driver = AccessDriver(system)
    sets = system.config.cache_sets
    driver.access(0, 100, is_write=False)       # E (clean owner)
    driver.access(0, 100 + sets, is_write=False)  # evict: dataless PUT
    driver.drain(60_000)
    latency = driver.access(1, 100, is_write=False)
    # Served from memory: includes the DRAM latency.
    assert latency >= system.config.dram_latency
