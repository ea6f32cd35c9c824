"""Event-driven network model: latency, bandwidth, priority, dropping."""

import random

import pytest

from repro import System, SystemConfig, make_workload
from repro.interconnect.message import Message, Priority
from repro.interconnect.network import (LOCAL_DELIVERY_LATENCY,
                                        RandomDelayNetwork, SwitchedNetwork,
                                        TorusNetwork)
from repro.interconnect.topology import Torus2D, make_topology
from repro.sim.kernel import Simulator
from repro.stats.traffic import MsgClass


def make_net(width=4, height=4, bandwidth=16.0, hop_latency=5, drop_age=100):
    sim = Simulator()
    net = TorusNetwork(sim, Torus2D(width, height), bandwidth, hop_latency,
                       drop_age)
    return sim, net


def collect_endpoints(net, nodes):
    log = []
    for node in nodes:
        net.register_endpoint(
            node, lambda msg, n=node: log.append((net.sim.now, n, msg)))
    return log


def msg(src, dests, size=8, cls=MsgClass.ACK, priority=Priority.NORMAL):
    return Message(src=src, dests=tuple(dests), size_bytes=size,
                   msg_class=cls, priority=priority)


def test_unicast_delivery_latency():
    sim, net = make_net(bandwidth=8, hop_latency=5)
    log = collect_endpoints(net, range(16))
    net.send(msg(0, [1], size=8))  # 1 hop: serialization 1cy + 5cy
    sim.run()
    assert len(log) == 1
    time, node, _ = log[0]
    assert node == 1
    assert time == 6


def test_multihop_latency_accumulates():
    sim, net = make_net(bandwidth=8, hop_latency=5)
    log = collect_endpoints(net, range(16))
    torus = net.topology
    hops = torus.hop_count(0, 10)
    net.send(msg(0, [10], size=8))
    sim.run()
    time, node, _ = log[0]
    assert node == 10
    assert time == hops * (1 + 5)


def test_serialization_respects_bandwidth():
    sim, net = make_net(bandwidth=2, hop_latency=1)
    log = collect_endpoints(net, range(16))
    net.send(msg(0, [1], size=72))  # 36 cycles on the wire per hop
    sim.run()
    assert log[0][0] == 36 + 1


def test_queueing_delays_second_message():
    sim, net = make_net(bandwidth=1, hop_latency=1)
    log = collect_endpoints(net, range(16))
    net.send(msg(0, [1], size=8))
    net.send(msg(0, [1], size=8))
    sim.run()
    times = sorted(t for t, _, _ in log)
    assert times[0] == 9          # 8 cycles serialization + 1 hop
    assert times[1] == 17         # waits for the first transmission


def test_local_delivery_has_fixed_latency_and_no_traffic():
    sim, net = make_net()
    log = collect_endpoints(net, range(16))
    net.send(msg(3, [3]))
    sim.run()
    assert log[0][0] == LOCAL_DELIVERY_LATENCY
    assert net.meter.total_bytes == 0


def test_best_effort_deprioritized_behind_normal():
    sim, net = make_net(bandwidth=1, hop_latency=1, drop_age=10_000)
    log = collect_endpoints(net, range(16))
    best_effort = msg(0, [1], size=8, priority=Priority.BEST_EFFORT)
    normal = msg(0, [1], size=8)
    net.send(best_effort)
    net.send(normal)   # arrives later but must transmit first
    sim.run()
    arrival_order = [m.priority for _, _, m in sorted(log)]
    # The link was idle when best_effort arrived, so it goes first; but
    # inject both at once on a busy link below.
    sim2, net2 = make_net(bandwidth=1, hop_latency=1, drop_age=10_000)
    log2 = collect_endpoints(net2, range(16))
    net2.send(msg(0, [1], size=80))  # occupy the link
    net2.send(msg(0, [1], size=8, priority=Priority.BEST_EFFORT))
    net2.send(msg(0, [1], size=8))
    sim2.run()
    kinds = [m.priority for _, _, m in sorted(log2)][1:]
    assert kinds == [Priority.NORMAL, Priority.BEST_EFFORT]


def test_stale_best_effort_dropped():
    sim, net = make_net(bandwidth=1, hop_latency=1, drop_age=50)
    log = collect_endpoints(net, range(16))
    net.send(msg(0, [1], size=200))  # 200 cycles of serialization
    net.send(msg(0, [1], size=8, priority=Priority.BEST_EFFORT))
    sim.run()
    # The best-effort message waited 200 > 50 cycles: dropped.
    assert len(log) == 1
    assert net.meter.dropped_messages == 1


def test_drop_age_none_never_drops():
    sim, net = make_net(bandwidth=1, hop_latency=1, drop_age=None)
    log = collect_endpoints(net, range(16))
    net.send(msg(0, [1], size=200))
    net.send(msg(0, [1], size=8, priority=Priority.BEST_EFFORT))
    sim.run()
    assert len(log) == 2
    assert net.meter.dropped_messages == 0


def test_multicast_delivers_to_every_destination():
    sim, net = make_net()
    log = collect_endpoints(net, range(16))
    net.send(msg(0, [3, 7, 12], size=8))
    sim.run()
    assert sorted(node for _, node, _ in log) == [3, 7, 12]


def test_broadcast_traffic_charged_per_tree_edge():
    sim, net = make_net(bandwidth=16, hop_latency=1)
    collect_endpoints(net, range(16))
    net.send(msg(0, [n for n in range(16) if n != 0], size=8))
    sim.run()
    # Spanning tree of 16 nodes: 15 edges, charged once each.
    assert net.meter.bytes[MsgClass.ACK] == 15 * 8
    assert net.meter.link_traversals[MsgClass.ACK] == 15


def test_unicast_traffic_charged_per_hop():
    sim, net = make_net()
    collect_endpoints(net, range(16))
    net.send(msg(0, [2], size=8))
    sim.run()
    assert net.meter.bytes[MsgClass.ACK] == 2 * 8


def test_duplicate_destinations_deduplicated():
    sim, net = make_net()
    log = collect_endpoints(net, range(16))
    net.send(msg(0, [5, 5, 5]))
    sim.run()
    assert len(log) == 1


def test_endpoint_required():
    sim, net = make_net()
    net.register_endpoint(0, lambda m: None)
    net.send(msg(0, [1]))
    with pytest.raises(RuntimeError, match="no endpoint"):
        sim.run()


def test_double_registration_rejected():
    _, net = make_net()
    net.register_endpoint(0, lambda m: None)
    with pytest.raises(ValueError):
        net.register_endpoint(0, lambda m: None)


def test_utilization_tracks_busy_links():
    sim, net = make_net(bandwidth=1, hop_latency=1)
    collect_endpoints(net, range(16))
    net.send(msg(0, [1], size=100))
    sim.run()
    assert net.utilization() > 0


def test_utilization_counts_only_elapsed_cycles_mid_transmission():
    """Regression: busy_cycles charges the whole serialization duration
    at service start, so a run observed mid-transmission used to count
    cycles that had not elapsed — and a single-link fabric could report
    utilization above 1.0."""
    sim = Simulator()
    from repro.interconnect.topology import FullyConnected
    net = TorusNetwork(sim, FullyConnected(2), bandwidth=1, hop_latency=1,
                       drop_age=None)
    collect_endpoints(net, range(2))
    net.send(msg(0, [1], size=10_000))  # 10k cycles on the wire
    sim.run(until=10)                   # stop 0.1% into the transmission
    assert sim.now == 10
    assert net.utilization() <= 1.0
    # The one busy link of two was busy for all 10 elapsed cycles.
    assert net.utilization() == pytest.approx(0.5)


def test_utilization_full_transmission_unchanged():
    """Completed transmissions still charge their full duration."""
    sim = Simulator()
    from repro.interconnect.topology import FullyConnected
    net = TorusNetwork(sim, FullyConnected(2), bandwidth=1, hop_latency=1,
                       drop_age=None)
    collect_endpoints(net, range(2))
    net.send(msg(0, [1], size=100))
    sim.run()  # 100 cycles serialization + 1 hop => now == 101
    assert net.utilization() == pytest.approx(100 / (2 * sim.now))


# ---------------------------------------------------------------------------
# RandomDelayNetwork (adversarial model)
# ---------------------------------------------------------------------------

def test_random_network_delivers_within_bounds():
    sim = Simulator()
    net = RandomDelayNetwork(sim, 4, random.Random(1), min_delay=5,
                             max_delay=9)
    log = []
    for node in range(4):
        net.register_endpoint(node, lambda m, n=node: log.append((sim.now, n)))
    net.send(msg(0, [1, 2, 3]))
    sim.run()
    assert sorted(n for _, n in log) == [1, 2, 3]
    assert all(5 <= t <= 9 for t, _ in log)


def test_random_network_drops_best_effort():
    sim = Simulator()
    net = RandomDelayNetwork(sim, 2, random.Random(1),
                             best_effort_drop_prob=1.0)
    log = []
    net.register_endpoint(0, lambda m: log.append(m))
    net.register_endpoint(1, lambda m: log.append(m))
    net.send(msg(0, [1], priority=Priority.BEST_EFFORT))
    sim.run()
    assert log == []
    assert net.meter.dropped_messages == 1


def test_random_network_never_drops_normal():
    sim = Simulator()
    net = RandomDelayNetwork(sim, 2, random.Random(1),
                             best_effort_drop_prob=1.0)
    log = []
    net.register_endpoint(0, lambda m: log.append(m))
    net.register_endpoint(1, lambda m: log.append(m))
    net.send(msg(0, [1]))
    sim.run()
    assert len(log) == 1


def test_random_network_never_drops_local_delivery():
    """Regression: the local (dest == src) leg never enters the fabric,
    so even a 100%-drop adversarial network must deliver it — and must
    not meter a drop for it."""
    sim = Simulator()
    net = RandomDelayNetwork(sim, 2, random.Random(1),
                             best_effort_drop_prob=1.0)
    log = []
    net.register_endpoint(0, lambda m: log.append((sim.now, 0)))
    net.register_endpoint(1, lambda m: log.append((sim.now, 1)))
    net.send(msg(0, [0], priority=Priority.BEST_EFFORT))
    sim.run()
    assert log == [(LOCAL_DELIVERY_LATENCY, 0)]
    assert net.meter.dropped_messages == 0
    assert net.meter.total_bytes == 0  # local legs charge no traffic


def test_random_network_multicast_self_leg_immune_to_drops():
    """A best-effort multicast that includes the sender: remote copies
    may drop, the local copy may not."""
    sim = Simulator()
    net = RandomDelayNetwork(sim, 3, random.Random(7),
                             best_effort_drop_prob=1.0)
    delivered = []
    for node in range(3):
        net.register_endpoint(node, lambda m, n=node: delivered.append(n))
    net.send(msg(0, [0, 1, 2], priority=Priority.BEST_EFFORT))
    sim.run()
    assert delivered == [0]
    assert net.meter.dropped_messages == 2


# ---------------------------------------------------------------------------
# The contract both models share (NetworkInterface)
# ---------------------------------------------------------------------------

def switched(sim, nodes):
    config = SystemConfig(num_cores=nodes)
    return SwitchedNetwork(
        sim, make_topology(config.topology, nodes, config.torus_dims),
        bandwidth=config.link_bandwidth, hop_latency=config.hop_latency,
        drop_age=config.direct_request_drop_age)


def random_delay(sim, nodes):
    return RandomDelayNetwork(sim, nodes, random.Random(1))


MODELS = [pytest.param(switched, id="switched"),
          pytest.param(random_delay, id="random-delay")]


class CountingSink:
    """A message sink that counts what it is shown."""

    def __init__(self):
        self.messages = 0
        self.link_bytes = 0

    def message(self, msg):
        assert msg.inject_time >= 0  # stamped before the sink runs
        self.messages += 1

    def link_busy(self, src, dst, start, duration, msg_class, size_bytes):
        self.link_bytes += size_bytes


@pytest.mark.parametrize("make", MODELS)
def test_contract_rejects_a_second_endpoint_at_a_node(make):
    net = make(Simulator(), 4)
    net.register_endpoint(0, lambda m: None)
    with pytest.raises(ValueError, match="endpoint 0 already registered"):
        net.register_endpoint(0, lambda m: None)


@pytest.mark.parametrize("make", MODELS)
def test_contract_unregistered_destination_names_the_node(make):
    sim = Simulator()
    net = make(sim, 4)
    net.register_endpoint(0, lambda m: None)
    with pytest.raises(RuntimeError, match="no endpoint registered at node 2"):
        net.send(msg(0, [2]))
        sim.run()


@pytest.mark.parametrize("make", MODELS)
def test_contract_sink_sees_every_message_and_link_transmission(make):
    """On a drained 16-core PATCH-All cell the sink is shown each
    injected message once, and (SwitchedNetwork only) every metered
    link byte through ``link_busy``."""
    config = SystemConfig(num_cores=16, protocol="patch", predictor="all")
    net = make(Simulator(), 16)
    system = System(config, make_workload("microbench", num_cores=16,
                                          seed=1), 40, network=net)
    sink = CountingSink()
    net.set_message_sink(sink)
    system.run()
    meter = net.meter
    assert sink.messages == sum(meter.messages.values()) > 0
    if isinstance(net, SwitchedNetwork):
        assert sink.link_bytes == sum(meter.bytes.values()) > 0
        assert 0.0 < net.utilization() <= 1.0
    else:  # no links: nothing to occupy, nothing to utilize
        assert sink.link_bytes == 0
        assert net.utilization() == 0.0


@pytest.mark.parametrize("make", MODELS)
def test_contract_clearing_the_sink_stops_it(make):
    sim = Simulator()
    net = make(sim, 4)
    for node in range(4):
        net.register_endpoint(node, lambda m: None)
    sink = CountingSink()
    net.set_message_sink(sink)
    net.send(msg(0, [1, 2, 3]))
    net.send(msg(1, [1]))
    sim.run()
    assert sink.messages == 2
    seen = (sink.messages, sink.link_bytes)
    net.set_message_sink(None)
    net.send(msg(0, [1, 2, 3]))
    sim.run()
    assert (sink.messages, sink.link_bytes) == seen
    assert sum(net.meter.messages.values()) == 3
