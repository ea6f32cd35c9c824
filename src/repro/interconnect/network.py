"""Event-driven interconnect models.

:class:`SwitchedNetwork` is the detailed model used for all paper
experiments: every directed link of the configured topology (torus,
mesh, fully-connected — see :mod:`repro.interconnect.topology`) is a
bandwidth server with two priority FIFOs.  Normal traffic is always
served first; best-effort messages (PATCH's direct requests) are served
only when no normal message is waiting, and are *dropped* if they have
been queued longer than the configured drop age — implementing the
paper's "deprioritize and discard if stale" policy that gives PATCH its
do-no-harm guarantee.  ``TorusNetwork`` is a backward-compatible alias
from when the 2D torus was the only fabric.

This module is the simulator's hottest code: every message crosses
several links and every link transmission is a handful of kernel
events.  The layout is therefore deliberately flat (see
docs/PERFORMANCE.md for the full anatomy):

* routing comes from the topology's precomputed
  :class:`~repro.interconnect.topology.RoutingTables` — forwarding is
  list indexing, never per-hop arithmetic;
* links live in index-addressed arrays (``_first_hop[node][dest]``
  resolves source+destination straight to the first link, and
  ``_link_at[node][neighbor]`` serves multicast tree edges);
* endpoints dispatch through a list indexed by node id;
* a message in flight is a plain 7-tuple *hop* ``(inner, final_dest,
  tree, deliver_set, priority, size_bytes, msg_class)``: no object
  construction per hop, index loads instead of attribute loads;
* links keep their own references to the clock and meter, share one
  memo of serialization durations per message size (all links share
  one bandwidth), and schedule no follow-up ``_serve`` event when
  their queues are empty at transmit time;
* event scheduling is inlined against the kernel's per-timestamp
  buckets (see :mod:`repro.sim.kernel`) — two schedules per
  transmission make it the hottest loop of a run.

:class:`RandomDelayNetwork` is an adversarial model for correctness tests:
it delivers messages with random, unordered delays and can drop best-effort
messages with configurable probability.  Coherence safety and forward
progress must hold on it, since PATCH requires no interconnect ordering.
"""

from __future__ import annotations

import math
import random
from bisect import insort
from collections import deque
from heapq import heappush as _heappush
from typing import Callable, Deque, Dict, List, Optional, Tuple

from repro.interconnect.message import Message, Priority
from repro.interconnect.topology import Topology
from repro.sim.kernel import Simulator
from repro.stats.traffic import TrafficMeter

Handler = Callable[[Message], None]

#: Delivery latency for a node sending a message to itself (cache to its
#: co-located home slice); charged no link traffic.
LOCAL_DELIVERY_LATENCY = 1

#: Hop tuple field indexes (see module docstring).
_INNER, _FINAL_DEST, _TREE, _DELIVER, _PRIORITY, _SIZE, _CLASS = range(7)


class NetworkInterface:
    """Common API both network models implement."""

    meter: TrafficMeter

    def register_endpoint(self, node: int, handler: Handler) -> None:
        raise NotImplementedError

    def send(self, msg: Message) -> None:
        raise NotImplementedError


class _Link:
    """One directed link: fixed per-hop latency plus serialization at
    ``bandwidth`` bytes/cycle, two priority FIFOs, stale-drop for
    best-effort traffic.

    ``busy_cycles`` charges the full serialization duration when a
    transmission *starts*; :meth:`SwitchedNetwork.utilization` subtracts
    the not-yet-elapsed tail of an in-flight transmission so a run that
    ends mid-transmission never reports utilization above 1.0.
    """

    __slots__ = ("sim", "src", "dst", "normal", "best_effort",
                 "busy_until", "_scheduled", "_reserved_seq", "busy_cycles",
                 "meter", "hop_latency", "drop_age", "bandwidth",
                 "_durations", "_inflight", "_serve_cb", "_arrive_cb",
                 "_forward_row", "_fanout_row", "_endpoints", "_timeline")

    def __init__(self, network: "SwitchedNetwork", src: int, dst: int) -> None:
        self.sim = network.sim
        self.src = src
        self.dst = dst
        # Normal queue holds bare hops; best-effort entries carry their
        # enqueue time, which the stale-drop check needs.
        self.normal: Deque[tuple] = deque()
        self.best_effort: Deque[Tuple[tuple, int]] = deque()
        self.busy_until = 0
        self._scheduled = False
        self._reserved_seq = -1
        self.busy_cycles = 0
        self.meter = network.meter
        self.hop_latency = network.hop_latency
        self.drop_age = network.drop_age
        self.bandwidth = network.bandwidth
        self._durations = network._durations  # shared size -> cycles memo
        # Arrival-side rows, filled in by the network once its tables
        # exist: everything a hop landing at this link's dst needs,
        # without a trip through the network.
        self._forward_row: List[Optional["_Link"]] = []
        self._fanout_row: List[Optional["_Link"]] = []
        self._endpoints: List[Optional[Handler]] = []
        # Hops on the wire, in transmission order.  Serialization makes
        # arrival times strictly increasing per link, so arrivals pop
        # FIFO and one bound method serves as every arrival callback (no
        # per-transmission closure).
        self._inflight: Deque[tuple] = deque()
        # Bound once: scheduling a method per event would allocate a
        # fresh bound-method object each time.
        self._serve_cb = self._serve
        self._arrive_cb = self._arrive_next
        # Timeline recorder (attach_timeline); None costs one check
        # per transmission.
        self._timeline = None

    def enqueue(self, hop: tuple) -> None:
        sim = self.sim
        now = sim.now
        # Priority.BEST_EFFORT == 1, NORMAL == 0: truthiness dispatch.
        if hop[_PRIORITY]:
            self.best_effort.append((hop, now))
        else:
            self.normal.append(hop)
        if self._scheduled:
            return
        self._scheduled = True
        busy = self.busy_until
        reserved = self._reserved_seq
        if reserved >= 0:
            self._reserved_seq = -1
            # The previous transmission ended with empty queues and
            # reserved the follow-up serve's tie-break slot instead of
            # scheduling a no-op.  If that slot is still "in the future"
            # of the dispatch order, materialize the serve under it —
            # the kernel then dispatches events in exactly the order a
            # run that had scheduled the no-op would have.  (Inlined
            # post_reserved; ``busy`` can equal ``now``, so the
            # mid-drain branch stays.)
            if now < busy or (now == busy
                              and sim._current_seq < reserved):
                buckets = sim._buckets
                bucket = buckets.get(busy)
                if bucket is None:
                    buckets[busy] = [(reserved, self._serve_cb)]
                    _heappush(sim._times, busy)
                elif busy == sim._draining:
                    insort(bucket, (reserved, self._serve_cb),
                           sim._drain_pos)
                else:
                    bucket.append((reserved, self._serve_cb))
                sim._live += 1
                return
        # Inlined post at max(busy, now).
        time = busy if busy > now else now
        seq = sim._seq
        sim._seq = seq + 1
        buckets = sim._buckets
        bucket = buckets.get(time)
        if bucket is None:
            buckets[time] = [(seq, self._serve_cb)]
            _heappush(sim._times, time)
        elif time == sim._draining:
            insort(bucket, (seq, self._serve_cb), sim._drain_pos)
        else:
            bucket.append((seq, self._serve_cb))
        sim._live += 1

    def _serve(self) -> None:
        """Transmit the highest-priority queued hop, if any.

        Pick policy (inlined — one call per transmission): normal
        traffic first, FIFO; best-effort only when no normal hop waits,
        dropping entries that queued longer than ``drop_age``.
        """
        sim = self.sim
        if self.normal:
            hop = self.normal.popleft()
        else:
            hop = None
            best_effort = self.best_effort
            if best_effort:
                now = sim.now
                drop_age = self.drop_age
                while best_effort:
                    candidate, enqueued = best_effort.popleft()
                    if drop_age is not None and now - enqueued > drop_age:
                        self.meter.record_drop(candidate[_SIZE])
                        continue
                    hop = candidate
                    break
            if hop is None:
                self._scheduled = False
                return
        size = hop[_SIZE]
        duration = self._durations.get(size)
        if duration is None:
            duration = max(1, math.ceil(size / self.bandwidth))
            self._durations[size] = duration
        now = sim.now
        self.busy_until = now + duration
        self.busy_cycles += duration
        # Inlined meter.record_traversal (one transmission == one
        # directed-link traversal; this is the hottest meter call).
        meter = self.meter
        msg_class = hop[_CLASS]
        meter.bytes[msg_class] += size
        meter.link_traversals[msg_class] += 1
        timeline = self._timeline
        if timeline is not None:
            timeline.link_busy(self.src, self.dst, now, duration,
                               msg_class, size)
        self._inflight.append(hop)
        # Inlined posts: the arrival takes ``seq``, the follow-up serve
        # (or its reserved slot) takes ``seq + 1``.  Both times are
        # strictly future, so neither can land in the bucket being
        # drained and a plain append is safe.
        seq = sim._seq
        sim._seq = seq + 2
        buckets = sim._buckets
        time = now + duration + self.hop_latency
        bucket = buckets.get(time)
        if bucket is None:
            buckets[time] = [(seq, self._arrive_cb)]
            _heappush(sim._times, time)
        else:
            bucket.append((seq, self._arrive_cb))
        if self.normal or self.best_effort:
            sim._live += 2
            time = now + duration
            bucket = buckets.get(time)
            if bucket is None:
                buckets[time] = [(seq + 1, self._serve_cb)]
                _heappush(sim._times, time)
            else:
                bucket.append((seq + 1, self._serve_cb))
        else:
            # Queues are empty: the follow-up serve would pop nothing.
            # Reserve its sequence slot (keeping future tie-breaks
            # bit-identical) but schedule no event; the next enqueue
            # re-activates the link at busy_until.
            sim._live += 1
            self._scheduled = False
            self._reserved_seq = seq + 1

    def _arrive_next(self) -> None:
        """Land the oldest in-flight hop at this link's dst: deliver,
        forward along the routed path, or fan out down the tree."""
        hop = self._inflight.popleft()
        node = self.dst
        tree = hop[_TREE]
        if tree is None:
            dest = hop[_FINAL_DEST]
            if node == dest:
                handler = self._endpoints[node]
                if handler is None:
                    raise RuntimeError(
                        f"no endpoint registered at node {node}")
                handler(hop[_INNER])
            else:
                self._forward_row[dest].enqueue(hop)
            return
        if node in hop[_DELIVER]:
            handler = self._endpoints[node]
            if handler is None:
                raise RuntimeError(f"no endpoint registered at node {node}")
            handler(hop[_INNER])
        children = tree.get(node)
        if children:
            # Children share the original message but get their own hop
            # per tree edge, so bandwidth is charged once per edge.
            inner, deliver = hop[_INNER], hop[_DELIVER]
            priority, size, msg_class = hop[_PRIORITY], hop[_SIZE], hop[_CLASS]
            row = self._fanout_row
            for child in children:
                row[child].enqueue((inner, None, tree, deliver,
                                    priority, size, msg_class))


class SwitchedNetwork(NetworkInterface):
    """The detailed link-level interconnect model over any topology.

    Works against the :class:`~repro.interconnect.topology.Topology`
    routing protocol only — at construction it asks the topology for its
    :class:`~repro.interconnect.topology.RoutingTables` and its link
    set, then flattens both into index-addressed arrays — so the same
    bandwidth, priority, and stale-drop machinery serves the torus, the
    mesh, and the fully-connected fabric unchanged.
    """

    def __init__(self, sim: Simulator, topology: Topology,
                 bandwidth: float, hop_latency: int,
                 drop_age: Optional[int] = 100) -> None:
        if bandwidth <= 0:
            raise ValueError("bandwidth must be positive")
        if hop_latency < 1:
            raise ValueError("hop_latency must be >= 1")
        self.sim = sim
        self.topology = topology
        self.bandwidth = bandwidth
        self.hop_latency = hop_latency
        self.drop_age = drop_age
        self.meter = TrafficMeter()
        self._timeline = None
        self._durations: Dict[int, int] = {}
        self.routing = topology.build_routing()
        n = topology.num_nodes
        self._endpoints: List[Optional[Handler]] = [None] * n
        self._links: List[_Link] = [
            _Link(self, src, dst) for src, dst in topology.links()]
        # (node, neighbor) -> link, for multicast tree edges.
        self._link_at: List[List[Optional[_Link]]] = [
            [None] * n for _ in range(n)]
        for link in self._links:
            self._link_at[link.src][link.dst] = link
        # (node, final_dest) -> first link on the routed path, so
        # unicast forwarding is two list indexes with no arithmetic.
        next_hop = self.routing.next_hop
        self._first_hop: List[List[Optional[_Link]]] = [
            [self._link_at[node][next_hop[node][dest]] if dest != node
             else None for dest in range(n)]
            for node in range(n)
        ]
        # Hand every link the arrival-side rows for its dst, so a hop
        # landing there is delivered/forwarded without a network call.
        for link in self._links:
            link._forward_row = self._first_hop[link.dst]
            link._fanout_row = self._link_at[link.dst]
            link._endpoints = self._endpoints

    # ------------------------------------------------------------------
    def register_endpoint(self, node: int, handler: Handler) -> None:
        if self._endpoints[node] is not None:
            raise ValueError(f"endpoint {node} already registered")
        self._endpoints[node] = handler

    def attach_timeline(self, recorder) -> None:
        """Wire the message lane and every link's occupancy lane.

        Observation only — the recorder never draws sequence numbers,
        posts events, or touches RNG, so results stay bit-identical
        with a recorder attached.
        """
        self._timeline = recorder
        for link in self._links:
            link._timeline = recorder

    def send(self, msg: Message) -> None:
        """Inject a message at its source node."""
        sim = self.sim
        msg.inject_time = sim.now
        self.meter.record_message(msg.msg_class)
        timeline = self._timeline
        if timeline is not None:
            timeline.message(msg.msg_class, msg.src, msg.dests,
                             sim.now, msg.size_bytes)
        dests = msg.dests
        src = msg.src
        if len(dests) == 1:
            # Unicast fast path: no dedupe list, no tree.
            dest = dests[0]
            if dest == src:
                sim.post(LOCAL_DELIVERY_LATENCY,
                         lambda m=msg: self._deliver(m, m.src))
                return
            self._first_hop[src][dest].enqueue(
                (msg, dest, None, None,
                 msg.priority, msg.size_bytes, msg.msg_class))
            return
        dests = tuple(dict.fromkeys(dests))  # dedupe, keep order
        if src in dests:
            sim.post(LOCAL_DELIVERY_LATENCY,
                     lambda m=msg: self._deliver(m, m.src))
        remote = [d for d in dests if d != src]
        if not remote:
            return
        if len(remote) == 1:
            dest = remote[0]
            self._first_hop[src][dest].enqueue(
                (msg, dest, None, None,
                 msg.priority, msg.size_bytes, msg.msg_class))
        else:
            tree = self.routing.multicast_tree(src, tuple(remote))
            deliver = frozenset(remote)
            priority, size = msg.priority, msg.size_bytes
            msg_class = msg.msg_class
            children = tree.get(src)
            if children:
                row = self._link_at[src]
                for child in children:
                    row[child].enqueue((msg, None, tree, deliver,
                                        priority, size, msg_class))

    def _deliver(self, msg: Message, node: int) -> None:
        handler = self._endpoints[node]
        if handler is None:
            raise RuntimeError(f"no endpoint registered at node {node}")
        handler(msg)

    # ------------------------------------------------------------------
    def utilization(self) -> float:
        """Mean fraction of elapsed cycles each link spent transmitting.

        Only *elapsed* busy cycles count: a transmission still on the
        wire contributes the cycles up to ``sim.now``, not its full
        serialization duration, so the figure is bounded by 1.0 even
        when the run ends mid-transmission.
        """
        now = self.sim.now
        if now == 0 or not self._links:
            return 0.0
        total = 0
        for link in self._links:
            busy = link.busy_cycles
            overhang = link.busy_until - now
            if overhang > 0:
                busy -= overhang
            total += busy
        return total / (len(self._links) * now)


#: Backward-compatible alias (the torus was originally the only fabric).
TorusNetwork = SwitchedNetwork


class RandomDelayNetwork(NetworkInterface):
    """Adversarial network: random unordered delays, optional drops.

    Used by correctness tests; charges traffic per logical destination.
    Local delivery (``dest == msg.src``) never traverses the fabric, so
    it is never dropped, never metered, and never consumes randomness.
    """

    def __init__(self, sim: Simulator, num_nodes: int, rng: random.Random,
                 min_delay: int = 1, max_delay: int = 80,
                 best_effort_drop_prob: float = 0.0) -> None:
        if min_delay < 1 or max_delay < min_delay:
            raise ValueError("need 1 <= min_delay <= max_delay")
        if not 0.0 <= best_effort_drop_prob <= 1.0:
            raise ValueError("drop probability must be in [0, 1]")
        self.sim = sim
        self.num_nodes = num_nodes
        self.rng = rng
        self.min_delay = min_delay
        self.max_delay = max_delay
        self.best_effort_drop_prob = best_effort_drop_prob
        self.meter = TrafficMeter()
        self._endpoints: Dict[int, Handler] = {}

    def register_endpoint(self, node: int, handler: Handler) -> None:
        if node in self._endpoints:
            raise ValueError(f"endpoint {node} already registered")
        self._endpoints[node] = handler

    def send(self, msg: Message) -> None:
        msg.inject_time = self.sim.now
        self.meter.record_message(msg.msg_class)
        for dest in dict.fromkeys(msg.dests):
            if dest == msg.src:
                # The local slice is reached without entering the
                # fabric: fixed latency, no drop roll, no traffic.
                handler = self._endpoints.get(dest)
                if handler is None:
                    raise RuntimeError(
                        f"no endpoint registered at node {dest}")
                self.sim.post(LOCAL_DELIVERY_LATENCY,
                              lambda m=msg, h=handler: h(m))
                continue
            if (msg.priority == Priority.BEST_EFFORT
                    and self.rng.random() < self.best_effort_drop_prob):
                self.meter.record_drop(msg.size_bytes)
                continue
            delay = self.rng.randint(self.min_delay, self.max_delay)
            self.meter.record_traversal(msg.msg_class, msg.size_bytes)
            handler = self._endpoints.get(dest)
            if handler is None:
                raise RuntimeError(f"no endpoint registered at node {dest}")
            self.sim.post(delay, lambda m=msg, h=handler: h(m))
