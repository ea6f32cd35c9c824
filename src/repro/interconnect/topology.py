"""Pluggable interconnect topologies with a common routing protocol.

The paper's system uses a 2D torus with efficient multicast routing
(Section 8.1); :class:`Torus2D` is that topology and the default
everywhere.  Every topology implements the same routing protocol —
``next_hop`` / ``route`` / ``hop_count`` / ``links`` /
``multicast_tree`` — so the switched network model
(:class:`~repro.interconnect.network.SwitchedNetwork`) is
topology-agnostic and protocols can be compared across fabrics:

* :class:`Torus2D` — wrapping 2D grid, dimension-order (X then Y)
  routing taking the shorter wrap direction per dimension.
* :class:`Mesh2D` — the same grid without wrap links: edge nodes have
  fewer neighbours, center links congest first, and average distance
  grows from ~(w+h)/4 to ~(w+h)/3.
* :class:`FullyConnected` — a dedicated link per ordered node pair
  (every unicast is one hop), the idealized fabric that isolates
  protocol effects from routing effects.

Multicast trees merge the per-destination unicast paths, walked in the
dense next-hop table of :class:`RoutingTables`, yielding the classic
"row then column" fan-out tree on grids where every tree edge carries
the message exactly once.

Topologies register themselves by name in :data:`TOPOLOGIES`;
:func:`make_topology` is how :class:`~repro.core.system.System` (via
``SystemConfig.topology``) and the CLI instantiate one.  It hands out
one shared instance per fabric shape, so a process builds each shape's
:class:`RoutingTables` once, however many runs it simulates.
"""

from __future__ import annotations

import functools
from typing import (Callable, Dict, List, NamedTuple, Optional, Sequence,
                    Tuple)

Coord = Tuple[int, int]
Link = Tuple[int, int]  # (from_node, to_node), directed


class Topology:
    """Base class: the routing protocol every fabric implements.

    Subclasses define ``num_nodes``, :meth:`next_hop` and :meth:`links`;
    the generic :meth:`route`, :meth:`hop_count`,
    :meth:`average_hop_count` and :meth:`multicast_tree` are derived
    from those (subclasses override them where closed forms exist).

    A topology is never changed after construction: every network built
    on it shares its :attr:`routing`.
    """

    num_nodes: int
    _routing: Optional["RoutingTables"] = None

    # ------------------------------------------------------------------
    def _check(self, node: int) -> None:
        if not 0 <= node < self.num_nodes:
            raise ValueError(
                f"node {node} outside topology of {self.num_nodes}")

    def next_hop(self, node: int, dest: int) -> int:
        """The neighbour ``node`` forwards to on the way to ``dest``."""
        raise NotImplementedError

    def links(self) -> List[Link]:
        """All directed links of the fabric."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    def route(self, src: int, dest: int) -> List[int]:
        """Full path ``[src, ..., dest]`` under the routing function."""
        self._check(src)
        self._check(dest)
        path = [src]
        node = src
        while node != dest:
            node = self.next_hop(node, dest)
            path.append(node)
        return path

    def hop_count(self, src: int, dest: int) -> int:
        return len(self.route(src, dest)) - 1

    def average_hop_count(self) -> float:
        """Mean hops between distinct node pairs (uniform traffic)."""
        if self.num_nodes == 1:
            return 0.0
        total = sum(self.hop_count(src, dest)
                    for src in range(self.num_nodes)
                    for dest in range(self.num_nodes))
        return total / (self.num_nodes * (self.num_nodes - 1))

    @classmethod
    def mean_hops_estimate(cls, width: int, height: int) -> float:
        """Cheap closed-form distance estimate used to derive the
        per-hop latency from a target end-to-end latency (see
        ``SystemConfig.hop_latency``)."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    def multicast_tree(self, src: int,
                       dests: Sequence[int]) -> Dict[int, List[int]]:
        """Fan-out tree: node -> children, merging unicast paths.

        Every edge appears once no matter how many destinations lie past
        it, modelling the paper's bandwidth-efficient fan-out multicast.
        The paths are walked in :attr:`routing`'s dense next-hop table,
        so they are the :meth:`route` paths without per-hop routing
        arithmetic.
        """
        self._check(src)
        next_hop = self.routing.next_hop
        children: Dict[int, List[int]] = {}
        in_tree = {src}
        for dest in dests:
            if dest == src:
                continue
            self._check(dest)
            node = src
            while node != dest:
                child = next_hop[node][dest]
                if child not in in_tree:
                    children.setdefault(node, []).append(child)
                    in_tree.add(child)
                node = child
        return children

    @staticmethod
    def tree_edge_count(children: Dict[int, List[int]]) -> int:
        return sum(len(kids) for kids in children.values())

    # ------------------------------------------------------------------
    @property
    def routing(self) -> "RoutingTables":
        """This fabric's routing tables, built on first use and shared
        by every network on this topology from then on."""
        routing = self._routing
        if routing is None:
            routing = self._routing = RoutingTables(self)
        return routing


#: Multicast trees each :class:`RoutingTables` keeps, per node of its
#: fabric.  The tables live as long as the process, so the memo meets
#: every destination set that any run multicasts to; the cap bounds it
#: while leaving room for every source's broadcast tree (the hot set of
#: PATCH-All and TokenB) plus three sharer-set trees per node.  The
#: most one measured cell used was 53 trees at 16 cores, 3.3 per node.
TREES_PER_NODE = 4


class RoutingTables:
    """Dense routing tables for one topology, built once per process.

    The per-hop routing functions above are pure: ``next_hop`` depends
    only on ``(node, dest)`` and ``multicast_tree`` only on
    ``(src, dests)``.  The switched network used to re-evaluate them on
    every hop of every message — coordinate arithmetic and dict probes
    in the hottest loop of the simulator.  This class pins them down
    instead:

    * :attr:`next_hop` — ``next_hop[node][dest]`` is the neighbour
      ``node`` forwards to on the way to ``dest`` (``node`` itself on
      the diagonal), an N x N list-of-lists filled eagerly from the
      topology's routing function, so forwarding is two list indexes.
    * :attr:`multicast_tree` — ``topology.multicast_tree(src, dests)``
      memoized per ``(src, dests)``, least recently used first out once
      :attr:`tree_cap` trees are held.  The base builder merges paths
      walked in :attr:`next_hop`.  ``dests`` must be a tuple (it
      keys the memo); destination order matters to tree construction,
      so the key preserves it.  Coherence protocols multicast to a
      small set of recurring destination sets (broadcast-to-all,
      predicted sharers), so after warm-up every multicast is one memo
      hit.

    Tables are *derived from* the topology's own methods, never
    reimplemented, so they are exact by construction — including
    subclass overrides like :class:`FullyConnected`'s star trees.
    Networks in one process share one instance per topology (see
    :attr:`Topology.routing`), possibly from several threads: nobody
    mutates a table or a returned tree, and the memo is a
    :func:`functools.lru_cache`, which stays coherent under concurrent
    calls and holds no lock that a forked pool worker could inherit
    while another thread holds it.
    """

    __slots__ = ("topology", "num_nodes", "next_hop", "tree_cap",
                 "multicast_tree")

    def __init__(self, topology: Topology) -> None:
        self.topology = topology
        n = topology.num_nodes
        self.num_nodes = n
        hop = topology.next_hop
        self.next_hop: List[List[int]] = [
            [hop(node, dest) if dest != node else node for dest in range(n)]
            for node in range(n)
        ]
        self.tree_cap = TREES_PER_NODE * n
        self.multicast_tree = functools.lru_cache(maxsize=self.tree_cap)(
            topology.multicast_tree)


class _Grid2D(Topology):
    """Shared geometry for ``width`` x ``height`` grids, row-major."""

    def __init__(self, width: int, height: int) -> None:
        if width < 1 or height < 1:
            raise ValueError("grid dimensions must be positive")
        self.width = width
        self.height = height
        self.num_nodes = width * height

    @classmethod
    def from_dims(cls, num_nodes: int, dims: Tuple[int, int]) -> "_Grid2D":
        width, height = dims
        if width * height != num_nodes:
            raise ValueError(f"{cls.__name__} {width}x{height} does not "
                             f"match {num_nodes} nodes")
        return cls(width, height)

    def coord(self, node: int) -> Coord:
        self._check(node)
        return (node % self.width, node // self.width)

    def node_at(self, x: int, y: int) -> int:
        return (y % self.height) * self.width + (x % self.width)


class Torus2D(_Grid2D):
    """A wrapping ``width`` x ``height`` torus (the paper's fabric).

    Dimension-order (X then Y) routing takes the shorter wrap direction
    in each dimension; ties (exactly half way around a ring) go in the
    positive direction.  Every node has four outgoing links (rings of
    width or height <= 2 deduplicate the two directions).
    """

    # ------------------------------------------------------------------
    def _step(self, position: int, target: int, size: int) -> int:
        """One hop along a ring of ``size`` taking the shorter direction."""
        if position == target:
            return position
        forward = (target - position) % size
        backward = (position - target) % size
        return (position + 1) % size if forward <= backward else (position - 1) % size

    def next_hop(self, node: int, dest: int) -> int:
        """Dimension-order (X then Y) next hop from ``node`` toward ``dest``."""
        self._check(node)
        self._check(dest)
        x, y = self.coord(node)
        dx, dy = self.coord(dest)
        if x != dx:
            return self.node_at(self._step(x, dx, self.width), y)
        if y != dy:
            return self.node_at(x, self._step(y, dy, self.height))
        return node

    def hop_count(self, src: int, dest: int) -> int:
        x, y = self.coord(src)
        dx, dy = self.coord(dest)
        ring = lambda a, b, size: min((b - a) % size, (a - b) % size)
        return ring(x, dx, self.width) + ring(y, dy, self.height)

    def average_hop_count(self) -> float:
        if self.num_nodes == 1:
            return 0.0
        total = sum(self.hop_count(0, d) for d in range(self.num_nodes))
        return total * self.num_nodes / (self.num_nodes * (self.num_nodes - 1))

    @classmethod
    def mean_hops_estimate(cls, width: int, height: int) -> float:
        # Ring mean distance is ~size/4, one ring per dimension.
        return max(1.0, width / 4.0 + height / 4.0)

    # ------------------------------------------------------------------
    def links(self) -> List[Link]:
        """All directed links (4 per node on a real torus; rings of width
        or height <= 2 deduplicate the two directions)."""
        seen = set()
        result: List[Link] = []
        for node in range(self.num_nodes):
            x, y = self.coord(node)
            for nx, ny in ((x + 1, y), (x - 1, y), (x, y + 1), (x, y - 1)):
                neighbor = self.node_at(nx, ny)
                if neighbor == node:
                    continue
                link = (node, neighbor)
                if link not in seen:
                    seen.add(link)
                    result.append(link)
        return result


class Mesh2D(_Grid2D):
    """A non-wrapping ``width`` x ``height`` mesh.

    Same dimension-order (X then Y) routing as :class:`Torus2D` but with
    no wrap links: each hop moves one step straight toward the target
    coordinate, corner nodes have two neighbours, and worst-case
    distance doubles versus the torus.  The cheaper physical layout is
    what real chips often build; comparing against :class:`Torus2D`
    shows how much each protocol's traffic pattern suffers from the
    longer, more congested center paths.
    """

    def next_hop(self, node: int, dest: int) -> int:
        self._check(node)
        self._check(dest)
        x, y = self.coord(node)
        dx, dy = self.coord(dest)
        if x != dx:
            return self.node_at(x + (1 if dx > x else -1), y)
        if y != dy:
            return self.node_at(x, y + (1 if dy > y else -1))
        return node

    def hop_count(self, src: int, dest: int) -> int:
        x, y = self.coord(src)
        dx, dy = self.coord(dest)
        return abs(dx - x) + abs(dy - y)

    def average_hop_count(self) -> float:
        if self.num_nodes == 1:
            return 0.0
        # Sum over ordered pairs of |i-j| on a line of n points is
        # (n-1)n(n+1)/3; Manhattan distance separates per dimension.
        line_sum = lambda n: (n - 1) * n * (n + 1) // 3
        total = (self.height ** 2 * line_sum(self.width)
                 + self.width ** 2 * line_sum(self.height))
        return total / (self.num_nodes * (self.num_nodes - 1))

    @classmethod
    def mean_hops_estimate(cls, width: int, height: int) -> float:
        # Line mean distance is ~size/3, one line per dimension.
        return max(1.0, width / 3.0 + height / 3.0)

    def links(self) -> List[Link]:
        result: List[Link] = []
        for node in range(self.num_nodes):
            x, y = self.coord(node)
            for nx, ny in ((x + 1, y), (x - 1, y), (x, y + 1), (x, y - 1)):
                if not (0 <= nx < self.width and 0 <= ny < self.height):
                    continue
                result.append((node, self.node_at(nx, ny)))
        return result


class FullyConnected(Topology):
    """A dedicated directed link between every ordered node pair.

    Every unicast is exactly one hop and a multicast is a one-level star
    from the source, so end-to-end latency is uniform and there is no
    intermediate-link contention — the idealized fabric that isolates
    protocol-level effects (indirection, broadcast cost, token races)
    from routing and congestion effects.  Broadcast still pays per-link
    serialization at the source, so TokenB's O(N) fan-out stays visible.
    """

    def __init__(self, num_nodes: int) -> None:
        if num_nodes < 1:
            raise ValueError("need at least one node")
        self.num_nodes = num_nodes

    @classmethod
    def from_dims(cls, num_nodes: int,
                  dims: Tuple[int, int]) -> "FullyConnected":
        return cls(num_nodes)

    def next_hop(self, node: int, dest: int) -> int:
        self._check(node)
        self._check(dest)
        return dest

    def hop_count(self, src: int, dest: int) -> int:
        self._check(src)
        self._check(dest)
        return 0 if src == dest else 1

    def average_hop_count(self) -> float:
        return 0.0 if self.num_nodes == 1 else 1.0

    @classmethod
    def mean_hops_estimate(cls, width: int, height: int) -> float:
        return 1.0

    def links(self) -> List[Link]:
        return [(src, dest) for src in range(self.num_nodes)
                for dest in range(self.num_nodes) if src != dest]

    def multicast_tree(self, src: int,
                       dests: Sequence[int]) -> Dict[int, List[int]]:
        children = [d for d in dests if d != src]
        return {src: children} if children else {}


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------

class TopologySpec(NamedTuple):
    """One selectable fabric: how to build it and what it models."""

    name: str
    cls: type
    factory: Callable[[int, Tuple[int, int]], Topology]
    description: str


#: Name -> spec for every selectable topology (``SystemConfig.topology``),
#: in registration (presentation) order.
TOPOLOGIES: Dict[str, TopologySpec] = {}


def register_topology(name: str, description: str):
    """Class decorator adding a topology to :data:`TOPOLOGIES`.

    The decorated class gains a ``topology_name`` attribute (the
    registry round-trip: name -> class -> name) and must be buildable
    from ``(num_nodes, (width, height))`` via ``from_dims``.
    """
    def decorate(cls):
        if name in TOPOLOGIES:
            raise ValueError(f"topology {name!r} already registered")
        cls.topology_name = name
        TOPOLOGIES[name] = TopologySpec(name, cls, cls.from_dims,
                                        description)
        return cls
    return decorate


register_topology(
    "torus", "wrapping 2D grid, dimension-order routing (paper default)",
)(Torus2D)
register_topology(
    "mesh", "non-wrapping 2D grid: cheaper layout, longer center paths",
)(Mesh2D)
register_topology(
    "fully-connected", "one link per node pair: contention-free ideal",
)(FullyConnected)


def topology_names() -> Tuple[str, ...]:
    """All registered topology names, sorted."""
    return tuple(sorted(TOPOLOGIES))


def make_topology(name: str, num_nodes: int,
                  dims: Tuple[int, int]) -> Topology:
    """The registered topology for ``num_nodes`` nodes.

    ``dims`` gives the grid shape for grid fabrics (derived from
    ``SystemConfig.torus_dims``); non-grid fabrics ignore it.  Equal
    arguments return the same shared instance, and with it the same
    :class:`RoutingTables`, for as long as it stays among the
    :data:`SHARED_TOPOLOGIES` most recently used shapes.
    """
    return _shared_topology(name, num_nodes, tuple(dims))


#: Fabric shapes :func:`make_topology` keeps built.  A process meets a
#: handful (one per core count and fabric it simulates); the cap only
#: bounds a long-lived service fed arbitrary shapes.
SHARED_TOPOLOGIES = 32


@functools.lru_cache(maxsize=SHARED_TOPOLOGIES)
def _shared_topology(name: str, num_nodes: int,
                     dims: Tuple[int, int]) -> Topology:
    try:
        spec = TOPOLOGIES[name]
    except KeyError:
        raise ValueError(f"unknown topology {name!r}; "
                         f"choose from {topology_names()}") from None
    return spec.factory(num_nodes, dims)


def mean_hops_estimate(name: str, dims: Tuple[int, int]) -> float:
    """Distance estimate for ``SystemConfig.hop_latency`` (no build)."""
    try:
        spec = TOPOLOGIES[name]
    except KeyError:
        raise ValueError(f"unknown topology {name!r}; "
                         f"choose from {topology_names()}") from None
    return spec.cls.mean_hops_estimate(*dims)
