"""Mesh2D, FullyConnected, and the topology registry."""

import itertools
import random
import sys
import threading

import pytest
from hypothesis import given, strategies as st

from repro.config import SystemConfig
from repro.core.system import System
from repro.interconnect.network import SwitchedNetwork
from repro.interconnect.topology import (TOPOLOGIES, FullyConnected, Mesh2D,
                                         Torus2D, make_topology,
                                         mean_hops_estimate, topology_names)
from repro.sim.kernel import Simulator
from repro.workloads.presets import make_workload


# ---------------------------------------------------------------------------
# Mesh2D: dimension-order routing with no wrap links
# ---------------------------------------------------------------------------

def test_mesh_route_is_dimension_order_x_first():
    mesh = Mesh2D(4, 4)
    path = mesh.route(0, 10)  # (0,0) -> (2,2)
    coords = [mesh.coord(n) for n in path]
    assert coords == [(0, 0), (1, 0), (2, 0), (2, 1), (2, 2)]


def test_mesh_never_wraps():
    mesh = Mesh2D(8, 1)
    # 0 -> 6 must walk 6 hops forward; the torus would wrap in 2.
    assert mesh.hop_count(0, 6) == 6
    assert Torus2D(8, 1).hop_count(0, 6) == 2
    for src, dst in ((0, 7), (7, 0)):
        path = mesh.route(src, dst)
        assert len(path) - 1 == 7


def test_mesh_hop_count_is_manhattan_distance():
    mesh = Mesh2D(4, 3)
    for src in range(12):
        for dst in range(12):
            x, y = mesh.coord(src)
            dx, dy = mesh.coord(dst)
            assert mesh.hop_count(src, dst) == abs(dx - x) + abs(dy - y)
            assert mesh.hop_count(src, dst) == len(mesh.route(src, dst)) - 1


def test_mesh_links_exclude_wrap_edges():
    mesh = Mesh2D(4, 4)
    # 2 * w * (h-1) + 2 * h * (w-1) directed links on a mesh.
    assert len(mesh.links()) == 2 * 4 * 3 + 2 * 4 * 3
    links = set(mesh.links())
    assert (0, 3) not in links       # no X wrap
    assert (0, 12) not in links      # no Y wrap
    assert (0, 1) in links and (1, 0) in links


def test_mesh_average_hop_count_closed_form_matches_enumeration():
    for width, height in ((4, 4), (3, 5), (1, 6)):
        mesh = Mesh2D(width, height)
        n = mesh.num_nodes
        brute = sum(mesh.hop_count(s, d)
                    for s in range(n) for d in range(n)) / (n * (n - 1))
        assert mesh.average_hop_count() == pytest.approx(brute)
    # Mesh paths are never shorter than torus paths on the same grid.
    assert Mesh2D(4, 4).average_hop_count() >= Torus2D(4, 4).average_hop_count()


@given(st.integers(min_value=1, max_value=6),
       st.integers(min_value=1, max_value=6), st.data())
def test_mesh_next_hop_always_progresses(width, height, data):
    mesh = Mesh2D(width, height)
    src = data.draw(st.integers(min_value=0, max_value=mesh.num_nodes - 1))
    dst = data.draw(st.integers(min_value=0, max_value=mesh.num_nodes - 1))
    node = src
    steps = 0
    while node != dst:
        nxt = mesh.next_hop(node, dst)
        assert mesh.hop_count(nxt, dst) == mesh.hop_count(node, dst) - 1
        node = nxt
        steps += 1
        assert steps <= width + height


def test_mesh_multicast_tree_spans_destinations():
    mesh = Mesh2D(4, 4)
    dests = [3, 12, 15]
    tree = mesh.multicast_tree(0, dests)
    reached = {0}
    frontier = [0]
    while frontier:
        node = frontier.pop()
        for child in tree.get(node, ()):
            assert child not in reached
            reached.add(child)
            frontier.append(child)
    assert set(dests) <= reached


# ---------------------------------------------------------------------------
# FullyConnected: one hop everywhere
# ---------------------------------------------------------------------------

def test_fully_connected_is_single_hop():
    fc = FullyConnected(9)
    for src in range(9):
        for dst in range(9):
            expected = 0 if src == dst else 1
            assert fc.hop_count(src, dst) == expected
            assert fc.route(src, dst) == ([src] if src == dst
                                          else [src, dst])
    assert fc.average_hop_count() == 1.0


def test_fully_connected_has_a_link_per_ordered_pair():
    fc = FullyConnected(6)
    links = fc.links()
    assert len(links) == 6 * 5
    assert len(set(links)) == len(links)


def test_fully_connected_multicast_is_a_star():
    fc = FullyConnected(8)
    tree = fc.multicast_tree(2, [0, 2, 5, 7])
    assert tree == {2: [0, 5, 7]}
    assert fc.tree_edge_count(tree) == 3
    assert fc.multicast_tree(2, [2]) == {}


def test_fully_connected_rejects_bad_nodes():
    fc = FullyConnected(4)
    with pytest.raises(ValueError):
        fc.next_hop(0, 4)
    with pytest.raises(ValueError):
        FullyConnected(0)


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------

def test_registry_names_and_round_trip():
    assert topology_names() == ("fully-connected", "mesh", "torus")
    for name, cls in (("torus", Torus2D), ("mesh", Mesh2D),
                      ("fully-connected", FullyConnected)):
        assert cls.topology_name == name
        built = make_topology(name, 16, (4, 4))
        assert isinstance(built, cls)
        assert built.num_nodes == 16
        assert TOPOLOGIES[name].description


def test_make_topology_validates_grid_dims():
    with pytest.raises(ValueError):
        make_topology("mesh", 16, (5, 4))
    with pytest.raises(ValueError):
        make_topology("torus", 16, (5, 4))
    # Fully connected ignores the grid shape.
    assert make_topology("fully-connected", 7, (7, 1)).num_nodes == 7


def test_unknown_topology_rejected():
    with pytest.raises(ValueError, match="unknown topology"):
        make_topology("hypercube", 16, (4, 4))
    with pytest.raises(ValueError, match="unknown topology"):
        mean_hops_estimate("hypercube", (4, 4))


def test_mean_hops_estimates_order_sensibly():
    # On the same grid: fully-connected < torus < mesh expected distance.
    assert mean_hops_estimate("fully-connected", (4, 4)) == 1.0
    assert (mean_hops_estimate("fully-connected", (4, 4))
            < mean_hops_estimate("torus", (4, 4))
            < mean_hops_estimate("mesh", (4, 4)))


# ---------------------------------------------------------------------------
# Precomputed routing tables
# ---------------------------------------------------------------------------

def _all_topologies():
    return [make_topology("torus", 16, (4, 4)),
            make_topology("mesh", 16, (4, 4)),
            make_topology("fully-connected", 16, (4, 4))]


def test_routing_tables_match_per_hop_routing_exactly():
    """The dense next-hop table must agree with the topology's own
    routing function on every (node, dest) pair — the switched network
    routes from the table alone."""
    for topology in _all_topologies():
        tables = topology.routing
        n = topology.num_nodes
        for node in range(n):
            for dest in range(n):
                expected = (node if dest == node
                            else topology.next_hop(node, dest))
                assert tables.next_hop[node][dest] == expected, (
                    type(topology).__name__, node, dest)


def _merged_route_tree(topology, src, dests):
    """The multicast tree by definition: the :meth:`route` paths to
    every destination, each edge kept the first time it reaches a node
    not yet in the tree."""
    children, in_tree = {}, {src}
    for dest in dests:
        if dest == src:
            continue
        path = topology.route(src, dest)
        for parent, child in zip(path, path[1:]):
            if child not in in_tree:
                children.setdefault(parent, []).append(child)
                in_tree.add(child)
    return children


@pytest.mark.parametrize("name", topology_names())
@pytest.mark.parametrize("dims", [(4, 4), (8, 2), (5, 3)],
                         ids=lambda dims: f"{dims[0]}x{dims[1]}")
def test_table_built_trees_match_merged_route_paths(name, dims):
    """Trees walked in the dense next-hop table equal the merged
    ``route()`` paths on every registered fabric: each source's
    broadcast tree, and random destination sets in random order."""
    n = dims[0] * dims[1]
    topology = TOPOLOGIES[name].factory(n, dims)
    rng = random.Random(f"{name}-{dims}")
    queries = [(src, tuple(d for d in range(n) if d != src))
               for src in range(n)]
    queries += [(rng.randrange(n), tuple(rng.sample(range(n),
                                                    rng.randint(1, n))))
                for _ in range(100)]
    for src, dests in queries:
        expected = _merged_route_tree(topology, src, dests)
        assert topology.multicast_tree(src, dests) == expected
        assert topology.routing.multicast_tree(src, dests) == expected


def test_multicast_tree_rejects_nodes_outside_the_fabric():
    torus = Torus2D(4, 4)
    for src, dests in ((16, [1]), (0, [3, 16]), (0, [-1])):
        with pytest.raises(ValueError, match="outside topology"):
            torus.multicast_tree(src, dests)


def test_routing_tables_memoize_multicast_trees(monkeypatch):
    for topology in _all_topologies():
        tables = topology.routing
        dests = (3, 7, 12)
        first = tables.multicast_tree(0, dests)
        assert first == topology.multicast_tree(0, dests)
        # Same key returns the cached object, not a rebuild.
        assert tables.multicast_tree(0, dests) is first
        # Destination order is part of the key (it shapes the tree).
        reordered = tables.multicast_tree(0, (12, 7, 3))
        assert reordered is not first

    # One fabric shape, one set of tables for every network in the
    # process; another shape or fabric gets its own.
    torus = make_topology("torus", 16, (4, 4))
    networks = [SwitchedNetwork(Simulator(),
                                make_topology("torus", 16, (4, 4)),
                                bandwidth=16, hop_latency=2)
                for _ in range(2)]
    assert networks[0].routing is networks[1].routing is torus.routing
    for other in (make_topology("torus", 16, (8, 2)),
                  make_topology("mesh", 16, (4, 4))):
        assert other.routing is not torus.routing

    # Runs read shared trees and never change them: every tree they
    # asked for is still memoized and still equals a fresh build.
    memo = torus.routing.multicast_tree
    asked = set()
    monkeypatch.setattr(torus.routing, "multicast_tree",
                        lambda src, dests: asked.add((src, dests))
                        or memo(src, dests))
    for protocol, predictor in (("patch", "all"), ("directory", "none")):
        config = SystemConfig(num_cores=16, protocol=protocol,
                              predictor=predictor)
        system = System(config, make_workload("microbench", num_cores=16,
                                              seed=3), 20)
        system.run()
        assert system.network.routing is torus.routing
    monkeypatch.undo()
    assert len(asked) >= 16  # at least every source's broadcast tree
    hits = memo.cache_info().hits
    for src, dests in asked:
        assert memo(src, dests) == torus.multicast_tree(src, dests)
    assert memo.cache_info().hits == hits + len(asked)

    # The memo holds at most ``tree_cap`` trees, and past that it still
    # answers every query right.
    tables = Torus2D(4, 4).routing
    pairs = list(itertools.combinations(range(1, 16), 2))
    assert len(pairs) > tables.tree_cap
    for dests in pairs:
        assert tables.multicast_tree(0, dests) == Torus2D(4, 4).multicast_tree(
            0, dests)
    assert tables.multicast_tree.cache_info().currsize == tables.tree_cap


def test_shared_routing_tables_stay_bounded_and_exact_across_threads():
    """Runs in several threads of one process share the memo."""
    tables = Torus2D(4, 4).routing
    dest_sets = [dests for size in (2, 3)
                 for dests in itertools.combinations(range(16), size)]
    errors = []

    def worker(seed):
        rng = random.Random(seed)
        try:
            for _ in range(1500):
                src = rng.randrange(16)
                dests = rng.choice(dest_sets)
                if tables.multicast_tree(src, dests) != \
                        tables.topology.multicast_tree(src, dests):
                    errors.append((src, dests))
                if tables.multicast_tree.cache_info().currsize > \
                        tables.tree_cap:
                    errors.append("over cap")
        except Exception as exc:  # noqa: BLE001 - reported below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(seed,))
                   for seed in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    assert tables.multicast_tree.cache_info().currsize == tables.tree_cap


def test_routing_tables_respect_subclass_tree_overrides():
    fc = make_topology("fully-connected", 8, (8, 1))
    tables = fc.routing
    assert tables.multicast_tree(2, (0, 5, 7)) == {2: [0, 5, 7]}
