"""Graph construction, combinatorial quantities, and the edge-list format."""

from fractions import Fraction

import numpy as np
import pytest

from netbalance import graphs, spectral
from netbalance.cli import EXIT_CONFIG, main as cli_main
from netbalance.errors import ConfigError, DisconnectedGraphError
from netbalance.graphs import (
    GraphTopology,
    bfs_distances,
    isoperimetric_number,
    make_graph,
    parse_edge_list,
)

import helpers


def test_complete_k4():
    g = make_graph("complete", n=4)
    assert g.edge_count == 6
    assert all(d == 3 for d in g.degrees)
    assert g.diameter == 1


def test_hypercube_q3():
    g = make_graph("hypercube", dim=3)
    assert g.node_count == 8
    assert g.edge_count == 12
    assert all(d == 3 for d in g.degrees)
    assert g.diameter == 3


def test_torus_3x3():
    g = make_graph("torus2d", rows=3, cols=3)
    assert g.node_count == 9
    assert g.edge_count == 18
    assert all(d == 4 for d in g.degrees)


def test_cycle_c5():
    g = make_graph("cycle", n=5)
    assert g.edge_count == 5
    assert all(d == 2 for d in g.degrees)
    assert g.diameter == 2


@pytest.mark.parametrize("family,kwargs", [
    ("complete", {"n": 7}),
    ("cycle", {"n": 9}),
    ("path", {"n": 6}),
    ("torus2d", {"rows": 3, "cols": 4}),
    ("torus2d", {"rows": 2, "cols": 4}),
    ("grid2d", {"rows": 3, "cols": 5}),
    ("hypercube", {"dim": 4}),
])
def test_degree_sum_and_connectivity(family, kwargs):
    g = make_graph(family, **kwargs)
    assert sum(g.degrees) == 2 * g.edge_count
    assert g.max_degree == max(g.degrees)
    for start in range(g.node_count):
        assert min(bfs_distances(g.neighbors, start)) >= 0


@pytest.mark.parametrize("family,kwargs", [
    ("complete", {"n": 5}), ("complete", {"n": 12}),
    ("cycle", {"n": 6}), ("cycle", {"n": 13}),
    ("path", {"n": 9}),
    ("torus2d", {"rows": 2, "cols": 2}), ("torus2d", {"rows": 2, "cols": 5}),
    ("torus2d", {"rows": 4, "cols": 4}),
    ("grid2d", {"rows": 2, "cols": 6}),
    ("hypercube", {"dim": 2}), ("hypercube", {"dim": 5}),
])
def test_diameter_matches_bfs_oracle(family, kwargs):
    g = make_graph(family, **kwargs)
    assert g.diameter == helpers.diameter_oracle(g)


def test_diameter_closed_forms():
    for n in (4, 9, 16):
        assert make_graph("complete", n=n).diameter == 1
        assert make_graph("cycle", n=n).diameter == n // 2
    for d in (1, 2, 5):
        assert make_graph("hypercube", dim=d).diameter == d


def test_building_a_graph_makes_one_bfs(monkeypatch, tmp_path):
    # A build checks connectivity with one BFS. An explicit graph's
    # all-pairs diameter waits for its first read and is kept, so a graph
    # that the dense-solve limit refuses never pays for it.
    real, sources = graphs.bfs_distances, []

    def counted(neighbors, source):
        sources.append(source)
        return real(neighbors, source)

    monkeypatch.setattr(graphs, "bfs_distances", counted)
    for family, kwargs in (("cycle", {"n": 9}), ("torus2d", {"rows": 3, "cols": 4}),
                           ("hypercube", {"dim": 3})):
        family_graph = make_graph(family, **kwargs)
        explicit = make_graph("explicit", n=family_graph.node_count, edges=family_graph.edges)
        assert sources == [0, 0]
        assert explicit == family_graph and sources == [0, 0]
        assert explicit.diameter == family_graph.diameter == helpers.diameter_oracle(explicit)
        assert len(sources) == 2 + explicit.node_count
        assert explicit.diameter == family_graph.diameter
        assert len(sources) == 2 + explicit.node_count
        sources.clear()
    monkeypatch.setattr(spectral, "DENSE_SOLVE_MAX_NODES", 8)
    (tmp_path / "path.txt").write_text("9\n" + "".join(f"{u} {u + 1}\n" for u in range(8)))
    assert cli_main(["spectra", "--edge-list", str(tmp_path / "path.txt")]) == EXIT_CONFIG
    assert sources == [0]


def test_pair_degree():
    # d_ij = max(deg(i), deg(j)) per directed edge, as the round kernel reads it.
    def pair_degree(g, i, j):
        return int(g.edge_arrays.dij[helpers.edge_index(g, i, j)])

    k4 = make_graph("complete", n=4)
    assert pair_degree(k4, 0, 3) == 3
    path3 = make_graph("path", n=3)
    assert pair_degree(path3, 0, 1) == pair_degree(path3, 1, 0) == 2
    star = make_graph("explicit", n=4, edges=[(0, 1), (0, 2), (0, 3)])
    assert pair_degree(star, 0, 2) == pair_degree(star, 2, 0) == 3
    for g in (k4, path3, star, make_graph("grid2d", rows=2, cols=3)):
        ev = g.edge_arrays
        assert len(ev.dij) == 2 * g.edge_count
        for i, j in g.directed_edges():
            assert pair_degree(g, i, j) == max(g.degrees[i], g.degrees[j])
        # src and dst follow `neighbors`: node i's out-edges are the slice
        # between the degree sums before and through i.
        assert ev.deg.tolist() == list(g.degrees)
        ptr = np.concatenate([[0], np.cumsum(g.degrees)])
        for i in range(g.node_count):
            out = slice(ptr[i], ptr[i + 1])
            assert (ev.src[out] == i).all()
            assert tuple(ev.dst[out].tolist()) == g.neighbors[i]
        # The degree classes partition the nodes, ascending, each with the
        # (nodes, d) block of its nodes' out-edges.
        assert [d for d, _, _ in ev.groups] == sorted(set(g.degrees))
        assert sorted(np.concatenate([nodes for _, nodes, _ in ev.groups]).tolist()) == \
            list(range(g.node_count))
        for d, nodes, edges in ev.groups:
            assert (np.diff(nodes) > 0).all() and (ev.deg[nodes] == d).all()
            assert edges.shape == (len(nodes), d)
            assert (ev.src[edges] == nodes[:, None]).all()


def test_isoperimetric_examples():
    assert isoperimetric_number(make_graph("complete", n=2)) == 1
    assert isoperimetric_number(make_graph("complete", n=4)) == 2
    assert isoperimetric_number(make_graph("cycle", n=4)) == 1


@pytest.mark.parametrize("family,kwargs", [
    ("complete", {"n": 5}),
    ("cycle", {"n": 7}),
    ("path", {"n": 8}),
    ("torus2d", {"rows": 2, "cols": 4}),
    ("torus2d", {"rows": 3, "cols": 3}),
    ("hypercube", {"dim": 3}),
])
def test_isoperimetric_matches_subset_oracle(family, kwargs):
    g = make_graph(family, **kwargs)
    assert isoperimetric_number(g) == helpers.isoperimetric_oracle(g)


def test_isoperimetric_cap():
    with pytest.raises(ConfigError, match="bound-check-only"):
        isoperimetric_number(make_graph("cycle", n=20))


def test_invalid_sizes_rejected():
    with pytest.raises(ConfigError):
        make_graph("cycle", n=2)
    with pytest.raises(ConfigError):
        make_graph("torus2d", rows=1, cols=5)
    with pytest.raises(ConfigError):
        make_graph("hypercube", dim=0)
    with pytest.raises(ConfigError):
        make_graph("ladder", n=4)


def test_disconnected_explicit_rejected():
    with pytest.raises(DisconnectedGraphError):
        make_graph("explicit", n=4, edges=[(0, 1), (2, 3)])
    with pytest.raises(DisconnectedGraphError):
        make_graph("explicit", n=3, edges=[(0, 1)])


def test_too_few_edges_rejected_before_building():
    # n nodes need n - 1 distinct edges to be connected. A shorter list is
    # refused with both counts before anything of size n is built, so a huge
    # n in a two-line file fails at once. The 2*10^6 case comes first: a build
    # that allocated per node would fail there, in about a second, and never
    # reach 10^9.
    for n in (2 * 10**6, 10**9):
        with pytest.raises(DisconnectedGraphError,
                           match=f"{n} nodes need at least {n - 1} edges, got 1$"):
            parse_edge_list(f"{n}\n0 1\n1 0\n")


def test_edge_list_parsing():
    text = "4\n0 1\n1 2\n2 3\n3 0\n"
    g = parse_edge_list(text)
    assert g.node_count == 4
    assert g.edges == make_graph("cycle", n=4).edges
    with pytest.raises(ConfigError):
        parse_edge_list("not-a-count\n0 1\n")
    with pytest.raises(ConfigError):
        parse_edge_list("3\n0 1 2\n")


def test_self_loops_and_duplicates():
    with pytest.raises(ConfigError):
        make_graph("explicit", n=3, edges=[(0, 0), (0, 1), (1, 2)])
    g = make_graph("explicit", n=3, edges=[(0, 1), (1, 0), (1, 2)])
    assert g.edge_count == 2  # duplicate orientations collapse


def test_topology_is_hashable_and_immutable():
    g = make_graph("cycle", n=5)
    assert hash(g) == hash(make_graph("cycle", n=5))
    assert isinstance(g, GraphTopology)
    assert isinstance(isoperimetric_number(g), Fraction)
