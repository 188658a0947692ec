"""Undirected network topologies for the balancing protocols.

Builds the standard graph families (complete, cycle, path, 2-D torus, open
grid, hypercube) and explicit edge lists, exposing the combinatorial
quantities the spectral bounds need: degrees, the per-edge degree maximum,
the diameter, and a brute-force isoperimetric number for small graphs.
Family graphs also carry their algebraic connectivity lambda2 in closed form;
explicit graphs leave it to the eigensolver in `spectral`. A graph also
holds its directed edges as arrays (`GraphTopology.edge_arrays`, built on
first use), the form the round kernel in `protocol` reads.

Node identifiers are dense integers 0..n-1 with a canonical ordering per
family (row-major for torus/grid, binary labels for the hypercube) so that
seeded runs are reproducible. Only connected graphs are accepted: the whole
analysis requires a positive algebraic connectivity.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .errors import ConfigError, DisconnectedGraphError

FAMILIES = ("complete", "cycle", "path", "torus2d", "grid2d", "hypercube", "explicit")

#: Largest node count for which the isoperimetric number is brute-forced.
ISO_BRUTE_FORCE_CAP = 14


class EdgeArrays(NamedTuple):
    """A graph's directed edges as arrays, grouped by source node."""

    src: np.ndarray      # directed edge source, grouped by node
    dst: np.ndarray
    dij: np.ndarray      # max(deg(src), deg(dst)) per directed edge
    deg: np.ndarray
    # (d, nodes of degree d ascending, their out-edges as a (nodes, d) block),
    # by ascending d
    groups: tuple[tuple[int, np.ndarray, np.ndarray], ...]

    def tile(self, rows: int) -> "EdgeArrays":
        """The arrays of `rows` disjoint copies of the graph, copy t's nodes
        and edges offset by t*n and t*|src|: a stack's flat state is then one
        graph's state."""
        node_off = len(self.deg) * np.arange(rows)[:, None]
        edge_off = len(self.src) * np.arange(rows)[:, None]
        groups = tuple((d, (nodes + node_off).ravel(),
                        (edges + edge_off[:, :, None]).reshape(-1, d))
                       for d, nodes, edges in self.groups)
        return EdgeArrays((self.src + node_off).ravel(), (self.dst + node_off).ravel(),
                          np.tile(self.dij, rows), np.tile(self.deg, rows), groups)


@dataclass(frozen=True)
class GraphTopology:
    """Immutable connected undirected graph (no self-loops, no multi-edges)."""

    node_count: int
    edges: tuple[tuple[int, int], ...]        # canonical (u, v) with u < v
    neighbors: tuple[tuple[int, ...], ...]    # sorted adjacency lists
    degrees: tuple[int, ...]
    max_degree: int
    # Closed-form diameter and algebraic connectivity of a family graph, None
    # for explicit graphs. Derived from the edges, so they take no part in
    # equality.
    closed_diameter: int | None = field(default=None, compare=False)
    lambda2: float | None = field(default=None, compare=False)

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    @cached_property
    def diameter(self) -> int:
        """The closed form, or for an explicit graph the largest BFS distance
        from any node, found on first read: O(n*(n + m)), so a graph that is
        only built, or refused later, never pays it."""
        if self.closed_diameter is not None:
            return self.closed_diameter
        return max(max(bfs_distances(self.neighbors, s)) for s in range(self.node_count))

    def directed_edges(self):
        """Yield both orientations of every edge."""
        for u, v in self.edges:
            yield u, v
            yield v, u

    @cached_property
    def edge_arrays(self) -> EdgeArrays:
        """Both orientations of every edge, grouped by source node in
        `neighbors` order, with the per-edge d_ij and the degree classes."""
        deg = np.array(self.degrees, dtype=np.int64)
        src = np.repeat(np.arange(self.node_count, dtype=np.int64), deg)
        dst = np.array([j for nbrs in self.neighbors for j in nbrs], dtype=np.int64)
        first = np.cumsum(deg) - deg     # node i's out-edges start at first[i]
        groups = []
        for d in sorted(set(self.degrees)):
            nodes = np.flatnonzero(deg == d)
            groups.append((d, nodes, first[nodes, None] + np.arange(d)))
        return EdgeArrays(src, dst, np.maximum(deg[src], deg[dst]), deg,
                          tuple(groups))


def bfs_distances(neighbors: tuple[tuple[int, ...], ...], source: int) -> list[int]:
    """Shortest-path hop counts from `source` over adjacency lists (-1 marks unreachable)."""
    dist = [-1] * len(neighbors)
    dist[source] = 0
    queue = deque([source])
    while queue:
        u = queue.popleft()
        for v in neighbors[u]:
            if dist[v] < 0:
                dist[v] = dist[u] + 1
                queue.append(v)
    return dist


def _build(n: int, edge_set: set[tuple[int, int]], diameter: int | None,
           lambda2: float | None = None) -> GraphTopology:
    if n < 2:
        raise ConfigError(f"graph needs at least 2 nodes, got {n}")
    # Checked before anything of size n is built, so a huge n with few edges
    # fails at once.
    if len(edge_set) < n - 1:
        raise DisconnectedGraphError(
            f"graph is not connected: {n} nodes need at least {n - 1} edges, "
            f"got {len(edge_set)}")
    edges = tuple(sorted(edge_set))
    adj: list[list[int]] = [[] for _ in range(n)]
    for u, v in edges:
        if not (0 <= u < n and 0 <= v < n):
            raise ConfigError(f"edge ({u}, {v}) out of range for n={n}")
        if u == v:
            raise ConfigError(f"self-loop at node {u}")
        adj[u].append(v)
        adj[v].append(u)
    neighbors = tuple(tuple(sorted(a)) for a in adj)
    degrees = tuple(len(a) for a in neighbors)
    if min(degrees) == 0:
        raise DisconnectedGraphError("graph has an isolated node")

    # One BFS checks connectivity; an explicit graph's diameter waits for its
    # first read (`GraphTopology.diameter`).
    dist = bfs_distances(neighbors, 0)
    if min(dist) < 0:
        raise DisconnectedGraphError(
            f"graph is not connected (node {dist.index(-1)} unreachable from 0)"
        )
    return GraphTopology(
        node_count=n,
        edges=edges,
        neighbors=neighbors,
        degrees=degrees,
        max_degree=max(degrees),
        closed_diameter=diameter,
        lambda2=lambda2,
    )


def make_graph(family: str, *, n: int | None = None, rows: int | None = None,
               cols: int | None = None, dim: int | None = None,
               edges=None) -> GraphTopology:
    """Construct a standard family graph or wrap an explicit edge list.

    Families: complete(n), cycle(n>=3), path(n>=2), torus2d(rows, cols, both >=2),
    grid2d(rows, cols), hypercube(dim>=1), explicit(n, edges).
    Family generators set the closed-form diameter and lambda2; explicit graphs
    get a BFS diameter, computed when first read, and no lambda2.
    """
    if family == "complete":
        _need(n is not None and n >= 2, f"complete graph needs n >= 2, got {n}")
        es = {(u, v) for u in range(n) for v in range(u + 1, n)}
        return _build(n, es, diameter=1, lambda2=float(n))
    if family == "cycle":
        _need(n is not None and n >= 3, f"cycle needs n >= 3, got {n}")
        es = {tuple(sorted((u, (u + 1) % n))) for u in range(n)}
        return _build(n, es, diameter=n // 2, lambda2=_cycle_lambda2(n))
    if family == "path":
        _need(n is not None and n >= 2, f"path needs n >= 2, got {n}")
        es = {(u, u + 1) for u in range(n - 1)}
        return _build(n, es, diameter=n - 1, lambda2=_path_lambda2(n))
    if family in ("torus2d", "grid2d"):
        _need(rows is not None and cols is not None and rows >= 2 and cols >= 2,
              f"{family} needs rows >= 2 and cols >= 2, got {rows}x{cols}")
        wrap = family == "torus2d"
        es: set[tuple[int, int]] = set()
        for r in range(rows):
            for c in range(cols):
                u = r * cols + c
                if wrap or r + 1 < rows:
                    es.add(tuple(sorted((u, ((r + 1) % rows) * cols + c))))
                if wrap or c + 1 < cols:
                    es.add(tuple(sorted((u, r * cols + (c + 1) % cols))))
        diam = rows // 2 + cols // 2 if wrap else (rows - 1) + (cols - 1)
        # A Cartesian product's Laplacian spectrum is the set of sums of its
        # factors' eigenvalues, so lambda2 is the smaller factor lambda2.
        factor = _cycle_lambda2 if wrap else _path_lambda2
        return _build(rows * cols, es, diameter=diam,
                      lambda2=min(factor(rows), factor(cols)))
    if family == "hypercube":
        _need(dim is not None and dim >= 1, f"hypercube needs dim >= 1, got {dim}")
        size = 1 << dim
        es = {tuple(sorted((u, u ^ (1 << b)))) for u in range(size) for b in range(dim)}
        return _build(size, es, diameter=dim, lambda2=2.0)
    if family == "explicit":
        _need(n is not None and edges is not None, "explicit graph needs n and edges")
        es = set()
        for u, v in edges:
            if u == v:
                raise ConfigError(f"self-loop at node {u}")
            es.add(tuple(sorted((int(u), int(v)))))
        return _build(n, es, diameter=None)
    raise ConfigError(f"unknown graph family {family!r} (expected one of {FAMILIES})")


def _cycle_lambda2(k: int) -> float:
    """lambda2 of the k-cycle, 2 - 2cos(2pi/k); a torus side of 2 is K2 (lambda2 2)."""
    return 2.0 if k == 2 else 4.0 * math.sin(math.pi / k) ** 2


def _path_lambda2(k: int) -> float:
    """lambda2 of the k-node path, 2 - 2cos(pi/k)."""
    return 4.0 * math.sin(math.pi / (2 * k)) ** 2


def _need(cond: bool, message: str) -> None:
    if not cond:
        raise ConfigError(message)


def parse_edge_list(text: str) -> GraphTopology:
    """Parse the plain-text edge-list format: first line n, then 'u v' lines."""
    lines = [ln.strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
    if not lines:
        raise ConfigError("empty edge-list input")
    try:
        n = int(lines[0])
    except ValueError as exc:
        raise ConfigError(f"edge list must start with the node count, got {lines[0]!r}") from exc
    edges = []
    for ln in lines[1:]:
        try:
            u, v = map(int, ln.split())
        except ValueError as exc:
            raise ConfigError(f"malformed edge line {ln!r} (expected 'u v'): {exc}") from exc
        edges.append((u, v))
    return make_graph("explicit", n=n, edges=edges)


def load_edge_list(path) -> GraphTopology:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read edge list {path}: {exc}") from exc
    return parse_edge_list(text)


def isoperimetric_number(g: GraphTopology) -> Fraction:
    """Brute-force i(G) = min over nonempty S, |S| <= n/2, of |boundary(S)| / |S|.

    Enumerates all subsets, so it is limited to n <= ISO_BRUTE_FORCE_CAP nodes;
    larger graphs are rejected and callers should fall back to bound-check-only
    mode.
    """
    n = g.node_count
    if n > ISO_BRUTE_FORCE_CAP:
        raise ConfigError(
            f"isoperimetric brute force capped at n <= {ISO_BRUTE_FORCE_CAP} (got n={n}); "
            "use bound-check-only mode for larger graphs"
        )
    half = n // 2
    best: Fraction | None = None
    edge_masks = [(1 << u) | (1 << v) for u, v in g.edges]
    for mask in range(1, 1 << n):
        size = mask.bit_count()
        if size > half:
            continue
        boundary = 0
        for em in edge_masks:
            inside = (em & mask).bit_count()
            if inside == 1:
                boundary += 1
        ratio = Fraction(boundary, size)
        if best is None or ratio < best:
            best = ratio
    assert best is not None
    return best
