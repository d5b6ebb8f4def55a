"""Shared fixtures: the standard desk-scale instances.

TRIFORCE: three triangles glued at one hub vertex, edge boundary, |U| = 9.
P3:       path on three vertices, edge boundary, |U| = 2.
K4:       complete graph on four vertices, edge boundary, |U| = 6.
GRID3:    3x3 grid, edge boundary, |U| = 12.
C5RANK:   five-cycle under GF(2) cut rank, |U| = 5.
"""

import pytest

from tanglekit import Graph, cut_rank_fn, edge_boundary_fn, matroid_connectivity_fn, vertex_cut_fn
from tanglekit.decomposition import branch_decomposition_from_leaf_sets
from tanglekit.oracles import _cubic_trees

TRIFORCE_EDGES = [(0, 1), (0, 2), (1, 2), (0, 3), (0, 4), (3, 4), (0, 5), (0, 6), (5, 6)]


def triforce_graph():
    return Graph.from_edges(7, TRIFORCE_EDGES)


def grid3_graph():
    edges = []
    for r in range(3):
        for c in range(3):
            v = 3 * r + c
            if c < 2:
                edges.append((v, v + 1))
            if r < 2:
                edges.append((v, v + 3))
    return Graph.from_edges(9, edges)


def chain_k4_vertex_cut(blocks):
    """K4 blocks on vertices 4b..4b+3, consecutive blocks joined by one edge."""
    edges = []
    for b in range(blocks):
        vs = range(4 * b, 4 * b + 4)
        edges += [(u, v) for u in vs for v in vs if u < v]
        if b + 1 < blocks:
            edges.append((4 * b + 3, 4 * b + 4))
    return vertex_cut_fn(Graph.from_edges(4 * blocks, edges))


def two_c5_cut_rank():
    """Two five-cycles joined by one edge, under GF(2) cut rank, |U| = 10:
    two incomparable order-2 tangles, one per cycle."""
    edges = [(i, (i + 1) % 5) for i in range(5)] + [(5 + i, 5 + (i + 1) % 5) for i in range(5)]
    return cut_rank_fn(Graph.from_edges(10, edges + [(0, 5)]))


K4_EDGES = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]


def k4_cycle_matroid(copies):
    """The direct sum of ``copies`` cycle matroids M(K4), from the
    vertex-edge incidence rows of disjoint K4s over GF(2)."""
    rows = []
    for c in range(copies):
        block = [0] * 4
        for j, (u, v) in enumerate(K4_EDGES):
            block[u] |= 1 << (6 * c + j)
            block[v] |= 1 << (6 * c + j)
        rows += block
    return matroid_connectivity_fn(rows, 6 * copies)


def edge_mask(graph, pairs):
    index = {e: i for i, e in enumerate(graph.edges)}
    return sum(1 << index[(min(u, v), max(u, v))] for u, v in pairs)


class Triforce:
    def __init__(self):
        self.graph = triforce_graph()
        self.oracle = edge_boundary_fn(self.graph)
        self.t1 = edge_mask(self.graph, [(0, 1), (0, 2), (1, 2)])
        self.t2 = edge_mask(self.graph, [(0, 3), (0, 4), (3, 4)])
        self.t3 = edge_mask(self.graph, [(0, 5), (0, 6), (5, 6)])
        self.triangles = (self.t1, self.t2, self.t3)
        self.full = self.oracle.ground.full_mask

    def edge(self, u, v):
        return edge_mask(self.graph, [(u, v)])


@pytest.fixture(scope="session")
def triforce():
    return Triforce()


@pytest.fixture(scope="session")
def p3():
    return edge_boundary_fn(Graph.from_edges(3, [(0, 1), (1, 2)]))


@pytest.fixture(scope="session")
def k4():
    return edge_boundary_fn(
        Graph.from_edges(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
    )


@pytest.fixture(scope="session")
def grid3():
    return edge_boundary_fn(grid3_graph())


@pytest.fixture(scope="session")
def c5rank():
    return cut_rank_fn(Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)]))


def random_partial_decomposition(oracle, rng, leaves=(2, 6)):
    """An exact partial decomposition from a random leaf partition."""
    n = oracle.ground.n
    nleaves = rng.randrange(*leaves)
    parts = [0] * nleaves
    for e in range(n):
        parts[rng.randrange(nleaves)] |= 1 << e
    trees = list(_cubic_trees(nleaves))
    tree_edges = trees[rng.randrange(len(trees))]
    adj = {}
    for a, b in tree_edges:
        adj.setdefault(a, []).append(b)
        adj.setdefault(b, []).append(a)
    adj = {t: tuple(sorted(u)) for t, u in adj.items()}
    leaf_sets = {t: parts[t] for t in adj if len(adj[t]) == 1}
    return branch_decomposition_from_leaf_sets(oracle.ground, adj, leaf_sets)


def random_nonexact_decomposition(oracle, rng):
    """A valid but non-exact partial decomposition, by inflating edge labels
    within the cover allowance of the far endpoint."""
    full = oracle.ground.full_mask
    while True:
        pd = random_partial_decomposition(oracle, rng)
        for _ in range(rng.randrange(1, 4)):
            oriented = [(a, b) for a in pd.adj for b in pd.adj[a]]
            a, b = oriented[rng.randrange(len(oriented))]
            if len(pd.adj[b]) == 1:
                allowed = full & ~pd.xi[(a, b)]
            else:
                cover = 0
                for x in pd.adj[b]:
                    if x != a:
                        cover |= pd.xi[(b, x)]
                allowed = cover & ~pd.xi[(a, b)]
            extra = rng.randrange(full + 1) & allowed
            pd.xi[(a, b)] |= extra
            pd.xi[(b, a)] = full & ~pd.xi[(a, b)]
        pd.validate()
        if not pd.is_exact():
            return pd
