"""Max-flow box minimizer for the graph connectivity functions.

For the vertex cut and the edge boundary of a graph, the minimum of kappa
over a box lo <= Z <= hi is a minimum cut between the sources lo and the
sinks complement(hi) in a small network whose first n nodes are the ground
elements:

  * vertex cut: each graph edge gives two opposite arcs of capacity 1;
  * edge boundary (Menger, by vertex splitting): each graph vertex v gives
    an arc v_in -> v_out of capacity 1, and each edge element e with
    endpoint v gives unbounded arcs e -> v_in and v_out -> e.

One max flow then gives the value and both extreme minimizers
(Picard-Queyranne 1980): the leftmost is the set of elements reachable from
the sources in the residual network, the rightmost the complement of the
set that can reach the sinks.  Every source-sink path crosses an arc of
capacity 1, so each augmenting path carries one unit and the value is the
number of augmentations.

A FlowNetwork is the ``oracle.minimizer`` of the oracles built by
``connectivity.vertex_cut_fn`` and ``connectivity.edge_boundary_fn``.  It
answers every box with one max flow and never evaluates kappa, so the
exhaustive scan's FREE_LIMIT does not bind these oracles.
"""

from __future__ import annotations

from typing import Iterable, Sequence, Tuple

# Capacity of the edge-boundary incidence arcs: more than any cut can cost.
UNBOUNDED = 1 << 30


class FlowNetwork:
    """A network on nodes 0..size-1 whose nodes 0..n-1 are the ground
    elements, with residual capacities kept per ordered node pair.

    The network itself is never changed after construction: each solve
    works on its own copy of the residual state, so concurrent solves are
    safe.
    """

    __slots__ = ("n", "size", "res", "out", "inn")

    def __init__(self, n: int, size: int, arcs: Iterable[Tuple[int, int, int]]):
        self.n = n
        self.size = size
        self.res: dict = {}  # u * size + v -> residual capacity of u -> v
        self.out = [0] * size  # out[u]: mask of v with residual u -> v
        self.inn = [0] * size  # inn[v]: mask of u with residual u -> v
        for u, v, cap in arcs:
            key = u * size + v
            self.res[key] = self.res.get(key, 0) + cap
            self.res.setdefault(v * size + u, 0)
            self.out[u] |= 1 << v
            self.inn[v] |= 1 << u

    def __call__(self, oracle, lo: int, hi: int):
        """The ``oracle.minimizer`` hook: (value, leftmost, rightmost)."""
        return self.min_cut(lo, hi)

    def min_cut(self, lo: int, hi: int) -> Tuple[int, int, int]:
        """(min kappa(Z), leftmost, rightmost) over lo <= Z <= hi, by max
        flow from lo to the elements outside hi; lo must lie inside hi."""
        size = self.size
        full = (1 << self.n) - 1
        sinks = full & ~hi
        res = self.res.copy()
        out = self.out[:]
        inn = self.inn[:]
        value = 0
        while True:
            # Breadth-first search in layers from every source at once.
            layers = [lo]
            reach = frontier = lo
            hit = 0
            while frontier:
                nxt = 0
                while frontier:
                    low = frontier & -frontier
                    nxt |= out[low.bit_length() - 1]
                    frontier ^= low
                frontier = nxt & ~reach
                hit = frontier & sinks
                if hit:
                    break
                reach |= frontier
                layers.append(frontier)
            if not hit:
                break
            # Push one unit back along the layers to the first sink reached.
            value += 1
            v = (hit & -hit).bit_length() - 1
            for layer in reversed(layers):
                pred = layer & inn[v]
                u = (pred & -pred).bit_length() - 1
                key = u * size + v
                res[key] -= 1
                if not res[key]:
                    out[u] &= ~(1 << v)
                    inn[v] &= ~(1 << u)
                res[v * size + u] += 1
                out[v] |= 1 << u
                inn[u] |= 1 << v
                v = u
        back = frontier = sinks
        while frontier:
            nxt = 0
            while frontier:
                low = frontier & -frontier
                nxt |= inn[low.bit_length() - 1]
                frontier ^= low
            frontier = nxt & ~back
            back |= frontier
        return value, reach & full, full & ~back


def vertex_cut_network(n: int, edges: Iterable[Tuple[int, int]]) -> FlowNetwork:
    """The network of the vertex cut function of a graph on vertices 0..n-1."""
    arcs = []
    for u, v in edges:
        arcs += [(u, v, 1), (v, u, 1)]
    return FlowNetwork(n, n, arcs)


def edge_boundary_network(n: int, edges: Sequence[Tuple[int, int]]) -> FlowNetwork:
    """The network of the edge boundary function of a graph on vertices
    0..n-1; edge i is ground element i, and vertex v splits into nodes
    m + 2v (in) and m + 2v + 1 (out)."""
    m = len(edges)
    arcs = [(m + 2 * v, m + 2 * v + 1, 1) for v in range(n)]
    for e, ends in enumerate(edges):
        for v in ends:
            arcs += [(e, m + 2 * v, UNBOUNDED), (m + 2 * v + 1, e, UNBOUNDED)]
    return FlowNetwork(m, m + 2 * n, arcs)
