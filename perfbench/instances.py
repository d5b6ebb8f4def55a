"""Benchmark instances: families, seeded relabelings, FORMATS.md files.

Everything here is independent of tanglekit.  An instance is generated in
its base labeling, relabeled from a seed, and written as a FORMATS.md text
file; the program only ever sees those files.  The module also carries the
benchmark's own kappa implementations, used for the reference computations
that check the program's outputs.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple


# ---------------------------------------------------------------------------
# Base instances.


def _triangles(tris: Sequence[Tuple[int, int, int]]) -> List[Tuple[int, int]]:
    return [e for (a, b, c) in tris for e in ((a, b), (a, c), (b, c))]


def grid3_edges() -> Tuple[int, List[Tuple[int, int]]]:
    edges = []
    for r in range(3):
        for c in range(3):
            v = 3 * r + c
            if c < 2:
                edges.append((v, v + 1))
            if r < 2:
                edges.append((v, v + 3))
    return 9, edges


def chain_k4_edges(blocks: int = 4) -> Tuple[int, List[Tuple[int, int]]]:
    """K4 blocks on vertices 4b..4b+3, consecutive blocks joined by one edge."""
    edges = []
    for b in range(blocks):
        vs = range(4 * b, 4 * b + 4)
        edges += [(u, v) for u in vs for v in vs if u < v]
        if b + 1 < blocks:
            edges.append((4 * b + 3, 4 * b + 4))
    return 4 * blocks, edges


def two_c5_edges() -> Tuple[int, List[Tuple[int, int]]]:
    edges = [(i, (i + 1) % 5) for i in range(5)]
    edges += [(5 + i, 5 + (i + 1) % 5) for i in range(5)]
    edges.append((0, 5))
    return 10, edges


# M(K4) as [I3 | A]: columns e1, e2, e3, e1+e2, e1+e3, e2+e3.
MK4_ROWS = ("100110", "010101", "001011")


def two_block_matroid_rows() -> List[str]:
    """M(K4) (+) M(K4): a 6 x 12 block-diagonal binary matrix."""
    return [r + "0" * 6 for r in MK4_ROWS] + ["0" * 6 + r for r in MK4_ROWS]


@dataclass(frozen=True)
class Family:
    """One instance family in its base labeling."""

    name: str
    fn: str  # edge-boundary | vertex-cut | cut-rank | matroid
    order: int  # the order the workloads decompose at
    n_vertices: int = 0
    edges: Tuple[Tuple[int, int], ...] = ()
    rows: Tuple[str, ...] = ()

    @property
    def is_matrix(self) -> bool:
        return bool(self.rows)


def _graph_family(name, fn, order, graph) -> Family:
    n, edges = graph
    return Family(name, fn, order, n_vertices=n, edges=tuple(edges))


FAMILIES = {
    "grid3": _graph_family("grid3", "edge-boundary", 3, grid3_edges()),
    "chain4k4": _graph_family("chain4k4", "vertex-cut", 3, chain_k4_edges()),
    "triforce": _graph_family(
        "triforce", "edge-boundary", 2, (7, _triangles([(0, 1, 2), (0, 3, 4), (0, 5, 6)]))
    ),
    "flower4": _graph_family(
        "flower4", "edge-boundary", 2,
        (9, _triangles([(0, 1, 2), (0, 3, 4), (0, 5, 6), (0, 7, 8)])),
    ),
    "strip4": _graph_family(
        "strip4", "edge-boundary", 2,
        (9, _triangles([(0, 1, 2), (2, 3, 4), (4, 5, 6), (6, 7, 8)])),
    ),
    "c5c5": _graph_family("c5c5", "cut-rank", 2, two_c5_edges()),
    "mk4x2": Family("mk4x2", "matroid", 2, rows=tuple(two_block_matroid_rows())),
}

WORKLOAD_FAMILIES = {
    "grid-fixpoint": ("grid3",),
    "chain16-bases": ("chain4k4",),
    "petals-serve": ("triforce", "flower4", "strip4", "c5c5", "mk4x2"),
}

# Relabelings per instance in a run.  The first goes through the pipeline;
# queries are asked on all of them.  A petals-serve structure's query cost
# depends on its labeling by up to half, so its query phase averages three.
LABELINGS = {"grid-fixpoint": 1, "chain16-bases": 1, "petals-serve": 3}


# ---------------------------------------------------------------------------
# Relabeled instances.


@dataclass
class Instance:
    """A family under one relabeling, as the program will read it.

    ``perm[e]`` is the ground-set id, in this instance, of element ``e`` of
    the family's base labeling.
    """

    family: Family
    path: str
    n: int
    perm: List[int]
    edges: List[Tuple[int, int]]  # relabeled graph edges, sorted (graphs)
    n_vertices: int
    columns: List[int]  # relabeled column vectors as row masks (matrices)

    @property
    def fn(self) -> str:
        return self.family.fn

    @property
    def order(self) -> int:
        return self.family.order


def _sorted_edges(edges) -> List[Tuple[int, int]]:
    return sorted({(min(u, v), max(u, v)) for u, v in edges})


def relabel(family: Family, rng: Optional[random.Random], directory: str,
            name: Optional[str] = None) -> Instance:
    """Draw a relabeling from ``rng`` and write the instance file
    ``<name>.txt``; without ``rng`` the file keeps the base labeling."""
    shuffle = rng.shuffle if rng is not None else (lambda items: None)
    path = os.path.join(directory, f"{name or family.name}.txt")
    if family.is_matrix:
        rows = [list(r) for r in family.rows]
        cols = len(rows[0])
        colperm = list(range(cols))
        shuffle(colperm)  # base column j goes to column colperm[j]
        shuffle(rows)
        out_rows = []
        for r in rows:
            new = ["0"] * cols
            for j, ch in enumerate(r):
                new[colperm[j]] = ch
            out_rows.append("".join(new))
        text = f"matrix {len(out_rows)} {cols}\n" + "".join(f"{r}\n" for r in out_rows)
        columns = [0] * cols
        for i, r in enumerate(out_rows):
            for j, ch in enumerate(r):
                if ch == "1":
                    columns[j] |= 1 << i
        inst = Instance(family, path, cols, colperm, [], 0, columns)
    else:
        n = family.n_vertices
        vperm = list(range(n))
        shuffle(vperm)
        lines = []
        for u, v in family.edges:
            a, b = vperm[u], vperm[v]
            if rng is not None and rng.random() < 0.5:
                a, b = b, a
            lines.append(f"{a} {b}")
        shuffle(lines)
        text = f"graph {n} {len(lines)}\n" + "".join(f"{line}\n" for line in lines)
        new_edges = _sorted_edges((vperm[u], vperm[v]) for u, v in family.edges)
        if family.fn == "edge-boundary":
            # Edge ids are positions in the sorted edge list (FORMATS.md).
            index = {e: i for i, e in enumerate(new_edges)}
            perm = [
                index[(min(vperm[u], vperm[v]), max(vperm[u], vperm[v]))]
                for u, v in _sorted_edges(family.edges)
            ]
            size = len(new_edges)
        else:
            perm = vperm
            size = n
        inst = Instance(family, path, size, perm, new_edges, n, [])
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(f"# {family.name}, {family.fn}\n")
        handle.write(text)
    return inst


def invert(perm: Sequence[int]) -> List[int]:
    out = [0] * len(perm)
    for i, p in enumerate(perm):
        out[p] = i
    return out


# ---------------------------------------------------------------------------
# The benchmark's own kappa implementations.


def _rank(vectors) -> int:
    basis: List[int] = []
    for v in vectors:
        for b in basis:
            v = min(v, v ^ b)
        if v:
            basis.append(v)
    return len(basis)


def reference_kappa(inst: Instance) -> Callable[[int], int]:
    """kappa of the relabeled instance, written apart from tanglekit."""
    full = (1 << inst.n) - 1
    fn = inst.fn
    if fn == "edge-boundary":
        incident = [0] * inst.n_vertices
        for i, (u, v) in enumerate(inst.edges):
            incident[u] |= 1 << i
            incident[v] |= 1 << i

        def kappa(x: int) -> int:
            rest = full & ~x
            return sum(1 for inc in incident if inc & x and inc & rest)

    elif fn == "vertex-cut":
        edges = inst.edges

        def kappa(x: int) -> int:
            return sum(1 for u, v in edges if (x >> u & 1) != (x >> v & 1))

    elif fn == "cut-rank":
        nbrs = [0] * inst.n_vertices
        for u, v in inst.edges:
            nbrs[u] |= 1 << v
            nbrs[v] |= 1 << u

        def kappa(x: int) -> int:
            rest = full & ~x
            return _rank(nbrs[v] & rest for v in range(inst.n) if x >> v & 1)

    else:
        cols = inst.columns

        def r(x: int) -> int:
            return _rank(cols[j] for j in range(inst.n) if x >> j & 1)

        total = r(full)

        def kappa(x: int) -> int:
            return r(x) + r(full & ~x) - total

    return kappa


def low_order_sets(inst: Instance, kappa: Callable[[int], int], below: int) -> List[List[int]]:
    """``out[q]``: every subset of order exactly q, for q < below."""
    out: List[List[int]] = [[] for _ in range(below)]
    for x in range(1 << inst.n):
        v = kappa(x)
        if v < below:
            out[v].append(x)
    return out


def caterpillar_width(kappa: Callable[[int], int], order: Sequence[int]) -> int:
    """Width of the caterpillar branch decomposition along ``order``.

    Its edges display every singleton and every prefix of the order, so the
    width is the largest kappa among those sets; any branch decomposition's
    width bounds the largest tangle order from above.
    """
    width = 0
    prefix = 0
    for e in order:
        prefix |= 1 << e
        width = max(width, kappa(1 << e), kappa(prefix))
    return width


def best_caterpillar_width(inst: Instance, kappa: Callable[[int], int]) -> Tuple[int, List[int]]:
    """The narrowest greedy caterpillar: from every start element, append
    the element that keeps the prefix's kappa least.  Returns (width, order)."""
    n = inst.n
    best: Optional[Tuple[int, List[int]]] = None
    for start in range(n):
        order = [start]
        prefix = 1 << start
        while len(order) < n:
            rest = [e for e in range(n) if not prefix >> e & 1]
            e = min(rest, key=lambda e: (kappa(prefix | 1 << e), e))
            order.append(e)
            prefix |= 1 << e
        w = caterpillar_width(kappa, order)
        if best is None or w < best[0]:
            best = (w, order)
    return best
