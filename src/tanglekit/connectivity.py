"""Ground sets, subsets as bit masks, and connectivity-function oracles.

Conventions used throughout the library:

  * A ground set has n elements with dense ids 0..n-1 (n <= 64).
  * A subset of the ground set is a plain Python int used as a bit mask;
    element i is in the subset iff bit i is set.  Complement, intersection
    and union are single int operations.
  * A connectivity function is a symmetric, submodular kappa: 2^U -> N with
    kappa(empty) = 0.  Oracles wrap an arbitrary callable and add a call
    counter plus an optional memo table.

The built-in instances are the vertex cut function of a graph, the edge
boundary function of a graph, the GF(2) cut rank of a graph, and the
connectivity function of a binary matroid.  The vertex-cut and edge-boundary
oracles carry a max-flow box minimizer (see ``flow``), so their constrained
minima need no kappa evaluations and are not bound by the exhaustive scan's
22-bit guard; the scan serves only oracles without a minimizer: the other
two, custom kappa and contractions.  Once an oracle's memo holds every
subset, ``levels()`` groups the subsets by kappa value, and the scan walks
those groups upward instead of the box's subsets.

The cut-rank and matroid oracles do not fill that memo set by set: on the
first scan read they tabulate kappa on all 2^n subsets in one GF(2) sweep
(``gf2_rank_table``), and the flat table replaces the dict memo.  Custom
kappa and contractions keep the lazy dict memo.
"""

from __future__ import annotations

import random
import threading
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, List, Optional, Sequence, Tuple

from .errors import DomainError, SizeGuardError
from .flow import edge_boundary_network, vertex_cut_network

MAX_GROUND = 64

# Dict memo tables are kept for ground sets up to this size; above, every
# evaluation goes to the wrapped function.
MEMO_LIMIT = 24

# Exhaustive box scans refuse more free positions than this (see
# ``separations``); a dense kappa table is only filled within it.
FREE_LIMIT = 22

# verify_axioms: exhaustive up to this size, sampled up to SAMPLE_LIMIT.
EXHAUSTIVE_LIMIT = 12
SAMPLE_LIMIT = 20


def iter_bits(mask: int) -> Iterator[int]:
    """Yield the element ids of a subset mask in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def bits_list(mask: int) -> List[int]:
    return list(iter_bits(mask))


def gf2_rank(rows: Sequence[int]) -> int:
    """Rank of a 0/1 matrix over GF(2); rows are bit masks.

    Gaussian elimination with the lowest set bit as pivot, so results are
    deterministic regardless of row order internals.
    """
    basis = {}
    rank = 0
    for row in rows:
        while row:
            pivot = row & -row
            other = basis.get(pivot)
            if other is None:
                basis[pivot] = row
                rank += 1
                break
            row ^= other
    return rank


def gf2_rank_table(groups: Sequence[Sequence[int]]) -> List[int]:
    """r[X] for every subset mask X: the GF(2) rank of the vectors
    ``groups[u]`` (bit masks) over all u in X.

    One depth-first sweep reaches each set X from X minus its largest
    element.  A node carries the vectors of every later group reduced modulo
    its own span, packed side by side into one int of fixed-width fields, so
    a child's rank is its parent's plus the nonzero vectors of its own
    residual group, and one reduction step updates all later fields at once.
    """
    n = len(groups)
    width = max([v.bit_length() for g in groups for v in g] + [1])
    field = (1 << width) - 1
    sizes = [len(g) * width for g in groups]
    packed = ones = shift = 0
    for g in groups:
        for v in g:
            packed |= v << shift
            ones |= 1 << shift
            shift += width
    # pivot bit -> that bit in every field
    spread = [ones << pos for pos in range(width)]
    table = [0] * (1 << n)
    last = n - 1

    def visit(x: int, rank: int, rest: int, first: int) -> None:
        # rest: residuals of groups first..n-1, group ``first`` lowest.
        for j in range(first, n):
            size = sizes[j]
            tail = rest
            rest >>= size
            r = rank
            while size:
                v = tail & field
                tail >>= width
                size -= width
                if v:
                    # Pivot on v's lowest bit and clear it from every later field.
                    r += 1
                    pos = (v & -v).bit_length() - 1
                    tail ^= ((tail & spread[pos]) >> pos) * v
            child = x | 1 << j
            table[child] = r
            if j < last:
                visit(child, r, tail, j + 1)

    visit(0, 0, packed, 0)
    return table


class GroundSet:
    """A finite ground set with dense element ids and optional labels."""

    __slots__ = ("n", "full_mask", "labels")

    def __init__(self, n: int, labels: Optional[Sequence[str]] = None):
        if n < 1:
            raise DomainError("ground set must have at least one element")
        if n > MAX_GROUND:
            raise SizeGuardError(f"ground sets are capped at {MAX_GROUND} elements, got {n}")
        if labels is not None and len(labels) != n:
            raise DomainError("label list length must equal ground set size")
        self.n = n
        self.full_mask = (1 << n) - 1
        self.labels = list(labels) if labels is not None else None

    def complement(self, mask: int) -> int:
        return self.full_mask & ~mask

    def label(self, e: int) -> str:
        if self.labels is not None:
            return self.labels[e]
        return str(e)

    def contains_mask(self, mask: int) -> bool:
        return mask & ~self.full_mask == 0

    def __len__(self) -> int:
        return self.n

    def __repr__(self) -> str:
        return f"GroundSet(n={self.n})"


@dataclass(frozen=True)
class Graph:
    """A simple undirected graph: n vertices 0..n-1 and a sorted edge list."""

    n: int
    edges: Tuple[Tuple[int, int], ...]

    @staticmethod
    def from_edges(n: int, edges: Iterable[Tuple[int, int]]) -> "Graph":
        seen = set()
        for u, v in edges:
            if u == v:
                raise DomainError(f"loop edge {u}-{v} not allowed")
            if not (0 <= u < n and 0 <= v < n):
                raise DomainError(f"edge {u}-{v} outside vertex range 0..{n - 1}")
            seen.add((min(u, v), max(u, v)))
        return Graph(n, tuple(sorted(seen)))

    @property
    def m(self) -> int:
        return len(self.edges)

    def adjacency_masks(self) -> List[int]:
        adj = [0] * self.n
        for u, v in self.edges:
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        return adj

    def incidence_masks(self) -> List[int]:
        """For each vertex, the mask of incident edge ids."""
        inc = [0] * self.n
        for i, (u, v) in enumerate(self.edges):
            inc[u] |= 1 << i
            inc[v] |= 1 << i
        return inc


class ConnectivityOracle:
    """Evaluates a connectivity function on subset masks.

    Immutable after construction except for the call counter and memo table,
    which are guarded by a lock, so concurrent evaluation from several
    threads is safe.  The ``caches`` dict carries derived per-oracle state
    (constrained-minimum tables, enumerated bases, tangle structures); it is
    populated deterministically from the function itself.

    A builder that can compute kappa on every subset at once sets the
    ``tabulate`` hook (``() -> list`` indexed by mask).  The first scan read,
    ``value_getter()`` or ``levels()``, then fills that table, where the memo
    is on and a scan of the whole ground set is within FREE_LIMIT; the table
    replaces the dict memo, and ``calls`` grows by the subsets the memo did
    not hold, as if the scan had evaluated them one by one.
    """

    def __init__(
        self,
        ground: GroundSet,
        fn: Callable[[int], int],
        name: str = "kappa",
    ):
        self.ground = ground
        self._fn = fn
        self.name = name
        self._memo: Optional[dict] = {} if ground.n <= MEMO_LIMIT else None
        self._calls = 0
        self._lock = threading.Lock()
        self.caches: dict = {}
        self.minimizer = None  # optional pluggable constrained minimizer
        self.tabulate: Optional[Callable[[], List[int]]] = None  # optional dense kappa table
        self._table: Optional[List[int]] = None

    @property
    def calls(self) -> int:
        return self._calls

    def evaluate(self, x: int) -> int:
        """Return kappa(x), counting one oracle call unless memoized."""
        if not self.ground.contains_mask(x):
            raise DomainError("subset mask outside this oracle's ground set")
        # The table is published before the memo is dropped, so read the memo
        # first: a dropped memo means the table is there.
        memo = self._memo
        table = self._table
        if table is not None:
            return table[x]
        if memo is not None:
            v = memo.get(x)
            if v is not None:
                return v
        v = self._fn(x)
        with self._lock:
            self._calls += 1
        if memo is not None:
            memo[x] = v
        return v

    __call__ = evaluate

    def value_getter(self) -> Callable[[int], int]:
        """A fast lookup closure for inner loops (bypasses mask validation)."""
        table = self._tabulated()
        if table is not None:
            return table.__getitem__
        memo = self._memo
        fn = self._fn

        if memo is None:
            def get(x: int) -> int:
                with self._lock:
                    self._calls += 1
                return fn(x)
        else:
            def get(x: int) -> int:
                v = memo.get(x)
                if v is None:
                    v = fn(x)
                    memo[x] = v
                    with self._lock:
                        self._calls += 1
                return v
        return get

    def _tabulated(self) -> Optional[List[int]]:
        """The dense kappa table, filled here on first use if the oracle can
        have one; None otherwise.  Racing threads may each compute a table,
        but only the first one published is kept and counted."""
        if (
            self._table is None
            and self.tabulate is not None
            and self._memo is not None
            and self.ground.n <= FREE_LIMIT
        ):
            values = self.tabulate()
            with self._lock:
                if self._table is None:
                    self._calls += len(values) - len(self._memo)
                    self._table = values
                    self._memo = None
        return self._table

    def levels(self) -> Optional[List[Tuple[int, List[int]]]]:
        """Every subset of the ground set grouped by kappa value, as
        ``(value, sets)`` pairs in ascending value; None until the memo holds
        all 2^n subsets.  An oracle with a ``tabulate`` hook fills its table
        here instead of waiting for the memo.

        The groups are built once, from the table or the memo's own keys, so
        they cost no kappa evaluation.
        """
        levels = self.caches.get("levels")
        if levels is None:
            table = self._tabulated()
            if table is not None:
                items: Iterable[Tuple[int, int]] = enumerate(table)
            else:
                memo = self._memo
                if memo is None or len(memo) <= self.ground.full_mask:
                    return None
                items = memo.items()
            groups: dict = {}
            for x, v in items:
                groups.setdefault(v, []).append(x)
            levels = self.caches.setdefault("levels", sorted(groups.items()))
        return levels

    def cache(self, key: str) -> dict:
        d = self.caches.get(key)
        if d is None:
            d = self.caches.setdefault(key, {})
        return d

    def __repr__(self) -> str:
        return f"ConnectivityOracle({self.name}, n={self.ground.n})"


def normalize(ground: GroundSet, fn: Callable[[int], int], name: str = "kappa") -> ConnectivityOracle:
    """Shift a symmetric submodular function so it is 0 on the empty set.

    The shifted function kappa(X) = fn(X) - fn(empty) is nonnegative whenever
    fn is symmetric and submodular, so no clamping is needed.
    """
    base = fn(0)
    if base == 0:
        return ConnectivityOracle(ground, fn, name=name)
    return ConnectivityOracle(ground, lambda x: fn(x) - base, name=name)


def vertex_cut_fn(graph: Graph) -> ConnectivityOracle:
    """Connectivity function on V(G): number of edges crossing (X, X-bar)."""
    ground = GroundSet(graph.n)
    edges = graph.edges

    def fn(x: int) -> int:
        count = 0
        for u, v in edges:
            if ((x >> u) ^ (x >> v)) & 1:
                count += 1
        return count

    oracle = ConnectivityOracle(ground, fn, name="vertex-cut")
    oracle.minimizer = vertex_cut_network(graph.n, edges)
    return oracle


def edge_boundary_fn(graph: Graph) -> ConnectivityOracle:
    """Connectivity function on E(G): vertices incident with edges on both sides."""
    if graph.m < 1:
        raise DomainError("edge boundary function needs at least one edge")
    labels = [f"{u}-{v}" for u, v in graph.edges]
    ground = GroundSet(graph.m, labels=labels)
    incidence = graph.incidence_masks()
    full = ground.full_mask

    def fn(x: int) -> int:
        xb = full & ~x
        count = 0
        for inc in incidence:
            if inc & x and inc & xb:
                count += 1
        return count

    oracle = ConnectivityOracle(ground, fn, name="edge-boundary")
    oracle.minimizer = edge_boundary_network(graph.n, graph.edges)
    return oracle


def cut_rank_fn(graph: Graph) -> ConnectivityOracle:
    """Connectivity function on V(G): GF(2) rank of the X x X-bar adjacency matrix.

    The table uses rho(X) = r(e_v, a_v : v in X) - |X|, with e_v the unit
    vector and a_v the adjacency column of v (Oum and Seymour, 2006).
    """
    ground = GroundSet(graph.n)
    adj = graph.adjacency_masks()
    full = ground.full_mask

    def fn(x: int) -> int:
        xb = full & ~x
        rows = [adj[v] & xb for v in iter_bits(x)]
        return gf2_rank(rows)

    def table() -> List[int]:
        ranks = gf2_rank_table([(1 << v, a) for v, a in enumerate(adj)])
        return [r - x.bit_count() for x, r in enumerate(ranks)]

    oracle = ConnectivityOracle(ground, fn, name="cut-rank")
    oracle.tabulate = table
    return oracle


def matroid_connectivity_fn(matrix_rows: Sequence[int], n_cols: int) -> ConnectivityOracle:
    """Connectivity function of the binary matroid whose columns are the ground set.

    ``matrix_rows`` are bit masks over column ids.  kappa(X) = r(X) + r(X-bar) - r(E)
    with r the GF(2) rank of the selected columns.
    """
    if n_cols < 1 or not matrix_rows:
        raise DomainError("matroid matrix must be nonempty")
    # Column vectors as masks over row indices.
    cols = [0] * n_cols
    for i, row in enumerate(matrix_rows):
        for j in iter_bits(row):
            if j >= n_cols:
                raise DomainError(f"matrix row has a bit beyond {n_cols} columns")
            cols[j] |= 1 << i
    ground = GroundSet(n_cols)
    full = ground.full_mask

    def rank_of(x: int) -> int:
        return gf2_rank([cols[j] for j in iter_bits(x)])

    total = rank_of(full)

    def fn(x: int) -> int:
        return rank_of(x) + rank_of(full & ~x) - total

    def table() -> List[int]:
        # Reversed, the rank table lists r(E - X) in the order of X.
        ranks = gf2_rank_table([(c,) for c in cols])
        return [a + b - total for a, b in zip(ranks, reversed(ranks))]

    oracle = ConnectivityOracle(ground, fn, name="matroid")
    oracle.tabulate = table
    return oracle


@dataclass
class AxiomReport:
    """Outcome of verify_axioms: first violation found, or a clean pass."""

    ok: bool
    mode: str  # "exhaustive" or "sampled"
    checks: int
    seed: Optional[int] = None
    violation: Optional[str] = None
    witness: Optional[Tuple[int, ...]] = None

    def __bool__(self) -> bool:
        return self.ok


def _axiom_violation(get, full, x, y):
    """Check one (x, y) pair for submodularity and posimodularity."""
    vx, vy = get(x), get(y)
    if vx + vy < get(x & y) + get(x | y):
        return "submodularity", (x, y)
    if vx + vy < get(x & ~y) + get(y & ~x):
        return "posimodularity", (x, y)
    return None


def verify_axioms(
    oracle: ConnectivityOracle,
    exhaustive_limit: int = EXHAUSTIVE_LIMIT,
    seed: int = 0,
    samples: int = 20000,
) -> AxiomReport:
    """Check kappa(empty)=0, symmetry, submodularity and posimodularity.

    Exhaustive for n <= exhaustive_limit; random triples with a fixed,
    reported seed for larger ground sets up to SAMPLE_LIMIT; refuses above.
    """
    n = oracle.ground.n
    if n > SAMPLE_LIMIT:
        raise SizeGuardError(
            f"verify_axioms refuses ground sets above {SAMPLE_LIMIT} elements (got {n})"
        )
    get = oracle.value_getter()
    full = oracle.ground.full_mask

    if get(0) != 0:
        return AxiomReport(False, "exhaustive", 1, violation="kappa(empty) != 0", witness=(0,))

    if n <= exhaustive_limit:
        checks = 0
        for x in range(full + 1):
            if get(x) != get(full & ~x):
                return AxiomReport(False, "exhaustive", checks, violation="symmetry", witness=(x,))
        for x in range(full + 1):
            for y in range(x, full + 1):
                checks += 1
                bad = _axiom_violation(get, full, x, y)
                if bad is not None:
                    return AxiomReport(False, "exhaustive", checks, violation=bad[0], witness=bad[1])
        return AxiomReport(True, "exhaustive", checks)

    rng = random.Random(seed)
    checks = 0
    for _ in range(samples):
        x = rng.randrange(full + 1)
        y = rng.randrange(full + 1)
        checks += 1
        if get(x) != get(full & ~x):
            return AxiomReport(False, "sampled", checks, seed=seed, violation="symmetry", witness=(x,))
        bad = _axiom_violation(get, full, x, y)
        if bad is not None:
            return AxiomReport(False, "sampled", checks, seed=seed, violation=bad[0], witness=bad[1])
    return AxiomReport(True, "sampled", checks, seed=seed)
