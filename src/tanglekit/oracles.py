"""Independent brute-force reference implementations.

Everything here is deliberately naive: full subset sweeps, backtracking over
orientation choices, and exhaustive cubic-tree enumeration.  The point is to
validate the clever algorithms on desk-size instances, so these routines
refuse anything large instead of trying to be fast.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import partial
from typing import Dict, List, Optional, Sequence, Tuple

from .connectivity import (
    ConnectivityOracle,
    Graph,
    GroundSet,
    cut_rank_fn,
    edge_boundary_fn,
    matroid_connectivity_fn,
)
from .decomposition import PartialDecomposition, branch_decomposition_from_leaf_sets
from .emit import _subtree_codes, canonical_root, directed_labels, tree_labels
from .errors import SizeGuardError, StructuralError
from .separations import box_min, kappa_min
from .tangles import ExplicitTangle


def _low_order_pairs(oracle: ConnectivityOracle, order: int) -> List[Tuple[int, int]]:
    full = oracle.ground.full_mask
    get = oracle.value_getter()
    pairs = []
    for x in range(full + 1):
        xbar = full & ~x
        if x < xbar and get(x) < order:
            pairs.append((get(x), x))
    pairs.sort()
    return [(x, full & ~x) for _, x in pairs]


def brute_force_tangles(
    oracle: ConnectivityOracle,
    order: int,
    max_ground: int = 10,
    max_pairs: int = 4096,
) -> List[ExplicitTangle]:
    """All tangles of exactly the given order, by orientation backtracking.

    Each complementary pair of low-order sets gets a "big side"; empty and
    singleton sides are banned outright and any committed pair or triple with
    empty intersection prunes the branch.
    """
    n = oracle.ground.n
    if n > max_ground:
        raise SizeGuardError(f"brute-force tangle search is capped at {max_ground} elements")
    pairs = _low_order_pairs(oracle, order)
    if len(pairs) > max_pairs:
        raise SizeGuardError(f"too many low-order separations ({len(pairs)} pairs)")

    results: List[ExplicitTangle] = []
    committed: List[int] = []

    def allowed(side: int) -> bool:
        if side.bit_count() <= 1:
            return False
        for a in committed:
            if a & side == 0:
                return False
        for i, a in enumerate(committed):
            for b in committed[i + 1 :]:
                if a & b & side == 0:
                    return False
        return True

    def search(idx: int) -> None:
        if idx == len(pairs):
            results.append(ExplicitTangle(order, frozenset(committed)))
            return
        for side in pairs[idx]:
            if allowed(side):
                committed.append(side)
                search(idx + 1)
                committed.pop()

    search(0)
    return results


# ---------------------------------------------------------------------------
# Branch width by exhaustive cubic-tree enumeration.


def _cubic_trees(n_leaves: int):
    """All cubic trees with labeled leaves 0..n-1, as edge lists.

    Grown by subdividing every edge with each next leaf in turn; this yields
    every labeled shape exactly once.
    """
    if n_leaves == 2:
        yield [(0, 1)]
        return

    def extend(edges: List[Tuple[int, int]], next_leaf: int, next_inner: int):
        if next_leaf == n_leaves:
            yield edges
            return
        for i, (a, b) in enumerate(edges):
            new_edges = edges[:i] + edges[i + 1 :]
            new_edges += [(a, next_inner), (next_inner, b), (next_inner, next_leaf)]
            yield from extend(new_edges, next_leaf + 1, next_inner + 1)

    yield from extend([(0, 1)], 2, n_leaves)


def _tree_widths(oracle: ConnectivityOracle, edges: List[Tuple[int, int]]) -> int:
    adj: Dict[int, List[int]] = {}
    for a, b in edges:
        adj.setdefault(a, []).append(b)
        adj.setdefault(b, []).append(a)

    memo: Dict[Tuple[int, int], int] = {}

    def leaf_mask(s: int, t: int) -> int:
        got = memo.get((s, t))
        if got is not None:
            return got
        if len(adj[t]) == 1:
            value = 1 << t
        else:
            value = 0
            for u in adj[t]:
                if u != s:
                    value |= leaf_mask(t, u)
        memo[(s, t)] = value
        return value

    best = 0
    for a, b in edges:
        best = max(best, oracle.evaluate(leaf_mask(a, b)))
    return best


def brute_force_branch_decomposition(
    oracle: ConnectivityOracle, max_ground: int = 7
) -> Tuple[int, PartialDecomposition]:
    """Exhaustive minimum-width branch decomposition (singleton leaf sets)."""
    n = oracle.ground.n
    if n > max_ground:
        raise SizeGuardError(f"exhaustive branch width is capped at {max_ground} elements")
    ground = oracle.ground
    if n == 1:
        pd = PartialDecomposition(ground, {0: ()}, {})
        return 0, pd
    best = None
    best_edges = None
    for edges in _cubic_trees(n):
        w = _tree_widths(oracle, edges)
        if best is None or w < best:
            best, best_edges = w, edges
    adj: Dict[int, List[int]] = {}
    for a, b in best_edges:
        adj.setdefault(a, []).append(b)
        adj.setdefault(b, []).append(a)
    adj_t = {t: tuple(sorted(u)) for t, u in adj.items()}
    leaf_sets = {t: 1 << t for t in adj_t if len(adj_t[t]) == 1}
    pd = branch_decomposition_from_leaf_sets(ground, adj_t, leaf_sets)
    return best, pd


def brute_force_branch_width(oracle: ConnectivityOracle, max_ground: int = 7) -> int:
    return brute_force_branch_decomposition(oracle, max_ground)[0]


# ---------------------------------------------------------------------------
# Leftmost separations and lattices by full sweep.


def brute_force_leftmost_in_box(oracle: ConnectivityOracle, lo: int, hi: int) -> int:
    """Intersection of all minimum-order sets in the box; asserts the
    intersection is itself a minimizer (a consequence of submodularity)."""
    get = oracle.value_getter()
    free = hi & ~lo
    best = None
    minimizers = []
    sub = free
    while True:
        z = lo | sub
        v = get(z)
        if best is None or v < best:
            best = v
            minimizers = [z]
        elif v == best:
            minimizers.append(z)
        if sub == 0:
            break
        sub = (sub - 1) & free
    meet = hi
    for z in minimizers:
        meet &= z
    if get(meet) != best:
        raise StructuralError("intersection of minimizers is not a minimizer")
    return meet


def brute_force_leftmost_separation(oracle: ConnectivityOracle, x: int, y: int) -> int:
    return brute_force_leftmost_in_box(oracle, x, oracle.ground.complement(y))


def brute_force_leftmost_tangle_separation(
    oracle: ConnectivityOracle, t1: ExplicitTangle, t2: ExplicitTangle
) -> Optional[int]:
    """Leftmost minimum separation between explicit tangles; None if none."""
    full = oracle.ground.full_mask
    get = oracle.value_getter()
    seps = [z for z in t1.members if (full & ~z) in t2.members]
    if not seps:
        return None
    best = min(get(z) for z in seps)
    minimizers = [z for z in seps if get(z) == best]
    meet = full
    for z in minimizers:
        meet &= z
    if meet not in minimizers:
        raise StructuralError("leftmost tangle separation is not among the minimizers")
    return meet


def brute_force_lattice(oracle: ConnectivityOracle, b1: int, b2: int) -> List[int]:
    """All members of L(b1, b2) by definition (free-set checks per candidate)."""
    full = oracle.ground.full_mask
    out = []
    free = full & ~(b1 | b2)
    sub = free
    while True:
        z = b1 | sub
        zbar = full & ~z
        ok = (
            kappa_min(oracle, b1, zbar).value == oracle.evaluate(z)
            and b1.bit_count() <= oracle.evaluate(z)
            and kappa_min(oracle, b2, z).value == oracle.evaluate(zbar)
            and b2.bit_count() <= oracle.evaluate(zbar)
        )
        if ok:
            out.append(z)
        if sub == 0:
            break
        sub = (sub - 1) & free
    return sorted(out)


# ---------------------------------------------------------------------------
# Canonicity harness.


def permuted_oracle(oracle: ConnectivityOracle, perm: Sequence[int]) -> ConnectivityOracle:
    """The relabeled function kappa'(X) = kappa(perm^{-1}(X)).

    A box minimizer of the source is conjugated through the relabeling: the
    box is pulled back, and the source's triple pushed forward.
    """
    n = oracle.ground.n
    inverse = _invert(perm)
    labels = oracle.ground.labels
    if labels is not None:
        labels = [labels[i] for i in inverse]
    image = ConnectivityOracle(
        GroundSet(n, labels=labels),
        lambda x: oracle.evaluate(apply_perm(x, inverse)),
        name=f"{oracle.name}'",
    )
    if oracle.minimizer is not None:
        def minimizer(_, lo: int, hi: int):
            value, left, right = box_min(oracle, apply_perm(lo, inverse), apply_perm(hi, inverse))
            return value, apply_perm(left, perm), apply_perm(right, perm)

        image.minimizer = minimizer
    return image


def apply_perm(mask: int, perm: Sequence[int]) -> int:
    out = 0
    for i, p in enumerate(perm):
        if mask >> i & 1:
            out |= 1 << p
    return out


def decomposition_code(ttd, perm: Optional[Sequence[int]] = None) -> tuple:
    """Isomorphism-invariant code of (tree, bags, tangle orders), with bags
    optionally pushed through a permutation first."""
    mask_map = (lambda x: x) if perm is None else partial(apply_perm, perm=perm)
    root, code = canonical_root(ttd.td.adj, tree_labels(ttd, mask_map))
    return code(root, None)


def directed_code(dtd, perm: Optional[Sequence[int]] = None) -> tuple:
    """Isomorphism-invariant code of (rooted tree, cones, tangle orders), with
    cones optionally pushed through a permutation first."""
    mask_map = (lambda x: x) if perm is None else partial(apply_perm, perm=perm)
    return _subtree_codes(dtd.children, directed_labels(dtd, mask_map))(dtd.root, None)


@dataclass
class CanonicityReport:
    trials: int
    failures: List[str]
    notes: List[str]

    @property
    def ok(self) -> bool:
        return not self.failures


def canonicity_harness(
    oracle: ConnectivityOracle,
    order: int,
    trials: int = 20,
    seed: int = 0,
    directed_root: Optional[int] = None,
) -> CanonicityReport:
    """Random relabeling trials: the canonical decomposition of the relabeled
    function must be the relabeled canonical decomposition.

    Tangle-structure indices are allowed to drift under relabeling (the
    structure is not canonical); any drift is noted, not failed.
    """
    from .decomposition import canonical_decomposition, directed_decomposition, maximal_indices
    from .tangle_ds import build_structure

    rng = random.Random(seed)
    n = oracle.ground.n
    reference = canonical_decomposition(oracle, order)
    ds = build_structure(oracle, order)
    failures: List[str] = []
    notes: List[str] = []

    ref_directed = None
    if directed_root is not None:
        ref_directed = directed_decomposition(oracle, order, directed_root)

    for trial in range(trials):
        perm = list(range(n))
        rng.shuffle(perm)
        relabeled = permuted_oracle(oracle, perm)
        image = canonical_decomposition(relabeled, order)
        if decomposition_code(image) != decomposition_code(reference, perm):
            failures.append(f"trial {trial}: canonical decompositions differ under relabeling")
            continue
        perm_ds = build_structure(relabeled, order)
        if maximal_indices(perm_ds, order) != maximal_indices(ds, order):
            notes.append(f"trial {trial}: structure indices drifted under relabeling")
        if ref_directed is not None:
            root_tangle = ds.tangle(directed_root)
            image_root = perm_ds.find(
                root_tangle.order,
                lambda x: root_tangle.member(apply_perm(x, _invert(perm))),
            )
            image_directed = directed_decomposition(relabeled, order, image_root)
            if directed_code(image_directed) != directed_code(ref_directed, perm):
                failures.append(f"trial {trial}: directed decompositions differ under relabeling")
    return CanonicityReport(trials, failures, notes)


def _invert(perm: Sequence[int]) -> List[int]:
    out = [0] * len(perm)
    for i, p in enumerate(perm):
        out[p] = i
    return out


# ---------------------------------------------------------------------------
# Random desk-scale instances.


def random_instances(
    seed: int, count: int, max_ground: int = 8
) -> List[Tuple[str, ConnectivityOracle]]:
    """Seeded random instances: sparse graphs under edge-boundary and
    cut-rank, plus small binary matroids.  Instance names carry the seed."""
    rng = random.Random(seed)
    out: List[Tuple[str, ConnectivityOracle]] = []
    attempts = 0
    while len(out) < count and attempts < count * 50:
        attempts += 1
        kind = rng.choice(("edge", "rank", "matroid"))
        if kind == "matroid":
            rows = rng.randrange(1, 4)
            cols = rng.randrange(2, 7)
            matrix = [rng.randrange(1, 1 << cols) for _ in range(rows)]
            oracle = matroid_connectivity_fn(matrix, cols)
            out.append((f"matroid:{seed}:{attempts}", oracle))
            continue
        n = rng.randrange(3, 7)
        p = rng.choice((0.3, 0.5, 0.7))
        edges = [
            (u, v)
            for u in range(n)
            for v in range(u + 1, n)
            if rng.random() < p
        ]
        if kind == "edge":
            if not 2 <= len(edges) <= max_ground:
                continue
            graph = Graph.from_edges(n, edges)
            out.append((f"edge:{seed}:{attempts}", edge_boundary_fn(graph)))
        else:
            if not edges:
                continue
            graph = Graph.from_edges(n, edges)
            out.append((f"rank:{seed}:{attempts}", cut_rank_fn(graph)))
    return out
