"""Tree decompositions of connectivity functions.

Contents:

  * cubic-tree partial decompositions, their width, and the exactness
    transform (rewrite a partial decomposition into an exact one without
    raising any edge order or growing any leaf set);
  * nested, complement-closed separation families and the canonical tree
    whose edge separations realize exactly such a family;
  * the unique assignment of mutually incomparable tangles to tree nodes;
  * nested families for coherent tangle families (all of one order, sharing
    a truncation), built from leftmost minimum separations;
  * contractions of a decomposition at a node and tangle projection;
  * the canonical decomposition into parts for all tangles up to a given
    order, its refinement with one maximal tangle per contraction, and the
    rooted directed variant with cones;
  * verifiers that check every decomposition condition literally.

Decomposition trees use arbitrary int node ids; canonicity claims are always
"up to isomorphism matching bags", which is what the verifiers and the
canonicity harness test.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple

from .connectivity import ConnectivityOracle, GroundSet, bits_list
from .errors import DomainError, IntegrityError, StructuralError
from .tangle_ds import TangleDataStructure, _check_order, build_structure
from .tangles import (
    Tangle,
    leftmost_tangle_separation,
    leftmost_tangle_set_separation,
)


# ---------------------------------------------------------------------------
# Partial decompositions (cubic trees) and the exactness transform.


@dataclass
class PartialDecomposition:
    """A cubic tree with complementary subset labels on oriented edges."""

    ground: GroundSet
    adj: Dict[int, Tuple[int, ...]]
    xi: Dict[Tuple[int, int], int]

    def nodes(self) -> List[int]:
        return sorted(self.adj)

    def edges(self) -> List[Tuple[int, int]]:
        return sorted(
            (a, b) for a in self.adj for b in self.adj[a] if a < b
        )

    def leaves(self) -> List[int]:
        return [t for t in self.nodes() if len(self.adj[t]) == 1]

    def leaf_set(self, leaf: int) -> int:
        (neighbor,) = self.adj[leaf]
        return self.xi[(neighbor, leaf)]

    def validate(self) -> None:
        full = self.ground.full_mask
        for t, nbrs in self.adj.items():
            if len(nbrs) not in (0, 1, 3):
                raise DomainError(f"node {t} has degree {len(nbrs)}; tree must be cubic")
        for a, b in self.edges():
            if self.xi[(a, b)] != full & ~self.xi[(b, a)]:
                raise DomainError(f"edge {a}-{b}: labels are not complementary")
        for t, nbrs in self.adj.items():
            if len(nbrs) == 3:
                cover = 0
                for u in nbrs:
                    cover |= self.xi[(t, u)]
                if cover != full:
                    raise DomainError(f"inner node {t}: outgoing sets do not cover the ground set")

    def is_exact(self) -> bool:
        for t, nbrs in self.adj.items():
            if len(nbrs) == 3:
                a, b, c = (self.xi[(t, u)] for u in nbrs)
                if a & b or a & c or b & c:
                    return False
        return True


def width(oracle: ConnectivityOracle, pd: PartialDecomposition) -> int:
    """Maximum order over the oriented edge labels; 0 for a single node."""
    best = 0
    for a, b in pd.edges():
        best = max(best, oracle.evaluate(pd.xi[(a, b)]))
    return best


def branch_decomposition_from_leaf_sets(
    ground: GroundSet, adj: Dict[int, Tuple[int, ...]], leaf_sets: Dict[int, int]
) -> PartialDecomposition:
    """Build the exact partial decomposition determined by leaf sets that
    partition the ground set."""
    side = TreeDecomposition(ground, adj, {t: leaf_sets.get(t, 0) for t in adj}).edge_sep
    xi = {(a, b): side(a, b) for a in adj for b in adj[a]}
    return PartialDecomposition(ground, dict(adj), xi)


def _rooted_exactify(oracle, children, values):
    """Drive the rooted rewrite to exactness; mutates ``values`` in place."""
    get = oracle.value_getter()
    while True:
        node = None
        for s in sorted(children):
            pair = children.get(s)
            if not pair:
                continue
            t1, t2 = pair
            x, y1, y2 = values[s], values[t1], values[t2]
            if x != y1 | y2 or y1 & y2:
                node = s
                break
        if node is None:
            return
        t1, t2 = children[node]
        x, y1, y2 = values[node], values[t1], values[t2]
        if x != y1 | y2:
            # parent strictly inside the union
            if get(x & y1) <= get(y1) and get(x & y2) <= get(y2):
                values[t1] = x & y1
                values[t2] = x & y2
            elif get(x | y1) < get(x):
                values[node] = x | y1
            elif get(x | y2) < get(x):
                values[node] = x | y2
            else:
                raise StructuralError("submodularity violated during exactness rewrite")
        else:
            # children overlap
            if get(y1 & ~y2) <= get(y1):
                values[t1] = y1 & ~y2
            elif get(y2 & ~y1) <= get(y2):
                values[t2] = y2 & ~y1
            else:
                raise StructuralError("posimodularity violated during exactness rewrite")


def exactify(oracle: ConnectivityOracle, pd: PartialDecomposition) -> PartialDecomposition:
    """Rewrite a partial decomposition into an exact one.

    No oriented edge's order increases and every leaf set shrinks or stays;
    internal sets may grow.  The rewrite roots the tree at a subdivided edge,
    pushes labels onto nodes, and repeatedly repairs the first inexact node
    (shrink overlapping children when their orders allow it, otherwise grow
    the parent, which strictly drops its order).
    """
    pd.validate()
    if len(pd.adj) <= 2 or pd.is_exact():
        return PartialDecomposition(pd.ground, dict(pd.adj), dict(pd.xi))

    # subdivide one edge with a fresh root and push labels onto nodes
    sb, tb = pd.edges()[0]
    root = max(pd.adj) + 1
    children: Dict[int, Tuple[int, ...]] = {root: (sb, tb)}
    values: Dict[int, int] = {root: pd.ground.full_mask, sb: pd.xi[(tb, sb)], tb: pd.xi[(sb, tb)]}
    parent = {sb: root, tb: root}
    stack = [sb, tb]
    while stack:
        s = stack.pop()
        kids = tuple(u for u in pd.adj[s] if u != parent[s] and {s, u} != {sb, tb})
        children[s] = kids
        for u in kids:
            parent[u] = s
            values[u] = pd.xi[(s, u)]
            stack.append(u)

    _rooted_exactify(oracle, children, values)

    xi: Dict[Tuple[int, int], int] = {}
    full = pd.ground.full_mask
    for s, kids in children.items():
        for t in kids:
            if s == root:
                continue
            xi[(s, t)] = values[t]
            xi[(t, s)] = full & ~values[t]
    xi[(sb, tb)] = values[tb]
    xi[(tb, sb)] = full & ~values[tb]
    return PartialDecomposition(pd.ground, dict(pd.adj), xi)


# ---------------------------------------------------------------------------
# Nested families and tree decompositions.


def _walk(
    adj: Dict[int, Tuple[int, ...]], root: int, skip: Optional[int] = None
) -> Dict[int, Optional[int]]:
    """The parent of every node reachable from ``root`` without entering
    ``skip`` (None for the root); each node comes after its parent."""
    parent: Dict[int, Optional[int]] = {root: None}
    stack = [root]
    while stack:
        s = stack.pop()
        for u in adj[s]:
            if u != skip and u not in parent:
                parent[u] = s
                stack.append(u)
    return parent


def check_nested(family: Iterable[int], full: int) -> bool:
    """Pairwise nestedness: for each pair, one of the four corner cells is empty."""
    fam = sorted(set(family))
    for i, x in enumerate(fam):
        for y in fam[i + 1 :]:
            if x & y and x & ~y & full and y & ~x & full and full & ~(x | y):
                return False
    return True


@dataclass
class TreeDecomposition:
    """A tree whose mutually disjoint bags partition the ground set."""

    ground: GroundSet
    adj: Dict[int, Tuple[int, ...]]
    bags: Dict[int, int]
    _sep_cache: Dict[Tuple[int, int], int] = field(default_factory=dict, repr=False)

    def nodes(self) -> List[int]:
        return sorted(self.adj)

    def edges(self) -> List[Tuple[int, int]]:
        return sorted((a, b) for a in self.adj for b in self.adj[a] if a < b)

    def edge_sep(self, s: int, t: int) -> int:
        """Union of the bags in the component of t after removing edge s-t."""
        got = self._sep_cache.get((s, t))
        if got is not None:
            return got
        value = self.bags[t]
        for u in self.adj[t]:
            if u != s:
                value |= self.edge_sep(t, u)
        self._sep_cache[(s, t)] = value
        return value

    def separations(self) -> FrozenSet[int]:
        out = set()
        for a, b in self.edges():
            out.add(self.edge_sep(a, b))
            out.add(self.edge_sep(b, a))
        return frozenset(out)

    def adhesion(self, oracle: ConnectivityOracle) -> int:
        return max((oracle.evaluate(s) for s in self.separations()), default=0)

    def validate(self) -> None:
        seen = 0
        for t, bag in self.bags.items():
            if bag & seen:
                raise DomainError("bags are not mutually disjoint")
            seen |= bag
        if seen != self.ground.full_mask:
            raise DomainError("bags do not cover the ground set")
        nodes = self.nodes()
        if len(self.edges()) != len(nodes) - 1:
            raise DomainError("decomposition graph is not a tree")
        if len(_walk(self.adj, nodes[0])) != len(nodes):
            raise DomainError("decomposition graph is not connected")


def nested_to_tree(ground: GroundSet, family: Iterable[int]) -> TreeDecomposition:
    """The canonical tree decomposition whose separation family is ``family``.

    The family must be nested and closed under complementation.  Built by
    peeling inclusion-minimal antichains: the innermost leftover family forms
    the base tree and each peeled set becomes a leaf attached at the deepest
    node whose cone still contains it.  All steps are determined by the sets
    themselves, so the construction commutes with relabelings.
    """
    full = ground.full_mask
    fam = frozenset(family)
    for x in fam:
        if full & ~x not in fam:
            raise DomainError("separation family is not closed under complementation")
    if not check_nested(fam, full):
        raise DomainError("separation family is not nested")

    ids = itertools.count()

    def build(nset: FrozenSet[int]):
        if not nset:
            r = next(ids)
            return {r: ()}, {r: full}, r
        ordered = sorted(nset)
        minimal = [x for x in ordered if not any(y != x and y & ~x == 0 for y in ordered)]
        if len(nset) == 2 and len(minimal) == 2:
            # a single complementary pair: two nodes, no hub
            a, b = next(ids), next(ids)
            return {a: (b,), b: (a,)}, {a: minimal[0], b: minimal[1]}, a
        inner = nset.difference(minimal).difference(full & ~x for x in minimal)
        adj, bags, root = build(frozenset(inner))

        # depths and cones relative to the root of the inner tree
        parent = _walk(adj, root)
        depth: Dict[int, int] = {}
        for t, p in parent.items():
            depth[t] = 0 if p is None else depth[p] + 1
        side = TreeDecomposition(ground, adj, bags).edge_sep
        cone = {t: side(p, t) for t, p in parent.items() if p is not None}

        removed = 0
        for x in minimal:
            removed |= x
        for t in adj:
            bags[t] &= ~removed

        attach: List[Tuple[int, int]] = []
        for x in minimal:
            if x == 0:
                attach.append((root, x))
                continue
            candidates = [t for t in adj if t != root and x & ~cone[t] == 0]
            if not candidates:
                attach.append((root, x))
            else:
                attach.append((max(candidates, key=lambda t: depth[t]), x))
        for host, x in attach:
            leaf = next(ids)
            adj[leaf] = (host,)
            adj[host] = tuple(list(adj[host]) + [leaf])
            bags[leaf] = x
        return adj, bags, root

    adj, bags, _ = build(fam)
    return TreeDecomposition(ground, {t: tuple(sorted(u)) for t, u in adj.items()}, bags)


def prune_empty_hubs(td: TreeDecomposition, protected=frozenset()) -> TreeDecomposition:
    """Splice out empty-bag nodes of degree at most two.

    This is an optional, explicitly non-canonical post-pass: hub nodes are in
    general required for canonicity (symmetric instances force them), so the
    canonical constructions never call this.  Degree-3+ hubs are kept; nodes
    in ``protected`` (e.g. tangle nodes) are never touched.
    """
    adj = {t: list(u) for t, u in td.adj.items()}
    bags = dict(td.bags)
    changed = True
    while changed:
        changed = False
        for t in sorted(adj):
            if t in protected or bags[t] != 0 or len(adj[t]) > 2 or len(adj) == 1:
                continue
            if len(adj[t]) == 2:
                a, b = adj[t]
                adj[a].remove(t)
                adj[b].remove(t)
                adj[a].append(b)
                adj[b].append(a)
            else:
                (a,) = adj[t]
                adj[a].remove(t)
            del adj[t]
            del bags[t]
            changed = True
            break
    return TreeDecomposition(td.ground, {t: tuple(sorted(u)) for t, u in adj.items()}, bags)


# ---------------------------------------------------------------------------
# Assigning tangles to nodes.


@dataclass
class TangleTreeDecomposition:
    td: TreeDecomposition
    tau: Dict[int, int]  # tangle index -> node
    tangles: Dict[int, Tangle]
    ds: Optional[TangleDataStructure] = None

    @property
    def oracle(self) -> ConnectivityOracle:
        if not self.tangles:
            raise DomainError(
                "a tree decomposition without tangles has no oracle to check it against; "
                "check a refined tree with verify_refined_decomposition"
            )
        return next(iter(self.tangles.values())).oracle


def assign_tangle_nodes(td: TreeDecomposition, tangles: Dict[int, Tangle]) -> Dict[int, int]:
    """The unique injective tangle-to-node map for a matching nested family.

    For each tangle, all edges of order below its own are oriented toward it;
    the surviving component must be a single node.  Anything else means the
    tree's separations do not form a nested family for the tangle family.
    """
    node_list = td.nodes()
    side_cache: Dict[Tuple[int, int], FrozenSet[int]] = {}

    def side(s: int, t: int) -> FrozenSet[int]:
        got = side_cache.get((s, t))
        if got is None:
            got = side_cache[(s, t)] = frozenset(_walk(td.adj, t, skip=s))
        return got

    tau: Dict[int, int] = {}
    for key in sorted(tangles):
        tangle = tangles[key]
        oracle = tangle.oracle
        alive = frozenset(node_list)
        for a, b in td.edges():
            sep = td.edge_sep(a, b)
            if oracle.evaluate(sep) >= tangle.order:
                continue
            alive &= side(a, b) if tangle.member(sep) else side(b, a)
        if len(alive) != 1:
            raise IntegrityError(
                f"tangle {key}: sink component has {len(alive)} nodes; "
                "separations do not form a nested family for this tangle family"
            )
        (node,) = alive
        if node in tau.values():
            raise IntegrityError("tangle-to-node assignment is not injective")
        tau[key] = node
    return tau


# ---------------------------------------------------------------------------
# Coherent families.


def coherent_nested_family(ds: TangleDataStructure, indices: Sequence[int]) -> FrozenSet[int]:
    """A canonical nested family separating a coherent tangle family.

    All indices must name tangles of one order k+1 sharing their order-k
    truncation.  Rounds collect the inclusion-minimal leftmost separations
    among the not-yet-separated tangles; the union, closed under
    complementation, is nested and realizes a minimum separation for every
    incomparable pair.
    """
    indices = sorted(set(indices))
    if not indices:
        return frozenset()
    orders = {ds.tangle_order(i) for i in indices}
    if len(orders) != 1:
        raise DomainError("coherent family must have a single order")
    order = orders.pop()
    if order == 0:
        if len(indices) > 1:
            raise DomainError("several order-0 tangles cannot exist")
        return frozenset()
    truncs = {ds.truncation(i, order - 1) for i in indices}
    if len(truncs) != 1:
        raise DomainError("family is not coherent: truncations differ")
    if len(indices) == 1:
        return frozenset()

    full = ds.oracle.ground.full_mask
    pair_sep: Dict[Tuple[int, int], int] = {}

    def sep(i: int, j: int) -> int:
        got = pair_sep.get((i, j))
        if got is None:
            got = leftmost_tangle_separation(ds.tangle(i), ds.tangle(j), known_order=order - 1)
            if got is None:
                raise DomainError("family is not coherent: comparable members")
            pair_sep[(i, j)] = got
        return got

    collected: set = set()
    separated: set = set()
    while len(indices) - len(separated) >= 2:
        remaining = [i for i in indices if i not in separated]
        zs = sorted({sep(i, j) for i in remaining for j in remaining if i != j})
        collected.update(z for z in zs if not any(y != z and y & ~z == 0 for y in zs))
        separated |= {
            i
            for i in indices
            if i not in separated
            and any(sep(i, j) in collected for j in indices if j != i)
        }

    return frozenset(collected | {full & ~z for z in collected})


# ---------------------------------------------------------------------------
# Contractions.


@dataclass
class Contraction:
    """Ground set replacement at a node: kept bag elements plus one fresh
    element per neighbor subtree, evaluated through expansion."""

    original: ConnectivityOracle
    oracle: ConnectivityOracle
    node: int
    kept_ids: Tuple[int, ...]
    branch_masks: Tuple[int, ...]  # expansions of the fresh elements

    def expand(self, mask: int) -> int:
        out = 0
        for pos, original_id in enumerate(self.kept_ids):
            if mask >> pos & 1:
                out |= 1 << original_id
        base = len(self.kept_ids)
        for pos, branch in enumerate(self.branch_masks):
            if mask >> (base + pos) & 1:
                out |= branch
        return out


def contract_at(oracle: ConnectivityOracle, td: TreeDecomposition, t: int) -> Contraction:
    """Contract each neighbor subtree of t to a fresh element.

    Fresh elements are ordered by their expansion masks, so the contraction
    is determined by the decomposition alone.  With no neighbors the original
    oracle is reused unchanged.
    """
    if t not in td.adj:
        raise DomainError(f"node {t} not in the decomposition")
    branches = sorted(td.edge_sep(t, u) for u in td.adj[t])
    if not branches:
        return Contraction(oracle, oracle, t, tuple(range(oracle.ground.n)), ())
    kept_ids = tuple(bits_list(td.bags[t]))
    n = len(kept_ids) + len(branches)
    labels = [oracle.ground.label(e) for e in kept_ids]
    labels += ["<" + "+".join(oracle.ground.label(e) for e in bits_list(b)) + ">" for b in branches]
    ground = GroundSet(n, labels=labels)
    contraction = Contraction(oracle, oracle, t, kept_ids, tuple(branches))

    def fn(x: int) -> int:
        return oracle.evaluate(contraction.expand(x))

    contraction.oracle = ConnectivityOracle(ground, fn, name=f"{oracle.name}@node{t}")
    return contraction


def project_tangle(tangle: Tangle, contraction: Contraction) -> Optional[Tangle]:
    """The tangle induced on the contraction, or None when a contracted
    branch is itself a member (the projection would break the no-singleton
    axiom)."""
    if contraction.oracle is contraction.original:
        return tangle
    oracle = tangle.oracle
    for branch in contraction.branch_masks:
        if oracle.evaluate(branch) < tangle.order and tangle.member(branch):
            return None
    ds = build_structure(contraction.oracle, tangle.order)

    def member(x: int) -> bool:
        return tangle.member(contraction.expand(x))

    return ds.tangle(ds.find(tangle.order, member))


# ---------------------------------------------------------------------------
# The canonical decomposition.


def maximal_indices(ds: TangleDataStructure, order: int) -> List[int]:
    """Indices of the tangles maximal among all of order at most ``order``."""
    ds.ensure(order)
    extended = set()
    for k in range(1, order + 1):
        for i in ds.indices_of_order(k):
            extended.add(ds.truncation(i, k - 1))
    return [i for i in range(1, ds.size(order) + 1) if i not in extended]


def canonical_decomposition(oracle: ConnectivityOracle, order: int) -> TangleTreeDecomposition:
    """The canonical tree decomposition for all tangles of order <= order.

    Level by level: every tangle node whose tangle has extensions one order
    up is contracted, the extensions are projected onto the contraction and
    separated there by a coherent nested family, and the expanded separations
    are merged into the global family, which stays nested.  ``tangles`` holds
    the maximal tangles of order <= order, in index order.
    """
    if order < 0:
        raise DomainError(f"decomposition orders are nonnegative, got {order}")
    ds = build_structure(oracle, order)
    ground = oracle.ground
    family: set = set()
    td = nested_to_tree(ground, family)
    maximal = {1: ds.tangle(1)}  # the order-0 tangle
    tau = assign_tangle_nodes(td, maximal)

    for k in range(order):
        truncation = {j: ds.truncation(j, k) for j in ds.indices_of_order(k + 1)}
        additions: set = set()
        for i, node in sorted(tau.items()):
            extensions = [j for j, below in truncation.items() if below == i]
            if len(extensions) < 2:
                continue
            con = contract_at(oracle, td, node)
            sub_ds = build_structure(con.oracle, k + 1)
            projected = [
                sub_ds.find(k + 1, lambda x, t=ds.tangle(j): t.member(con.expand(x)))
                for j in extensions
            ]
            for z in coherent_nested_family(sub_ds, projected):
                additions.add(con.expand(z))
        if additions:
            family |= additions
            family |= {ground.full_mask & ~z for z in additions}
            td = nested_to_tree(ground, family)
        for j, below in truncation.items():
            maximal.pop(below, None)
            maximal[j] = ds.tangle(j)
        tau = assign_tangle_nodes(td, maximal)

    return TangleTreeDecomposition(td, tau, maximal, ds)


def refine_single_tangle(oracle: ConnectivityOracle, order: int) -> TreeDecomposition:
    """A canonical decomposition whose every contraction has exactly one
    maximal tangle of order <= order.

    Recurses into any node whose contraction still has several maximal
    tangles and merges the refined separations.  On a canonical tree with
    two or more nodes every leaf is a tangle node and the side toward a
    tangle node is one of its members (conditions ``verify_tree_decomposition``
    checks), so no leaf bag is empty or a singleton and every contraction
    shrinks the ground set.  The runtime check below therefore fails only
    when kappa is not a connectivity function, and it is what stops the
    recursion then.
    """
    td = canonical_decomposition(oracle, order).td
    if len(td.nodes()) == 1:
        return td
    n = oracle.ground.n
    family = set(td.separations())
    for t in td.nodes():
        con = contract_at(oracle, td, t)
        if con.oracle.ground.n >= n:
            raise IntegrityError(
                "contraction did not shrink the ground set; kappa is not a connectivity function"
            )
        sub_ds = build_structure(con.oracle, order)
        if len(maximal_indices(sub_ds, order)) <= 1:
            continue
        refined = refine_single_tangle(con.oracle, order)
        family.update(con.expand(z) for z in refined.separations())
    return nested_to_tree(oracle.ground, family)


# ---------------------------------------------------------------------------
# Directed decompositions.


@dataclass
class DirectedTreeDecomposition:
    ground: GroundSet
    root: int
    parent: Dict[int, Optional[int]]
    children: Dict[int, Tuple[int, ...]]
    gamma: Dict[int, int]  # cones
    tau: Dict[int, int]  # tangle index -> node
    tangles: Dict[int, Tangle]
    ds: Optional[TangleDataStructure] = None

    def nodes(self) -> List[int]:
        return sorted(self.parent)

    def bags(self) -> Dict[int, int]:
        out = {}
        for t in self.nodes():
            bag = self.gamma[t]
            for u in self.children[t]:
                bag &= ~self.gamma[u]
            out[t] = bag
        return out

    def descendants(self, t: int) -> FrozenSet[int]:
        return frozenset(_walk(self.children, t))


def directed_decomposition(
    oracle: ConnectivityOracle, order: int, root_index: int
) -> DirectedTreeDecomposition:
    """The rooted decomposition with one maximal tangle per node and cones.

    Reads the canonical undirected decomposition's maximal tangles and their
    nodes, roots it at the chosen tangle's node and keeps only tangle nodes.
    Each non-root node's cone is the leftmost minimum separation of its
    tangle toward the outside of its undirected cone, and its parent is the
    nearest tangle ancestor in the rooted undirected tree whose cone contains
    that cone.  The root's cone is the ground set, so such an ancestor
    always exists.
    """
    _check_order(order)
    base = canonical_decomposition(oracle, order)
    if root_index not in base.tangles:
        raise DomainError(f"index {root_index} is not a maximal tangle at order {order}")
    full = oracle.ground.full_mask
    root = base.tau[root_index]
    td = base.td
    tangle_at = {node: i for i, node in base.tau.items()}

    up = _walk(td.adj, root)  # the undirected tree oriented away from the root
    parent: Dict[int, Optional[int]] = {root: None}
    gamma: Dict[int, int] = {root: full}
    for t, s in up.items():
        if t == root or t not in tangle_at:
            continue
        g = leftmost_tangle_set_separation(base.tangles[tangle_at[t]], full & ~td.edge_sep(s, t))
        if g is None:
            raise IntegrityError("tangle has no member inside its own cone")
        gamma[t] = g
        while s not in tangle_at or g & ~gamma[s]:
            s = up[s]
        parent[t] = s

    nodes = sorted(parent)
    children = {t: tuple(u for u in nodes if parent[u] == t) for t in nodes}
    return DirectedTreeDecomposition(
        oracle.ground, root, parent, children, gamma, base.tau, base.tangles, base.ds
    )


# ---------------------------------------------------------------------------
# Verification.


@dataclass
class VerificationReport:
    ok: bool
    violations: List[str]

    def __bool__(self) -> bool:
        return self.ok


def _report(violations: List[str]) -> VerificationReport:
    return VerificationReport(not violations, violations)


def verify_tree_decomposition(ttd: TangleTreeDecomposition) -> VerificationReport:
    """Literal check of the three tangle-decomposition conditions plus the
    structural consequences (leaves are tangle nodes, assignment unique)."""
    v: List[str] = []
    td = ttd.td
    oracle = ttd.oracle
    try:
        td.validate()
    except DomainError as exc:
        v.append(f"tree: {exc}")
        return _report(v)

    keys = sorted(ttd.tau)
    if len(set(ttd.tau.values())) != len(keys):
        v.append("tau is not injective")

    pair_sep = {}
    for i in keys:
        for j in keys:
            if i != j:
                z = leftmost_tangle_separation(ttd.tangles[i], ttd.tangles[j])
                if z is None:
                    v.append(f"tangles {i} and {j} are comparable; family is not an antichain")
                else:
                    pair_sep[(i, j)] = z

    def hops(a: int, b: int):
        """The edges (t1, t2) of the path from a to b, in path order."""
        toward_b = _walk(td.adj, b)
        while a != b:
            yield a, toward_b[a]
            a = toward_b[a]

    def is_min_sep(i: int, j: int, z: int) -> bool:
        if oracle.evaluate(z) != oracle.evaluate(pair_sep[(i, j)]):
            return False
        ti, tj = ttd.tangles[i], ttd.tangles[j]
        return ti.member(z) and tj.member(oracle.ground.complement(z))

    # Some edge on the connecting path must realize a minimum separation
    # of the pair, and every edge must realize one for some pair whose
    # connecting path uses it.
    realized = set()
    for i, j in pair_sep:
        good = [
            (min(t1, t2), max(t1, t2))
            for t1, t2 in hops(ttd.tau[i], ttd.tau[j])
            if is_min_sep(i, j, td.edge_sep(t2, t1))
        ]
        if not good:
            v.append(
                f"no edge between the nodes of tangles {i} and {j} realizes "
                "a minimum separation of the pair"
            )
        realized.update(good)
    for a, b in td.edges():
        if (a, b) not in realized:
            v.append(f"edge {a}-{b} does not realize a minimum separation for any pair")

    # Every neighbor side of a tangle node must belong to the tangle.
    for i in keys:
        t = ttd.tau[i]
        tangle = ttd.tangles[i]
        for u in td.adj[t]:
            sep = td.edge_sep(u, t)
            if oracle.evaluate(sep) >= tangle.order or not tangle.member(sep):
                v.append(f"side toward neighbor {u} is not a member of tangle {i}")

    if len(keys) <= 1 and td.edges():
        v.append("tree has edges although at most one tangle is present")
    if len(keys) > 1 and not td.edges():
        v.append("tree has no edges although several tangles are present")
    if keys:
        tangle_nodes = set(ttd.tau.values())
        for t in td.nodes():
            if len(td.adj[t]) == 1 and t not in tangle_nodes and len(td.nodes()) > 1:
                v.append(f"leaf {t} is not a tangle node")

    # uniqueness: re-derivation must reproduce tau
    if not v:
        tau2 = assign_tangle_nodes(td, ttd.tangles)
        if tau2 != ttd.tau:
            v.append("tau differs from its re-derivation")
    return _report(v)


def verify_directed_decomposition(dtd: DirectedTreeDecomposition) -> VerificationReport:
    """Literal check of the two directed conditions plus cone structure."""
    v: List[str] = []
    full = dtd.ground.full_mask
    if dtd.gamma[dtd.root] != full:
        v.append("root cone is not the ground set")
    for t in dtd.nodes():
        for u in dtd.children[t]:
            if dtd.gamma[u] & ~dtd.gamma[t]:
                v.append(f"cone of {u} is not inside the cone of its parent {t}")
        for u1, u2 in itertools.combinations(dtd.children[t], 2):
            if dtd.gamma[u1] & dtd.gamma[u2]:
                v.append(f"sibling cones {u1}, {u2} intersect")
    seen = 0
    for t, bag in dtd.bags().items():
        if bag & seen:
            v.append("bags are not disjoint")
        seen |= bag
    if seen != full:
        v.append("bags do not cover the ground set")
    if sorted(dtd.tau.values()) != dtd.nodes():
        v.append("tau is not a bijection onto the nodes")

    node_tangle = {node: dtd.tangles[i] for i, node in dtd.tau.items()}
    below = {u: dtd.descendants(u) for u in dtd.nodes()}
    pair_sep: Dict[Tuple[int, int], Optional[int]] = {}

    def sep(t: int, u: int) -> Optional[int]:
        if (t, u) not in pair_sep:
            pair_sep[(t, u)] = leftmost_tangle_separation(node_tangle[t], node_tangle[u])
        return pair_sep[(t, u)]

    # Whenever t is not below u, some minimum separation of the pair must
    # contain the cone of u; the rightmost one does iff any does.
    for u in dtd.nodes():
        for t in dtd.nodes():
            if t in below[u]:
                continue
            z = sep(t, u)
            if z is None:
                v.append(f"tangles at nodes {t} and {u} are comparable")
                continue
            rightmost = full & ~z
            if dtd.gamma[u] & ~rightmost:
                v.append(
                    f"no minimum separation toward the tangle at {t} contains "
                    f"the cone of {u}"
                )

    # Each non-root cone must be the leftmost minimum separation toward
    # some tangle not below it.
    for t in dtd.nodes():
        if t == dtd.root:
            continue
        if not any(sep(t, u) == dtd.gamma[t] for u in dtd.nodes() if u not in below[t]):
            v.append(
                f"cone of node {t} is not a leftmost minimum separation "
                "toward any non-descendant tangle"
            )
    return _report(v)


def verify_refined_decomposition(
    oracle: ConnectivityOracle, td: TreeDecomposition, order: int
) -> VerificationReport:
    """Literal check of the refinement conditions: adhesion below the order
    (for more than one node), and exactly one maximal tangle of order <= order
    in the contraction at every node."""
    v: List[str] = []
    if td.adhesion(oracle) >= order and len(td.nodes()) > 1:
        v.append("adhesion is not below the order")
    for t in td.nodes():
        sub = build_structure(contract_at(oracle, td, t).oracle, order)
        if len(maximal_indices(sub, order)) != 1:
            v.append(f"contraction at node {t} does not have exactly one maximal tangle")
    return _report(v)


def verify_tangle_decomposition(obj) -> VerificationReport:
    if isinstance(obj, TangleTreeDecomposition):
        return verify_tree_decomposition(obj)
    if isinstance(obj, DirectedTreeDecomposition):
        return verify_directed_decomposition(obj)
    raise DomainError("expected a tangle tree decomposition or a directed decomposition")
