"""Decomposition machinery: exactness, nested trees, canonical outputs."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tanglekit import (
    DomainError,
    Graph,
    GroundSet,
    IntegrityError,
    assign_tangle_nodes,
    build_structure,
    canonical_decomposition,
    check_nested,
    coherent_nested_family,
    contract_at,
    cut_rank_fn,
    directed_decomposition,
    edge_boundary_fn,
    exactify,
    maximal_indices,
    nested_to_tree,
    project_tangle,
    refine_single_tangle,
    verify_tangle_decomposition,
    width,
)
from tanglekit import decomposition
from tanglekit.decomposition import verify_refined_decomposition
from tanglekit.oracles import brute_force_branch_decomposition

from conftest import chain_k4_vertex_cut, random_nonexact_decomposition, random_partial_decomposition


# --- exactness -------------------------------------------------------------


def test_exactify_identity_on_exact(triforce):
    rng = random.Random(0)
    pd = random_partial_decomposition(triforce.oracle, rng)
    out = exactify(triforce.oracle, pd)
    assert out.xi == pd.xi


def test_exactify_random(triforce, k4):
    rng = random.Random(42)
    for oracle in (triforce.oracle, k4):
        for _ in range(30):
            pd = random_nonexact_decomposition(oracle, rng)
            out = exactify(oracle, pd)
            out.validate()
            assert out.is_exact()
            for a, b in pd.edges():
                assert oracle.evaluate(out.xi[(a, b)]) <= oracle.evaluate(pd.xi[(a, b)])
            for leaf in pd.leaves():
                assert out.leaf_set(leaf) & ~pd.leaf_set(leaf) == 0
            assert width(oracle, out) <= width(oracle, pd)


def test_width_examples(p3, k4):
    w, pd = brute_force_branch_decomposition(p3)
    assert w == 1 and width(p3, pd) == 1
    w4, pd4 = brute_force_branch_decomposition(k4)
    assert w4 == 3 and width(k4, pd4) == 3


def test_width_single_pair(triforce):
    from tanglekit.decomposition import PartialDecomposition

    oracle = triforce.oracle
    x = triforce.t1
    pd = PartialDecomposition(
        oracle.ground,
        {0: (1,), 1: (0,)},
        {(0, 1): triforce.full & ~x, (1, 0): x},
    )
    assert width(oracle, pd) == oracle.evaluate(x)


# --- nested families -------------------------------------------------------


def test_check_nested(triforce):
    full = triforce.full
    assert check_nested([triforce.t1, triforce.t2], full)
    assert check_nested([], full)
    assert not check_nested([0b000000111, 0b000001110], full)  # crossing


def test_nested_to_tree_empty(triforce):
    td = nested_to_tree(triforce.oracle.ground, [])
    assert len(td.nodes()) == 1
    assert td.bags[td.nodes()[0]] == triforce.full


def test_nested_to_tree_star(triforce):
    full = triforce.full
    family = set(triforce.triangles) | {full & ~t for t in triforce.triangles}
    td = nested_to_tree(triforce.oracle.ground, family)
    assert len(td.nodes()) == 4
    bags = sorted(td.bags.values())
    assert bags == sorted([0, *triforce.triangles])
    assert td.separations() == frozenset(family)


def test_nested_to_tree_single_pair(triforce):
    full = triforce.full
    x = triforce.t1
    td = nested_to_tree(triforce.oracle.ground, [x, full & ~x])
    assert len(td.nodes()) == 2
    assert sorted(td.bags.values()) == sorted([x, full & ~x])


def test_nested_to_tree_round_trip_deep(triforce):
    full = triforce.full
    t1, t2 = triforce.t1, triforce.t2
    # three nested sets, so one peeled set hangs below the root of the inner tree
    chain = (t1, t1 | (t2 & -t2), t1 | t2)
    family = set(chain) | {full & ~x for x in chain}
    td = nested_to_tree(triforce.oracle.ground, family)
    assert td.separations() == frozenset(family)


def test_nested_to_tree_rejects_bad_input(triforce):
    with pytest.raises(DomainError):
        nested_to_tree(triforce.oracle.ground, [triforce.t1])  # not complement-closed
    full = triforce.full
    crossing = {0b000000111, full & ~0b000000111, 0b000001110, full & ~0b000001110}
    with pytest.raises(DomainError):
        nested_to_tree(triforce.oracle.ground, crossing)


@st.composite
def laminar_families(draw):
    """Random nested complement-closed families via random tree decompositions."""
    n = draw(st.integers(min_value=2, max_value=7))
    ground = GroundSet(n)
    parts = [0, 0, 0]
    for e in range(n):
        parts[draw(st.integers(0, 2))] |= 1 << e
    # a path of three bags gives up to two separation pairs
    family = set()
    if parts[0] not in (0,):
        family |= {parts[0], ground.full_mask & ~parts[0]}
    if parts[2] not in (0,):
        family |= {parts[2], ground.full_mask & ~parts[2]}
    return ground, frozenset(family)


@given(laminar_families())
@settings(max_examples=50, deadline=None)
def test_nested_round_trip_property(pair):
    ground, family = pair
    td = nested_to_tree(ground, family)
    td.validate()
    assert td.separations() == family or (not family and td.separations() == frozenset())


# --- assignment ------------------------------------------------------------


def test_assign_triforce_star(triforce):
    oracle = triforce.oracle
    ds = build_structure(oracle, 2)
    full = triforce.full
    family = set(triforce.triangles) | {full & ~t for t in triforce.triangles}
    td = nested_to_tree(oracle.ground, family)
    tangles = {i: ds.tangle(i) for i in (3, 4, 5)}
    tau = assign_tangle_nodes(td, tangles)
    hub = next(t for t in td.nodes() if td.bags[t] == 0)
    assert hub not in tau.values()
    for i, node in tau.items():
        assert tangles[i].member(td.bags[node])


def test_assign_single_node(k4):
    ds = build_structure(k4, 3)
    td = nested_to_tree(k4.ground, [])
    top = maximal_indices(ds, 3)
    assert len(top) == 1
    tau = assign_tangle_nodes(td, {top[0]: ds.tangle(top[0])})
    assert tau == {top[0]: td.nodes()[0]}


def test_assign_rejects_non_nested_family_for_tangles(triforce):
    # a tree whose only separation does not split the three triangle tangles
    oracle = triforce.oracle
    ds = build_structure(oracle, 2)
    full = triforce.full
    family = {triforce.t1, full & ~triforce.t1}
    td = nested_to_tree(oracle.ground, family)
    tangles = {i: ds.tangle(i) for i in (3, 4, 5)}
    with pytest.raises(IntegrityError):
        assign_tangle_nodes(td, tangles)


# --- coherent families -----------------------------------------------------


def test_coherent_family_triforce(triforce):
    oracle = triforce.oracle
    ds = build_structure(oracle, 2)
    family = coherent_nested_family(ds, [3, 4, 5])
    full = triforce.full
    assert family == frozenset(
        set(triforce.triangles) | {full & ~t for t in triforce.triangles}
    )
    assert coherent_nested_family(ds, [3]) == frozenset()
    # a pair yields both leftmost separations (one per direction) plus
    # complements; the two directions are distinct sets here
    two = coherent_nested_family(ds, [3, 4])
    assert len(two) == 4
    from tanglekit import leftmost_tangle_separation

    z_ab = leftmost_tangle_separation(ds.tangle(3), ds.tangle(4))
    z_ba = leftmost_tangle_separation(ds.tangle(4), ds.tangle(3))
    assert two == frozenset({z_ab, z_ba, full & ~z_ab, full & ~z_ba})


def test_coherent_family_rejects_mixed(triforce):
    ds = build_structure(triforce.oracle, 2)
    with pytest.raises(DomainError):
        coherent_nested_family(ds, [2, 3])


# --- contraction -----------------------------------------------------------


def test_contract_at_hub(triforce):
    oracle = triforce.oracle
    ttd = canonical_decomposition(oracle, 2)
    hub = next(t for t in ttd.td.nodes() if ttd.td.bags[t] == 0)
    con = contract_at(oracle, ttd.td, hub)
    assert con.oracle.ground.n == 3
    for u in range(3):
        assert con.oracle.evaluate(1 << u) == 1
    assert sorted(con.branch_masks) == sorted(triforce.triangles)
    full3 = con.oracle.ground.full_mask
    assert con.expand(full3) == triforce.full
    assert con.oracle.evaluate(full3) == 0


def test_contract_at_leaf(triforce):
    oracle = triforce.oracle
    ttd = canonical_decomposition(oracle, 2)
    leaf = next(t for t in ttd.td.nodes() if ttd.td.bags[t] == triforce.t1)
    con = contract_at(oracle, ttd.td, leaf)
    assert con.oracle.ground.n == 4
    # kappa agrees on subsets of the kept bag
    for sub in range(8):
        assert con.oracle.evaluate(sub) == oracle.evaluate(con.expand(sub))


def test_contract_single_node(k4):
    td = nested_to_tree(k4.ground, [])
    con = contract_at(k4, td, td.nodes()[0])
    assert con.oracle is k4


def test_contraction_preserves_connectivity_axioms(triforce):
    from tanglekit import verify_axioms

    oracle = triforce.oracle
    ttd = canonical_decomposition(oracle, 2)
    for t in ttd.td.nodes():
        con = contract_at(oracle, ttd.td, t)
        assert verify_axioms(con.oracle).ok


def test_project_tangle(triforce):
    oracle = triforce.oracle
    ttd = canonical_decomposition(oracle, 2)
    ds = build_structure(oracle, 2)
    tri1 = next(t for t in (ds.tangle(i) for i in (3, 4, 5)) if t.member(triforce.t1))

    # contracting at triangle 1's own node keeps its tangle projectable: the
    # single branch (everything else) is not a member
    leaf1 = next(t for t in ttd.td.nodes() if ttd.td.bags[t] == triforce.t1)
    con = contract_at(oracle, ttd.td, leaf1)
    image = project_tangle(tri1, con)
    assert image is not None and image.order == 2
    branch_bit = 1 << con.oracle.ground.n - 1
    assert image.member(con.oracle.ground.full_mask & ~branch_bit)

    # at the hub every branch is a triangle side, so each triangle tangle
    # contains its own branch and the projection is undefined (the image
    # would contain a singleton)
    hub = next(t for t in ttd.td.nodes() if ttd.td.bags[t] == 0)
    assert project_tangle(tri1, contract_at(oracle, ttd.td, hub)) is None
    # likewise at another triangle's node
    leaf2 = next(t for t in ttd.td.nodes() if ttd.td.bags[t] == triforce.t2)
    assert project_tangle(tri1, contract_at(oracle, ttd.td, leaf2)) is None


def test_project_empty_tangle(triforce):
    from tanglekit import empty_tangle

    oracle = triforce.oracle
    ttd = canonical_decomposition(oracle, 2)
    hub = next(t for t in ttd.td.nodes() if ttd.td.bags[t] == 0)
    con = contract_at(oracle, ttd.td, hub)
    image = project_tangle(empty_tangle(oracle), con)
    assert image is not None and image.order == 0


# --- canonical decomposition -----------------------------------------------


def test_canonical_triforce_star(triforce):
    ttd = canonical_decomposition(triforce.oracle, 2)
    td = ttd.td
    assert len(td.nodes()) == 4
    hub = [t for t in td.nodes() if td.bags[t] == 0]
    assert len(hub) == 1
    assert len(td.adj[hub[0]]) == 3
    assert sorted(td.bags[t] for t in td.nodes() if t != hub[0]) == sorted(triforce.triangles)
    for i, node in ttd.tau.items():
        assert ttd.tangles[i].member(td.bags[node])
    assert verify_tangle_decomposition(ttd).ok


def test_canonical_order_zero(triforce):
    ttd = canonical_decomposition(triforce.oracle, 0)
    assert len(ttd.td.nodes()) == 1
    assert list(ttd.tau) == [1]


def test_canonical_k4_single_node(k4):
    ttd = canonical_decomposition(k4, 3)
    assert len(ttd.td.nodes()) == 1
    (idx,) = ttd.tau
    assert ttd.tangles[idx].order == 3
    assert verify_tangle_decomposition(ttd).ok


def test_canonical_adhesion_below_order(triforce, grid3):
    for oracle, order in ((triforce.oracle, 2), (grid3, 2)):
        ttd = canonical_decomposition(oracle, order)
        assert ttd.td.adhesion(oracle) < max(order, 1)


def test_maximal_count_bound(triforce, p3, k4, grid3, c5rank):
    from tanglekit.tangles import max_tangle_order

    for oracle in (triforce.oracle, p3, k4, grid3, c5rank):
        top = max_tangle_order(oracle)
        ds = build_structure(oracle, top)
        n = oracle.ground.n
        if n >= 2:
            assert len(maximal_indices(ds, top)) <= n - 1


# --- refinement ------------------------------------------------------------


def test_refine_triforce(triforce):
    oracle = triforce.oracle
    td = refine_single_tangle(oracle, 2)
    td.validate()
    for t in td.nodes():
        con = contract_at(oracle, td, t)
        sub = build_structure(con.oracle, 2)
        assert len(maximal_indices(sub, 2)) == 1
    assert td.adhesion(oracle) < 2


def test_tangle_verifier_refuses_a_tree_without_tangles(triforce):
    """The CLI wraps a refined tree with no tangles; the tangle verifier
    names the refinement check instead of failing inside."""
    td = refine_single_tangle(triforce.oracle, 2)
    ttd = decomposition.TangleTreeDecomposition(td, {}, {}, None)
    with pytest.raises(DomainError, match="verify_refined_decomposition"):
        verify_tangle_decomposition(ttd)
    assert verify_refined_decomposition(triforce.oracle, td, 2).ok


def test_refine_single_tangle_instance(k4):
    td = refine_single_tangle(k4, 3)
    assert len(td.nodes()) == 1


def test_refine_grid(grid3):
    td = refine_single_tangle(grid3, 2)
    for t in td.nodes():
        con = contract_at(grid3, td, t)
        sub = build_structure(con.oracle, 2)
        assert len(maximal_indices(sub, 2)) == 1


# --- directed --------------------------------------------------------------


def test_directed_triforce(triforce):
    oracle = triforce.oracle
    ds = build_structure(oracle, 2)
    for root in (3, 4, 5):
        dtd = directed_decomposition(oracle, 2, root)
        assert dtd.gamma[dtd.root] == triforce.full
        root_tangle = ds.tangle(root)
        big = next(m for m in triforce.triangles if root_tangle.member(m))
        child_cones = sorted(dtd.gamma[u] for u in dtd.children[dtd.root])
        assert child_cones == sorted(set(triforce.triangles) - {big})
        assert dtd.bags()[dtd.root] == big
        assert verify_tangle_decomposition(dtd).ok


def test_directed_single_tangle(k4):
    ds = build_structure(k4, 3)
    (root,) = maximal_indices(ds, 3)
    dtd = directed_decomposition(k4, 3, root)
    assert len(dtd.nodes()) == 1
    assert dtd.gamma[dtd.root] == k4.ground.full_mask
    assert verify_tangle_decomposition(dtd).ok


def _triangles(n, triangles):
    return Graph.from_edges(n, [e for a, b, c in triangles for e in ((a, b), (a, c), (b, c))])


def _splitting_cases():
    """Instances whose canonical decomposition has two or more maximal
    tangles: a three-K4 chain at orders 2 and 3, four triangles on a common
    vertex, and two 5-cycles joined by an edge under cut-rank."""
    flower = _triangles(9, [(0, 1, 2), (0, 3, 4), (0, 5, 6), (0, 7, 8)])
    cycles = [(i, (i + 1) % 5) for i in range(5)] + [(5 + i, 5 + (i + 1) % 5) for i in range(5)]
    c5c5 = Graph.from_edges(10, cycles + [(0, 5)])
    return [
        (chain_k4_vertex_cut(3), 2),
        (chain_k4_vertex_cut(3), 3),
        (edge_boundary_fn(flower), 2),
        (cut_rank_fn(c5c5), 2),
    ]


def test_refine_keeps_the_canonical_tree():
    """Every contraction of the canonical tree already has one maximal
    tangle, so the refinement returns the canonical tree unchanged.  The
    recursion in ``refine_single_tangle`` stays, because this is unproven."""
    strip = _triangles(9, [(0, 1, 2), (2, 3, 4), (4, 5, 6), (6, 7, 8)])
    for oracle, order in [*_splitting_cases(), (edge_boundary_fn(strip), 2)]:
        canonical = canonical_decomposition(oracle, order).td
        refined = refine_single_tangle(oracle, order)
        note = (
            f"{oracle!r} at order {order}: a contraction of the canonical tree "
            "has several maximal tangles; this instance is the counterexample "
            "ROADMAP item 12 (settle --refined) asks for"
        )
        assert refined.separations() == canonical.separations(), note
        assert verify_refined_decomposition(oracle, canonical, order).ok, note


def test_directed_verifies_for_every_maximal_root():
    for oracle, order in _splitting_cases():
        base = canonical_decomposition(oracle, order)
        assert list(base.tangles) == maximal_indices(base.ds, order)
        assert len(base.tangles) >= 2
        assert verify_tangle_decomposition(base).ok
        for root in base.tangles:
            dtd = directed_decomposition(oracle, order, root)
            assert verify_tangle_decomposition(dtd).ok
            assert dtd.tau.keys() == base.tangles.keys()


def test_directed_reattaches_escaping_cones(monkeypatch):
    # Each cone is replaced by the K4 block its tangle lives in.  Rooted at an
    # end block, the far block's cone escapes the middle block's cone, so the
    # far node must hang from the root, not from the middle node.
    blocks = (0xF, 0xF0, 0xF00)

    def block_of(tangle, outside):
        return next(b for b in blocks if tangle.member(b))

    monkeypatch.setattr(decomposition, "leftmost_tangle_set_separation", block_of)
    oracle = chain_k4_vertex_cut(3)
    base = canonical_decomposition(oracle, 3)
    assert len(base.tangles) == 3
    for root in base.tangles:
        dtd = directed_decomposition(oracle, 3, root)
        assert sorted(dtd.children[dtd.root]) == sorted(set(dtd.nodes()) - {dtd.root})


def test_directed_rejects_non_maximal_root(triforce):
    with pytest.raises(DomainError):
        directed_decomposition(triforce.oracle, 2, 2)  # the order-1 tangle is extended


# --- verifier on mutated input ----------------------------------------------


def test_verifier_catches_moved_tau(triforce):
    ttd = canonical_decomposition(triforce.oracle, 2)
    hub = next(t for t in ttd.td.nodes() if ttd.td.bags[t] == 0)
    broken_tau = dict(ttd.tau)
    victim = sorted(broken_tau)[0]
    broken_tau[victim] = hub
    from tanglekit.decomposition import TangleTreeDecomposition

    mutated = TangleTreeDecomposition(ttd.td, broken_tau, ttd.tangles, ttd.ds)
    report = verify_tangle_decomposition(mutated)
    assert not report.ok
    assert any("not a member" in line for line in report.violations)


def test_verifier_vacuous_single_node(k4):
    ttd = canonical_decomposition(k4, 3)
    report = verify_tangle_decomposition(ttd)
    assert report.ok and report.violations == []


def test_prune_empty_hubs(triforce):
    from tanglekit import prune_empty_hubs
    from tanglekit.decomposition import TreeDecomposition

    full = triforce.full
    x = triforce.t1
    # a path with a redundant degree-2 empty hub in the middle
    td = TreeDecomposition(
        triforce.oracle.ground,
        {0: (1,), 1: (0, 2), 2: (1,)},
        {0: x, 1: 0, 2: full & ~x},
    )
    pruned = prune_empty_hubs(td)
    assert len(pruned.nodes()) == 2
    assert pruned.separations() == td.separations()
    # the triforce star's degree-3 hub is kept
    star = prune_empty_hubs(canonical_decomposition(triforce.oracle, 2).td)
    assert len(star.nodes()) == 4
    # protected nodes are never touched
    protected = prune_empty_hubs(td, protected={1})
    assert len(protected.nodes()) == 3
    for out in (pruned, star, protected):
        out.validate()


def test_verify_refined_decomposition(triforce):
    from tanglekit.decomposition import TreeDecomposition

    oracle = triforce.oracle
    assert verify_refined_decomposition(oracle, refine_single_tangle(oracle, 2), 2).ok
    # one node: its contraction is the whole triforce, with three maximal tangles
    single = TreeDecomposition(oracle.ground, {0: ()}, {0: triforce.full})
    report = verify_refined_decomposition(oracle, single, 2)
    assert not report.ok
    assert report.violations == ["contraction at node 0 does not have exactly one maximal tangle"]


def test_verifier_path_conditions(triforce):
    """Moving one element between two leaf bags breaks the pair, edge and
    neighbor-side conditions, each for exactly the pairs and edges it touches."""
    from tanglekit.decomposition import TangleTreeDecomposition, TreeDecomposition

    ttd = canonical_decomposition(triforce.oracle, 2)
    td = ttd.td
    first, second = [t for t in td.nodes() if td.bags[t]][:2]
    lowest = td.bags[first] & -td.bags[first]
    bags = dict(td.bags)
    bags[first] &= ~lowest
    bags[second] |= lowest
    mutated = TangleTreeDecomposition(
        TreeDecomposition(td.ground, td.adj, bags), ttd.tau, ttd.tangles, ttd.ds
    )
    assert verify_tangle_decomposition(mutated).violations == [
        "no edge between the nodes of tangles 3 and 5 realizes a minimum separation of the pair",
        "no edge between the nodes of tangles 5 and 3 realizes a minimum separation of the pair",
        "edge 0-1 does not realize a minimum separation for any pair",
        "edge 0-2 does not realize a minimum separation for any pair",
        "side toward neighbor 0 is not a member of tangle 3",
        "side toward neighbor 0 is not a member of tangle 5",
    ]
