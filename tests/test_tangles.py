"""Tangle axioms, membership, avoidance queries, and tangle separations."""

import random
import sys
import threading
from functools import reduce
from itertools import combinations
from operator import and_

import pytest

from conftest import (
    TRIFORCE_EDGES,
    chain_k4_vertex_cut,
    grid3_graph,
    k4_cycle_matroid,
    two_c5_cut_rank,
)
from tanglekit import (
    Base,
    DomainError,
    Graph,
    OutOfOrderError,
    build_structure,
    check_axioms,
    cut_rank_fn,
    edge_boundary_fn,
    empty_tangle,
    exists_tangle_avoiding,
    has_tangle_of_order,
    lattice_bottom,
    lattice_top,
    leftmost_tangle_separation,
    leftmost_tangle_set_separation,
    max_tangle_order,
    minimal_member_in_box,
    minimal_member_in_lattice,
    tangle_lattice_bottom,
    truncate,
)
from tanglekit.bases import enumerate_bases, enumerate_lattices
from tanglekit.connectivity import iter_bits
from tanglekit.oracles import (
    brute_force_branch_width,
    brute_force_lattice,
    brute_force_leftmost_tangle_separation,
    brute_force_tangles,
    permuted_oracle,
    random_instances,
)
from tanglekit.separations import box_min
from tanglekit.tangle_ds import TangleDataStructure
from tanglekit.tangles import (
    AvoidContext,
    ExplicitTangle,
    _caterpillar_width,
    _context,
    _greatest_inside,
    _joins,
    _order_lattices,
)


def _explicit(oracle, order, sides):
    """All sets of order < `order` whose side is forced by the given members."""
    full = oracle.ground.full_mask
    members = set(sides)
    for x in range(full + 1):
        if oracle.evaluate(x) < order and x not in members and (full & ~x) not in members:
            raise AssertionError("orientation not determined")
    return members


def test_check_axioms_triforce_tangle(triforce):
    oracle = triforce.oracle
    full = triforce.full
    # the order-2 tangle pointing at triangle 1: orient every order-<2 set
    # toward the side containing triangle 1
    members = set()
    for x in range(full + 1):
        if oracle.evaluate(x) < 2:
            members.add(x if x & triforce.t1 == triforce.t1 else full & ~x)
    ok, why = check_axioms(oracle, members, 2)
    assert ok, why


def test_check_axioms_unit_and_violation(triforce):
    oracle = triforce.oracle
    ok, _ = check_axioms(oracle, {triforce.full}, 1)
    assert ok
    ok, why = check_axioms(oracle, {triforce.full, 0}, 1)
    assert not ok and "empty set" in why


def test_check_axioms_t3(p3):
    ok, why = check_axioms(p3, {0b01, 0b11}, 2)
    assert not ok and "singleton" in why


def test_membership_matches_explicit_enumeration(triforce, p3, k4, c5rank):
    """Signature tangles agree with the explicit enumeration on a full sweep."""
    for oracle in (triforce.oracle, p3, k4, c5rank):
        top = max_tangle_order(oracle)
        ds = build_structure(oracle, top)
        full = oracle.ground.full_mask
        for k in range(top + 1):
            explicit = brute_force_tangles(oracle, k)
            indices = ds.indices_of_order(k)
            assert len(explicit) == len(indices)
            matched = set()
            for i in indices:
                tangle = ds.tangle(i)
                members = frozenset(
                    x for x in range(full + 1) if oracle.evaluate(x) < k and tangle.member(x)
                )
                hits = [e for e in explicit if e.members == members]
                assert len(hits) == 1
                matched.add(hits[0].members)
            assert len(matched) == len(explicit)


def test_membership_out_of_order(triforce):
    ds = build_structure(triforce.oracle, 2)
    tangle = ds.tangle(3)
    with pytest.raises(OutOfOrderError):
        tangle.member(triforce.edge(0, 1))  # a single edge has order 2


def test_membership_xor(triforce, k4):
    for oracle in (triforce.oracle, k4):
        top = max_tangle_order(oracle)
        ds = build_structure(oracle, top)
        full = oracle.ground.full_mask
        for i in range(1, ds.size(top) + 1):
            tangle = ds.tangle(i)
            for x in range(full + 1):
                if oracle.evaluate(x) < tangle.order:
                    assert tangle.member(x) != tangle.member(full & ~x)


def test_unit_tangle_contains_ground(triforce):
    ds = build_structure(triforce.oracle, 1)
    assert ds.tangle(2).member(triforce.full)


def test_truncate(triforce):
    ds = build_structure(triforce.oracle, 2)
    t3 = ds.tangle(3)
    unit = truncate(t3, 1)
    assert unit.order == 1 and unit.member(triforce.full)
    assert truncate(t3, 2) is t3
    assert truncate(t3, 5) is t3
    assert truncate(t3, 0) == empty_tangle(triforce.oracle)


def test_minimal_member_in_box(triforce):
    oracle = triforce.oracle
    ds = build_structure(oracle, 2)
    tri1 = ds.tangle(3)
    full = triforce.full
    assert minimal_member_in_box(oracle, tri1.member, 0, full, 1) == triforce.t1
    assert minimal_member_in_box(oracle, tri1.member, 0, triforce.t2 | triforce.t3, 1) is None
    unit = ds.tangle(2)
    assert minimal_member_in_box(oracle, unit.member, 0, full, 0) == full


def test_minimal_member_cross_check(k4, c5rank):
    """The shrinking search agrees with a full enumeration of members."""
    for oracle in (k4, c5rank):
        top = max_tangle_order(oracle)
        ds = build_structure(oracle, top)
        full = oracle.ground.full_mask
        for i in ds.indices_of_order(top):
            tangle = ds.tangle(i)
            members = [
                x for x in range(full + 1) if oracle.evaluate(x) < top and tangle.member(x)
            ]
            expected_min = [
                m for m in members if not any(z != m and z & ~m == 0 for z in members)
            ]
            got = minimal_member_in_box(oracle, tangle.member, 0, full, top - 1)
            assert got in expected_min


def test_exists_tangle_avoiding_examples(triforce):
    oracle = triforce.oracle
    full = triforce.full
    assert exists_tangle_avoiding(oracle, 2, [full & ~triforce.t1])
    assert not exists_tangle_avoiding(oracle, 2, [full & ~t for t in triforce.triangles])
    assert exists_tangle_avoiding(oracle, 0)


def test_exists_tangle_avoiding_rejects_high_order(triforce):
    with pytest.raises(DomainError):
        exists_tangle_avoiding(triforce.oracle, 1, [triforce.edge(0, 1)])  # order 2 > 0


def test_exists_tangle_avoiding_monotone(triforce):
    oracle = triforce.oracle
    full = triforce.full
    avoids = [full & ~t for t in triforce.triangles]
    state = True
    for upto in range(len(avoids) + 1):
        answer = exists_tangle_avoiding(oracle, 2, avoids[:upto])
        assert state or not answer  # adding avoid sets never flips false -> true
        state = answer


def test_has_tangle_of_order(p3, k4):
    assert not has_tangle_of_order(p3, 2)
    assert has_tangle_of_order(k4, 3)
    assert has_tangle_of_order(p3, 0)


def test_max_tangle_order_fixtures(triforce, p3, k4, grid3, c5rank):
    assert max_tangle_order(p3) == 1
    assert max_tangle_order(k4) == 3
    assert max_tangle_order(c5rank) == 2
    assert max_tangle_order(triforce.oracle) == 2
    assert brute_force_branch_width(p3) == 1
    assert brute_force_branch_width(k4) == 3
    assert brute_force_branch_width(c5rank) == 2


def test_max_tangle_order_stops_at_caterpillar_width():
    """The 3x3 grid's caterpillar has width 3, so no order-4 fixpoint runs."""
    oracle = edge_boundary_fn(grid3_graph())
    assert max_tangle_order(oracle) == 3
    assert 3 not in oracle.cache("bases")


def _ascending_caterpillar_width(oracle):
    n = oracle.ground.n
    if n == 1:
        return 0
    width, prefix = max(oracle.evaluate(1 << u) for u in range(n)), 0
    for u in range(n):
        prefix |= 1 << u
        width = max(width, oracle.evaluate(prefix))
    return width


def test_greedy_caterpillar_bound_under_relabeling():
    """On relabeled 3x3 grids the bound is the width 3, so neither an order-4
    fixpoint nor the order-3 bases it would need are computed."""
    grid = edge_boundary_fn(grid3_graph())
    rng = random.Random(12)
    for _ in range(20):
        perm = list(range(grid.ground.n))
        rng.shuffle(perm)
        oracle = permuted_oracle(grid, perm)
        assert max_tangle_order(oracle) == 3
        assert 3 not in oracle.cache("bases")


def test_caterpillar_bound_between_width_and_ascending_ids():
    for _, oracle in random_instances(8, 40, max_ground=7):
        bound = _caterpillar_width(oracle)
        assert brute_force_branch_width(oracle) <= bound <= _ascending_caterpillar_width(oracle)


def test_leftmost_tangle_separation_triforce(triforce):
    ds = build_structure(triforce.oracle, 2)
    t1, t2, t3 = (ds.tangle(i) for i in (3, 4, 5))
    by_triangle = {}
    for t in (t1, t2, t3):
        for mask in triforce.triangles:
            if t.member(mask):
                by_triangle[mask] = t
    a, b, c = (by_triangle[m] for m in triforce.triangles)
    assert leftmost_tangle_separation(a, b) == triforce.t1
    assert leftmost_tangle_separation(b, a) == triforce.t2
    assert leftmost_tangle_separation(a, truncate(a, 1)) is None


def _fixpoint_tangles(oracle, ds):
    """Each index's member family, asked of its avoidance context rather
    than read from its least-member table."""
    full = oracle.ground.full_mask
    explicit = {}
    for i in range(1, len(ds) + 1):
        tangle = ds.tangle(i)
        members = frozenset(
            x
            for x in range(full + 1)
            if oracle.evaluate(x) < tangle.order and tangle._avoid.exists((full & ~x,))
        )
        explicit[i] = ExplicitTangle(tangle.order, members)
    return explicit


def test_leftmost_tangle_separation_vs_brute(triforce, c5rank, k4):
    oracles = [triforce.oracle, c5rank, k4, two_c5_cut_rank(), k4_cycle_matroid(2)]
    oracles += [o for seed in range(4) for _, o in random_instances(seed, 10)]
    for oracle in oracles:
        ds = build_structure(oracle, max_tangle_order(oracle))
        explicit = _fixpoint_tangles(oracle, ds)
        for i in explicit:
            for j in explicit:
                if i == j:
                    continue
                fast = leftmost_tangle_separation(ds.tangle(i), ds.tangle(j))
                ti, tj = explicit[i], explicit[j]
                comparable = ti.members <= tj.members or tj.members <= ti.members
                if comparable:
                    assert fast is None
                else:
                    assert fast == brute_force_leftmost_tangle_separation(oracle, ti, tj)


def test_leftmost_contained_in_every_minimum(triforce):
    oracle = triforce.oracle
    ds = build_structure(oracle, 2)
    full = triforce.full
    for i in (3, 4, 5):
        for j in (3, 4, 5):
            if i == j:
                continue
            z = leftmost_tangle_separation(ds.tangle(i), ds.tangle(j))
            value = oracle.evaluate(z)
            ti, tj = ds.tangle(i), ds.tangle(j)
            for x in range(full + 1):
                if (
                    oracle.evaluate(x) == value
                    and ti.member(x)
                    and tj.member(full & ~x)
                ):
                    assert z & ~x == 0


def test_tangle_lattice_bottom(triforce):
    oracle = triforce.oracle
    ds = build_structure(oracle, 2)
    tri1 = next(t for t in (ds.tangle(i) for i in (3, 4, 5)) if t.member(triforce.t1))
    base = Base(triforce.edge(0, 1), triforce.edge(0, 3), 1)
    assert tangle_lattice_bottom(tri1, base) == triforce.t1
    reverse = Base(triforce.edge(0, 3), triforce.edge(0, 1), 1)
    assert tangle_lattice_bottom(tri1, reverse) is None
    unit = ds.tangle(2)
    assert tangle_lattice_bottom(unit, Base(0, 0, 0)) == triforce.full
    # Base(0, {e}, 0) is no base: its box holds only the empty set, a
    # lattice no base has.
    with pytest.raises(DomainError):
        tangle_lattice_bottom(unit, Base(0, 1, 0))
    full = triforce.full
    for i in range(2, len(ds) + 1):
        tangle = ds.tangle(i)
        fixpoint = lambda x, t=tangle: t._avoid.exists((full & ~x,))
        for base in enumerate_bases(oracle, tangle.order - 1):
            want = minimal_member_in_lattice(oracle, fixpoint, base)
            assert tangle_lattice_bottom(tangle, base) == want


def _inclusion_minimal(members):
    return [m for m in members if not any(z != m and z & ~m == 0 for z in members)]


def test_minimal_member_in_lattice_against_definition(triforce, k4, p3, c5rank, grid3):
    """The descent on every base of order <= 2, against the brute-force
    lattice: the least member for each tangle, and an inclusion-minimal
    member for the union of all tangles of one order, which the
    tangle-structure splitter asks about at the root of each level."""
    oracles = [triforce.oracle, k4, p3, c5rank, grid3]
    oracles += [o for _, o in random_instances(5, 10)]
    for oracle in oracles:
        full = oracle.ground.full_mask
        top = max_tangle_order(oracle)
        ds = build_structure(oracle, top)
        tangles = [ds.tangle(i) for k in range(1, top + 1) for i in ds.indices_of_order(k)]
        unions = {}
        for order in range(1, top + 1):
            ctx = _context(oracle, order, ())
            unions[order] = lambda x, ctx=ctx: ctx.exists((full & ~x,))
        for base in enumerate_bases(oracle, min(2, top - 1)):
            lattice = brute_force_lattice(oracle, base.b1, base.b2)
            for tangle in tangles:
                if tangle.order <= base.order:
                    continue
                minimal = _inclusion_minimal([z for z in lattice if tangle.member(z)])
                assert len(minimal) <= 1
                expected = minimal[0] if minimal else None
                assert minimal_member_in_lattice(oracle, tangle.member, base) == expected
            for order in range(base.order + 1, top + 1):
                member = unions[order]
                minimal = _inclusion_minimal([z for z in lattice if member(z)])
                got = minimal_member_in_lattice(oracle, member, base)
                assert got in minimal if minimal else got is None


def _join_instances(triforce, grid3, c5rank):
    """The join-table tests read every lattice of enumerate_lattices(oracle, 2)
    for each of these oracles."""
    oracles = [triforce.oracle, grid3, c5rank, k4_cycle_matroid(2), chain_k4_vertex_cut(4)]
    return oracles + [o for seed in range(4) for _, o in random_instances(seed, 10)]


def _subsets(mask):
    sub = mask
    while True:
        yield sub
        if not sub:
            return
        sub = (sub - 1) & mask


def test_join_table_reads_greatest_member_inside(triforce, grid3, c5rank):
    """The bottom plus every join inside W is the rightmost minimizer of the
    box [bottom, W & top], the greatest lattice member inside W: for every
    W above the bottom when the lattice has at most 10 free positions, and
    for 200 seeded windows when it has more."""
    rng = random.Random(31)
    for oracle in _join_instances(triforce, grid3, c5rank):
        n, full = oracle.ground.n, oracle.ground.full_mask
        for base in enumerate_lattices(oracle, 2):
            bottom, top = base.b1, full & ~base.b2
            joins = _joins(oracle, base)
            free = top & ~bottom
            if free.bit_count() <= 10:
                inside = list(_subsets(free))
            else:
                inside = [rng.getrandbits(n) & free for _ in range(200)]
            for sub in inside:
                w = bottom | sub | (rng.getrandbits(n) & ~top & full)
                value, _, right = box_min(oracle, bottom, w & top)
                assert value == base.order
                assert _greatest_inside(bottom, joins, w) == right


def test_join_table_holds_least_member_per_element(triforce, grid3, c5rank):
    """The join table is the set of least members that hold each u in
    top - bottom, against the lattice's members by definition: the sets
    between its bottom and top that have its order."""
    for oracle in _join_instances(triforce, grid3, c5rank):
        full = oracle.ground.full_mask
        get = oracle.value_getter()
        for base in enumerate_lattices(oracle, 2):
            bottom, top = base.b1, full & ~base.b2
            free = top & ~bottom
            members = [bottom | sub for sub in _subsets(free) if get(bottom | sub) == base.order]
            least = {reduce(and_, [m for m in members if m >> u & 1]) for u in iter_bits(free)}
            assert set(_joins(oracle, base)) == least


def _box_read_descent(oracle, member, base):
    """The lattice descent by box reads: the greatest lattice member inside
    x - u is the rightmost minimizer of [b1, x - u] when that box has the
    lattice's order."""
    r = box_min(oracle, base.b1, oracle.ground.complement(base.b2))
    if r is None or r[0] != base.order:
        return None
    q, bottom, top = r
    if not member(top):
        return None
    if bottom == top or member(bottom):
        return bottom
    x = top
    for u in iter_bits(top & ~base.b1):
        if x >> u & 1:
            r = box_min(oracle, base.b1, x & ~(1 << u))
            if r[0] == q and member(r[2]):
                x = r[2]
    return x


def test_lattice_descent_matches_box_reads(triforce, grid3, c5rank):
    """minimal_member_in_lattice against the box-read descent, for the union
    of each order's tangles of build_structure(oracle, 3), on every lattice
    of order at most 2 and, up to 12 elements, on every base."""
    for oracle in _join_instances(triforce, grid3, c5rank):
        full = oracle.ground.full_mask
        build_structure(oracle, 3)
        unions = {}
        for order in (1, 2, 3):
            ctx = _context(oracle, order, ())
            unions[order] = lambda x, ctx=ctx: ctx.exists((full & ~x,))
        bases = enumerate_lattices(oracle, 2)
        if oracle.ground.n <= 12:
            bases = bases + enumerate_bases(oracle, 2)
        for base in bases:
            for order in range(base.order + 1, 4):
                member = unions[order]
                expected = _box_read_descent(oracle, member, base)
                assert minimal_member_in_lattice(oracle, member, base) == expected


def test_leftmost_tangle_set_separation(triforce):
    ds = build_structure(triforce.oracle, 2)
    tri1 = next(t for t in (ds.tangle(i) for i in (3, 4, 5)) if t.member(triforce.t1))
    assert leftmost_tangle_set_separation(tri1, triforce.full & ~triforce.t1) == triforce.t1
    assert leftmost_tangle_set_separation(tri1, triforce.t1) is None


def _reference_set_separation(oracle, members, x):
    """The intersection of the least-order members disjoint from x, which
    must be one of them; None when no member is disjoint from x."""
    disjoint = [m for m in members if not m & x]
    if not disjoint:
        return None
    q = min(oracle.evaluate(m) for m in disjoint)
    least = [m for m in disjoint if oracle.evaluate(m) == q]
    meet = reduce(and_, least)
    assert meet in least
    return meet


def test_set_separation_against_reference(triforce, p3, k4, c5rank):
    """Every tangle against its explicit family from the brute-force
    enumeration, for every x up to 8 elements and a seeded sample above."""
    oracles = [triforce.oracle, p3, k4, c5rank]
    oracles += [o for seed in range(4) for _, o in random_instances(seed, 10)]
    rng = random.Random(0)
    for oracle in oracles:
        full = oracle.ground.full_mask
        xs = range(full + 1) if oracle.ground.n <= 8 else rng.sample(range(full + 1), 128)
        ds = build_structure(oracle, max_tangle_order(oracle))
        explicit = {}
        for i in range(1, len(ds) + 1):
            tangle = ds.tangle(i)
            if tangle.order not in explicit:
                explicit[tangle.order] = brute_force_tangles(oracle, tangle.order)
            family = [e.members for e in explicit[tangle.order] if set(tangle.signature) <= e.members]
            assert len(family) == 1
            for x in xs:
                want = _reference_set_separation(oracle, family[0], x)
                assert leftmost_tangle_set_separation(tangle, x) == want


def test_separations_reuse_least_members(monkeypatch):
    """Least members are computed once per tangle and order: asking every
    separation again runs no lattice descent."""
    from tanglekit import tangles

    structures = []
    for oracle in (edge_boundary_fn(Graph.from_edges(7, TRIFORCE_EDGES)), two_c5_cut_rank()):
        structures.append(build_structure(oracle, max_tangle_order(oracle)))

    def ask():
        out = []
        for ds in structures:
            indices = range(1, len(ds) + 1)
            out += [ds.separation(i, j) for i in indices for j in indices if i != j]
            out += [leftmost_tangle_set_separation(ds.tangle(i), x) for i in indices for x in (0, 1, 6)]
        return out

    first = ask()
    assert any(z is not None for z in first)
    calls = []
    descent = tangles.minimal_member_in_lattice

    def counted(*args, **kwargs):
        calls.append(args)
        return descent(*args, **kwargs)

    monkeypatch.setattr(tangles, "minimal_member_in_lattice", counted)
    assert ask() == first
    assert not calls


def _table_instances():
    """Makers of fresh oracles: the triforce, the 3x3 grid, C5 and two C5
    under cut rank, M(K4) + M(K4), and 40 seeded random instances."""
    makers = [
        lambda: edge_boundary_fn(Graph.from_edges(7, TRIFORCE_EDGES)),
        lambda: edge_boundary_fn(grid3_graph()),
        lambda: cut_rank_fn(Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])),
        two_c5_cut_rank,
        lambda: k4_cycle_matroid(2),
    ]
    for seed in range(4):
        count = len(random_instances(seed, 10))
        makers += [lambda seed=seed, k=k: random_instances(seed, 10)[k][1] for k in range(count)]
    return makers


def test_table_membership_matches_fixpoint():
    """Every indexed tangle's table answers membership as its avoidance
    context does, on every set of order below the tangle's."""
    for make in _table_instances():
        oracle = make()
        full = oracle.ground.full_mask
        ds = build_structure(oracle, max_tangle_order(oracle))
        for i in range(1, len(ds) + 1):
            tangle = ds.tangle(i)
            low = _low_order_sets(oracle, tangle.order)
            assert [tangle.member(x) for x in low] == [
                tangle._avoid.exists((full & ~x,)) for x in low
            ]


def test_build_deposits_the_tables_a_loaded_structure_computes():
    """The build publishes one table per tangle of positive order, and a
    structure loaded from its document onto a fresh oracle computes the
    same tables on first use."""
    for make in _table_instances():
        oracle = make()
        ds = build_structure(oracle, max_tangle_order(oracle))
        deposited = dict(oracle.cache("least_members"))
        tangles = [ds.tangle(i) for i in range(1, len(ds) + 1)]
        assert set(deposited) == {(t.order, t.signature) for t in tangles if t.order}
        fresh = make()
        loaded = TangleDataStructure.from_json(fresh, ds.to_json())
        assert not fresh.cache("least_members")
        for i, tangle in enumerate(tangles, 1):
            table = loaded.tangle(i)._table
            assert table == tangle._table == deposited.get((tangle.order, tangle.signature), ())
            assert [len(row) for row in table] == [
                len(_order_lattices(oracle, q, tangle.order - 1)) for q in range(tangle.order)
            ]


def test_tangle_count_bound(triforce, p3, k4, c5rank, grid3):
    for oracle in (triforce.oracle, p3, k4, c5rank, grid3):
        n = oracle.ground.n
        top = max_tangle_order(oracle)
        ds = build_structure(oracle, top)
        for k in range(top + 1):
            assert len(ds.indices_of_order(k)) <= n


def test_signature_sets_are_members(triforce, k4):
    for oracle in (triforce.oracle, k4):
        top = max_tangle_order(oracle)
        ds = build_structure(oracle, top)
        for i in range(1, ds.size(top) + 1):
            tangle = ds.tangle(i)
            for s in tangle.signature:
                assert tangle.member(s)


def _round_robin_fixpoint(oracle, order, avoids):
    """Reference closure over the bases themselves, one mu per base: every
    base against every window, round after round, until no update changes
    mu or two mu values cover the ground set.
    Seeds mu(B) with each singleton {u} of order ord(B) that is B's b1 or,
    when b1 is empty, lies outside b2 (no singleton is a member), and with
    the greatest lattice member inside each avoided set.
    Returns (tangle exists, bases, mu)."""
    bases = enumerate_bases(oracle, order - 1)
    full = oracle.ground.full_mask
    mu = [0] * len(bases)
    for i, base in enumerate(bases):
        for u in range(oracle.ground.n):
            bit = 1 << u
            if oracle.evaluate(bit) == base.order and not bit & base.b2 and base.b1 in (0, bit):
                mu[i] |= bit
        for a in avoids:
            r = box_min(oracle, base.b1, a & ~base.b2)
            if r is not None and r[0] == base.order:
                mu[i] |= r[2]
    while True:
        values = {v for v in mu if v}
        windows = {a | b for a in values for b in values}
        if full in windows:
            return False, bases, mu
        changed = False
        for i, base in enumerate(bases):
            for w in windows:
                r = box_min(oracle, base.b1, w & ~base.b2)
                if r is not None and r[0] == base.order and r[2] & ~mu[i]:
                    mu[i] |= r[2]
                    changed = True
        if not changed:
            return True, bases, mu


def _low_order_sets(oracle, order):
    return [x for x in range(oracle.ground.full_mask + 1) if oracle.evaluate(x) < order]


def test_fixpoint_matches_round_robin(triforce, k4, p3, c5rank, grid3):
    oracles = [triforce.oracle, k4, p3, c5rank, grid3]
    oracles += [o for seed in (5, 6) for _, o in random_instances(seed, 10)]
    for oracle in oracles:
        full = oracle.ground.full_mask
        for order in (1, 2, 3):
            low = _low_order_sets(oracle, order)
            singles = [(x,) for x in low[1 :: max(1, len(low) // 6)]]
            pairs = [(a, b) for (a,), (b,) in zip(singles, singles[1:])]
            families = [()] + singles + pairs
            for avoids in families:
                ctx = AvoidContext(oracle, order, avoids)
                answer, bases, mu = _round_robin_fixpoint(oracle, order, avoids)
                assert ctx.exists() == answer
                if answer:
                    # one mu per lattice: each base's mu is its lattice's
                    index = {(b.b1, full & ~b.b2): i for i, b in enumerate(ctx.lattices)}
                    for base, value in zip(bases, mu):
                        key = (lattice_bottom(oracle, base), lattice_top(oracle, base))
                        assert ctx.mu[index[key]] == value


def test_warm_exists_matches_cold_context(triforce, k4):
    """exists(extras) starts from the stored fixpoint and its checked windows;
    it must answer as a context built with the extras among its avoided sets,
    however many queries the context answered before."""
    for oracle in (triforce.oracle, k4):
        for order in (1, 2, 3):
            ctx = AvoidContext(oracle, order)
            low = _low_order_sets(oracle, order)
            families = [(x,) for x in low]
            families += [f for size in (2, 3) for f in combinations(low[:8], size)]
            for extras in families:
                assert ctx.exists(extras) == AvoidContext(oracle, order, extras).exists()


def test_split_children_match_cold_contexts():
    """Every context a structure build leaves, split children started from
    their parent's fixpoint included, has the mu values and answers of a
    cold context for its (order, avoids) key."""
    warm = 0
    for make in _table_instances():
        oracle = make()
        full = oracle.ground.full_mask
        build_structure(oracle, 3)
        for (order, avoids), ctx in dict(oracle.cache("avoid_ctx")).items():
            cold = AvoidContext(oracle, order, avoids)
            assert ctx.mu == cold.mu and ctx.seen >= set(avoids)
            assert ctx.exists() == cold.exists()
            low = _low_order_sets(oracle, order)[::5]
            assert [ctx.exists((full & ~x,)) for x in low] == [cold.exists((full & ~x,)) for x in low]
            warm += len(avoids) > 0
    assert warm


def test_concurrent_build_publishes_one_context_per_leaf():
    """A build races threads that load its structure onto the same fresh
    oracle and bind every leaf's avoidance context: all threads bind the
    one context published for each key, and it equals a cold one."""
    doc = build_structure(two_c5_cut_rank(), 2).to_json()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(10):
            oracle = two_c5_cut_rank()
            full = oracle.ground.full_mask
            barrier = threading.Barrier(4)
            results = []

            def bind(load):
                barrier.wait()
                if load:
                    ds = TangleDataStructure.from_json(oracle, doc)
                else:
                    ds = build_structure(oracle, 2)
                tangles = [ds.tangle(i) for i in range(1, len(ds) + 1) if ds.tangle_order(i)]
                results.append({(t.order, t.signature): t._avoid for t in tangles})

            threads = [threading.Thread(target=bind, args=(k % 2,)) for k in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
                assert not t.is_alive()
            assert len(results) == 4
            cache = oracle.cache("avoid_ctx")
            for (order, signature), ctx in results[0].items():
                key = (order, frozenset(full & ~s for s in signature))
                assert all(r[(order, signature)] is ctx for r in results)
                assert cache[key] is ctx
                assert ctx.mu == AvoidContext(oracle, order, key[1]).mu
    finally:
        sys.setswitchinterval(interval)


def test_concurrent_context_is_shared():
    """Threads racing for one fresh oracle's avoidance context share one."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(20):
            oracle = edge_boundary_fn(Graph.from_edges(7, TRIFORCE_EDGES))
            barrier = threading.Barrier(4)
            results = []

            def get():
                barrier.wait()
                results.append(_context(oracle, 2, ()))

            threads = [threading.Thread(target=get) for _ in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
                assert not t.is_alive()
            assert len(results) == 4
            assert all(r is results[0] for r in results)
    finally:
        sys.setswitchinterval(interval)


def test_concurrent_separations():
    """Threads asking every separation of one fresh structure at once get
    the serial answers, while they fill the shared least-member cache."""

    def answers(ds):
        indices = range(1, len(ds) + 1)
        return {(i, j): ds.separation(i, j) for i in indices for j in indices if i != j}

    serial = answers(build_structure(two_c5_cut_rank(), 2))
    assert any(z is not None for z in serial.values())
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(20):
            ds = build_structure(two_c5_cut_rank(), 2)
            barrier = threading.Barrier(4)
            results = []

            def ask():
                barrier.wait()
                results.append(answers(ds))

            threads = [threading.Thread(target=ask) for _ in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
                assert not t.is_alive()
            assert results == [serial] * 4
    finally:
        sys.setswitchinterval(interval)


def test_concurrent_table_membership():
    """Threads asking membership and separations of a freshly loaded
    structure at once fill its tables concurrently, get the serial answers,
    and keep one published table per tangle."""
    doc = build_structure(two_c5_cut_rank(), 2).to_json()

    def answers(ds):
        oracle = ds.oracle
        indices = range(1, len(ds) + 1)
        low = {i: _low_order_sets(oracle, ds.tangle_order(i))[::7] for i in indices}
        member = {(i, x): ds.membership(i, x) for i in indices for x in low[i]}
        sep = {(i, j): ds.separation(i, j) for i in indices for j in indices if i != j}
        return member, sep

    serial = answers(TangleDataStructure.from_json(two_c5_cut_rank(), doc))
    assert any(serial[0].values()) and any(z is not None for z in serial[1].values())
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(10):
            oracle = two_c5_cut_rank()
            ds = TangleDataStructure.from_json(oracle, doc)
            barrier = threading.Barrier(4)
            results = []

            def ask():
                barrier.wait()
                results.append(answers(ds))

            threads = [threading.Thread(target=ask) for _ in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
                assert not t.is_alive()
            assert results == [serial] * 4
            published = oracle.cache("least_members")
            for i in range(2, len(ds) + 1):
                tangle = ds.tangle(i)
                assert tangle._table is published[(tangle.order, tangle.signature)]
    finally:
        sys.setswitchinterval(interval)
