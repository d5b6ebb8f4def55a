"""Free sets, bases, and base lattices."""

import sys
import threading
from itertools import combinations

import pytest

from conftest import chain_k4_vertex_cut, grid3_graph, k4_cycle_matroid, triforce_graph
from tanglekit import (
    Base,
    DomainError,
    Graph,
    base_for_set,
    cut_rank_fn,
    edge_boundary_fn,
    enumerate_bases,
    enumerate_lattices,
    free_subset,
    is_base,
    kappa_min,
    lattice_bottom,
    lattice_top,
)
from tanglekit.oracles import brute_force_lattice, random_instances
from tanglekit.separations import _exhaustive_box_min


def test_free_subset_triforce(triforce):
    # each single edge of the triangle already pins the order-1 separation;
    # the scan keeps the lowest id
    got = free_subset(triforce.oracle, triforce.t1)
    assert got == triforce.t1 & -triforce.t1


def test_free_subset_trivials(triforce):
    assert free_subset(triforce.oracle, 0) == 0
    assert free_subset(triforce.oracle, triforce.full) == 0


def test_free_subset_properties(triforce, k4, c5rank):
    for oracle in (triforce.oracle, k4, c5rank):
        full = oracle.ground.full_mask
        for x in range(full + 1):
            y = free_subset(oracle, x)
            assert y & ~x == 0
            assert y.bit_count() <= oracle.evaluate(x)
            assert kappa_min(oracle, y, full & ~x).value == oracle.evaluate(x)


def test_is_base(triforce):
    oracle = triforce.oracle
    assert is_base(oracle, 0, 0)
    assert is_base(oracle, triforce.edge(0, 1), triforce.edge(0, 3))
    two_edges = triforce.edge(0, 1) | triforce.edge(0, 2)
    assert not is_base(oracle, two_edges, 0)  # the whole ground set has order 0
    with pytest.raises(DomainError):
        is_base(oracle, 0b11, 0b01)


def test_enumerate_bases_order_zero(p3, triforce):
    for oracle in (p3, triforce.oracle):
        bases = enumerate_bases(oracle, 0)
        assert Base(0, 0, 0) in bases
        assert all(b.order == 0 for b in bases)


def test_enumerate_bases_p3(p3):
    bases = enumerate_bases(p3, 1)
    assert Base(0b01, 0b10, 1) in bases
    assert Base(0b10, 0b01, 1) in bases


def _fresh_instances():
    """(fresh oracle, highest order to enumerate): the fixtures' instances,
    two- and four-K4 chains, M(K4) (+) M(K4) and seeded random instances,
    with empty caches.  On the four-K4 chain and the matroid most pairs are
    copied from a parent, bounded above k or skipped without a minimizer
    call."""
    out = [
        (edge_boundary_fn(Graph.from_edges(3, [(0, 1), (1, 2)])), 2),
        (edge_boundary_fn(Graph.from_edges(4, list(combinations(range(4), 2)))), 6),
        (cut_rank_fn(Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])), 5),
        (edge_boundary_fn(triforce_graph()), 4),
        (edge_boundary_fn(grid3_graph()), 3),
        (chain_k4_vertex_cut(2), 3),
        (chain_k4_vertex_cut(4), 2),
        (k4_cycle_matroid(2), 2),
    ]
    out += [(o, o.ground.n) for seed in (0, 1, 2) for _, o in random_instances(seed, 6)]
    return out


def _double_loop_bases(oracle, k):
    """Bases by the definition: every ordered pair of disjoint candidate
    sides minimized on its own, sorted by (b1, b2)."""
    ids = range(oracle.ground.n)
    candidates = [sum(1 << i for i in c) for size in range(k + 1) for c in combinations(ids, size)]
    out = []
    for b1 in candidates:
        for b2 in candidates:
            if b1 & b2:
                continue
            value = kappa_min(oracle, b1, b2).value
            if value <= k and value >= max(b1.bit_count(), b2.bit_count()):
                out.append(Base(b1, b2, value))
    return sorted(out, key=lambda b: (b.b1, b.b2))


def test_enumerate_bases_matches_filter():
    """enumerate_bases, which minimizes each unordered pair once, equals the
    definition's ordered double loop run on a second fresh oracle."""
    for (oracle, top), (reference, _) in zip(_fresh_instances(), _fresh_instances()):
        for k in range(top + 1):
            got = enumerate_bases(oracle, k)
            assert got == _double_loop_bases(reference, k), (oracle, k)
            assert len({(b.b1, b.b2) for b in got}) == len(got)


def test_base_for_set(triforce, k4):
    for oracle, x in ((triforce.oracle, triforce.t1), (k4, 0b000001)):
        base = base_for_set(oracle, x)
        assert base.order == oracle.evaluate(x)
        members = brute_force_lattice(oracle, base.b1, base.b2)
        assert x in members
    assert base_for_set(triforce.oracle, 0) == Base(0, 0, 0)


def test_lattice_bottom_and_top_triforce(triforce):
    oracle = triforce.oracle
    base = Base(triforce.edge(0, 1), triforce.edge(0, 3), 1)
    members = brute_force_lattice(oracle, base.b1, base.b2)
    assert members == sorted([triforce.t1, triforce.t1 | triforce.t3])
    assert lattice_bottom(oracle, base) == triforce.t1
    assert lattice_top(oracle, base) == triforce.t1 | triforce.t3
    assert lattice_bottom(oracle, Base(0, 0, 0)) == 0
    with pytest.raises(DomainError):
        lattice_bottom(oracle, Base(0b11, 0, 0))


def test_lattice_scan_small(p3, c5rank, k4):
    """Bottom/top equal the extremes of an exhaustive lattice scan and every
    member shares the base order; the lattice is intersection/union closed."""
    for oracle in (p3, c5rank, k4):
        for base in enumerate_bases(oracle, 2):
            members = brute_force_lattice(oracle, base.b1, base.b2)
            assert members, base
            assert lattice_bottom(oracle, base) == min(members, key=lambda m: (m.bit_count(), m))
            assert lattice_top(oracle, base) == max(members, key=lambda m: (m.bit_count(), m))
            member_set = set(members)
            for m in members:
                assert oracle.evaluate(m) == base.order
            for a in members:
                for b in members:
                    assert a & b in member_set and a | b in member_set
            bottom, top = lattice_bottom(oracle, base), lattice_top(oracle, base)
            assert all(bottom & ~m == 0 and m & ~top == 0 for m in members)


def test_bases_size_bound(c5rank):
    bases = enumerate_bases(c5rank, 2)
    for base in bases:
        assert base.b1.bit_count() <= base.order <= 2
        assert base.b2.bit_count() <= base.order


def test_enumerate_lattices_dedupes_bases():
    """One lattice per distinct (bottom, top) of the bases, in the order of
    its first base, carrying that base's order."""
    for oracle, top in _fresh_instances():
        full = oracle.ground.full_mask
        for k in range(top + 1):
            expected = {}
            for base in enumerate_bases(oracle, k):
                key = (lattice_bottom(oracle, base), lattice_top(oracle, base))
                expected.setdefault(key, base.order)
            got = [(b.b1, full & ~b.b2, b.order) for b in enumerate_lattices(oracle, k)]
            assert got == [(bottom, top, order) for (bottom, top), order in expected.items()]


def test_enumerated_boxes_match_minimizer():
    """Every box answer enumeration caches, including the swapped boxes it
    fills without a minimizer call, is what the minimizer returns."""
    for (oracle, top), (reference, _) in zip(_fresh_instances(), _fresh_instances()):
        enumerate_bases(oracle, top)
        minimizer = reference.minimizer or _exhaustive_box_min
        for (lo, hi), answer in oracle.caches["box_min"].items():
            assert answer == minimizer(reference, lo, hi), (oracle, lo, hi)


def test_enumeration_minimizer_calls():
    """A pair whose box a parent pair already settles, or whose minimum a
    parent bounds above k, gets no minimizer call: 967 calls on the 3x3 grid
    and 753 on the four-K4 chain for order 2, where minimizing every
    unordered pair takes 2,290 and 7,397."""
    for oracle, most in ((edge_boundary_fn(grid3_graph()), 967), (chain_k4_vertex_cut(4), 753)):
        minimizer, calls = oracle.minimizer, []

        def counted(*args, minimizer=minimizer, calls=calls):
            calls.append(args)
            return minimizer(*args)

        oracle.minimizer = counted
        enumerate_bases(oracle, 2)
        assert len(calls) <= most, (oracle, len(calls))


def test_concurrent_enumeration_is_shared():
    """Threads racing to enumerate a fresh oracle's bases all get one list."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(40):
            oracle = edge_boundary_fn(triforce_graph())
            barrier = threading.Barrier(4)
            results = []

            def enumerate_after_barrier():
                barrier.wait()
                results.append(enumerate_bases(oracle, 2))

            threads = [threading.Thread(target=enumerate_after_barrier) for _ in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
                assert not t.is_alive()
            assert len(results) == 4
            assert all(r is results[0] for r in results)
    finally:
        sys.setswitchinterval(interval)
