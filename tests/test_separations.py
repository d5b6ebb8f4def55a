"""Constrained minimization and leftmost/rightmost minimum separations."""

import random
import sys
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import K4_EDGES, TRIFORCE_EDGES, chain_k4_vertex_cut, grid3_graph, k4_cycle_matroid
from tanglekit import (
    ConnectivityOracle,
    DomainError,
    Graph,
    MinSeparationResult,
    cut_rank_fn,
    edge_boundary_fn,
    has_tangle_of_order,
    kappa_min,
    leftmost_min_separation,
    rightmost_min_separation,
    vertex_cut_fn,
)
from tanglekit.oracles import (
    brute_force_leftmost_in_box,
    brute_force_leftmost_separation,
    permuted_oracle,
    random_instances,
)
from tanglekit.separations import (
    _exhaustive_box_min,
    box_min,
    leftmost_min_in_box,
    rightmost_min_in_box,
)

def test_kappa_min_triforce(triforce):
    a = triforce.edge(0, 1)
    b = triforce.edge(0, 3)
    result = kappa_min(triforce.oracle, a, b)
    assert result.value == 1
    assert triforce.oracle.evaluate(result.witness) == 1
    assert result.witness & a == a and result.witness & b == 0


def test_kappa_min_trivials(triforce):
    assert kappa_min(triforce.oracle, 0, 0).value == 0
    x = triforce.t1
    forced = kappa_min(triforce.oracle, x, triforce.full & ~x)
    assert forced.value == triforce.oracle.evaluate(x)
    assert forced.witness == x


def test_kappa_min_rejects_overlap(triforce):
    with pytest.raises(DomainError):
        kappa_min(triforce.oracle, 0b11, 0b10)


def test_leftmost_triforce(triforce):
    a = triforce.edge(0, 1)
    b = triforce.edge(0, 3)
    assert leftmost_min_separation(triforce.oracle, a, b) == triforce.t1
    assert rightmost_min_separation(triforce.oracle, a, b) == triforce.t1 | triforce.t3


def test_leftmost_forced_box(triforce):
    x = triforce.t2
    assert leftmost_min_separation(triforce.oracle, x, triforce.full & ~x) == x
    assert rightmost_min_separation(triforce.oracle, x, triforce.full & ~x) == x


def test_leftmost_p3(p3):
    assert leftmost_min_separation(p3, 0b01, 0b10) == 0b01
    assert rightmost_min_separation(p3, 0b01, 0b10) == 0b01


def _all_disjoint_pairs(full):
    for x in range(full + 1):
        rest = full & ~x
        y = rest
        while True:
            yield x, y
            if y == 0:
                break
            y = (y - 1) & rest


def test_exhaustive_agreement_small(p3, c5rank, k4):
    for oracle in (p3, c5rank, k4):
        full = oracle.ground.full_mask
        for x, y in _all_disjoint_pairs(full):
            fast = leftmost_min_separation(oracle, x, y)
            brute = brute_force_leftmost_separation(oracle, x, y)
            assert fast == brute
            assert rightmost_min_separation(oracle, x, y) == full & ~leftmost_min_separation(
                oracle, y, x
            )


def test_leftmost_contained_in_all_minimizers(c5rank):
    oracle = c5rank
    full = oracle.ground.full_mask
    for x, y in _all_disjoint_pairs(full):
        value = kappa_min(oracle, x, y).value
        left = leftmost_min_separation(oracle, x, y)
        assert oracle.evaluate(left) == value
        free = full & ~(x | y)
        sub = free
        while True:
            z = x | sub
            if oracle.evaluate(z) == value:
                assert left & ~z == 0
            if sub == 0:
                break
            sub = (sub - 1) & free


def test_monotone_in_second_argument(triforce):
    rng = random.Random(5)
    oracle = triforce.oracle
    for _ in range(50):
        x = rng.randrange(triforce.full + 1)
        rest = triforce.full & ~x
        y1 = rng.randrange(triforce.full + 1) & rest
        y2 = y1 | (rng.randrange(triforce.full + 1) & rest & ~y1)
        assert kappa_min(oracle, x, y1).value <= kappa_min(oracle, x, y2).value


def test_box_pinning_consistency(k4):
    full = k4.ground.full_mask
    for x, y in _all_disjoint_pairs(full):
        lo, hi = x, full & ~y
        assert leftmost_min_in_box(k4, lo, hi) == leftmost_min_separation(k4, x, y)
        assert rightmost_min_in_box(k4, lo, hi) == rightmost_min_separation(k4, x, y)


@given(st.integers(min_value=0, max_value=10**9), st.integers(min_value=0, max_value=511))
@settings(max_examples=25, deadline=None)
def test_permutation_equivariance(seed, pair_bits):
    rng = random.Random(seed)
    instances = random_instances(seed % 1000, 1)
    if not instances:
        return
    _, oracle = instances[0]
    n = oracle.ground.n
    full = oracle.ground.full_mask
    x = pair_bits & full
    y = (pair_bits >> 3) & full & ~x
    perm = list(range(n))
    rng.shuffle(perm)
    image = permuted_oracle(oracle, perm)

    def push(mask):
        out = 0
        for i in range(n):
            if mask >> i & 1:
                out |= 1 << perm[i]
        return out

    assert push(leftmost_min_separation(oracle, x, y)) == leftmost_min_separation(
        image, push(x), push(y)
    )


def test_minimizer_hook(triforce):
    """A pluggable minimizer replaces the exhaustive default, and the leftmost
    and rightmost separations are read from its (value, leftmost, rightmost)."""
    from tanglekit.connectivity import edge_boundary_fn
    from tanglekit.separations import _exhaustive_box_min

    oracle = edge_boundary_fn(triforce.graph)
    calls = []

    def counting_minimizer(orc, lo, hi):
        calls.append((lo, hi))
        return _exhaustive_box_min(orc, lo, hi)

    oracle.minimizer = counting_minimizer
    a, b = triforce.edge(0, 1), triforce.edge(0, 3)
    assert kappa_min(oracle, a, b).value == 1
    assert calls == [(a, triforce.full & ~b)]

    # A hook that answers the box corners, not the true extremes (t1 and
    # everything but t2), shows that both sides are read from the hook.
    oracle.minimizer = lambda orc, lo, hi: (5, lo, hi)
    x, y = triforce.edge(1, 2), triforce.edge(3, 4)
    hi = triforce.full & ~y
    assert leftmost_min_separation(triforce.oracle, x, y) == triforce.t1
    assert rightmost_min_separation(triforce.oracle, x, y) == triforce.t1 | triforce.t3
    assert leftmost_min_separation(oracle, x, y) == leftmost_min_in_box(oracle, x, hi) == x
    assert rightmost_min_separation(oracle, x, y) == rightmost_min_in_box(oracle, x, hi) == hi
    assert kappa_min(oracle, x, y) == MinSeparationResult(5, x)


def test_exhaustive_guard():
    from tanglekit import SizeGuardError
    from tanglekit.connectivity import ConnectivityOracle, GroundSet

    big = ConnectivityOracle(GroundSet(25), lambda x: 0)
    with pytest.raises(SizeGuardError):
        kappa_min(big, 0, 0)


def _every_box(full):
    return ((x, full & ~y) for x, y in _all_disjoint_pairs(full))


def _assert_flow_agrees(oracle, boxes):
    """The max flow against the exhaustive scan."""
    network = oracle.minimizer
    for lo, hi in boxes:
        assert network.min_cut(lo, hi) == _exhaustive_box_min(oracle, lo, hi), (lo, hi)


def test_flow_agrees_on_every_box():
    k4 = [(u, v) for u in range(4) for v in range(u + 1, 4)]
    graphs = [
        Graph.from_edges(7, TRIFORCE_EDGES),
        Graph.from_edges(4, k4),
        Graph.from_edges(3, [(0, 1), (1, 2)]),
    ]
    makers = [lambda g=g, fn=fn: fn(g) for g in graphs for fn in (vertex_cut_fn, edge_boundary_fn)]
    makers.append(lambda: chain_k4_vertex_cut(3))
    for make in makers:
        oracle, fresh = make(), make()
        for lo, hi in _every_box(oracle.ground.full_mask):
            flow = oracle.minimizer.min_cut(lo, hi)
            assert flow == _exhaustive_box_min(oracle, lo, hi), (lo, hi)
            assert box_min(fresh, lo, hi) == flow, (lo, hi)
        # The fresh oracle answered every box, small ones too, by the flow alone.
        assert fresh.calls == 0, fresh


def test_flow_agrees_on_random_graphs():
    rng = random.Random(3)
    graphs = [
        Graph.from_edges(7, [(0, 1), (1, 2), (0, 2), (3, 4)]),  # isolated 5 and 6
        Graph.from_edges(6, [(0, 1), (2, 3), (4, 5)]),
        Graph.from_edges(4, []),
    ]
    while len(graphs) < 40:
        n = rng.randint(1, 7)
        p = rng.random()
        edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
        graphs.append(Graph.from_edges(n, edges))
    for graph in graphs:
        oracle = vertex_cut_fn(graph)
        _assert_flow_agrees(oracle, _every_box(oracle.ground.full_mask))
        if 1 <= graph.m <= 9:
            oracle = edge_boundary_fn(graph)
            _assert_flow_agrees(oracle, _every_box(oracle.ground.full_mask))


def _random_boxes(rng, n, count):
    boxes = []
    for _ in range(count):
        inside, outside = rng.uniform(0, 0.5), rng.uniform(0, 0.5)
        lo = hi = 0
        for e in range(n):
            r = rng.random()
            if r < inside:
                lo |= 1 << e
            if r < 1 - outside:
                hi |= 1 << e
        boxes.append((lo, hi))
    return boxes


def test_flow_agrees_on_random_boxes():
    rng = random.Random(4)
    for oracle in (edge_boundary_fn(grid3_graph()), chain_k4_vertex_cut(4)):
        _assert_flow_agrees(oracle, _random_boxes(rng, oracle.ground.n, 2000))


def test_permuted_oracle_conjugates_the_minimizer(c5rank):
    """A relabeled graph oracle keeps its source's minimizer, pulled back and
    pushed forward through the permutation; other oracles keep the scan."""
    rng = random.Random(6)
    for source in (chain_k4_vertex_cut(4), edge_boundary_fn(grid3_graph())):
        n = source.ground.n
        perm = list(range(n))
        rng.shuffle(perm)
        image = permuted_oracle(source, perm)
        assert image.minimizer is not None
        for lo, hi in _random_boxes(rng, n, 500):
            assert box_min(image, lo, hi) == _exhaustive_box_min(image, lo, hi), (lo, hi)
    assert permuted_oracle(c5rank, [4, 3, 2, 1, 0]).minimizer is None


def test_flow_beyond_scan_guard():
    """Eight K4 in a chain under vertex-cut: 30 free positions, past the
    scan's FREE_LIMIT, are solved by the flow."""
    oracle = chain_k4_vertex_cut(8)
    full = oracle.ground.full_mask
    assert kappa_min(oracle, 1, 1 << 31) == MinSeparationResult(1, 0xF)
    assert rightmost_min_in_box(oracle, 1, full & ~(1 << 31)) == 0x0FFFFFFF
    assert has_tangle_of_order(oracle, 2)


def _fill_memo(oracle):
    get = oracle.value_getter()
    for x in range(oracle.ground.full_mask + 1):
        get(x)


def _assert_groups_agree(oracle, boxes):
    """The scan on a complete memo against brute force: the minimum and
    leftmost minimizer of each box, and the rightmost one as the complement
    of the leftmost of the complemented box.  Returns how many boxes the
    kappa groups answered without entering the subset walk."""
    _fill_memo(oracle)
    assert oracle.levels() is not None
    full = oracle.ground.full_mask
    get = oracle.value_getter()
    grouped = 0
    for lo, hi in boxes:
        walked = []
        oracle.value_getter = lambda: walked.append(1) or get
        value, left, right = _exhaustive_box_min(oracle, lo, hi)
        del oracle.value_getter
        grouped += not walked
        least = brute_force_leftmost_in_box(oracle, lo, hi)  # checks get(least) is the minimum
        assert (value, left) == (get(least), least), (lo, hi)
        assert right == full & ~brute_force_leftmost_in_box(oracle, full & ~hi, full & ~lo)
    return grouped


def test_kappa_groups_on_every_box():
    oracles = [
        cut_rank_fn(Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])),
        edge_boundary_fn(Graph.from_edges(4, K4_EDGES)),
        edge_boundary_fn(Graph.from_edges(7, TRIFORCE_EDGES)),
        k4_cycle_matroid(1),
    ]
    for oracle in oracles:
        boxes = list(_every_box(oracle.ground.full_mask))
        grouped = _assert_groups_agree(oracle, boxes)
        assert grouped > len(boxes) // 8, (oracle, grouped, len(boxes))


def test_kappa_groups_on_random_boxes():
    oracle = k4_cycle_matroid(2)
    boxes = _random_boxes(random.Random(8), oracle.ground.n, 2000)
    assert _assert_groups_agree(oracle, boxes) > 500


def _lazy(oracle):
    """A plain oracle over the same per-set kappa: no table, a lazy memo."""
    return ConnectivityOracle(oracle.ground, oracle._fn, name=oracle.name)


def _same_groups(levels):
    return [(v, sorted(sets)) for v, sets in levels]


def test_levels_wait_for_a_complete_memo():
    oracle = _lazy(k4_cycle_matroid(1))
    full = oracle.ground.full_mask
    assert oracle.levels() is None
    get = oracle.value_getter()
    for x in range(full):
        get(x)
    assert oracle.levels() is None
    get(full)
    calls = oracle.calls
    levels = oracle.levels()
    assert oracle.calls == calls == full + 1
    assert levels is oracle.levels()
    assert [v for v, _ in levels] == sorted({oracle.evaluate(x) for x in range(full + 1)})
    assert sorted(x for _, sets in levels for x in sets) == list(range(full + 1))
    assert all(oracle.evaluate(x) == v for v, sets in levels for x in sets)

    unmemoized = _lazy(k4_cycle_matroid(1))
    unmemoized._memo = None
    _fill_memo(unmemoized)
    assert unmemoized.levels() is None
    assert _exhaustive_box_min(unmemoized, 0, full) == _exhaustive_box_min(oracle, 0, full)

    # The matroid oracle fills its table on the first scan read instead, with
    # the same groups and the same count as the lazy memo.
    tabled = k4_cycle_matroid(1)
    tabled.value_getter()
    assert tabled.calls == full + 1
    assert _same_groups(tabled.levels()) == _same_groups(levels)
    assert tabled.levels() is tabled.levels()


def test_concurrent_levels_are_shared():
    """Threads racing for the groups of a freshly completed memo all get one
    list, and their scans agree."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(40):
            oracle = _lazy(k4_cycle_matroid(1))
            _fill_memo(oracle)
            full = oracle.ground.full_mask
            barrier = threading.Barrier(4)
            results = []

            def scan():
                barrier.wait()
                levels = oracle.levels()
                minima = [_exhaustive_box_min(oracle, 1 << e, full) for e in range(6)]
                results.append((levels, minima))

            threads = [threading.Thread(target=scan) for _ in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
                assert not t.is_alive()
            assert len(results) == 4
            first = results[0]
            assert first[0] is not None
            for levels, minima in results:
                assert levels is first[0]
                assert minima == first[1]
    finally:
        sys.setswitchinterval(interval)


def test_concurrent_tables_are_shared():
    """Threads racing for a fresh matroid oracle's first scan read all get
    one table and one list of groups, and the table is counted once."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(40):
            oracle = k4_cycle_matroid(2)
            barrier = threading.Barrier(4)
            results = []

            def scan():
                barrier.wait()
                get = oracle.value_getter()
                results.append((get.__self__, oracle.levels()))

            threads = [threading.Thread(target=scan) for _ in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
                assert not t.is_alive()
            assert len(results) == 4
            table, levels = results[0]
            assert len(table) == 1 << oracle.ground.n and levels is not None
            for other_table, other_levels in results:
                assert other_table is table and other_levels is levels
            assert oracle.calls == 1 << oracle.ground.n
    finally:
        sys.setswitchinterval(interval)
