"""Connectivity oracles: built-in instances, axioms, memoization."""

import random
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tanglekit import (
    ConnectivityOracle,
    DomainError,
    Graph,
    GroundSet,
    SizeGuardError,
    cut_rank_fn,
    edge_boundary_fn,
    matroid_connectivity_fn,
    normalize,
    verify_axioms,
    vertex_cut_fn,
)
from tanglekit import connectivity
from tanglekit.connectivity import gf2_rank, gf2_rank_table, iter_bits

from conftest import k4_cycle_matroid

def test_triforce_triangle_boundary(triforce):
    assert triforce.oracle.evaluate(triforce.t1) == 1
    assert triforce.oracle.evaluate(triforce.t1 | triforce.t2) == 1


def test_empty_and_full_are_zero(triforce, p3, k4, c5rank):
    for oracle in (triforce.oracle, p3, k4, c5rank):
        assert oracle.evaluate(0) == 0
        assert oracle.evaluate(oracle.ground.full_mask) == 0


def test_vertex_cut_examples(p3):
    k4_graph = Graph.from_edges(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
    cut = vertex_cut_fn(k4_graph)
    assert cut.evaluate(0b0001) == 3  # degree in K4
    path = vertex_cut_fn(Graph.from_edges(3, [(0, 1), (1, 2)]))
    assert path.evaluate(0b010) == 2  # middle vertex crosses both edges


def test_edge_boundary_examples(triforce, p3):
    assert p3.evaluate(0b01) == 1  # single edge of the path: only the middle vertex
    assert triforce.oracle.evaluate(triforce.t2 | triforce.t3) == 1


def test_cut_rank_examples(c5rank):
    assert c5rank.evaluate(0b00001) == 1
    assert c5rank.evaluate(0b00011) == 2  # two adjacent vertices of the 5-cycle
    assert c5rank.evaluate(0) == 0


def test_cut_rank_bounded_by_sizes(c5rank):
    full = c5rank.ground.full_mask
    for x in range(full + 1):
        assert c5rank.evaluate(x) <= min(x.bit_count(), (full & ~x).bit_count())


def test_matroid_connectivity_k4_cycle_matroid():
    # rows of the vertex-edge incidence matrix of K4 over GF(2)
    k4 = Graph.from_edges(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
    rows = [0] * 4
    for j, (u, v) in enumerate(k4.edges):
        rows[u] |= 1 << j
        rows[v] |= 1 << j
    oracle = matroid_connectivity_fn(rows, 6)
    assert oracle.evaluate(0b000001) == 1  # r(X)=1, r(rest)=3, r(E)=3
    assert oracle.evaluate(0) == 0
    assert oracle.evaluate(0b111111) == 0
    assert verify_axioms(oracle).ok


def test_normalize_constant_shift():
    ground = GroundSet(4)
    shifted = normalize(ground, lambda x: 5)
    assert shifted.evaluate(0) == 0
    assert shifted.evaluate(0b1010) == 0


def test_normalize_preserves_zero_based(triforce):
    oracle = normalize(triforce.oracle.ground, triforce.oracle.evaluate)
    assert oracle.evaluate(triforce.t1) == 1


def test_normalize_boundary_plus_three(triforce):
    base = triforce.oracle

    def fn(x):
        return base.evaluate(x) + 3

    oracle = normalize(base.ground, fn)
    full = base.ground.full_mask
    for x in range(full + 1):
        assert oracle.evaluate(x) == base.evaluate(x)


def test_verify_axioms_fixtures(triforce, p3, k4, c5rank):
    for oracle in (triforce.oracle, p3, k4, c5rank):
        report = verify_axioms(oracle)
        assert report.ok and report.mode == "exhaustive"


def test_verify_axioms_catches_corruption():
    ground = GroundSet(4)
    broken = ConnectivityOracle(ground, lambda x: x.bit_count() % 3)
    report = verify_axioms(broken)
    assert not report.ok
    assert report.violation == "symmetry"


def test_verify_axioms_zero_function():
    oracle = ConnectivityOracle(GroundSet(3), lambda x: 0)
    assert verify_axioms(oracle).ok


def test_verify_axioms_sampling_mode():
    graph = Graph.from_edges(8, [(i, (i + 1) % 8) for i in range(8)] + [(0, 4), (1, 5)])
    oracle = edge_boundary_fn(graph)  # 10 edges
    report = verify_axioms(oracle, exhaustive_limit=8, seed=11, samples=500)
    assert report.ok and report.mode == "sampled" and report.seed == 11


def test_verify_axioms_refuses_large():
    oracle = ConnectivityOracle(GroundSet(30), lambda x: 0)
    with pytest.raises(SizeGuardError):
        verify_axioms(oracle)


def test_oracle_counter_and_memo(triforce):
    oracle = edge_boundary_fn(triforce.graph)
    before = oracle.calls
    v1 = oracle.evaluate(triforce.t1)
    mid = oracle.calls
    v2 = oracle.evaluate(triforce.t1)
    assert v1 == v2
    assert mid == before + 1
    assert oracle.calls == mid  # memo hit does not count


def test_oracle_rejects_foreign_masks(p3):
    with pytest.raises(DomainError):
        p3.evaluate(0b100)


def test_ground_set_cap():
    with pytest.raises(SizeGuardError):
        GroundSet(65)
    with pytest.raises(DomainError):
        GroundSet(0)


def test_concurrent_evaluation(k4):
    oracle = edge_boundary_fn(Graph.from_edges(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]))
    full = oracle.ground.full_mask
    expected = {x: oracle.evaluate(x) for x in range(full + 1)}
    results = []

    def worker():
        results.append(all(oracle.evaluate(x) == expected[x] for x in range(full + 1)))

    threads = [threading.Thread(target=worker) for _ in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert all(results)


def test_gf2_rank_basics():
    assert gf2_rank([]) == 0
    assert gf2_rank([0b101, 0b011, 0b110]) == 2  # third row is the sum
    assert gf2_rank([0b1, 0b10, 0b100]) == 3


@st.composite
def small_graphs(draw):
    n = draw(st.integers(min_value=2, max_value=5))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    picked = draw(st.lists(st.sampled_from(pairs), min_size=1, max_size=8, unique=True))
    return Graph.from_edges(n, picked)


@given(small_graphs())
@settings(max_examples=40, deadline=None)
def test_axioms_hold_for_random_graphs(graph):
    for builder in (vertex_cut_fn, cut_rank_fn):
        assert verify_axioms(builder(graph)).ok
    if graph.m >= 1:
        assert verify_axioms(edge_boundary_fn(graph)).ok


@given(small_graphs())
@settings(max_examples=30, deadline=None)
def test_symmetry_everywhere(graph):
    oracle = cut_rank_fn(graph)
    full = oracle.ground.full_mask
    for x in range(full + 1):
        assert oracle.evaluate(x) == oracle.evaluate(full & ~x)


def test_grid3_exhaustive_axioms(grid3):
    """|U| = 12 still verifies exhaustively (the documented bound)."""
    report = verify_axioms(grid3)
    assert report.ok and report.mode == "exhaustive"


def test_memoization_never_changes_values(triforce):
    memo_on = edge_boundary_fn(triforce.graph)
    memo_off = edge_boundary_fn(triforce.graph)
    memo_off._memo = None
    full = memo_on.ground.full_mask
    before = memo_on.calls
    for x in range(full + 1):
        assert memo_on.evaluate(x) == memo_off.evaluate(x)
    for x in range(full + 1):
        assert memo_on.evaluate(x) == memo_off.evaluate(x)
    # counter is nondecreasing and memo hits stop counting
    assert memo_on.calls == before + full + 1
    assert memo_off.calls == 2 * (full + 1)


# ---------------------------------------------------------------------------
# The GF(2) rank table and the oracles it backs.


def _random_vectors(rng, count, bits):
    """Random bit masks with one zero vector and one repeated vector."""
    vecs = [rng.randrange(1, 1 << bits) for _ in range(count)]
    vecs[rng.randrange(count)] = 0
    if count > 1:
        i, j = rng.sample(range(count), 2)
        vecs[i] = vecs[j]
    return vecs


def _per_set_ranks(groups):
    return [
        gf2_rank([v for u in iter_bits(x) for v in groups[u]])
        for x in range(1 << len(groups))
    ]


def test_gf2_rank_table_matches_per_set_rank():
    rng = random.Random(28)
    for _ in range(30):
        n = rng.randrange(1, 11)
        bits = rng.randrange(1, 9)
        columns = [(v,) for v in _random_vectors(rng, n, bits)]
        assert gf2_rank_table(columns) == _per_set_ranks(columns), columns
        pool = _random_vectors(rng, 2 * n, bits)
        groups = [tuple(rng.choices(pool, k=rng.randrange(0, 4))) for _ in range(n)]
        assert gf2_rank_table(groups) == _per_set_ranks(groups), groups


def _random_graphs(rng):
    """Sparse and dense random graphs whose last vertex is isolated, and K_n."""
    for n in range(2, 10):
        for p in (0.3, 0.6):
            edges = [(u, v) for u in range(n - 1) for v in range(u + 1, n - 1) if rng.random() < p]
            yield Graph.from_edges(n, edges)
    for n in range(2, 8):
        yield Graph.from_edges(n, [(u, v) for u in range(n) for v in range(u + 1, n)])


def _random_matroids(rng):
    for _ in range(20):
        cols = rng.randrange(1, 11)
        rows = rng.randrange(1, 7)
        columns = _random_vectors(rng, cols, rows)
        matrix = [sum(1 << j for j, c in enumerate(columns) if c >> i & 1) for i in range(rows)]
        if any(matrix):
            yield matroid_connectivity_fn(matrix, cols)


def _gf2_oracles():
    rng = random.Random(7)
    yield from (cut_rank_fn(graph) for graph in _random_graphs(rng))
    yield from _random_matroids(rng)


def test_gf2_tables_match_per_set_functions():
    for oracle in _gf2_oracles():
        full = oracle.ground.full_mask
        get = oracle.value_getter()
        assert oracle._table is not None and oracle._memo is None
        assert [get(x) for x in range(full + 1)] == [oracle._fn(x) for x in range(full + 1)], oracle
        assert oracle.calls == full + 1


def test_gf2_levels_match_a_per_set_memo():
    for oracle in _gf2_oracles():
        lazy = ConnectivityOracle(oracle.ground, oracle._fn)
        get = lazy.value_getter()
        for x in range(oracle.ground.full_mask + 1):
            get(x)
        grouped = [(v, sorted(sets)) for v, sets in oracle.levels()]
        assert grouped == [(v, sorted(sets)) for v, sets in lazy.levels()], oracle


def test_table_counts_only_the_sets_the_memo_lacked():
    oracle = k4_cycle_matroid(2)
    assert [oracle.evaluate(x) for x in (0, 5, 5, 9)] == [oracle._fn(x) for x in (0, 5, 5, 9)]
    assert oracle.calls == 3 and oracle._table is None
    assert oracle.levels() is not None
    assert oracle.calls == 1 << 12
    assert oracle.evaluate(5) == oracle._table[5] and oracle.calls == 1 << 12


def _no_table(groups):
    raise AssertionError("a GF(2) rank table was filled")


def test_no_table_above_the_scan_guard(monkeypatch):
    """23 columns: kappa goes per set, as no exhaustive scan can run."""
    monkeypatch.setattr(connectivity, "gf2_rank_table", _no_table)
    rng = random.Random(23)
    oracle = matroid_connectivity_fn([rng.randrange(1 << 23) for _ in range(6)], 23)
    assert oracle._memo is not None
    get = oracle.value_getter()
    assert [get(x) for x in (3, 3, 1 << 22)] == [oracle._fn(x) for x in (3, 3, 1 << 22)]
    assert oracle.evaluate(7) == oracle._fn(7)
    assert oracle.calls == 3
    assert oracle.levels() is None and oracle._table is None


def test_no_table_without_a_memo(monkeypatch):
    monkeypatch.setattr(connectivity, "gf2_rank_table", _no_table)
    for oracle in (k4_cycle_matroid(1), cut_rank_fn(Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)]))):
        oracle._memo = None
        get = oracle.value_getter()
        assert get(3) == get(3) == oracle.evaluate(3)
        assert oracle.calls == 3
        assert oracle.levels() is None and oracle._table is None
