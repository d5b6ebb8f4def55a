"""Acceptance criteria.

Each test prints one PASS line with its runtime; tolerances and time budgets
are pinned here.  Run with `pytest tests/test_acceptance.py -v -s`.
"""

import itertools
import json
import pathlib
import random
import time

from tanglekit import (
    Graph,
    build_structure,
    cut_rank_fn,
    directed_decomposition,
    edge_boundary_fn,
    exactify,
    has_tangle_of_order,
    kappa_min,
    lattice_bottom,
    leftmost_min_separation,
    maximal_indices,
    max_tangle_order,
    rightmost_min_separation,
    verify_tangle_decomposition,
    width,
)
from tanglekit.bases import enumerate_bases
from tanglekit.cli import main
from tanglekit.oracles import (
    apply_perm,
    brute_force_branch_width,
    brute_force_lattice,
    brute_force_leftmost_in_box,
    brute_force_leftmost_tangle_separation,
    brute_force_tangles,
    canonicity_harness,
    directed_code,
    random_instances,
)
from tanglekit.tangles import ExplicitTangle

from conftest import TRIFORCE_EDGES, random_nonexact_decomposition

GOLDEN = pathlib.Path(__file__).parent / "golden" / "triforce_decompose.json"


def _report(number, label, started):
    print(f"\nACCEPTANCE {number}: PASS ({label}, {time.time() - started:.1f}s)")


def test_criterion_1_triforce_census(triforce):
    started = time.time()
    ds = build_structure(triforce.oracle, 2)
    assert ds.size(0) == 1 and ds.size(1) == 2 and ds.size(2) == 5
    counts = [ds.count(k) for k in (0, 1, 2)]
    assert counts == [1, 1, 3]
    brute = [len(brute_force_tangles(triforce.oracle, k)) for k in (0, 1, 2)]
    assert brute == counts
    elapsed = time.time() - started
    assert elapsed < 5.0
    _report(1, "census 1/1/3, size(2)=5, brute agrees", started)


def test_criterion_2_triforce_golden(tmp_path, capsys):
    started = time.time()
    instance = tmp_path / "triforce.txt"
    instance.write_text(
        "graph 7 9\n" + "\n".join(f"{u} {v}" for u, v in TRIFORCE_EDGES) + "\n"
    )
    assert main(["decompose", "--order", "2", str(instance)]) == 0
    produced = capsys.readouterr().out
    assert produced == GOLDEN.read_text()
    doc = json.loads(produced)
    hubs = [n for n in doc["nodes"] if n["kind"] == "hub"]
    tangles = [n for n in doc["nodes"] if n["kind"] == "tangle"]
    assert len(doc["nodes"]) == 4 and len(hubs) == 1 and hubs[0]["bag"] == []
    triangle_bags = sorted(tuple(n["bag"]) for n in tangles)
    assert triangle_bags == [(0, 1, 6), (2, 3, 7), (4, 5, 8)]
    elapsed = time.time() - started
    assert elapsed < 10.0
    with capsys.disabled():
        _report(2, "byte-exact golden star", started)


def _connected(n_vertices, edges):
    if not edges:
        return False
    touched = set()
    for u, v in edges:
        touched.update((u, v))
    start = next(iter(touched))
    seen = {start}
    frontier = [start]
    adj = {}
    for u, v in edges:
        adj.setdefault(u, []).append(v)
        adj.setdefault(v, []).append(u)
    while frontier:
        x = frontier.pop()
        for y in adj[x]:
            if y not in seen:
                seen.add(y)
                frontier.append(y)
    return seen == touched


def test_criterion_3_duality_sweep():
    started = time.time()
    mismatches = 0
    checked = 0
    # every connected graph with at most 5 edges, under the edge boundary
    pool = [(u, v) for u in range(6) for v in range(u + 1, 6)]
    for m in range(1, 6):
        for edges in itertools.combinations(pool, m):
            if not _connected(6, edges):
                continue
            vertices = sorted({v for e in edges for v in e})
            relabel = {v: i for i, v in enumerate(vertices)}
            graph = Graph.from_edges(
                len(vertices), [(relabel[u], relabel[v]) for u, v in edges]
            )
            oracle = edge_boundary_fn(graph)
            top = max_tangle_order(oracle)
            if top != brute_force_branch_width(oracle) or has_tangle_of_order(oracle, top + 1):
                mismatches += 1
            checked += 1
    # every graph with at most 5 vertices, under the cut rank
    for n in range(1, 6):
        pool_n = [(u, v) for u in range(n) for v in range(u + 1, n)]
        for m in range(len(pool_n) + 1):
            for edges in itertools.combinations(pool_n, m):
                oracle = cut_rank_fn(Graph.from_edges(n, list(edges)))
                top = max_tangle_order(oracle)
                if top != brute_force_branch_width(oracle) or has_tangle_of_order(oracle, top + 1):
                    mismatches += 1
                checked += 1
    assert mismatches == 0
    elapsed = time.time() - started
    assert elapsed < 300.0
    _report(3, f"{checked} instances, 0 mismatches", started)


def test_criterion_4_count_bounds():
    started = time.time()
    instances = random_instances(20240811, 200)
    assert len(instances) == 200
    violations = 0
    for name, oracle in instances:
        n = oracle.ground.n
        top = max_tangle_order(oracle)
        ds = build_structure(oracle, top)
        for k in range(top + 1):
            if ds.count(k) > n:
                violations += 1
        if n >= 2 and len(maximal_indices(ds, top)) > n - 1:
            violations += 1
    assert violations == 0
    _report(4, "200 instances, 0 violations", started)


def test_criterion_5_ds_contract(triforce, p3, k4, grid3, c5rank):
    started = time.time()
    fixtures = {
        "triforce": triforce.oracle,
        "p3": p3,
        "k4": k4,
        "grid3": grid3,
        "c5rank": c5rank,
    }
    for name, oracle in fixtures.items():
        top = max_tangle_order(oracle)
        ds = build_structure(oracle, top)
        full = oracle.ground.full_mask
        explicit = {}
        for i in range(1, ds.size(top) + 1):
            order = ds.tangle_order(i)
            # find round-trip
            assert ds.find(order, ds.tangle(i).member) == i, name
            # truncation chain consistency
            for level in range(order, -1, -1):
                j = ds.truncation(i, level)
                assert ds.tangle_order(j) == min(level, order)
                assert ds.truncation(j, max(level - 1, 0)) == ds.truncation(
                    i, max(level - 1, 0)
                )
            tangle = ds.tangle(i)
            explicit[i] = ExplicitTangle(
                order,
                frozenset(
                    x
                    for x in range(full + 1)
                    if oracle.evaluate(x) < order and tangle.member(x)
                ),
            )
        for i in explicit:
            for j in explicit:
                if i == j:
                    continue
                got = ds.separation(i, j)
                ti, tj = explicit[i], explicit[j]
                comparable = ti.members <= tj.members or tj.members <= ti.members
                if comparable:
                    assert got is None, name
                else:
                    assert got == brute_force_leftmost_tangle_separation(
                        oracle, ti, tj
                    ), name
    _report(5, "find/truncation/separation contracts on 5 fixtures", started)


def test_criterion_6_canonicity(triforce, k4, grid3, c5rank):
    started = time.time()
    cases = [
        ("triforce", triforce.oracle, 2),
        ("k4", k4, 3),
        ("grid3", grid3, 2),
        ("c5rank", c5rank, 2),
    ]
    for name, oracle, order in cases:
        ds = build_structure(oracle, order)
        root = maximal_indices(ds, order)[0]
        report = canonicity_harness(oracle, order, trials=50, seed=99, directed_root=root)
        assert report.ok, (name, report.failures[:3])
    elapsed = time.time() - started
    assert elapsed < 600.0
    _report(6, "4 fixtures x 50 permutation trials", started)


def test_criterion_7_exactness(triforce, k4, c5rank):
    started = time.time()
    rng = random.Random(20240811)
    oracles = [triforce.oracle, k4, c5rank]
    for trial in range(100):
        oracle = oracles[trial % len(oracles)]
        pd = random_nonexact_decomposition(oracle, rng)
        out = exactify(oracle, pd)
        assert out.is_exact()
        for a, b in pd.edges():
            assert oracle.evaluate(out.xi[(a, b)]) <= oracle.evaluate(pd.xi[(a, b)])
        for leaf in pd.leaves():
            assert out.leaf_set(leaf) & ~pd.leaf_set(leaf) == 0
        assert width(oracle, out) <= width(oracle, pd)
    _report(7, "100 non-exact inputs rewritten", started)


def test_criterion_8_leftmost_algebra(p3, k4, c5rank):
    started = time.time()
    for oracle in (p3, k4, c5rank):
        full = oracle.ground.full_mask
        for x in range(full + 1):
            rest = full & ~x
            y = rest
            while True:
                left = leftmost_min_separation(oracle, x, y)
                assert left == brute_force_leftmost_in_box(oracle, x, full & ~y)
                assert rightmost_min_separation(oracle, x, y) == full & ~leftmost_min_separation(oracle, y, x)
                value = kappa_min(oracle, x, y).value
                free = full & ~(x | y)
                sub = free
                while True:
                    z = x | sub
                    if oracle.evaluate(z) == value:
                        assert left & ~z == 0
                    if sub == 0:
                        break
                    sub = (sub - 1) & free
                if y == 0:
                    break
                y = (y - 1) & rest
        for base in enumerate_bases(oracle, 2):
            members = brute_force_lattice(oracle, base.b1, base.b2)
            bottom = lattice_bottom(oracle, base)
            assert bottom in members
            assert all(bottom & ~m == 0 for m in members)
    _report(8, "exhaustive boxes on 3 fixtures", started)


def test_criterion_9_directed_triforce(triforce):
    started = time.time()
    oracle = triforce.oracle
    ds = build_structure(oracle, 2)
    outputs = {}
    for root in (3, 4, 5):
        dtd = directed_decomposition(oracle, 2, root)
        report = verify_tangle_decomposition(dtd)
        assert report.ok, report.violations
        assert dtd.gamma[dtd.root] == triforce.full
        big = next(m for m in triforce.triangles if ds.tangle(root).member(m))
        child_cones = sorted(dtd.gamma[u] for u in dtd.children[dtd.root])
        assert child_cones == sorted(set(triforce.triangles) - {big})
        assert dtd.bags()[dtd.root] == big
        outputs[big] = dtd

    # the three outputs are pairwise related by the graph's automorphisms:
    # swapping two triangles maps one rooted decomposition onto another
    index_of = {e: i for i, e in enumerate(triforce.graph.edges)}

    def swap_perm(tri_a, tri_b):
        """Edge permutation induced by exchanging two triangles' vertex pairs."""
        vertex_map = {0: 0}
        for (va, vb) in zip(sorted(_verts(tri_a)), sorted(_verts(tri_b))):
            vertex_map[va] = vb
            vertex_map[vb] = va
        perm = [0] * 9
        for e, (u, v) in enumerate(triforce.graph.edges):
            mu, mv = vertex_map.get(u, u), vertex_map.get(v, v)
            perm[e] = index_of[(min(mu, mv), max(mu, mv))]
        return perm

    def _verts(tri_mask):
        verts = set()
        for e in range(9):
            if tri_mask >> e & 1:
                verts.update(triforce.graph.edges[e])
        verts.discard(0)
        return verts

    t1, t2, t3 = triforce.triangles
    for a, b in ((t1, t2), (t1, t3), (t2, t3)):
        perm = swap_perm(a, b)
        assert apply_perm(a, perm) == b
        assert directed_code(outputs[a], perm) == directed_code(outputs[b])
    _report(9, "3 roots verified and automorphism-related", started)
