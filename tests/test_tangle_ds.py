"""The comprehensive tangle structure: census, queries, round trips."""

import json
import pathlib
import threading

import pytest

from conftest import (
    TRIFORCE_EDGES,
    chain_k4_vertex_cut,
    grid3_graph,
    k4_cycle_matroid,
    two_c5_cut_rank,
)
from tanglekit import (
    DomainError,
    Graph,
    IntegrityError,
    OutOfOrderError,
    build_structure,
    edge_boundary_fn,
)
from tanglekit.connectivity import bits_list
from tanglekit.oracles import brute_force_leftmost_tangle_separation, brute_force_tangles
from tanglekit.tangle_ds import TangleDataStructure
from tanglekit.tangles import ExplicitTangle, max_tangle_order

GOLDEN = pathlib.Path(__file__).parent / "golden"


def test_triforce_census(triforce):
    ds = build_structure(triforce.oracle, 2)
    assert ds.size(0) == 1
    assert ds.size(1) == 2
    assert ds.size(2) == 5
    assert [len(brute_force_tangles(triforce.oracle, k)) for k in (0, 1, 2)] == [1, 1, 3]


def test_p3_no_order_two(p3):
    ds = build_structure(p3, 2)
    assert ds.levels[2].tree is None
    assert ds.size(2) == ds.size(1) == 2


def test_order_zero_structure(k4):
    ds = build_structure(k4, 0)
    assert ds.size(0) == 1
    assert ds.tangle(1).order == 0


def test_index_bookkeeping(triforce):
    ds = build_structure(triforce.oracle, 2)
    assert [ds.tangle_order(i) for i in range(1, 6)] == [0, 1, 2, 2, 2]
    assert ds.indices_of_order(2) == [3, 4, 5]
    with pytest.raises(DomainError):
        ds.tangle(6)
    with pytest.raises(DomainError):
        ds.tangle(0)


def test_membership_and_errors(triforce):
    ds = build_structure(triforce.oracle, 2)
    hits = [i for i in (3, 4, 5) if ds.membership(i, triforce.t1)]
    assert len(hits) == 1
    assert ds.membership(2, triforce.full)
    with pytest.raises(OutOfOrderError):
        ds.membership(hits[0], triforce.edge(0, 1))


def test_truncation_chain(triforce):
    ds = build_structure(triforce.oracle, 2)
    for i in (3, 4, 5):
        assert ds.truncation(i, 1) == 2
        assert ds.truncation(i, 0) == 1
        assert ds.truncation(i, 2) == i
        assert ds.truncation(i, 7) == i
        assert ds.truncation(ds.truncation(i, 1), 0) == 1


def test_find_round_trip(triforce, k4, c5rank, p3):
    for oracle in (triforce.oracle, k4, c5rank, p3):
        top = max_tangle_order(oracle)
        ds = build_structure(oracle, top)
        for i in range(1, ds.size(top) + 1):
            assert ds.find(ds.tangle_order(i), ds.tangle(i).member) == i


def test_find_with_explicit_oracle(triforce):
    ds = build_structure(triforce.oracle, 2)
    explicit = brute_force_tangles(triforce.oracle, 2)
    found = {ds.find(2, e.member) for e in explicit}
    assert found == {3, 4, 5}


def test_find_rejects_missing_level(p3):
    ds = build_structure(p3, 2)
    with pytest.raises(IntegrityError):
        ds.find(2, lambda x: True)


def test_separation_matches_brute(triforce, k4, c5rank):
    # The three-K4 chain at order 3 has incomparable order-3 tangles whose
    # separation has order 1, below the order-2 sets that split their
    # distinction tree.
    cases = [(oracle, max_tangle_order(oracle)) for oracle in (triforce.oracle, k4, c5rank)]
    cases.append((chain_k4_vertex_cut(3), 3))
    for oracle, top in cases:
        ds = build_structure(oracle, top)
        full = oracle.ground.full_mask
        explicit = {}
        for i in range(1, ds.size(top) + 1):
            tangle = ds.tangle(i)
            members = frozenset(
                x for x in range(full + 1) if oracle.evaluate(x) < tangle.order and tangle.member(x)
            )
            explicit[i] = ExplicitTangle(tangle.order, members)
        for i in explicit:
            for j in explicit:
                if i == j:
                    continue
                got = ds.separation(i, j)
                ti, tj = explicit[i], explicit[j]
                if ti.members <= tj.members or tj.members <= ti.members:
                    assert got is None
                else:
                    assert got == brute_force_leftmost_tangle_separation(oracle, ti, tj)


def test_separation_rejects_same_index(triforce):
    ds = build_structure(triforce.oracle, 2)
    with pytest.raises(DomainError):
        ds.separation(3, 3)


def test_count_per_level_bounded(triforce, grid3):
    for oracle in (triforce.oracle, grid3):
        top = max_tangle_order(oracle)
        ds = build_structure(oracle, top)
        for k in range(top + 1):
            assert ds.count(k) <= oracle.ground.n


def test_serialization_round_trip(triforce):
    ds = build_structure(triforce.oracle, 2)
    doc = json.loads(json.dumps(ds.to_json()))
    ds2 = TangleDataStructure.from_json(triforce.oracle, doc)
    assert ds2.size(2) == ds.size(2)
    for k in range(3):
        assert ds2.levels[k].paths == ds.levels[k].paths
    assert ds2.separation(3, 4) == ds.separation(3, 4)


def test_serialization_rejects_mismatch(triforce, p3):
    doc = build_structure(triforce.oracle, 1).to_json()
    with pytest.raises(DomainError):
        TangleDataStructure.from_json(p3, doc)


def test_serialization_rejects_bad_levels_and_separators(triforce):
    """Level orders must run 0, 1, 2, ... up to the document's order, level
    0 holds the empty tangle, no level with tangles sits above an empty one,
    and separators lie below n and have order below their level's."""
    oracle = triforce.oracle
    doc = build_structure(oracle, 2).to_json()
    skipped = dict(doc, levels=[doc["levels"][0], doc["levels"][2]])
    with pytest.raises(DomainError):
        TangleDataStructure.from_json(oracle, skipped)
    bad = json.loads(json.dumps(doc))
    bad["levels"][2]["tree"]["separator"].append(oracle.ground.n)
    with pytest.raises(DomainError):
        TangleDataStructure.from_json(oracle, bad)
    high = json.loads(json.dumps(doc))
    order3 = next(x for x in range(triforce.full + 1) if oracle.evaluate(x) == 3)
    high["levels"][2]["tree"]["separator"] = bits_list(order3)
    split = {"separator": [0], "contains": {"leaf": 0}, "avoids": {"leaf": 1}}
    split_at_0 = dict(doc, levels=[{"order": 0, "tree": split}, *doc["levels"][1:]])
    above_empty = dict(doc, levels=[doc["levels"][0], {"order": 1, "tree": None}, doc["levels"][2]])
    empty_at_0 = dict(doc, order=0, levels=[{"order": 0, "tree": None}])
    for mutated in (high, split_at_0, above_empty, empty_at_0, dict(doc, order=7)):
        with pytest.raises(DomainError):
            TangleDataStructure.from_json(oracle, mutated)


def _edit_split(key, value=None):
    """Drop ``key`` from the order-2 root split node, or set it to ``value``."""

    def mutate(doc):
        node = doc["levels"][2]["tree"]
        if value is None:
            del node[key]
        else:
            node[key] = value
        return doc

    return mutate


@pytest.mark.parametrize(
    "mutate",
    [
        pytest.param(lambda doc: [doc], id="document-not-a-dict"),
        pytest.param(lambda doc: {k: v for k, v in doc.items() if k != "levels"}, id="no-levels"),
        pytest.param(lambda doc: dict(doc, levels={"0": doc["levels"][0]}), id="levels-not-a-list"),
        pytest.param(lambda doc: dict(doc, levels=[[0, None]]), id="level-not-a-dict"),
        pytest.param(lambda doc: dict(doc, levels=[{"tree": {"leaf": 0}}]), id="level-without-order"),
        pytest.param(lambda doc: dict(doc, levels=[{"order": 0}]), id="level-without-tree"),
        pytest.param(_edit_split("separator"), id="no-separator"),
        pytest.param(_edit_split("contains"), id="no-contains"),
        pytest.param(_edit_split("avoids"), id="no-avoids"),
        pytest.param(_edit_split("separator", "016"), id="separator-a-string"),
        pytest.param(lambda doc: dict(doc, levels=[{"order": 0, "tree": {"leaf": 0.0}}]), id="leaf-a-float"),
    ],
)
def test_serialization_rejects_malformed_shapes(triforce, mutate):
    """A document of the wrong shape raises DomainError, never a KeyError,
    TypeError or AttributeError."""
    doc = json.loads(json.dumps(build_structure(triforce.oracle, 2).to_json()))
    with pytest.raises(DomainError):
        TangleDataStructure.from_json(triforce.oracle, mutate(doc))


def test_order_realized(triforce, grid3):
    ds = build_structure(triforce.oracle, 2)
    assert ds.order_realized(0)
    assert ds.order_realized(1)  # the triangle separations
    assert not ds.order_realized(9)
    gds = build_structure(grid3, 2)
    assert not gds.order_realized(1)  # the grid is 2-edge-connected
    # hence GRID3's order-2 tangle equals its order-1 truncation as a family
    unit, top = gds.tangle(2), gds.tangle(3)
    full = grid3.ground.full_mask
    for x in range(full + 1):
        if grid3.evaluate(x) < 1:
            assert unit.member(x) == top.member(x)


def test_concurrent_build_structure():
    """Threads racing to build one fresh oracle's structure share one result."""
    for _ in range(20):
        oracle = edge_boundary_fn(Graph.from_edges(7, TRIFORCE_EDGES))
        barrier = threading.Barrier(4)
        results = []

        def build():
            barrier.wait()
            results.append(build_structure(oracle, 2))

        threads = [threading.Thread(target=build) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        ds = oracle.caches["tangle_ds"]
        assert all(r is ds for r in results)
        assert [level.order for level in ds.levels] == [0, 1, 2]
        assert len(ds) == 5


def test_no_level_built_above_an_empty_one():
    oracle = edge_boundary_fn(Graph.from_edges(7, TRIFORCE_EDGES))
    ds = build_structure(oracle, 12)
    assert [ds.count(k) for k in range(13)] == [1, 1, 3] + [0] * 10
    assert sorted(oracle.cache("bases")) == [0, 1, 2]


def test_negative_orders_are_rejected(triforce):
    ds = build_structure(triforce.oracle, 2)
    member = ds.tangle(3).member
    with pytest.raises(DomainError):
        ds.count(-1)
    with pytest.raises(DomainError):
        ds.indices_of_order(-1)
    with pytest.raises(DomainError):
        ds.find(-1, member)
    with pytest.raises(DomainError):
        ds.truncation(3, -1)
    assert ds.count(2) == 3 and ds.indices_of_order(2) == [3, 4, 5]


@pytest.mark.parametrize(
    "name, make",
    [
        pytest.param("grid3", lambda: edge_boundary_fn(grid3_graph()), id="grid3"),
        pytest.param("chain4k4", lambda: chain_k4_vertex_cut(4), id="chain4k4"),
    ],
)
def test_structure_document_golden(name, make):
    """The order-3 structures of the 3x3 grid (edge boundary) and the
    four-K4 chain (vertex cut) in their base labeling, byte for byte: the
    separators, their order and the leaf numbering are pinned."""
    doc = build_structure(make(), 3).to_json()
    assert json.dumps(doc, indent=2) + "\n" == (GOLDEN / f"{name}_structure_order3.json").read_text()


def test_grid3_build_box_count():
    """Building the 3x3 grid's structure to order 3 caches 2,449 distinct
    boxes; minimizing every unordered pair of candidate base sides cached
    5,587."""
    oracle = edge_boundary_fn(grid3_graph())
    build_structure(oracle, 3)
    assert len(oracle.caches["box_min"]) <= 2449


def test_chain4_build_box_count():
    """Building the four-K4 chain's structure to order 3 caches 6,855
    distinct boxes; minimizing every unordered pair of candidate base sides
    cached 14,895."""
    oracle = chain_k4_vertex_cut(4)
    build_structure(oracle, 3)
    assert len(oracle.caches["box_min"]) <= 6855


def test_two_c5_build_box_count():
    """Building two C5 under cut rank to order 2 caches 461 distinct boxes:
    the fixpoint and the lattice descent read join tables, not boxes."""
    oracle = two_c5_cut_rank()
    build_structure(oracle, 2)
    assert len(oracle.caches["box_min"]) <= 461


def test_k4_matroid_build_box_count():
    """Building M(K4) + M(K4) to order 2 caches 553 distinct boxes."""
    oracle = k4_cycle_matroid(2)
    build_structure(oracle, 2)
    assert len(oracle.caches["box_min"]) <= 553
