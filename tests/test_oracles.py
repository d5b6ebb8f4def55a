"""The brute-force reference layer itself, plus randomized agreement runs."""

import pytest

from tanglekit import (
    SizeGuardError,
    build_structure,
    has_tangle_of_order,
    max_tangle_order,
)
from tanglekit.connectivity import ConnectivityOracle, GroundSet
from tanglekit.oracles import (
    brute_force_branch_width,
    brute_force_leftmost_in_box,
    brute_force_tangles,
    canonicity_harness,
    permuted_oracle,
    random_instances,
)
from tanglekit.separations import leftmost_min_in_box, rightmost_min_in_box
from tanglekit.tangles import check_axioms


def test_brute_tangles_fixture_counts(triforce, p3):
    assert len(brute_force_tangles(triforce.oracle, 2)) == 3
    assert len(brute_force_tangles(p3, 2)) == 0
    assert len(brute_force_tangles(p3, 0)) == 1


def test_brute_tangles_satisfy_axioms(triforce):
    for k in (0, 1, 2):
        for tangle in brute_force_tangles(triforce.oracle, k):
            ok, why = check_axioms(triforce.oracle, tangle.members, k)
            assert ok, why


def test_brute_tangles_guards():
    big = ConnectivityOracle(GroundSet(12), lambda x: 0)
    with pytest.raises(SizeGuardError):
        brute_force_tangles(big, 1)


def test_brute_branch_width(p3, k4, c5rank):
    assert brute_force_branch_width(p3) == 1
    assert brute_force_branch_width(k4) == 3
    assert brute_force_branch_width(c5rank) == 2


def test_brute_branch_width_guard(triforce):
    with pytest.raises(SizeGuardError):
        brute_force_branch_width(triforce.oracle)


def test_brute_branch_width_tiny():
    single = ConnectivityOracle(GroundSet(1), lambda x: 0)
    assert brute_force_branch_width(single) == 0
    assert max_tangle_order(single) == 0


def test_brute_leftmost_matches_fast(triforce, k4, c5rank):
    """Every box: leftmost against the brute-force meet of the minimizers, and
    rightmost against the complement of the brute-force leftmost in the
    complementary box (kappa is symmetric)."""
    for oracle in (triforce.oracle, k4, c5rank):
        full = oracle.ground.full_mask
        for hi in range(full + 1):
            lo = hi
            while True:
                assert leftmost_min_in_box(oracle, lo, hi) == brute_force_leftmost_in_box(
                    oracle, lo, hi
                )
                assert rightmost_min_in_box(oracle, lo, hi) == full & ~brute_force_leftmost_in_box(
                    oracle, full & ~hi, full & ~lo
                )
                if lo == 0:
                    break
                lo = (lo - 1) & hi


def test_random_instances_reproducible():
    a = random_instances(7, 5)
    b = random_instances(7, 5)
    assert [name for name, _ in a] == [name for name, _ in b]
    for (_, oa), (_, ob) in zip(a, b):
        full = oa.ground.full_mask
        assert full == ob.ground.full_mask
        assert all(oa.evaluate(x) == ob.evaluate(x) for x in range(full + 1))


def test_canonicity_harness_identity(triforce):
    report = canonicity_harness(triforce.oracle, 2, trials=2, seed=3)
    assert report.ok


def test_permuted_oracle_values(c5rank):
    perm = [2, 0, 4, 1, 3]
    image = permuted_oracle(c5rank, perm)
    full = c5rank.ground.full_mask

    def push(mask):
        out = 0
        for i in range(5):
            if mask >> i & 1:
                out |= 1 << perm[i]
        return out

    for x in range(full + 1):
        assert image.evaluate(push(x)) == c5rank.evaluate(x)


def test_random_agreement_sweep():
    """Duality + census agreement on ~100 seeded random instances."""
    checked = 0
    for name, oracle in random_instances(2024, 100):
        n = oracle.ground.n
        top = max_tangle_order(oracle)
        assert not has_tangle_of_order(oracle, top + 1), name
        if n <= 7:
            assert brute_force_branch_width(oracle) == top, name
        if n <= 8:
            ds = build_structure(oracle, min(top, 3))
            for k in range(min(top, 3) + 1):
                brute = brute_force_tangles(oracle, k)
                assert len(brute) == ds.count(k), (name, k)
                assert len(brute) <= n, name
        checked += 1
    assert checked == 100
