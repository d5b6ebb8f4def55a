"""Constrained minimization of kappa and leftmost/rightmost minimum separations.

kappa_min(X, Y) is the minimum of kappa over the "box" of all Z with
X subset-of Z subset-of complement(Y).  Minimum separations in a box are
closed under intersection and union (submodularity), so there is a unique
inclusion-least one (leftmost), the intersection of all minimizers, and a
unique inclusion-greatest one (rightmost), their union.

The minimizer is pluggable: an oracle may carry a ``minimizer`` attribute
``fn(oracle, lo, hi) -> (value, leftmost, rightmost)`` giving the minimum of
kappa over the box [lo, hi] and its least and greatest minimizers.  The
vertex-cut and edge-boundary oracles carry a max-flow minimizer
(``flow.FlowNetwork``) that answers every box without evaluating kappa.
Every oracle without a minimizer (cut-rank, matroid, custom kappa,
contractions) uses the default, one exhaustive scan of the free positions;
FREE_LIMIT (kept in ``connectivity``) guards that scan, and a dense kappa
table is filled only within it.  Once the oracle's memo is complete, the
scan first walks ``oracle.levels()``, the subsets grouped by kappa value,
upward until a group meets the box.  It reads at most as many sets as the
box has, then falls back to walking the box's subsets.  The cut-rank and
matroid oracles tabulate kappa in one GF(2) sweep on their first scan read,
so even their first scan walks the groups; custom kappa and contractions
fill their memo lazily, through the scans themselves.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from operator import and_, or_

from .connectivity import FREE_LIMIT, ConnectivityOracle
from .errors import DomainError, SizeGuardError


@dataclass(frozen=True)
class MinSeparationResult:
    value: int
    witness: int


def _exhaustive_box_min(oracle: ConnectivityOracle, lo: int, hi: int):
    free = hi & ~lo
    nfree = free.bit_count()
    if nfree > FREE_LIMIT:
        raise SizeGuardError(
            f"exhaustive minimizer guard: {nfree} free positions exceeds {FREE_LIMIT}"
        )
    levels = oracle.levels()
    if levels is not None:
        # The first value with a set inside the box is the minimum, and the
        # box's sets of that value are all its minimizers.  Give up once the
        # groups read exceed the box's 2^free sets.
        pin = lo | (oracle.ground.full_mask & ~hi)
        budget = 1 << nfree
        for v, sets in levels:
            budget -= len(sets)
            if budget < 0:
                break
            hits = [z for z in sets if z & pin == lo]
            if hits:
                return v, reduce(and_, hits), reduce(or_, hits)
    get = oracle.value_getter()
    best = get(lo)
    left = right = lo
    sub = free
    while sub:
        z = lo | sub
        v = get(z)
        if v < best:
            best = v
            left = right = z
        elif v == best:
            left &= z
            right |= z
        sub = (sub - 1) & free
    return best, left, right


def box_min(oracle: ConnectivityOracle, lo: int, hi: int):
    """(min kappa(Z), leftmost, rightmost) over lo <= Z <= hi, or None if the
    box is empty.

    Results are cached per oracle; the cache is sound because oracles are
    immutable.
    """
    if lo & ~hi:
        return None
    cache = oracle.cache("box_min")
    key = (lo, hi)
    hit = cache.get(key)
    if hit is not None:
        return hit
    minimizer = oracle.minimizer or _exhaustive_box_min
    result = minimizer(oracle, lo, hi)
    cache[key] = result
    return result


def kappa_min(oracle: ConnectivityOracle, x: int, y: int) -> MinSeparationResult:
    """Minimize kappa over all Z with x <= Z <= complement(y); the witness is
    the leftmost minimizer.

    x and y must be disjoint subsets of the oracle's ground set.
    """
    if x & y:
        raise DomainError("kappa_min requires disjoint subsets")
    ground = oracle.ground
    if not (ground.contains_mask(x) and ground.contains_mask(y)):
        raise DomainError("subset mask outside this oracle's ground set")
    value, leftmost, _ = box_min(oracle, x, ground.complement(y))
    return MinSeparationResult(value, leftmost)


def leftmost_min_in_box(oracle: ConnectivityOracle, lo: int, hi: int) -> int:
    """The inclusion-least Z with lo <= Z <= hi and kappa(Z) minimal."""
    return box_min(oracle, lo, hi)[1]


def leftmost_min_separation(oracle: ConnectivityOracle, x: int, y: int) -> int:
    """The unique minimum (x, y)-separation contained in all others."""
    if x & y:
        raise DomainError("leftmost_min_separation requires disjoint subsets")
    return leftmost_min_in_box(oracle, x, oracle.ground.complement(y))


def rightmost_min_separation(oracle: ConnectivityOracle, x: int, y: int) -> int:
    """The unique minimum (x, y)-separation containing all others."""
    if x & y:
        raise DomainError("rightmost_min_separation requires disjoint subsets")
    return rightmost_min_in_box(oracle, x, oracle.ground.complement(y))


def rightmost_min_in_box(oracle: ConnectivityOracle, lo: int, hi: int) -> int:
    """The inclusion-greatest Z with lo <= Z <= hi and kappa(Z) minimal."""
    return box_min(oracle, lo, hi)[2]
