"""Free sets, bases, and the lattice of sets sharing a base.

A set Y is free in X when Y <= X, kappa_min(Y, complement(X)) = kappa(X), and
|Y| <= kappa(X).  A base is a disjoint pair (B1, B2) such that the family
L(B1, B2) = { X : B1 free in X and B2 free in complement(X) } is nonempty;
equivalently kappa_min(B1, B2) >= max(|B1|, |B2|).  All members of L(B1, B2)
share the order kappa_min(B1, B2), so

    L(B1, B2) = { X : B1 <= X <= complement(B2), kappa(X) = order }

which is closed under intersection and union.  Its least and greatest
members are therefore the leftmost and rightmost minimum (B1, B2)-
separations, which the box minimizer returns with the minimum itself, so
reading either is one cached ``box_min`` lookup.  Bases of bounded order are
the search skeleton for every tangle algorithm in this library.

L(B1, B2) is determined by its bottom and top: it is the set of members of
the box [bottom, top] of kappa equal to the order.  Many bases share one
lattice, and everything the tangle algorithms compute per base depends only
on that lattice, so ``enumerate_lattices`` lists each distinct lattice once,
as the base (bottom, complement(top)), in the order of the first base of
``enumerate_bases`` that has it.  ``enumerate_bases`` minimizes each
unordered pair {B1, B2} once: kappa is symmetric, so the box
[B2, complement(B1)] holds the complements of the sets in
[B1, complement(B2)], and its answer is the first box's with leftmost and
rightmost complemented and swapped.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import List

from .connectivity import ConnectivityOracle, iter_bits
from .errors import DomainError
from .separations import box_min, kappa_min


@dataclass(frozen=True)
class Base:
    b1: int
    b2: int
    order: int


def free_subset(oracle: ConnectivityOracle, x: int) -> int:
    """A free subset of x: greedy deletion, keeping the lowest ids.

    Deletion candidates are scanned from the highest id down, which makes the
    result the lexicographically least inclusion-minimal set with
    kappa_min(Y, complement(x)) = kappa(x).  Minimality forces |Y| <= kappa(x).
    """
    ground = oracle.ground
    target = oracle.evaluate(x)
    xbar = ground.complement(x)
    y = x
    for u in reversed(list(iter_bits(x))):
        candidate = y & ~(1 << u)
        shrunk = box_min(oracle, candidate, ground.complement(xbar))
        if shrunk is not None and shrunk[0] == target:
            y = candidate
    return y


def is_base(oracle: ConnectivityOracle, b1: int, b2: int) -> bool:
    """True iff L(b1, b2) is nonempty."""
    if b1 & b2:
        raise DomainError("base sides must be disjoint")
    value = kappa_min(oracle, b1, b2).value
    return value >= max(b1.bit_count(), b2.bit_count())


def base_for_set(oracle: ConnectivityOracle, x: int) -> Base:
    """A base (free subset of x, free subset of complement) for x."""
    xbar = oracle.ground.complement(x)
    b1 = free_subset(oracle, x)
    b2 = free_subset(oracle, xbar)
    return Base(b1, b2, oracle.evaluate(x))


def _masks_up_to(n: int, size: int) -> List[int]:
    masks = [0]
    ids = range(n)
    for k in range(1, size + 1):
        masks.extend(sum(1 << i for i in combo) for combo in combinations(ids, k))
    return masks


def enumerate_bases(oracle: ConnectivityOracle, k: int) -> List[Base]:
    """All bases of order at most k, in lexicographic (b1, b2) order.

    Side sizes are bounded by the order, so candidates are pairs of masks of
    size at most k.  Each unordered pair is minimized once and the swapped
    box's answer is cached beside it.  Results are cached per oracle.
    """
    if k < 0:
        return []
    cache = oracle.cache("bases")
    hit = cache.get(k)
    if hit is not None:
        return hit
    full = oracle.ground.full_mask
    boxes = oracle.cache("box_min")
    out = []
    candidates = _masks_up_to(oracle.ground.n, k)
    for i, b1 in enumerate(candidates):
        s1 = b1.bit_count()
        for b2 in candidates[i:]:
            if b1 & b2:
                continue
            value, left, right = box_min(oracle, b1, full & ~b2)
            boxes.setdefault((b2, full & ~b1), (value, full & ~right, full & ~left))
            if value > k or value < max(s1, b2.bit_count()):
                continue
            out.append(Base(b1, b2, value))
            if b1 != b2:
                out.append(Base(b2, b1, value))
    out.sort(key=lambda b: (b.b1, b.b2))
    cache[k] = out
    return out


def enumerate_lattices(oracle: ConnectivityOracle, k: int) -> List[Base]:
    """One base (bottom, complement(top)) per distinct lattice of the bases
    of order at most k, in the order of the first base that has it.

    Such a base's lattice equals the lattices it stands for, but its sides
    need not be free, so it may fail the size test of ``is_base``,
    ``lattice_bottom`` and ``lattice_top``: read its bottom as b1 and its
    top as the complement of b2.  Results are cached per oracle.
    """
    cache = oracle.cache("lattices")
    hit = cache.get(k)
    if hit is not None:
        return hit
    full = oracle.ground.full_mask
    seen = {}
    for base in enumerate_bases(oracle, k):
        _, bottom, top = box_min(oracle, base.b1, full & ~base.b2)
        seen.setdefault((bottom, top), Base(bottom, full & ~top, base.order))
    return cache.setdefault(k, list(seen.values()))


def _check_base(oracle: ConnectivityOracle, base: Base) -> None:
    if base.b1 & base.b2:
        raise DomainError("base sides must be disjoint")
    if base.order < max(base.b1.bit_count(), base.b2.bit_count()):
        raise DomainError("not a base: its lattice is empty")


def lattice_bottom(oracle: ConnectivityOracle, base: Base) -> int:
    """The inclusion-least member of L(base): the leftmost minimum
    (b1, b2)-separation."""
    _check_base(oracle, base)
    return box_min(oracle, base.b1, oracle.ground.complement(base.b2))[1]


def lattice_top(oracle: ConnectivityOracle, base: Base) -> int:
    """The inclusion-greatest member of L(base): the rightmost minimum
    (b1, b2)-separation."""
    _check_base(oracle, base)
    return box_min(oracle, base.b1, oracle.ground.complement(base.b2))[2]
