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
the box [bottom, top] of kappa equal to the order.  The tangle algorithms
read the members between them from the lattice's join table, the least
member holding each element of top - bottom.  Many bases share one
lattice, and everything the tangle algorithms compute per base depends only
on that lattice, so ``enumerate_lattices`` lists each distinct lattice once,
as the base (bottom, complement(top)), in the order of the first base of
``enumerate_bases`` that has it.  ``enumerate_bases`` settles each
unordered pair {B1, B2} once: kappa is symmetric, so the box
[B2, complement(B1)] holds the complements of the sets in
[B1, complement(B2)], and its answer is the first box's with leftmost and
rightmost complemented and swapped.

Before minimizing a pair, ``enumerate_bases`` reads the answers (v, L, R) of
its parents, the pairs with one element u fewer on one side; candidates come
in order of size, so every parent has already been settled or skipped.  The pair's box is the
parent's box cut down to the sets that hold u (u grows B1) or miss u (u
grows B2).  L and R are the least and greatest minimizers of the parent's
box (Picard-Queyranne), so every minimizer Z has L <= Z <= R, and:

* copy: u in L grows B1, or u outside R grows B2.  Every minimizer lies in
  the smaller box, so its answer is the parent's (v, L, R);
* same value: u in R - L, on either side.  R (for B1) or L (for B2) lies
  in the smaller box, so its minimum is still v, but its extremes may move;
* raise: u outside R grows B1, or u in L grows B2.  No minimizer lies in
  the smaller box, so its minimum is at least v + 1.  A smaller box never
  has a smaller minimum, so this bound also holds for every descendant.

A pair is minimized only if it can still be a base: no parent shows that its
minimum exceeds k, and its value, if a parent gives it, lies in
[max(|B1|, |B2|), k].  Skipped pairs never enter
the ``box_min`` cache; the pairs known to exceed k are remembered for the
rest of the call, so that their descendants are skipped too.
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
    size at most k.  Each unordered pair is settled once and the swapped
    box's answer is cached beside it.  A pair copies a parent's answer when
    every minimizer of the parent's box lies in its own.  It is skipped
    without a minimizer call when its parents show that it is no base: its
    minimum exceeds k, or equals a value below the size of a side.  The
    module docstring gives the three rules and why they hold.  Skipped
    pairs are not cached.  Results are cached per oracle.
    """
    if k < 0:
        return []
    cache = oracle.cache("bases")
    hit = cache.get(k)
    if hit is not None:
        return hit
    full = oracle.ground.full_mask
    boxes = oracle.cache("box_min")
    above = set()  # skipped pairs (lesser side, greater side) with a minimum above k
    out = []
    candidates = _masks_up_to(oracle.ground.n, k)
    for i, b1 in enumerate(candidates):
        s1 = b1.bit_count()
        for b2 in candidates[i:]:
            if b1 & b2:
                continue
            hi = full & ~b2
            size = max(s1, b2.bit_count())
            answer = value = None
            low = 0  # a lower bound on the pair's minimum
            for u in iter_bits(b1 | b2):
                bit = 1 << u
                grows_b1 = b1 & bit
                parent = (b1 ^ bit, hi) if grows_b1 else (b1, hi | bit)
                known = boxes.get(parent)
                if known is None:
                    p1, p2 = (b1 ^ bit, b2) if grows_b1 else (b1, b2 ^ bit)
                    if (min(p1, p2), max(p1, p2)) in above:
                        low = k + 1
                    continue
                v, left, right = known
                # The parent's minimizers inside this box are those that hold
                # u when u grows b1, and those that miss u when it grows b2.
                if bit & left if grows_b1 else not bit & right:
                    answer = known  # all of them: copy
                    break
                if not bit & right if grows_b1 else bit & left:
                    low = max(low, v + 1)  # none of them: raise
                else:
                    low, value = max(low, v), v  # some of them: same value
            if answer is None:
                if low > k:
                    above.add((min(b1, b2), max(b1, b2)))
                    continue
                if value is not None and value < size:
                    continue
                answer = box_min(oracle, b1, hi)
            else:
                boxes.setdefault((b1, hi), answer)
            value, left, right = answer
            boxes.setdefault((b2, full & ~b1), (value, full & ~right, full & ~left))
            if not size <= value <= k:
                continue
            out.append(Base(b1, b2, value))
            if b1 != b2:
                out.append(Base(b2, b1, value))
    out.sort(key=lambda b: (b.b1, b.b2))
    return cache.setdefault(k, out)


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
