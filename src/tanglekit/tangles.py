"""Tangles and the decision procedures around them.

A tangle of order k orients every subset of order below k toward a "big
side", subject to four axioms: every member has order below k; for each X
of order below k, X or its complement is a member; any three members have
nonempty intersection; and no singleton is a member.

Tangles are represented compactly: a ``Tangle`` is a declared order plus a
*signature*, a tuple of committed member sets such that exactly one tangle
of that order contains them all.  Membership of any further set X is then a
single avoidance query: X is a member iff some tangle of the order contains
signature + {X}, i.e. avoids the complements of all of these.

The avoidance decision itself follows the dual decomposition search: it
maintains, for every lattice L(B) of a base B of bounded order, a growing
decomposable member mu of L(B), and declares that a tangle exists exactly
when no two mu values cover the ground set.  Bases sharing a lattice share
their mu, so there is one mu per lattice.  One rule grows mu: the greatest
member of L(B) inside a window joins mu.  The windows are each singleton
(no singleton is a member), each avoided set, and every union of two mu
values.  Each lattice is read through its join table, the least member
holding each element: the greatest member inside a window is the bottom
plus every table entry inside it, so the fixpoint reads no box.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Callable, Iterable, List, Optional, Sequence, Tuple

from .bases import Base, enumerate_lattices
from .connectivity import FREE_LIMIT, ConnectivityOracle, bits_list, iter_bits
from .errors import DomainError, OutOfOrderError, SizeGuardError, StructuralError
from .separations import box_min


@dataclass(frozen=True)
class Tangle:
    """A tangle fixed by (order, signature) over a connectivity oracle."""

    oracle: ConnectivityOracle
    order: int
    signature: Tuple[int, ...]

    def member(self, x: int) -> bool:
        """Decide whether x belongs to this tangle.

        Only defined for kappa(x) < order; asking about higher-order sets is
        an error, not a False.
        """
        if self.oracle.evaluate(x) >= self.order:
            raise OutOfOrderError(
                f"membership undefined: set has order >= tangle order {self.order}"
            )
        full = self.oracle.ground.full_mask
        ctx = _context(self.oracle, self.order, {full & ~s for s in self.signature})
        return ctx.exists((full & ~x,))

    def __repr__(self) -> str:
        sig = ",".join(format(s, "x") for s in self.signature)
        return f"Tangle(order={self.order}, signature=[{sig}])"


@dataclass(frozen=True)
class ExplicitTangle:
    """A tangle given by its full member family; used by oracles and tests."""

    order: int
    members: frozenset

    def member(self, x: int) -> bool:
        return x in self.members


def empty_tangle(oracle: ConnectivityOracle) -> Tangle:
    return Tangle(oracle, 0, ())


# ---------------------------------------------------------------------------
# The avoidance fixpoint.


class AvoidContext:
    """Fixpoint state for one (order, avoid family) question.

    ``exists(extras)`` answers whether a tangle of ``order`` avoids the
    stored family plus ``extras``.  Extra queries warm-start from the stored
    fixpoint, which is sound because adding avoid sets only ever grows the
    mu values.

    There is one mu per lattice of the bases of order below ``order``:
    ``lattices`` holds each as the base (bottom, complement(top)) from
    ``enumerate_lattices``, and ``mu[i]`` belongs to ``lattices[i]``.  mu
    grows by one rule: from a window W that holds the lattice's bottom, it
    takes in the greatest member of the lattice inside W, read from the
    lattice's join table (``_joins``) as the bottom plus every join inside
    W.  The windows are each singleton (the no-singleton axiom) and each
    avoided set, applied once in the first round, and then every union of
    two mu values; a tangle exists iff no such union is the ground set.
    The update depends only on the lattice and W and mu only grows, so a
    result once in mu stays there and the least fixpoint does not depend on
    the order windows are applied in.  The closure is therefore evaluated
    semi-naively: each window is checked against the lattices once and kept
    in ``seen``, from which extra queries also start, and each round forms
    only the unions that involve a mu value grown in the round before.  A
    window that does not contain a lattice's bottom holds none of its
    members (the lattice is closed under intersection), and one inside mu
    adds nothing; neither reads the table.
    """

    def __init__(self, oracle: ConnectivityOracle, order: int, avoids: Iterable[int] = ()):
        self.oracle = oracle
        self.order = order
        self.full = oracle.ground.full_mask
        self.lattices: List[Base] = enumerate_lattices(oracle, order - 1)
        self.tables = [(base.b1, _joins(oracle, base)) for base in self.lattices]
        singletons = [1 << u for u in range(oracle.ground.n)]
        self.mu = [0] * len(self.lattices)
        self.seen: set = set()
        self._answer = not self._run(self.mu, self.seen, [*singletons, *avoids])
        self._extra_cache: dict = {}

    def _run(self, mu, seen: set, windows: Iterable[int]) -> bool:
        """Close mu under the update rule, starting with ``windows`` as the
        first round's; True iff two mu values cover the ground set.

        mu and ``seen`` are a fixpoint's or fresh: the unions of two of
        mu's values are all in ``seen``, and none is the ground set.  So a
        round need only form the unions that involve a value it grew.
        """
        tables = self.tables
        windows = set(windows) - seen
        while windows:
            seen |= windows
            grown = set()
            for w in sorted(windows):
                for i, (bottom, joins) in enumerate(tables):
                    if bottom & ~w or not w & ~mu[i]:
                        continue
                    x = _greatest_inside(bottom, joins, w)
                    if x & ~mu[i]:
                        mu[i] |= x
                        grown.add(i)
            values = {v for v in mu if v}
            pairs = {a | b for a in {mu[i] for i in grown} for b in values}
            if self.full in pairs:
                return True
            windows = pairs - seen
        return False

    def exists(self, extras: Iterable[int] = ()) -> bool:
        key = frozenset(extras)
        if not key:
            return self._answer
        if not self._answer:
            return False
        hit = self._extra_cache.get(key)
        if hit is not None:
            return hit
        answer = not self._run(list(self.mu), set(self.seen), key)
        self._extra_cache[key] = answer
        return answer


def _context(oracle: ConnectivityOracle, order: int, avoids: Iterable[int]) -> AvoidContext:
    cache = oracle.cache("avoid_ctx")
    key = (order, frozenset(avoids))
    ctx = cache.get(key)
    if ctx is None:
        ctx = cache.setdefault(key, AvoidContext(oracle, order, key[1]))
    return ctx


def exists_tangle_avoiding(
    oracle: ConnectivityOracle, order: int, avoid: Sequence[int] = ()
) -> bool:
    """Is there a tangle of ``order`` that avoids (the down-closures of)
    every set in ``avoid``?

    Every avoided set must have order at most ``order - 1``.  Each avoided
    set enters the fixpoint as a first-round window, beside the singletons.
    """
    for a in avoid:
        if oracle.evaluate(a) > order - 1:
            raise DomainError("avoided sets must have order below the target order")
    return _context(oracle, order, avoid).exists(())


def has_tangle_of_order(oracle: ConnectivityOracle, k: int) -> bool:
    if k < 0:
        raise DomainError("tangle orders are nonnegative")
    if k == 0:
        return True
    return exists_tangle_avoiding(oracle, k)


def _caterpillar_width(oracle: ConnectivityOracle) -> int:
    """Least width of a caterpillar branch decomposition: the ascending-id
    one, or a greedy one from some start element.

    A caterpillar's width is the largest kappa of a singleton or of a prefix
    of its leaf order.  Any decomposition's width bounds the maximum tangle
    order, so this gives a cheap safe upper bound for order scans.
    """
    n = oracle.ground.n
    if n == 1:
        return 0
    get = oracle.value_getter()
    singles = max(get(1 << u) for u in range(n))
    # (2 << u) - 1 is the ascending-id prefix ending at u.
    best = max(singles, *(get((2 << u) - 1) for u in range(n)))
    for start in range(n):
        prefix, width = 1 << start, singles
        rest = [u for u in range(n) if u != start]
        while rest and width < best:
            value, u = min((get(prefix | 1 << u), u) for u in rest)
            rest.remove(u)
            prefix |= 1 << u
            width = max(width, value)
        best = min(best, width)
    return best


def max_tangle_order(oracle: ConnectivityOracle) -> int:
    """The largest k admitting a tangle of order k (equals the branch width).

    Scans orders upward and stops at a caterpillar width w: by branch-width
    duality no tangle has order above the width of any branch decomposition,
    so no order above w is tested.  w is the least width among the
    ascending-id caterpillar and, from each start element, the greedy one
    that appends the element of least kappa(prefix), ties to the lowest id.
    """
    cap = _caterpillar_width(oracle)
    k = 0
    while k < cap and has_tangle_of_order(oracle, k + 1):
        k += 1
    return k


# ---------------------------------------------------------------------------
# Minimal members of tangle unions in boxes and lattices.


def minimal_member_in_box(
    oracle: ConnectivityOracle,
    member: Callable[[int], bool],
    lo: int,
    hi: int,
    max_order: int,
) -> Optional[int]:
    """An inclusion-minimal X with member(X), lo <= X <= hi, kappa(X) <= max_order.

    The exhaustive reference: tries the box's sets in order of size and
    returns the first member, or None when there is none.  ``member``
    is only asked about sets with kappa <= max_order.  Guarded like the
    exhaustive box scan, at ``connectivity.FREE_LIMIT`` free positions.
    """
    if lo & ~hi:
        return None
    free = bits_list(hi & ~lo)
    if len(free) > FREE_LIMIT:
        raise SizeGuardError(
            f"exhaustive minimal member guard: {len(free)} free positions exceeds {FREE_LIMIT}"
        )
    get = oracle.value_getter()
    for size in range(len(free) + 1):
        for combo in combinations(free, size):
            x = lo | sum(1 << u for u in combo)
            if get(x) <= max_order and member(x):
                return x
    return None


def _joins(oracle: ConnectivityOracle, base: Base) -> Tuple[int, ...]:
    """The join table of L(base): the distinct J(u), for u in top - bottom,
    where J(u) is the least member of the lattice that holds u.

    J(u) is the leftmost minimizer of the box [bottom + u, top], whose
    minimum is the lattice's order because it holds the top.  Every member
    X is the bottom plus the J(u) of its elements u outside the bottom, so
    the table fixes the lattice (Birkhoff).  Cached per oracle under the
    base.
    """
    cache = oracle.cache("joins")
    hit = cache.get(base)
    if hit is None:
        _, bottom, top = box_min(oracle, base.b1, oracle.ground.complement(base.b2))
        found = {box_min(oracle, bottom | 1 << u, top)[1] for u in iter_bits(top & ~bottom)}
        hit = cache.setdefault(base, tuple(found))
    return hit


def _greatest_inside(bottom: int, joins: Tuple[int, ...], w: int) -> int:
    """The greatest lattice member inside w, for w holding the bottom: the
    bottom plus every join inside w, a member since the lattice is closed
    under union."""
    outside = ~w
    x = bottom
    for j in joins:
        if not j & outside:
            x |= j
    return x


def minimal_member_in_lattice(
    oracle: ConnectivityOracle,
    member: Callable[[int], bool],
    base: Base,
) -> Optional[int]:
    """An inclusion-minimal member of (union of tangles) inside L(base).

    Each tangle is upward closed below its order, so the union's members
    form an up-set of the lattice: it meets the lattice iff it holds the
    top, and some member inside x avoids u iff the greatest lattice member
    inside x - u is one.  One descent over the top's elements outside the
    bottom, reading each greatest member from the lattice's join table,
    thus ends at a minimal member; a u that fails once fails for every
    smaller x.  For a single tangle, whose lattice members are closed under
    intersection, that is its least member.
    """
    r = box_min(oracle, base.b1, oracle.ground.complement(base.b2))
    if r is None or r[0] != base.order:
        return None
    _, bottom, top = r
    if not member(top):
        return None
    if bottom == top or member(bottom):
        return bottom
    joins = _joins(oracle, base)
    x = top
    for u in iter_bits(top & ~bottom):
        if x >> u & 1:
            y = _greatest_inside(bottom, joins, x & ~(1 << u))
            if member(y):
                x = y
    return x


# ---------------------------------------------------------------------------
# Separations between tangles.


def is_extension(big: Tangle, small: Tangle) -> bool:
    """True iff ``small`` is a truncation of ``big`` (as set families)."""
    if small.order > big.order:
        return False
    if small.order == 0:
        return True
    return all(big.member(s) for s in small.signature)


def comparable(t1: Tangle, t2: Tangle) -> bool:
    return is_extension(t1, t2) or is_extension(t2, t1)


def _least_members(tangle: Tangle, q: int) -> Tuple[int, ...]:
    """The tangle's least members in the order-q lattices of
    ``enumerate_lattices``, in lattice order; cached per oracle, since they
    depend only on the tangle and the lattice."""
    oracle = tangle.oracle
    cache = oracle.cache("least_members")
    key = (tangle.order, tangle.signature, q)
    hit = cache.get(key)
    if hit is None:
        lattices = [b for b in enumerate_lattices(oracle, q) if b.order == q]
        found = [minimal_member_in_lattice(oracle, tangle.member, b) for b in lattices]
        hit = cache.setdefault(key, tuple(m for m in found if m is not None))
    return hit


def _least_accepted(tangle: Tangle, limit: int, accept: Callable[[int], bool]) -> Optional[int]:
    """At the first order below ``limit`` where ``accept`` admits some of the
    tangle's least members, the least of those, which must lie inside every
    other; None when no order has one."""
    for q in range(limit):
        candidates = [m for m in _least_members(tangle, q) if accept(m)]
        if candidates:
            least = min(candidates, key=lambda m: (m.bit_count(), m))
            if any(least & ~c for c in candidates):
                raise StructuralError("minimum separations are not intersection-directed")
            return least
    return None


def leftmost_tangle_separation(t1: Tangle, t2: Tangle) -> Optional[int]:
    """The leftmost minimum (t1, t2)-separation, or None if comparable.

    Scans base orders upward; the least member of t1 in each base lattice
    of that order is a candidate whenever its complement lies in t2.  The
    true leftmost separation is the least candidate at the first order
    where any appear.
    """
    if t1.oracle is not t2.oracle:
        raise DomainError("tangles live on different oracles")
    if comparable(t1, t2):
        return None
    complement = t1.oracle.ground.complement
    m = _least_accepted(t1, min(t1.order, t2.order), lambda m: t2.member(complement(m)))
    if m is None:
        raise StructuralError("incomparable tangles admit no separation; oracle is not a tangle")
    return m


def leftmost_tangle_set_separation(tangle: Tangle, x: int) -> Optional[int]:
    """The leftmost minimum (tangle, x)-separation: the least minimum-order
    member of the tangle disjoint from x.  None if no member avoids x.  The
    tangle's members in a lattice lie above its least member there, so the
    tangle has one disjoint from x iff that least member is."""
    return _least_accepted(tangle, tangle.order, lambda m: not m & x)


def tangle_lattice_bottom(tangle: Tangle, base: Base) -> Optional[int]:
    """Least member of tangle intersected with L(base); None when empty."""
    if base.order >= tangle.order:
        return None
    return minimal_member_in_lattice(tangle.oracle, tangle.member, base)


def truncate(tangle: Tangle, order: int) -> Tangle:
    """The truncation to the given order, re-anchored to a canonical signature.

    Orders at or above the tangle's own return the tangle unchanged, matching
    the data structure convention.
    """
    if order >= tangle.order:
        return tangle
    if order < 0:
        raise DomainError("truncation order must be nonnegative")
    if order == 0:
        return empty_tangle(tangle.oracle)
    from .tangle_ds import build_structure

    ds = build_structure(tangle.oracle, order)
    return ds.tangle(ds.find(order, tangle.member))


# ---------------------------------------------------------------------------
# Axiom checking for explicit families.


def check_axioms(
    oracle: ConnectivityOracle, family: Iterable[int], order: int
) -> Tuple[bool, Optional[str]]:
    """Validate the four tangle axioms for an explicit family; first failure wins."""
    members = sorted(set(family))
    n = oracle.ground.n
    if n > 12:
        raise SizeGuardError("explicit axiom checking is capped at 12 elements")
    full = oracle.ground.full_mask
    get = oracle.value_getter()
    for m in members:
        if get(m) >= order:
            return False, f"member {m:#x} has order {get(m)}, not below {order}"
    member_set = set(members)
    for x in range(full + 1):
        if get(x) < order and x not in member_set and (full & ~x) not in member_set:
            return False, f"neither {x:#x} nor its complement is oriented"
    for m in members:
        if m == 0:
            return False, "the empty set is a member"
        if m.bit_count() == 1:
            return False, f"singleton {m:#x} is a member"
    for a, b in combinations(members, 2):
        if a & b == 0:
            return False, f"members {a:#x} and {b:#x} are disjoint"
    for a, b, c in combinations(members, 3):
        if a & b & c == 0:
            return False, f"members {a:#x}, {b:#x}, {c:#x} have empty intersection"
    return True, None
