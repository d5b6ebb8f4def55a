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
maintains, for every base B of bounded order, a growing decomposable member
mu(B) of the lattice L(B), propagates the closure rule "any lattice member
covered by two mu values joins its own base's mu", and declares that a
tangle exists exactly when no two mu values cover the ground set.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, groupby
from operator import attrgetter
from typing import Callable, Iterable, List, Optional, Sequence, Tuple

from .bases import Base, enumerate_bases
from .connectivity import ConnectivityOracle, bits_list, iter_bits
from .errors import DomainError, OutOfOrderError, SizeGuardError, StructuralError
from .separations import FREE_LIMIT, box_min


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
        avoids = tuple(sorted({full & ~s for s in self.signature}))
        ctx = _context(self.oracle, self.order, avoids)
        return ctx.exists((full & ~x,))

    def member_fn(self) -> Callable[[int], bool]:
        return self.member

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


def membership(tangle: Tangle, x: int) -> bool:
    return tangle.member(x)


# ---------------------------------------------------------------------------
# The avoidance fixpoint.


class AvoidContext:
    """Fixpoint state for one (order, avoid family, base tangle) question.

    ``exists(extras)`` answers whether a tangle of ``order`` extending the
    base tangle avoids the stored family plus ``extras``.  Extra queries
    warm-start from the stored fixpoint, which is sound because adding avoid
    sets only ever grows the mu values.

    The closure is evaluated semi-naively: each window (union of two mu
    values) is checked against the bases once.  That suffices because the
    update of mu(B) from window W depends only on B and W (it is the
    rightmost minimizer of the box [b1, W & ~b2]) and mu only grows, so a
    result once in mu(B) stays there.  The checked windows are kept in
    ``seen``, from which extra queries also start: their mu is at or above
    the stored one.  Bases are sorted by b1, and a window skips every run of
    bases whose b1 it does not contain.
    """

    def __init__(
        self,
        oracle: ConnectivityOracle,
        order: int,
        avoids: Tuple[int, ...] = (),
        base_tangle: Optional[Tangle] = None,
    ):
        self.oracle = oracle
        self.order = order
        self.full = oracle.ground.full_mask
        self.bases: List[Base] = enumerate_bases(oracle, order - 1)
        # (b1, start, end): bases[start:end] are the bases with this b1.
        self._runs, end = [], 0
        for b1, group in groupby(self.bases, key=attrgetter("b1")):
            start, end = end, end + sum(1 for _ in group)
            self._runs.append((b1, start, end))
        mu = [0] * len(self.bases)
        self._seed_singletons(mu)
        if base_tangle is not None and base_tangle.order > 0:
            self._seed_base_tangle(mu, base_tangle)
        for a in avoids:
            self._seed_avoid(mu, a)
        self.seen: set = set()
        self._answer = not self._run(mu, self.seen)
        self.mu = mu
        self._extra_cache: dict = {}

    # mu seeding ------------------------------------------------------

    def _seed_singletons(self, mu) -> None:
        oracle = self.oracle
        singles = [
            (u, oracle.evaluate(1 << u)) for u in range(oracle.ground.n)
        ]
        for i, base in enumerate(self.bases):
            acc = 0
            for u, value in singles:
                bit = 1 << u
                if value != base.order or bit & base.b2:
                    continue
                if base.b1 == 0 or base.b1 == bit:
                    acc |= bit
            mu[i] |= acc

    def _seed_avoid(self, mu, avoid_mask: int) -> None:
        # Greatest lattice member inside the avoided set, per base.
        oracle = self.oracle
        for i, base in enumerate(self.bases):
            r = box_min(oracle, base.b1, avoid_mask & ~base.b2)
            if r is not None and r[0] == base.order:
                mu[i] |= r[2]

    def _seed_base_tangle(self, mu, base_tangle: Tangle) -> None:
        # Complement of the least member of base_tangle within L(b2, b1);
        # bases at or above the tangle's order cannot meet it.
        oracle = self.oracle
        for i, base in enumerate(self.bases):
            if base.order >= base_tangle.order:
                continue
            swapped = Base(base.b2, base.b1, base.order)
            m = tangle_lattice_bottom(base_tangle, swapped)
            if m is not None:
                mu[i] |= self.full & ~m

    # fixpoint ---------------------------------------------------------

    def _run(self, mu, seen: set) -> bool:
        """Close mu under the update rule; True iff two mu values cover the
        ground set."""
        oracle, bases = self.oracle, self.bases
        while True:
            values = sorted({v for v in mu if v})
            windows = {a | b for j, a in enumerate(values) for b in values[j:]}
            if self.full in windows:
                return True
            windows -= seen
            if not windows:
                return False
            seen |= windows
            for w in sorted(windows):
                for b1, start, end in self._runs:
                    if b1 & ~w:
                        continue
                    for i in range(start, end):
                        if w & ~mu[i]:
                            base = bases[i]
                            r = box_min(oracle, b1, w & ~base.b2)
                            if r[0] == base.order:
                                mu[i] |= r[2]

    # queries ----------------------------------------------------------

    def exists(self, extras: Iterable[int] = ()) -> bool:
        key = frozenset(extras)
        if not key:
            return self._answer
        if not self._answer:
            return False
        hit = self._extra_cache.get(key)
        if hit is not None:
            return hit
        mu = list(self.mu)
        for a in sorted(key):
            self._seed_avoid(mu, a)
        answer = not self._run(mu, set(self.seen))
        self._extra_cache[key] = answer
        return answer


def _context(
    oracle: ConnectivityOracle,
    order: int,
    avoids: Tuple[int, ...],
    base_tangle: Optional[Tangle] = None,
) -> AvoidContext:
    cache = oracle.cache("avoid_ctx")
    base_key = None if base_tangle is None else (base_tangle.order, base_tangle.signature)
    key = (order, frozenset(avoids), base_key)
    ctx = cache.get(key)
    if ctx is None:
        ctx = cache.setdefault(key, AvoidContext(oracle, order, avoids, base_tangle))
    return ctx


def exists_tangle_avoiding(
    oracle: ConnectivityOracle,
    order: int,
    avoid: Sequence[int] = (),
    base_tangle: Optional[Tangle] = None,
) -> bool:
    """Is there a tangle of ``order`` extending ``base_tangle`` that avoids
    (the down-closures of) every set in ``avoid``?

    Every avoided set must have order at most ``order - 1``; the base tangle,
    when given, must have order below ``order``.
    """
    for a in avoid:
        if oracle.evaluate(a) > order - 1:
            raise DomainError("avoided sets must have order below the target order")
    if base_tangle is not None and base_tangle.order >= order:
        if base_tangle.order > order:
            raise DomainError("base tangle order exceeds target order")
        # Extending a tangle of the same order: it is its own extension iff it
        # avoids the given sets.
        return all(not base_tangle.member(a) for a in avoid) if avoid else True
    ctx = _context(oracle, order, tuple(sorted(set(avoid))), base_tangle)
    return ctx.exists(())


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
    exhaustive box scan, at ``separations.FREE_LIMIT`` free positions.
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


def minimal_member_in_lattice(
    oracle: ConnectivityOracle,
    member: Callable[[int], bool],
    base: Base,
    within: Optional[int] = None,
) -> Optional[int]:
    """An inclusion-minimal member of (union of tangles) inside L(base).

    With ``within`` given, the lattice is additionally restricted to subsets
    of that window.  Each tangle is upward closed below its order, so the
    union's members form an up-set of the lattice: it meets the lattice iff
    it holds the top, and some member inside x avoids u iff the rightmost
    lattice set inside x - u is one.  One descent over the top's elements
    outside b1 thus ends at a minimal member; a u that fails once fails for
    every smaller x.  For a single tangle, whose lattice members are closed
    under intersection, that is its least member.
    """
    hi = oracle.ground.complement(base.b2)
    if within is not None:
        hi &= within
    r = box_min(oracle, base.b1, hi)
    if r is None or r[0] != base.order:
        return None
    q, bottom, top = r
    if not member(top):
        return None
    if bottom == top or member(bottom):
        return bottom
    x = top
    for u in iter_bits(top & ~base.b1):
        if x >> u & 1:
            r = box_min(oracle, base.b1, x & ~(1 << u))
            if r[0] == q and member(r[2]):
                x = r[2]
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


def _least_of(candidates: List[int]) -> int:
    least = min(candidates, key=lambda m: (m.bit_count(), m))
    for c in candidates:
        if least & ~c:
            raise StructuralError("minimum separations are not intersection-directed")
    return least


def leftmost_tangle_separation(
    t1: Tangle, t2: Tangle, known_order: Optional[int] = None
) -> Optional[int]:
    """The leftmost minimum (t1, t2)-separation, or None if comparable.

    Scans base orders upward; for each base, the least member of t1 inside
    the base's lattice is a candidate whenever its complement lies in t2.
    The true leftmost separation is the least candidate at the first order
    where any appear.
    """
    if t1.oracle is not t2.oracle:
        raise DomainError("tangles live on different oracles")
    if comparable(t1, t2):
        return None
    oracle = t1.oracle
    limit = min(t1.order, t2.order)
    orders = range(limit) if known_order is None else (known_order,)
    member1 = t1.member
    for q in orders:
        candidates = []
        for base in enumerate_bases(oracle, q):
            if base.order != q:
                continue
            m = minimal_member_in_lattice(oracle, member1, base)
            if m is None:
                continue
            if t2.member(oracle.ground.complement(m)):
                candidates.append(m)
        if candidates:
            return _least_of(candidates)
    raise StructuralError("incomparable tangles admit no separation; oracle is not a tangle")


def leftmost_tangle_set_separation(tangle: Tangle, x: int) -> Optional[int]:
    """The leftmost minimum (tangle, x)-separation: the least minimum-order
    member of the tangle disjoint from x.  None if no member avoids x."""
    oracle = tangle.oracle
    window = oracle.ground.complement(x)
    for q in range(tangle.order):
        candidates = []
        for base in enumerate_bases(oracle, q):
            if base.order != q:
                continue
            m = minimal_member_in_lattice(oracle, tangle.member, base, within=window)
            if m is not None:
                candidates.append(m)
        if candidates:
            return _least_of(candidates)
    return None


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
