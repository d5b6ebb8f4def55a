"""Tangles and the decision procedures around them.

A tangle of order k orients every subset of order below k toward a "big
side", subject to four axioms: every member has order below k; for each X
of order below k, X or its complement is a member; any three members have
nonempty intersection; and no singleton is a member.

Tangles are represented compactly: a ``Tangle`` is a declared order plus a
*signature*, a tuple of committed member sets such that exactly one tangle
of that order contains them all.  Its members are read from its
least-member table.  Within a base lattice L the tangle's members form the
principal filter above one least member m_L, so a set X of order below the
tangle's is a member iff m_L lies inside X, for any lattice L of X's order
that holds X (Birkhoff).  The table holds m_L, or None where the tangle
meets L in no set, for every lattice of order below the tangle's.  The
structure build fills it at the tangle's leaf from descents it has already
made; any other tangle fills it on first use with the same descents, asking
the avoidance context that avoids its signature's complements.  After that,
membership and the leftmost separations read the table and ask no fixpoint.

The avoidance decision itself follows the dual decomposition search: it
maintains, for every lattice L(B) of a base B of bounded order, a growing
decomposable member mu of L(B), and declares that a tangle exists exactly
when no two mu values cover the ground set.  Bases sharing a lattice share
their mu, so there is one mu per lattice.  One rule grows mu: the greatest
member of L(B) inside a window joins mu.  The windows are each singleton
(no singleton is a member), each avoided set, and every union of two mu
values.  Each lattice is read through its join table, the least member
holding each element: the greatest member inside a window is the bottom
plus every table entry inside it, so the fixpoint reads no box.  Lattices
are grouped by bottom, and a window skips every group whose bottom it does
not hold.  The structure build splits a node's question by one avoided set
at a time, so each child's context starts from its parent's fixpoint.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations
from typing import Callable, Iterable, List, Optional, Sequence, Tuple

from .bases import Base, enumerate_lattices
from .connectivity import FREE_LIMIT, ConnectivityOracle, bits_list, iter_bits
from .errors import DomainError, OutOfOrderError, SizeGuardError, StructuralError
from .separations import box_min, exhaustive_joins


@dataclass(frozen=True)
class Tangle:
    """A tangle fixed by (order, signature) over a connectivity oracle.

    ``_table`` is its least-member table: row q holds its least member in
    each lattice of order q, in the order ``_order_lattices`` lists them,
    or None where it has no member there.  The structure build deposits the
    table; a tangle that finds none descends each lattice once, asking
    membership of the avoidance context bound in ``_avoid``.
    """

    oracle: ConnectivityOracle
    order: int
    signature: Tuple[int, ...]

    @cached_property
    def _avoid(self) -> AvoidContext:
        # Threads racing to bind it get the oracle's one context from _context.
        full = self.oracle.ground.full_mask
        return _context(self.oracle, self.order, {full & ~s for s in self.signature})

    @cached_property
    def _table(self) -> Tuple[Tuple[Optional[int], ...], ...]:
        # Threads racing to fill it keep the one table _publish_table publishes.
        oracle = self.oracle
        hit = oracle.cache("least_members").get((self.order, self.signature))
        if hit is not None:
            return hit
        if not self.order:
            return ()
        lattices = enumerate_lattices(oracle, self.order - 1)
        found = list(_descents(oracle, self._avoid, lattices))
        return _publish_table(oracle, self.order, self.signature, lattices, found)

    @cached_property
    def _held(self) -> dict:
        return self.oracle.cache("held")

    def member(self, x: int) -> bool:
        """Decide whether x belongs to this tangle.

        Only defined for kappa(x) < order; asking about higher-order sets is
        an error, not a False.  x is a member iff the tangle's least member
        in the lattice that holds x exists and lies inside x.
        """
        at = self._held.get(x)
        if at is None:
            at = _lattice_holding(self.oracle, x, self.order - 1)
        q, i = at
        if q >= self.order:
            raise OutOfOrderError(
                f"membership undefined: set has order >= tangle order {self.order}"
            )
        least = self._table[q][i]
        return least is not None and not least & ~x

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
    members (the lattice is closed under intersection), and one whose part
    inside the lattice's top lies in mu adds nothing, since the greatest
    member inside it lies there too; neither reads the table.  ``groups``
    holds the lattices by bottom, as (bottom, [(i, top, joins), ...])
    pairs, so the bottom test is made once per distinct bottom.

    A ``parent`` must have the same order and avoid a subfamily of the
    context's avoided sets.  When it admits a tangle, the context starts
    from a copy of the parent's ``mu`` and ``seen``, shares its lattices
    and groups, and runs only its own further avoided sets as the first
    round.  That reaches the same least fixpoint, since the parent's
    fixpoint lies below it and no window needs to be checked twice.
    """

    def __init__(
        self,
        oracle: ConnectivityOracle,
        order: int,
        avoids: Iterable[int] = (),
        parent: Optional[AvoidContext] = None,
    ):
        self.oracle = oracle
        self.order = order
        self.full = oracle.ground.full_mask
        self.avoids = frozenset(avoids)
        if parent is not None and parent._answer:
            self.lattices, self.groups = parent.lattices, parent.groups
            self.mu, self.seen = list(parent.mu), set(parent.seen)
            windows: Iterable[int] = self.avoids - parent.avoids
        else:
            self.lattices = enumerate_lattices(oracle, order - 1)
            groups: dict = {}
            for i, base in enumerate(self.lattices):
                top = self.full & ~base.b2
                groups.setdefault(base.b1, []).append((i, top, _joins(oracle, base)))
            self.groups = list(groups.items())
            self.mu = [0] * len(self.lattices)
            self.seen = set()
            windows = [*(1 << u for u in range(oracle.ground.n)), *self.avoids]
        self._answer = not self._run(self.mu, self.seen, windows)
        self._extra_cache: dict = {}

    def _run(self, mu, seen: set, windows: Iterable[int]) -> bool:
        """Close mu under the update rule, starting with ``windows`` as the
        first round's; True iff two mu values cover the ground set.

        mu and ``seen`` are a fixpoint's or fresh: the unions of two of
        mu's values are all in ``seen``, and none is the ground set.  So a
        round need only form the unions that involve a value it grew.
        """
        groups = self.groups
        windows = set(windows) - seen
        while windows:
            seen |= windows
            grown = set()
            for w in sorted(windows):
                for bottom, lattices in groups:
                    if bottom & ~w:
                        continue
                    for i, top, joins in lattices:
                        if not w & top & ~mu[i]:
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


def _context(
    oracle: ConnectivityOracle,
    order: int,
    avoids: Iterable[int],
    parent: Optional[AvoidContext] = None,
) -> AvoidContext:
    """The oracle's one context for (order, avoids), built on a miss from
    ``parent`` when given (see ``AvoidContext``) and published with
    setdefault, so racing threads agree on one."""
    cache = oracle.cache("avoid_ctx")
    key = (order, frozenset(avoids))
    ctx = cache.get(key)
    if ctx is None:
        ctx = cache.setdefault(key, AvoidContext(oracle, order, key[1], parent))
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
    minimum is the lattice's order because it holds the top, and so the
    intersection of the members that hold u.  Every member X is the bottom
    plus the J(u) of its elements u outside the bottom, so the table fixes
    the lattice (Birkhoff).  An oracle with a box minimizer (the graph
    functions) answers one box per element; any other reads the lattice's
    members once, by ``separations.exhaustive_joins``.  Cached per oracle
    under the base.
    """
    cache = oracle.cache("joins")
    hit = cache.get(base)
    if hit is None:
        value, bottom, top = box_min(oracle, base.b1, oracle.ground.complement(base.b2))
        if oracle.minimizer is None:
            found = exhaustive_joins(oracle, bottom, top, value)
        else:
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
# Least-member tables.


def _descents(oracle: ConnectivityOracle, ctx: AvoidContext, lattices: Iterable[Base]):
    """For each lattice in turn, an inclusion-minimal member of the union
    of the tangles that ``ctx`` admits; for one tangle, its least member."""
    full = oracle.ground.full_mask

    def member(x: int) -> bool:
        return ctx.exists((full & ~x,))

    for base in lattices:
        yield minimal_member_in_lattice(oracle, member, base)


def _publish_table(oracle: ConnectivityOracle, order: int, signature, lattices, found) -> tuple:
    """Publish the table of the tangle (order, signature) from ``found``,
    its least members in ``lattices = enumerate_lattices(oracle, order -
    1)``; return the one the oracle keeps.  Row q takes the order-q
    entries: every ``enumerate_lattices`` list holds the order-q lattices
    in one relative order, so the row lines up with ``_order_lattices``.
    """
    rows: List[List[Optional[int]]] = [[] for _ in range(order)]
    for base, least in zip(lattices, found):
        rows[base.order].append(least)
    table = tuple(tuple(row) for row in rows)
    return oracle.cache("least_members").setdefault((order, signature), table)


def _order_lattices(oracle: ConnectivityOracle, q: int, k: int) -> Tuple[Tuple[int, int], ...]:
    """The lattices of order q as (bottom, top) pairs, read from
    ``enumerate_lattices(oracle, k)`` for some k >= q; cached per oracle."""
    cache = oracle.cache("order_lattices")
    hit = cache.get(q)
    if hit is None:
        full = oracle.ground.full_mask
        found = tuple((b.b1, full & ~b.b2) for b in enumerate_lattices(oracle, k) if b.order == q)
        hit = cache.setdefault(q, found)
    return hit


def _lattice_holding(oracle: ConnectivityOracle, x: int, k: int) -> Tuple[int, Optional[int]]:
    """(kappa(x), i): for kappa(x) <= k, i is the ``_order_lattices`` index
    of the first lattice holding x (a base for x has one), kept in the
    oracle's "held" cache; None above k."""
    q = oracle.evaluate(x)
    if q > k:
        return q, None
    for i, (bottom, top) in enumerate(_order_lattices(oracle, q, k)):
        if not bottom & ~x and not x & ~top:
            return oracle.cache("held").setdefault(x, (q, i))
    raise StructuralError("no base lattice holds the set; kappa is not submodular")


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


def _least_of_first(rows: Iterable[List[int]]) -> Optional[int]:
    """The least set of the first nonempty row, which must lie inside every
    other set of that row; None when every row is empty."""
    for candidates in rows:
        if candidates:
            least = min(candidates, key=lambda m: (m.bit_count(), m))
            if any(least & ~c for c in candidates):
                raise StructuralError("minimum separations are not intersection-directed")
            return least
    return None


def leftmost_tangle_separation(t1: Tangle, t2: Tangle) -> Optional[int]:
    """The leftmost minimum (t1, t2)-separation, or None if comparable.

    Scans base orders upward; the least member m of t1 in each base lattice
    of that order is a candidate whenever its complement lies in t2, that
    is, whenever m is not in t2: t2 has no member in the lattice, or its
    least member there does not lie inside m.  The true leftmost separation
    is the least candidate at the first order where any appear.
    """
    if t1.oracle is not t2.oracle:
        raise DomainError("tangles live on different oracles")
    if comparable(t1, t2):
        return None
    m = _least_of_first(
        [m for m, n in zip(row1, row2) if m is not None and (n is None or n & ~m)]
        for row1, row2 in zip(t1._table, t2._table)
    )
    if m is None:
        raise StructuralError("incomparable tangles admit no separation; oracle is not a tangle")
    return m


def leftmost_tangle_set_separation(tangle: Tangle, x: int) -> Optional[int]:
    """The leftmost minimum (tangle, x)-separation: the least minimum-order
    member of the tangle disjoint from x.  None if no member avoids x.  The
    tangle's members in a lattice lie above its least member there, so the
    tangle has one disjoint from x iff that least member is."""
    return _least_of_first([m for m in row if m is not None and not m & x] for row in tangle._table)


def tangle_lattice_bottom(tangle: Tangle, base: Base) -> Optional[int]:
    """Least member of tangle intersected with L(base); None when empty.
    Read from the tangle's table, which holds every base's lattice; a box
    whose minimizers form no base's lattice is a ``DomainError``."""
    if base.order >= tangle.order:
        return None
    oracle = tangle.oracle
    r = box_min(oracle, base.b1, oracle.ground.complement(base.b2))
    if r is None or r[0] != base.order:
        return None
    lattices = _order_lattices(oracle, base.order, tangle.order - 1)
    if r[1:] not in lattices:
        raise DomainError("the base's box is not the lattice of a base")
    return tangle._table[base.order][lattices.index(r[1:])]


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
