"""An indexed registry of all tangles up to a fixed order.

Level k of the structure holds one *distinction tree* for the order-k
tangles: a rooted binary tree whose internal nodes carry a separator set of
order below k, such that the two subtrees hold the tangles containing the
separator and those containing its complement, and each leaf corresponds to
exactly one order-k tangle.  The root-to-leaf path of committed sets is the
tangle's signature.

Indices are 1-based and partition by order: level k's leaves follow all
indices of lower levels.  The construction is deterministic for a fixed
oracle but *not* canonical: relabeling the ground set may permute indices.
"""

from __future__ import annotations

import threading
from typing import Callable, List, Optional, Tuple

from .bases import enumerate_bases, enumerate_lattices
from .connectivity import ConnectivityOracle, bits_list
from .errors import DomainError, IntegrityError
from .tangles import (
    Tangle,
    _context,
    has_tangle_of_order,
    leftmost_tangle_separation,
    minimal_member_in_lattice,
)

FORMAT_NAME = "tanglekit-tangle-structure"
FORMAT_VERSION = 1


class _Level:
    __slots__ = ("order", "tree", "paths")

    def __init__(self, order: int, tree, paths: List[Tuple[int, ...]]):
        self.order = order
        self.tree = tree  # ("leaf", j) | ("split", sep, contains, avoids); None if empty
        self.paths = paths


def _build_level(oracle: ConnectivityOracle, order: int) -> _Level:
    if not has_tangle_of_order(oracle, order):
        return _Level(order, None, [])
    full = oracle.ground.full_mask
    lattices = enumerate_lattices(oracle, order - 1)
    paths: List[Tuple[int, ...]] = []

    def splitter(path: Tuple[int, ...]) -> Optional[int]:
        # A separator lies in some tangle at this leaf and is avoided by
        # another; candidates are minimal union members per base lattice.
        # The first hit is taken, so the lattices' order fixes the tree.
        ctx = _context(oracle, order, {full & ~p for p in path})

        def union_member(x: int) -> bool:
            return ctx.exists((full & ~x,))

        for base in lattices:
            xstar = minimal_member_in_lattice(oracle, union_member, base)
            if xstar is None:
                continue
            if ctx.exists((xstar,)):
                return xstar
        return None

    def grow(path: Tuple[int, ...]):
        sep = splitter(path)
        if sep is None:
            paths.append(path)
            return ("leaf", len(paths) - 1)
        contains = grow(path + (sep,))
        avoids = grow(path + (full & ~sep,))
        return ("split", sep, contains, avoids)

    return _Level(order, grow(()), paths)


def _check_order(k: int) -> None:
    if k < 0:
        raise DomainError(f"tangle orders are nonnegative, got {k}")


class TangleDataStructure:
    """Comprehensive access to all tangles of order up to ``order()``.

    Lower levels are shared, not copied: extending the structure to a higher
    order appends levels in place, one thread at a time.  Queries on levels
    already built take no lock.
    """

    def __init__(self, oracle: ConnectivityOracle):
        self.oracle = oracle
        self.levels: List[_Level] = [_Level(0, ("leaf", 0), [()])]
        self._build_lock = threading.RLock()

    # --- bookkeeping

    def order(self) -> int:
        return len(self.levels) - 1

    def ensure(self, k: int) -> "TangleDataStructure":
        if self.order() < k:
            with self._build_lock:
                while self.order() < k:
                    # A tangle's truncation is a tangle: above an empty level
                    # every level is empty.
                    nxt = self.order() + 1
                    if self.levels[-1].tree is None:
                        self.levels.append(_Level(nxt, None, []))
                    else:
                        self.levels.append(_build_level(self.oracle, nxt))
        return self

    def size(self, k: int) -> int:
        if k < 0:
            return 0
        self.ensure(k)
        return sum(len(level.paths) for level in self.levels[: k + 1])

    def count(self, k: int) -> int:
        """Number of tangles of order exactly k."""
        _check_order(k)
        self.ensure(k)
        return len(self.levels[k].paths)

    def __len__(self) -> int:
        return self.size(self.order())

    def _locate(self, i: int) -> Tuple[int, int]:
        if i < 1 or i > len(self):
            raise DomainError(f"tangle index {i} out of range 1..{len(self)}")
        rest = i - 1
        for level in self.levels:
            if rest < len(level.paths):
                return level.order, rest
            rest -= len(level.paths)
        raise AssertionError("unreachable")

    def indices_of_order(self, k: int) -> List[int]:
        _check_order(k)
        self.ensure(k)
        base = self.size(k - 1)
        return [base + j + 1 for j in range(len(self.levels[k].paths))]

    def order_realized(self, q: int) -> bool:
        """Is there any subset of order exactly q?

        Every set owns a base of its own order and every base's lattice
        members share the base order, so this reduces to a base scan.  An
        order-(q+1) tangle equals its order-q truncation as a set family
        exactly when no set of order q exists; indices still stay distinct.
        """
        if q < 0:
            return False
        if q == 0:
            return True
        return any(b.order == q for b in enumerate_bases(self.oracle, q))

    # --- the seven procedures

    def tangle_order(self, i: int) -> int:
        return self._locate(i)[0]

    def tangle(self, i: int) -> Tangle:
        order, j = self._locate(i)
        return Tangle(self.oracle, order, self.levels[order].paths[j])

    def membership(self, i: int, x: int) -> bool:
        return self.tangle(i).member(x)

    def truncation(self, i: int, k: int) -> int:
        order, _ = self._locate(i)
        if k >= order:
            return i
        if k < 0:
            raise DomainError("truncation order must be nonnegative")
        return self.find(k, self.tangle(i).member)

    def find(self, k: int, member: Callable[[int], bool]) -> int:
        """Index of the order-k tangle with the given membership function."""
        _check_order(k)
        self.ensure(k)
        level = self.levels[k]
        if level.tree is None:
            raise IntegrityError(f"no tangles of order {k}; the oracle is not a tangle")
        node = level.tree
        while node[0] == "split":
            _, sep, contains, avoids = node
            node = contains if member(sep) else avoids
        return self.size(k - 1) + node[1] + 1

    def separation(self, i: int, j: int) -> Optional[int]:
        """Leftmost minimum separation between tangles i and j.

        None when one tangle is a truncation of the other.  Computed from the
        definition by ``leftmost_tangle_separation``: the least member of
        tangle i of minimum order whose complement lies in tangle j.
        """
        if i == j:
            raise DomainError("separation requires two distinct indices")
        return leftmost_tangle_separation(self.tangle(i), self.tangle(j))

    # --- serialization

    def to_json(self) -> dict:
        def encode(node):
            if node is None:
                return None
            if node[0] == "leaf":
                return {"leaf": node[1]}
            return {
                "separator": bits_list(node[1]),
                "contains": encode(node[2]),
                "avoids": encode(node[3]),
            }

        return {
            "format": FORMAT_NAME,
            "version": FORMAT_VERSION,
            "n": self.oracle.ground.n,
            "order": self.order(),
            "levels": [{"order": lv.order, "tree": encode(lv.tree)} for lv in self.levels],
        }

    @staticmethod
    def from_json(oracle: ConnectivityOracle, doc: dict) -> "TangleDataStructure":
        if (
            not isinstance(doc, dict)
            or doc.get("format") != FORMAT_NAME
            or doc.get("version") != FORMAT_VERSION
        ):
            raise DomainError("not a tangle structure document")
        if doc.get("n") != oracle.ground.n:
            raise DomainError("structure was built for a different ground set size")
        if not isinstance(doc.get("levels"), list):
            raise DomainError("structure document lacks a list of levels")
        ds = TangleDataStructure(oracle)
        ds.levels = []
        n, full = oracle.ground.n, oracle.ground.full_mask
        for k, entry in enumerate(doc["levels"]):
            if not isinstance(entry, dict) or "order" not in entry or "tree" not in entry:
                raise DomainError(f"level {k} is not an object with an order and a tree")
            if entry["order"] != k:
                raise DomainError(f"level {k} has order {entry['order']}; orders run 0, 1, 2, ...")
            paths: List[Tuple[int, ...]] = []

            def decode(node, path):
                if node is None:
                    return None
                if not isinstance(node, dict):
                    raise DomainError("tree node is not an object")
                if "leaf" in node:
                    paths.append(path)
                    if type(node["leaf"]) is not int or node["leaf"] != len(paths) - 1:
                        raise DomainError("leaves must be integers numbered 0, 1, 2, ... in order")
                    return ("leaf", node["leaf"])
                if not {"separator", "contains", "avoids"} <= node.keys():
                    raise DomainError("split node lacks a separator, contains or avoids")
                separator = node["separator"]
                if not isinstance(separator, list) or any(type(b) is not int for b in separator):
                    raise DomainError("separator is not a list of element ids")
                if any(not 0 <= b < n for b in separator):
                    raise DomainError(f"separator element out of range 0..{n - 1}")
                sep = sum(1 << b for b in separator)
                if oracle.evaluate(sep) >= k:
                    raise DomainError(f"a separator at level {k} has order {k} or more")
                yes = decode(node["contains"], path + (sep,))
                no = decode(node["avoids"], path + (full & ~sep,))
                return ("split", sep, yes, no)

            tree = decode(entry["tree"], ())
            if tree is None and k == 0:
                raise DomainError("level 0 has no tree; every oracle has the empty tangle")
            if tree is not None and ds.levels and ds.levels[-1].tree is None:
                raise DomainError(f"level {k} has tangles above an empty level")
            ds.levels.append(_Level(k, tree, paths))
        if doc.get("order") != ds.order():
            raise DomainError(f"document order differs from its last level's, {ds.order()}")
        return ds


def build_structure(oracle: ConnectivityOracle, k: int) -> TangleDataStructure:
    """The (cached, shared) tangle structure of this oracle, built to order k.

    Safe to call from several threads: all callers get the same structure.
    """
    _check_order(k)
    ds = oracle.caches.get("tangle_ds")
    if ds is None:
        # setdefault is atomic, so racing callers agree on one structure.
        ds = oracle.caches.setdefault("tangle_ds", TangleDataStructure(oracle))
    return ds.ensure(k)
