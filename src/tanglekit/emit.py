"""Stable JSON and DOT emission for decompositions.

Node ids in emitted documents are canonical: one labeled-tree walk orders
the nodes by subtree codes and renames them in DFS preorder, so the same
decomposition always serializes to the same bytes, independent of internal
node numbering.  A tree decomposition's node is labeled by (bag, tangle
order, or -1 at a hub) and walked from a code-minimal center; a directed
decomposition's node by (cone, tangle order), walked from its root.  The
canonicity harness in ``oracles`` codes decompositions with the same labels.
"""

from __future__ import annotations

import json
from typing import Callable, Dict, List, Optional, Tuple

from .connectivity import ConnectivityOracle, bits_list
from .decomposition import DirectedTreeDecomposition, TangleTreeDecomposition
from .errors import DomainError

DECOMPOSITION_FORMAT = "tanglekit-decomposition"
DECOMPOSITION_VERSION = 1


def _subtree_codes(adj, labels):
    codes: Dict[Tuple[int, Optional[int]], tuple] = {}

    def code(t, parent):
        got = codes.get((t, parent))
        if got is None:
            subs = sorted(code(u, t) for u in adj[t] if u != parent)
            got = (labels[t], tuple(subs))
            codes[(t, parent)] = got
        return got

    return code


def canonical_root(adj, labels):
    """A code-minimal center of a labeled tree, and its subtree-code function.

    ``code(root, None)`` is a canonical code of the whole tree: two labeled
    trees are isomorphic exactly when their root codes are equal.
    """
    nodes = sorted(adj)
    code = _subtree_codes(adj, labels)
    degree = {t: len(adj[t]) for t in nodes}
    alive = set(nodes)
    while len(alive) > 2:
        for t in [t for t in alive if degree[t] == 1]:
            alive.discard(t)
            for u in adj[t]:
                if u in alive:
                    degree[u] -= 1
    return min(alive, key=lambda t: code(t, None)), code


def _canonical_order(adj, root, code) -> List[int]:
    """Nodes in DFS order from ``root``, each node's children ordered by
    their subtree codes."""
    order: List[int] = []

    def walk(t, parent):
        order.append(t)
        for u in sorted((u for u in adj[t] if u != parent), key=lambda u: code(u, t)):
            walk(u, t)

    walk(root, None)
    return order


def tree_labels(
    ttd: TangleTreeDecomposition, mask_map: Callable[[int], int] = lambda x: x
) -> Dict[int, tuple]:
    """Node labels of a tree decomposition: (bag, tangle order or -1), with
    each bag pushed through ``mask_map`` first."""
    td = ttd.td
    order_at = {node: ttd.tangles[i].order for i, node in ttd.tau.items()}
    return {t: (tuple(bits_list(mask_map(td.bags[t]))), order_at.get(t, -1)) for t in td.nodes()}


def directed_labels(
    dtd: DirectedTreeDecomposition, mask_map: Callable[[int], int] = lambda x: x
) -> Dict[int, tuple]:
    """Node labels of a directed decomposition: (cone, tangle order), with
    each cone pushed through ``mask_map`` first."""
    return {
        t: (tuple(bits_list(mask_map(dtd.gamma[t]))), dtd.tangles[i].order)
        for i, t in dtd.tau.items()
    }


def _document(oracle: ConnectivityOracle, adj, root, code, fields, side, header: dict) -> dict:
    """The document of a labeled tree: nodes renamed in canonical DFS
    preorder from ``root``, and one edge from each parent to each child whose
    separation is ``side(parent, child)``."""
    ordering = _canonical_order(adj, root, code)
    rename = {t: i for i, t in enumerate(ordering)}
    edges = []
    for t in ordering:
        for u in adj[t]:
            if rename[u] > rename[t]:  # in preorder a child comes after its parent
                edges.append((rename[t], rename[u], side(t, u)))
    return {
        "format": DECOMPOSITION_FORMAT,
        "version": DECOMPOSITION_VERSION,
        **header,
        "elements": [oracle.ground.label(e) for e in range(oracle.ground.n)],
        "nodes": [{"id": rename[t], **fields(t)} for t in ordering],
        "edges": [
            {"a": a, "b": b, "separation": bits_list(z), "order": oracle.evaluate(z)}
            for a, b, z in sorted(edges)
        ],
    }


def tree_decomposition_document(
    oracle: ConnectivityOracle, ttd: TangleTreeDecomposition, order: int, refined: bool = False
) -> dict:
    td = ttd.td
    labels = tree_labels(ttd)

    def fields(t):
        bag, k = labels[t]
        if k < 0:
            return {"kind": "hub", "bag": list(bag)}
        return {"kind": "tangle", "bag": list(bag), "tangleOrder": k}

    header = {"kind": "tree", "order": order}
    if refined:
        header["refined"] = True
    return _document(oracle, td.adj, *canonical_root(td.adj, labels), fields, td.edge_sep, header)


def directed_decomposition_document(
    oracle: ConnectivityOracle, dtd: DirectedTreeDecomposition, order: int, root_index: int
) -> dict:
    labels = directed_labels(dtd)
    bags = dtd.bags()

    def fields(t):
        cone, k = labels[t]
        return {"kind": "tangle", "bag": bits_list(bags[t]), "cone": list(cone), "tangleOrder": k}

    code = _subtree_codes(dtd.children, labels)
    header = {"kind": "directed", "order": order, "rootIndex": root_index, "root": 0}
    return _document(
        oracle, dtd.children, dtd.root, code, fields, lambda _, u: dtd.gamma[u], header
    )


def document_to_json(doc: dict) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def document_to_dot(doc: dict) -> str:
    """GraphViz rendering of a decomposition document."""
    if doc.get("format") != DECOMPOSITION_FORMAT:
        raise DomainError("not a decomposition document")
    elements = doc["elements"]
    out = ["graph decomposition {" if doc["kind"] == "tree" else "digraph decomposition {"]
    out.append('  node [shape=box];')
    for node in doc["nodes"]:
        bag = ",".join(elements[e] for e in node["bag"]) or "(empty)"
        shape = ' style=rounded' if node["kind"] == "hub" else ""
        tag = f'{node["id"]}: {node["kind"]}'
        if "tangleOrder" in node:
            tag += f' (order {node["tangleOrder"]})'
        out.append(f'  n{node["id"]} [label="{tag}\\n{bag}"{shape}];')
    link = "--" if doc["kind"] == "tree" else "->"
    for edge in doc["edges"]:
        out.append(f'  n{edge["a"]} {link} n{edge["b"]} [label="{edge["order"]}"];')
    out.append("}")
    return "\n".join(out) + "\n"
