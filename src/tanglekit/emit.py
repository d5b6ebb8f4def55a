"""Stable JSON and DOT emission for decompositions.

Node ids in emitted documents are canonical: nodes are ordered by a
subtree code built from bag contents, so the same decomposition always
serializes to the same bytes, independent of internal node numbering.
"""

from __future__ import annotations

import json
from typing import Dict, List, Optional, Tuple

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


def tree_decomposition_document(
    oracle: ConnectivityOracle, ttd: TangleTreeDecomposition, order: int, refined: bool = False
) -> dict:
    td = ttd.td
    tangle_at = {node: i for i, node in ttd.tau.items()}
    labels = {
        t: (tuple(bits_list(td.bags[t])), ttd.tangles[tangle_at[t]].order if t in tangle_at else -1)
        for t in td.nodes()
    }
    ordering = _canonical_order(td.adj, *canonical_root(td.adj, labels))
    rename = {t: i for i, t in enumerate(ordering)}

    nodes = []
    for t in ordering:
        entry: dict = {
            "id": rename[t],
            "kind": "tangle" if t in tangle_at else "hub",
            "bag": bits_list(td.bags[t]),
        }
        if t in tangle_at:
            entry["tangleOrder"] = ttd.tangles[tangle_at[t]].order
        nodes.append(entry)

    edges = []
    for s, t in td.edges():
        a, b = sorted((rename[s], rename[t]))
        sep = td.edge_sep(ordering[a], ordering[b])
        edges.append(
            {
                "a": a,
                "b": b,
                "separation": bits_list(sep),
                "order": oracle.evaluate(sep),
            }
        )
    edges.sort(key=lambda e: (e["a"], e["b"]))

    doc = {
        "format": DECOMPOSITION_FORMAT,
        "version": DECOMPOSITION_VERSION,
        "kind": "tree",
        "order": order,
        "elements": [oracle.ground.label(e) for e in range(oracle.ground.n)],
        "nodes": nodes,
        "edges": edges,
    }
    if refined:
        doc["refined"] = True
    return doc


def directed_decomposition_document(
    oracle: ConnectivityOracle, dtd: DirectedTreeDecomposition, order: int, root_index: int
) -> dict:
    tangle_at = {node: i for i, node in dtd.tau.items()}
    bags = dtd.bags()
    code = _subtree_codes(dtd.children, {t: tuple(bits_list(dtd.gamma[t])) for t in dtd.children})
    ordering = _canonical_order(dtd.children, dtd.root, code)
    rename = {t: i for i, t in enumerate(ordering)}

    nodes = []
    for t in ordering:
        nodes.append(
            {
                "id": rename[t],
                "kind": "tangle",
                "bag": bits_list(bags[t]),
                "cone": bits_list(dtd.gamma[t]),
                "tangleOrder": dtd.tangles[tangle_at[t]].order,
            }
        )
    edges = [
        {
            "a": rename[t],
            "b": rename[u],
            "separation": bits_list(dtd.gamma[u]),
            "order": oracle.evaluate(dtd.gamma[u]),
        }
        for t in ordering
        for u in dtd.children[t]
    ]
    edges.sort(key=lambda e: (e["a"], e["b"]))

    return {
        "format": DECOMPOSITION_FORMAT,
        "version": DECOMPOSITION_VERSION,
        "kind": "directed",
        "order": order,
        "rootIndex": root_index,
        "root": 0,
        "elements": [oracle.ground.label(e) for e in range(oracle.ground.n)],
        "nodes": nodes,
        "edges": edges,
    }


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
