"""Command-line front end.

Instance files are plain text (see FORMATS.md):

    graph <n> <m>        followed by m lines "<u> <v>", 0-based vertices
    matrix <rows> <cols> followed by one 0/1 row per line

The connectivity function is chosen with --fn; matroid instances require a
matrix file.  Exit codes: 0 success, 2 verification failure, 3 parse error
or invalid argument (such as a non-maximal --root-index), 4 size guard
refusal.  --max-exhaustive (default from TANGLEKIT_MAX_EXHAUSTIVE, read on
every call of ``main``) bounds only
the brute-force references of branchwidth --brute (default 7) and selfcheck
(default 12), not the exhaustive box scan's guard.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from typing import Callable, List, Optional, Tuple

from . import emit
from .connectivity import (
    ConnectivityOracle,
    Graph,
    bits_list,
    cut_rank_fn,
    edge_boundary_fn,
    matroid_connectivity_fn,
    verify_axioms,
    vertex_cut_fn,
)
from .decomposition import (
    TangleTreeDecomposition,
    VerificationReport,
    canonical_decomposition,
    directed_decomposition,
    refine_single_tangle,
    verify_directed_decomposition,
    verify_refined_decomposition,
    verify_tree_decomposition,
)
from .errors import DomainError, ParseError, SizeGuardError
from .tangle_ds import build_structure
from .tangles import max_tangle_order

EXIT_OK = 0
EXIT_VERIFY = 2
EXIT_PARSE = 3
EXIT_GUARD = 4

FN_CHOICES = ("edge-boundary", "vertex-cut", "cut-rank", "matroid")


def parse_instance(path: str, fn: Optional[str] = None) -> ConnectivityOracle:
    """Read an instance file and wrap it with the requested function; without
    one, graphs get edge-boundary and matrices the matroid function."""
    with open(path, "r", encoding="utf-8") as handle:
        raw = handle.readlines()
    lines = [
        (i + 1, line.strip())
        for i, line in enumerate(raw)
        if line.strip() and not line.strip().startswith("#")
    ]
    if not lines:
        raise ParseError("empty instance file")
    lineno, header = lines[0]
    fields = header.split()
    if fields[0] == "graph":
        if len(fields) != 3:
            raise ParseError("expected 'graph <n> <m>'", lineno)
        try:
            n, m = int(fields[1]), int(fields[2])
        except ValueError:
            raise ParseError("graph sizes must be integers", lineno)
        if len(lines) - 1 != m:
            raise ParseError(f"expected {m} edge lines, found {len(lines) - 1}", lineno)
        edges = []
        for lno, text in lines[1:]:
            parts = text.split()
            if len(parts) != 2:
                raise ParseError("expected '<u> <v>'", lno)
            try:
                u, v = int(parts[0]), int(parts[1])
            except ValueError:
                raise ParseError("vertex ids must be integers", lno)
            if not (0 <= u < n and 0 <= v < n):
                raise ParseError(f"vertex out of range 0..{n - 1}", lno)
            if u == v:
                raise ParseError("loops are not allowed", lno)
            edges.append((u, v))
        graph = Graph.from_edges(n, edges)
        if fn in (None, "edge-boundary"):
            return edge_boundary_fn(graph)
        if fn == "vertex-cut":
            return vertex_cut_fn(graph)
        if fn == "cut-rank":
            return cut_rank_fn(graph)
        raise ParseError("matroid function requires a matrix instance", lineno)
    if fields[0] == "matrix":
        if len(fields) != 3:
            raise ParseError("expected 'matrix <rows> <cols>'", lineno)
        try:
            rows, cols = int(fields[1]), int(fields[2])
        except ValueError:
            raise ParseError("matrix sizes must be integers", lineno)
        if len(lines) - 1 != rows:
            raise ParseError(f"expected {rows} matrix rows, found {len(lines) - 1}", lineno)
        if fn not in (None, "matroid"):
            raise ParseError(f"--fn {fn} does not apply to matrix instances", lineno)
        masks = []
        for lno, text in lines[1:]:
            bits = text.replace(" ", "")
            if len(bits) != cols or set(bits) - {"0", "1"}:
                raise ParseError(f"expected a row of {cols} 0/1 entries", lno)
            masks.append(sum(1 << j for j, c in enumerate(bits) if c == "1"))
        return matroid_connectivity_fn(masks, cols)
    raise ParseError("unknown header; expected 'graph' or 'matrix'", lineno)


def _load(args) -> ConnectivityOracle:
    return parse_instance(args.instance, args.fn)


def _print_stats(args, oracle: ConnectivityOracle) -> None:
    if args.stats:
        print(f"stats: oracle calls = {oracle.calls}")


def cmd_tangles(args) -> int:
    oracle = _load(args)
    ds = build_structure(oracle, args.order)
    print(f"ground set: {oracle.ground.n} elements")
    for k in range(args.order + 1):
        indices = ds.indices_of_order(k)
        print(f"order {k}: {len(indices)} tangle(s)")
        for i in indices:
            sig = ds.tangle(i).signature
            shown = ["{" + ",".join(oracle.ground.label(e) for e in bits_list(s)) + "}" for s in sig]
            print(f"  index {i}: signature [{', '.join(shown)}]")
    print(f"total (size({args.order})): {ds.size(args.order)}")
    _print_stats(args, oracle)
    return EXIT_OK


def cmd_branchwidth(args) -> int:
    oracle = _load(args)
    value = max_tangle_order(oracle)
    print(f"branch width (max tangle order): {value}")
    if args.brute:
        from .oracles import brute_force_branch_width

        bound = 7 if args.max_exhaustive is None else args.max_exhaustive
        reference = brute_force_branch_width(oracle, max_ground=bound)
        print(f"brute-force branch width: {reference}")
        if reference != value:
            print("MISMATCH between duality value and brute force")
            return EXIT_VERIFY
    _print_stats(args, oracle)
    return EXIT_OK


def _decomposition(
    oracle: ConnectivityOracle, kind: str, order: int, refined: bool, root_index: Optional[int]
) -> Tuple[dict, Callable[[], VerificationReport]]:
    """The document of one decomposition, and a function that verifies the
    decomposition it was emitted from."""
    if kind == "directed":
        dtd = directed_decomposition(oracle, order, root_index)
        doc = emit.directed_decomposition_document(oracle, dtd, order, root_index)
        return doc, lambda: verify_directed_decomposition(dtd)
    if refined:
        td = refine_single_tangle(oracle, order)
        doc = emit.tree_decomposition_document(
            oracle, TangleTreeDecomposition(td, {}, {}, None), order, refined=True
        )
        return doc, lambda: verify_refined_decomposition(oracle, td, order)
    ttd = canonical_decomposition(oracle, order)
    doc = emit.tree_decomposition_document(oracle, ttd, order)
    return doc, lambda: verify_tree_decomposition(ttd)


def _write(args, oracle: ConnectivityOracle, doc: dict) -> int:
    sys.stdout.write(emit.document_to_json(doc))
    if args.dot:
        with open(args.dot, "w", encoding="utf-8") as handle:
            handle.write(emit.document_to_dot(doc))
    _print_stats(args, oracle)
    return EXIT_OK


def cmd_decompose(args) -> int:
    oracle = _load(args)
    doc, _ = _decomposition(oracle, "tree", args.order, args.refined, None)
    return _write(args, oracle, doc)


def cmd_directed(args) -> int:
    oracle = _load(args)
    doc, _ = _decomposition(oracle, "directed", args.order, False, args.root_index)
    return _write(args, oracle, doc)


def cmd_verify(args) -> int:
    oracle = _load(args)
    try:
        with open(args.decomposition, "r", encoding="utf-8") as handle:
            doc = json.load(handle)
    except ValueError as exc:
        raise ParseError(f"decomposition file is not JSON: {exc}")
    if not isinstance(doc, dict) or doc.get("format") != emit.DECOMPOSITION_FORMAT:
        raise ParseError("not a decomposition document")
    order = doc.get("order")
    if (
        not isinstance(order, int)
        or doc.get("kind") not in ("tree", "directed")
        or doc["kind"] == "directed" and not isinstance(doc.get("rootIndex"), int)
    ):
        raise ParseError("decomposition document lacks a valid order, kind or rootIndex")
    fresh, check = _decomposition(
        oracle, doc["kind"], order, doc.get("refined"), doc.get("rootIndex")
    )
    report = check()
    same = fresh == doc
    for line in report.violations:
        print(f"violation: {line}")
    if not same:
        print("violation: document does not match the recomputed decomposition")
    if report.ok and same:
        print("verify: all conditions hold")
        _print_stats(args, oracle)
        return EXIT_OK
    return EXIT_VERIFY


def cmd_selfcheck(args) -> int:
    from .oracles import brute_force_branch_width, brute_force_tangles, canonicity_harness

    oracle = _load(args)
    failures = 0
    bound = 12 if args.max_exhaustive is None else args.max_exhaustive
    axioms = verify_axioms(oracle, exhaustive_limit=bound, seed=args.seed)
    print(f"axioms: {'ok' if axioms.ok else axioms.violation} ({axioms.mode}, {axioms.checks} checks)")
    failures += 0 if axioms.ok else 1

    order = min(max_tangle_order(oracle), 3)
    ds = build_structure(oracle, order)
    if oracle.ground.n <= 10:
        for k in range(order + 1):
            fast = len(ds.indices_of_order(k))
            brute = len(brute_force_tangles(oracle, k))
            tag = "ok" if fast == brute else f"MISMATCH {fast} vs {brute}"
            print(f"census order {k}: {tag}")
            failures += 0 if fast == brute else 1
    if oracle.ground.n <= 7:
        fast = max_tangle_order(oracle)
        brute = brute_force_branch_width(oracle)
        tag = "ok" if fast == brute else f"MISMATCH {fast} vs {brute}"
        print(f"branch width duality: {tag}")
        failures += 0 if fast == brute else 1

    harness = canonicity_harness(oracle, order, trials=args.trials, seed=args.seed)
    print(f"canonicity: {len(harness.failures)} failure(s) in {harness.trials} trials")
    for note in harness.notes[:3]:
        print(f"  note: {note}")
    failures += len(harness.failures)
    _print_stats(args, oracle)
    return EXIT_OK if failures == 0 else EXIT_VERIFY


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="tanglekit", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("instance", help="instance file (graph or matrix format)")
        p.add_argument("--fn", choices=FN_CHOICES, default=None, help="connectivity function")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--stats", action="store_true", help="print oracle call counts")
        p.add_argument(
            "--max-exhaustive",
            type=int,
            default=None,
            help="size guard override (default from TANGLEKIT_MAX_EXHAUSTIVE)",
        )

    p = sub.add_parser("tangles", help="tangle census up to an order")
    p.add_argument("--order", type=int, required=True)
    common(p)
    p.set_defaults(handler=cmd_tangles)

    p = sub.add_parser("branchwidth", help="maximum tangle order")
    p.add_argument("--brute", action="store_true", help="cross-check exhaustively")
    common(p)
    p.set_defaults(handler=cmd_branchwidth)

    p = sub.add_parser("decompose", help="canonical tree decomposition JSON")
    p.add_argument("--order", type=int, required=True)
    p.add_argument("--refined", action="store_true", help="one maximal tangle per contraction")
    p.add_argument("--dot", default=None, help="also write a DOT file")
    common(p)
    p.set_defaults(handler=cmd_decompose)

    p = sub.add_parser("directed", help="directed decomposition JSON")
    p.add_argument("--order", type=int, required=True)
    p.add_argument("--root-index", type=int, required=True)
    p.add_argument("--dot", default=None)
    common(p)
    p.set_defaults(handler=cmd_directed)

    p = sub.add_parser("verify", help="check a decomposition document")
    p.add_argument("decomposition", help="decomposition JSON file")
    common(p)
    p.set_defaults(handler=cmd_verify)

    p = sub.add_parser("selfcheck", help="axiom, oracle-agreement and canonicity checks")
    p.add_argument("--trials", type=int, default=5)
    common(p)
    p.set_defaults(handler=cmd_selfcheck)
    return parser


_parser = functools.cache(make_parser)


def _env_guard() -> Optional[int]:
    raw = os.environ.get("TANGLEKIT_MAX_EXHAUSTIVE")
    try:
        return int(raw) if raw else None
    except ValueError:
        raise ParseError(f"TANGLEKIT_MAX_EXHAUSTIVE must be an integer, got {raw!r}")


def main(argv: Optional[List[str]] = None) -> int:
    """Run one command.  The parser is built on the first call and shared;
    TANGLEKIT_MAX_EXHAUSTIVE is read on every call, and an explicit
    --max-exhaustive wins over it."""
    try:
        guard = _env_guard()
        args = _parser().parse_args(argv)
        if args.max_exhaustive is None:
            args.max_exhaustive = guard
        return args.handler(args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except FileNotFoundError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except SizeGuardError as exc:
        print(f"size guard: {exc}", file=sys.stderr)
        return EXIT_GUARD
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())
