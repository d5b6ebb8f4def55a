"""Write perfbench/golden/<family>.json: the decompositions of every benchmark
instance in its base labeling, the documents a run's relabeled outputs must
map onto.

    python3 perfbench/make_golden.py

Each document is checked by the library's verifier before it is written.
Only a change to what the canonical decompositions are should need this.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import instances as ins  # noqa: E402
from tanglekit import cli, decomposition, emit, tangle_ds  # noqa: E402

# Families whose refined and directed decompositions the benchmark also makes.
ALL_KINDS = ins.WORKLOAD_FAMILIES["petals-serve"]


def documents(inst: ins.Instance) -> dict:
    oracle = cli.parse_instance(inst.path, inst.fn)
    k = inst.order
    ttd = decomposition.canonical_decomposition(oracle, k)
    if not decomposition.verify_tree_decomposition(ttd).ok:
        raise SystemExit(f"{inst.family.name}: canonical decomposition fails verification")
    docs = {"decompose": [emit.tree_decomposition_document(oracle, ttd, k)]}
    if inst.family.name in ALL_KINDS:
        refined = decomposition.TangleTreeDecomposition(
            decomposition.refine_single_tangle(oracle, k), {}, {}, None)
        docs["refined"] = [emit.tree_decomposition_document(oracle, refined, k, refined=True)]
        docs["directed"] = []
        for root in decomposition.maximal_indices(tangle_ds.build_structure(oracle, k), k):
            dtd = decomposition.directed_decomposition(oracle, k, root)
            if not decomposition.verify_directed_decomposition(dtd).ok:
                raise SystemExit(f"{inst.family.name}: directed decomposition fails verification")
            docs["directed"].append(emit.directed_decomposition_document(oracle, dtd, k, root))
    return docs


def main() -> int:
    workdir = os.path.join(HERE, ".work", f"golden-{os.getpid()}")
    os.makedirs(workdir)
    out_dir = os.path.join(HERE, "golden")
    os.makedirs(out_dir, exist_ok=True)
    try:
        for name, family in ins.FAMILIES.items():
            inst = ins.relabel(family, None, workdir)
            doc = {"family": name, "fn": family.fn, "order": family.order,
                   "documents": documents(inst)}
            with open(os.path.join(out_dir, f"{name}.json"), "w", encoding="utf-8") as handle:
                handle.write(json.dumps(doc, indent=1, sort_keys=True) + "\n")
            print(f"wrote golden/{name}.json")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
