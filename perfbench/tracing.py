"""Per-layer tracing, done from the benchmark's side of the API.

``Tracer.install`` wraps the public functions of each tanglekit module in
place: in the defining module, in every module that imported the name, and
on the class for methods.  Every wrapped call is a span.  Hot spans are only
aggregated, per function (calls, self time) and per group of functions
(outermost calls, inclusive time of the outermost calls, so that recursion
and nesting inside a group are not counted twice).  Calls of the functions
in ``KEEP`` are also kept one by one, with a parent link and the id of the
benchmark operation that caused them.  Nothing is written until ``write``
is called at the end of the run.

Self time is a span's duration minus the time its traced child spans cover;
a layer's self time is the sum over its functions.  The connectivity layer's
spans are ``ConnectivityOracle.evaluate`` and the kappa function each oracle
is constructed with.  The lookup closures that ``value_getter`` hands to the
exhaustive box scan are only counted: there are about 10^8 of them per round
on the |U| = 16 instance, and timing each one would triple the traced run,
so the memo hits they serve stay in their caller's self time.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import Counter
from typing import Callable, Dict, List, Tuple

perf = time.perf_counter

# layer -> (module, names); a name is a function or Class.method
LAYERS: Dict[str, Tuple[str, List[str]]] = {
    "connectivity": ("connectivity", ["ConnectivityOracle.evaluate"]),
    "separations": ("separations", [
        "box_min", "kappa_min", "leftmost_min_in_box", "rightmost_min_in_box",
        "leftmost_min_separation", "rightmost_min_separation",
    ]),
    "bases": ("bases", [
        "enumerate_bases", "lattice_bottom", "lattice_top", "free_subset",
        "base_for_set", "is_base",
    ]),
    "tangles": ("tangles", [
        "AvoidContext.__init__", "AvoidContext.exists", "Tangle.member",
        "exists_tangle_avoiding", "has_tangle_of_order", "max_tangle_order",
        "minimal_member_in_box", "minimal_member_in_lattice",
        "leftmost_tangle_separation", "leftmost_tangle_set_separation",
        "tangle_lattice_bottom", "truncate",
    ]),
    "tangle_ds": ("tangle_ds", [
        "build_structure", "TangleDataStructure.ensure",
        "TangleDataStructure.membership", "TangleDataStructure.find",
        "TangleDataStructure.truncation", "TangleDataStructure.separation",
    ]),
    "decomposition": ("decomposition", [
        "canonical_decomposition", "refine_single_tangle", "directed_decomposition",
        "verify_tree_decomposition", "verify_directed_decomposition",
        "contract_at", "project_tangle", "coherent_nested_family",
        "assign_tangle_nodes", "nested_to_tree", "maximal_indices", "exactify",
    ]),
    "emit": ("emit", [
        "tree_decomposition_document", "directed_decomposition_document",
        "document_to_json", "document_to_dot",
    ]),
    "cli": ("cli", ["parse_instance", "main"]),
}

# Functions that share one inclusive timer; a call nested in another call of
# the same group adds nothing to the group's time.
GROUPS = {
    "tangles.avoid": ["tangles.AvoidContext.__init__", "tangles.AvoidContext.exists"],
    "tangles.minimal_member": ["tangles.minimal_member_in_box",
                               "tangles.minimal_member_in_lattice"],
    "tangles.separation": ["tangles.leftmost_tangle_separation",
                           "tangles.leftmost_tangle_set_separation"],
    "tangle_ds.query": ["tangle_ds.TangleDataStructure.membership",
                        "tangle_ds.TangleDataStructure.find",
                        "tangle_ds.TangleDataStructure.truncation",
                        "tangle_ds.TangleDataStructure.separation"],
    "decomposition.verify": ["decomposition.verify_tree_decomposition",
                             "decomposition.verify_directed_decomposition"],
    "emit.document": ["emit.tree_decomposition_document",
                      "emit.directed_decomposition_document",
                      "emit.document_to_json", "emit.document_to_dot"],
}

# Called millions of times per round: only calls and self time are kept.
HOT = {
    "connectivity.ConnectivityOracle.evaluate", "connectivity.kappa",
    "separations.box_min", "separations.kappa_min", "separations.leftmost_min_in_box",
    "separations.rightmost_min_in_box", "bases.lattice_bottom", "bases.lattice_top",
    "tangles.Tangle.member",
}

# Functions whose calls are also kept as single spans.
KEEP = {
    "tangles.max_tangle_order", "tangle_ds.build_structure", "bases.enumerate_bases",
    "decomposition.canonical_decomposition", "decomposition.refine_single_tangle",
    "decomposition.directed_decomposition", "decomposition.verify_tree_decomposition",
    "decomposition.verify_directed_decomposition", "emit.tree_decomposition_document",
    "emit.directed_decomposition_document", "cli.main", "cli.parse_instance",
}


def _node_count(result) -> int:
    td = getattr(result, "td", result)
    return len(td.nodes())


# Counters read off the results of outermost calls.
RESULT_COUNTERS: Dict[str, Tuple[str, Callable]] = {
    "decomposition.canonical_decomposition": ("decomposition.nodes", _node_count),
    "decomposition.refine_single_tangle": ("decomposition.nodes", _node_count),
    "decomposition.directed_decomposition": ("decomposition.nodes", _node_count),
    "emit.document_to_json": ("emit.bytes", len),
    "emit.document_to_dot": ("emit.bytes", len),
}


class Tracer:
    def __init__(self):
        self.stack: List[list] = []  # open spans: [start, time of traced children]
        self.kept: List[int] = []  # ids of the open kept spans
        # span name -> [calls, self time, open calls, inclusive time of outermost calls]
        self.stats: Dict[str, list] = {}
        self.groups: Dict[str, list] = {}  # group -> [open calls, outer calls, inclusive]
        self.counters: Counter = Counter()
        self.spans: List[dict] = []
        self.op = None  # id of the benchmark operation now running
        self.oracles: list = []  # oracles made since the last harvest
        self.origin = perf()

    def _group(self, name: str):
        for group, members in GROUPS.items():
            if name in members:
                return self.groups.setdefault(group, [0, 0, 0.0])
        return None

    def _open_kept(self, name: str, start: float) -> int:
        kept = self.kept
        sid = len(self.spans)
        self.spans.append({"id": sid, "parent": kept[-1] if kept else None,
                           "name": name, "op": self.op, "start": start - self.origin})
        kept.append(sid)
        return sid

    def _close_kept(self, sid: int, end: float) -> None:
        self.kept.pop()
        self.spans[sid]["end"] = end - self.origin

    def wrap(self, name: str, fn):
        if name in HOT:
            return self._wrap_hot(name, fn)
        stats = self.stats.setdefault(name, [0, 0.0, 0, 0.0])
        group = self._group(name)
        keep = name in KEEP
        counter, measure = RESULT_COUNTERS.get(name, (None, None))
        stack, counters = self.stack, self.counters
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            start = perf()
            frame = [start, 0.0]
            stack.append(frame)
            stats[2] += 1
            if group is not None:
                group[0] += 1
            sid = tracer._open_kept(name, start) if keep else None
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = perf()
                stack.pop()
                d = end - start
                stats[0] += 1
                stats[1] += d - frame[1]
                stats[2] -= 1
                if not stats[2]:
                    stats[3] += d
                    if counter is not None and result is not None:
                        counters[counter] += measure(result)
                if group is not None:
                    group[0] -= 1
                    if not group[0]:
                        group[1] += 1
                        group[2] += d
                if stack:
                    stack[-1][1] += d
                if keep:
                    tracer._close_kept(sid, end)

        return traced

    def _wrap_hot(self, name: str, fn):
        stats = self.stats.setdefault(name, [0, 0.0, 0, 0.0])
        stack = self.stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            start = perf()
            frame = [start, 0.0]
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                d = perf() - start
                stack.pop()
                stats[0] += 1
                stats[1] += d - frame[1]
                if stack:
                    stack[-1][1] += d

        return traced

    def _wrap_value_getter(self, value_getter):
        stats = self.stats.setdefault("connectivity.lookup", [0, 0.0, 0, 0.0])

        @functools.wraps(value_getter)
        def wrapped(oracle):
            get = value_getter(oracle)

            def counted_get(x):
                stats[0] += 1
                return get(x)

            return counted_get

        return wrapped

    def install(self) -> None:
        for modname, _ in LAYERS.values():
            importlib.import_module(f"tanglekit.{modname}")
        modules = {name: mod for name, mod in sys.modules.items()
                   if name.startswith("tanglekit.")}
        for modname, names in LAYERS.values():
            mod = modules[f"tanglekit.{modname}"]
            for qual in names:
                name = f"{modname}.{qual}"
                if "." in qual:
                    cls_name, meth = qual.split(".")
                    cls = getattr(mod, cls_name)
                    replacement = self.wrap(name, cls.__dict__[meth])
                    setattr(cls, meth, replacement)
                    if qual == "ConnectivityOracle.evaluate":
                        cls.__call__ = replacement
                else:
                    original = getattr(mod, qual)
                    replacement = self.wrap(name, original)
                    for other in modules.values():
                        if other.__dict__.get(qual) is original:
                            setattr(other, qual, replacement)
        cls = modules["tanglekit.connectivity"].ConnectivityOracle
        cls.value_getter = self._wrap_value_getter(cls.__dict__["value_getter"])
        # Trace each oracle's kappa function, and register the oracle so its
        # kappa evaluations and cache sizes can be read off when a round ends.
        init = cls.__dict__["__init__"]
        oracles = self.oracles

        @functools.wraps(init)
        def registering_init(oracle, ground, fn, *args, **kwargs):
            init(oracle, ground, self.wrap("connectivity.kappa", fn), *args, **kwargs)
            oracles.append(oracle)

        cls.__init__ = registering_init

    def harvest(self) -> None:
        """Fold the oracles made since the last call into the counters and
        let them go."""
        c = self.counters
        for oracle in self.oracles:
            c["connectivity.kappa_evals"] += oracle.calls
            c["separations.distinct_boxes"] += len(oracle.caches.get("box_min", ()))
            ds = oracle.caches.get("tangle_ds")
            if ds is not None:
                c["tangle_ds.tangles"] += sum(len(level.paths) for level in ds.levels)
            bases = oracle.caches.get("bases")
            if bases:
                for base in bases[max(bases)]:
                    c[f"bases.count.k{base.order}"] += 1
        self.oracles.clear()

    # -- results

    def _calls(self, *names) -> int:
        return sum(self.stats[n][0] for n in names if n in self.stats)

    def _self(self, prefix: str) -> float:
        return sum(s[1] for n, s in self.stats.items() if n.startswith(prefix + "."))

    def _incl(self, name: str) -> float:
        """Inclusive time of the outermost calls of a group or function."""
        if name in GROUPS:
            return self.groups.get(name, [0, 0, 0.0])[2]
        return self.stats.get(name, [0, 0.0, 0, 0.0])[3]

    def _outer(self, group: str) -> int:
        return self.groups.get(group, [0, 0, 0.0])[1]

    def metrics(self, rounds: int) -> Dict[str, float]:
        """Every per-layer metric, per round."""
        c = self.counters
        m = {
            "connectivity.kappa_evals": c["connectivity.kappa_evals"],
            "connectivity.lookups": self._calls("connectivity.ConnectivityOracle.evaluate",
                                                "connectivity.lookup"),
            "connectivity.self_s": self._self("connectivity"),
            "separations.box_min_calls": self._calls("separations.box_min"),
            "separations.distinct_boxes": c["separations.distinct_boxes"],
            "separations.pinning_calls": self._calls("separations.leftmost_min_in_box",
                                                     "separations.rightmost_min_in_box"),
            "separations.self_s": self._self("separations"),
            "bases.enumerate_s": self._incl("bases.enumerate_bases"),
            "bases.lattice_calls": self._calls("bases.lattice_bottom", "bases.lattice_top"),
            "tangles.contexts": self._calls("tangles.AvoidContext.__init__"),
            "tangles.exists_calls": self._calls("tangles.AvoidContext.exists"),
            "tangles.avoid_s": self._incl("tangles.avoid"),
            "tangles.minimal_member_calls": self._calls("tangles.minimal_member_in_box",
                                                        "tangles.minimal_member_in_lattice"),
            "tangles.minimal_member_s": self._incl("tangles.minimal_member"),
            "tangles.separation_calls": self._calls("tangles.leftmost_tangle_separation",
                                                    "tangles.leftmost_tangle_set_separation"),
            "tangles.separation_s": self._incl("tangles.separation"),
            "tangle_ds.build_s": self._incl("tangle_ds.build_structure"),
            "tangle_ds.tangles": c["tangle_ds.tangles"],
            "tangle_ds.queries": self._outer("tangle_ds.query"),
            "tangle_ds.membership_s": self._incl("tangle_ds.TangleDataStructure.membership"),
            "tangle_ds.find_s": self._incl("tangle_ds.TangleDataStructure.find"),
            "tangle_ds.separation_s": self._incl("tangle_ds.TangleDataStructure.separation"),
            "decomposition.canonical_s": self._incl("decomposition.canonical_decomposition"),
            "decomposition.refine_s": self._incl("decomposition.refine_single_tangle"),
            "decomposition.directed_s": self._incl("decomposition.directed_decomposition"),
            "decomposition.verify_s": self._incl("decomposition.verify"),
            "decomposition.contractions": self._calls("decomposition.contract_at"),
            "decomposition.nodes": c["decomposition.nodes"],
            "emit.document_s": self._incl("emit.document"),
            "emit.bytes": c["emit.bytes"],
            "cli.parse_s": self._incl("cli.parse_instance"),
            "cli.command_s": self._incl("cli.main"),
        }
        for q in range(4):
            m[f"bases.count.k{q}"] = c[f"bases.count.k{q}"]
        return {k: v / rounds for k, v in m.items()}

    def span(self, name: str):
        """A kept span opened by the benchmark; it names the operation."""
        return _BenchSpan(self, name)

    def write(self, path: str, extra: dict) -> None:
        doc = dict(extra)
        doc["functions"] = {n: {"calls": s[0], "self_s": s[1], "inclusive_s": s[3]}
                            for n, s in sorted(self.stats.items())}
        doc["groups"] = {g: {"outer_calls": s[1], "inclusive_s": s[2]}
                         for g, s in sorted(self.groups.items())}
        doc["counters"] = dict(self.counters)
        doc["spans"] = self.spans
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(doc, handle)


class _BenchSpan:
    def __init__(self, tracer: Tracer, name: str):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        t = self.tracer
        self.saved_op, t.op = t.op, self.name
        self.sid = t._open_kept("bench", perf())
        return self

    def __exit__(self, *exc):
        t = self.tracer
        t._close_kept(self.sid, perf())
        t.op = self.saved_op
        return False
