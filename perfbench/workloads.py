"""The workloads: timed rounds, query streams and output checks.

A run repeats whole rounds of the same operations, each on fresh oracles,
until the run time is used up.  A round records every operation's output;
after the last round the outputs are checked against computations made apart
from the fast path: ``tanglekit.oracles`` brute force on an oracle that wraps
the benchmark's own kappa, a caterpillar width computed from those kappa
values, and the golden decompositions of the unrelabeled instances, which
every decomposition of the seeded relabeling must map onto.  An operation
that raises or fails its check is counted as failed.

Program calls go through module attributes (``tangles.max_tangle_order``,
not an imported name), so that the tracer's wrappers see them.
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import os
import random
import resource
import statistics
import time
from collections import Counter, defaultdict
from typing import Callable, Dict, List, Optional, Tuple

from tanglekit import cli, connectivity, decomposition, emit, oracles, tangle_ds, tangles

import instances as ins

perf = time.perf_counter
GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")


# ---------------------------------------------------------------------------
# Operations and rounds.


class Round:
    """Outputs of one round: (operation, value, error) triples."""

    def __init__(self):
        self.ops: List[Tuple[str, object, Optional[str]]] = []
        self.pipeline_s = 0.0
        # the fastest time of each query of the round's streams, over the passes
        self.query_s: List[float] = []

    def query_rate(self) -> float:
        return len(self.query_s) / sum(self.query_s)

    def attempted(self) -> int:
        """Operations run: a recorded query stands for every asking of it."""
        return sum(sum(value.values()) if ":q:" in name else 1 for name, value, _ in self.ops)

    def attempt(self, name: str, fn: Callable, tracer=None):
        """Run one operation; a raising operation is recorded, not fatal."""
        span = tracer.span(name) if tracer is not None else contextlib.nullcontext()
        with span:
            try:
                value = fn()
            except Exception as exc:  # counted as a failed operation
                self.ops.append((name, None, f"{type(exc).__name__}: {exc}"))
                return None
        self.ops.append((name, value, None))
        return value


def census(ds, order: int) -> List[Tuple[int, Tuple[int, ...]]]:
    """(order, signature) of every indexed tangle up to ``order``."""
    return [(ds.tangle_order(i), ds.tangle(i).signature) for i in range(1, ds.size(order) + 1)]


def query_stream(ds, order: int, low: List[List[int]], rng: random.Random,
                 separations: bool = True) -> list:
    """Every membership, find, truncation and separation query on ``ds``,
    in a seeded order: membership of each set of order below the tangle's,
    find from each tangle's own membership oracle, truncation to each lower
    order, and separation of each ordered pair."""
    indexed = [(i, ds.tangle_order(i)) for i in range(1, ds.size(order) + 1)]
    live = [(i, q) for i, q in indexed if q >= 1]
    stream = []
    for i, q in live:
        stream += [("member", i, x) for k in range(q) for x in low[k]]
        stream.append(("find", q, i))
        stream += [("trunc", i, k) for k in range(q)]
    if separations:
        stream += [("sep", i, j) for i, _ in live for j, _ in live if i != j]
    rng.shuffle(stream)
    return stream


def answer(ds, query):
    kind, a, b = query
    if kind == "member":
        return ds.membership(a, b)
    if kind == "find":
        return ds.find(a, ds.tangle(b).member)
    if kind == "trunc":
        return ds.truncation(a, b)
    return ds.separation(a, b)


def answer_or_error(ds, query) -> Tuple[object, Optional[str]]:
    try:
        return answer(ds, query), None
    except Exception as exc:  # counted as a failed operation
        return None, f"{type(exc).__name__}: {exc}"


class QueryLoop:
    """A closed loop over the query streams of several structures: each
    query is sent when the previous one returned, and a pass asks every
    stream in turn.  A stream is asked once, untimed, when it is added, and
    then once per timed pass.  Each query is timed on its own and keeps its
    fastest time: on a shared host the speed of a core changes by up to 1.7x,
    for fractions of a second or for most of a minute, and that only ever
    adds time to a query, so passes spread over more of the run give steadier
    times.  Later passes run on warm structures; an answer that differs from
    the first one is kept, equal ones are only counted."""

    def __init__(self, tracer):
        self.tracer = tracer
        self.streams: List[dict] = []

    def add(self, key: str, ds, stream: list) -> None:
        self.streams.append({"key": key, "ds": ds, "stream": stream,
                             "first": [answer_or_error(ds, query) for query in stream],
                             "fastest": [float("inf")] * len(stream),
                             "changed": [], "asked": 1})

    def timed_passes(self, passes: int) -> None:
        gc.collect()
        for _ in range(passes):
            for job in self.streams:
                if self.tracer is not None:
                    self.tracer.op = f"{job['key']}:queries"
                ds, first, fastest, changed = job["ds"], job["first"], job["fastest"], job["changed"]
                for i, query in enumerate(job["stream"]):
                    start = perf()
                    out = answer_or_error(ds, query)
                    seconds = perf() - start
                    if seconds < fastest[i]:
                        fastest[i] = seconds
                    if out != first[i]:
                        changed.append((i, out))
                job["asked"] += 1
        if self.tracer is not None:
            self.tracer.op = None

    def record(self, rnd: Round) -> None:
        """Each query becomes one operation whose value maps every distinct
        outcome to the number of askings that gave it."""
        for job in self.streams:
            rnd.query_s += job["fastest"]
            outcomes = [Counter({out: job["asked"]}) for out in job["first"]]
            for i, out in job["changed"]:
                outcomes[i][job["first"][i]] -= 1
                outcomes[i][out] += 1
            for query, counts in zip(job["stream"], outcomes):
                rnd.ops.append((f"{job['key']}:q:{query[0]}:{query[1]}:{query[2]}", +counts, None))


def cli_call(argv: List[str]) -> Tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


def emit_tree(oracle, ttd, order: int, refined: bool = False) -> Tuple[str, str]:
    doc = emit.tree_decomposition_document(oracle, ttd, order, refined=refined)
    return emit.document_to_json(doc), emit.document_to_dot(doc)


# ---------------------------------------------------------------------------
# References.


def doc_code(doc: dict, perm) -> tuple:
    """A code of a decomposition document that is the same for isomorphic
    documents, with element ids pushed through ``perm`` first."""

    def ids(xs):
        return tuple(sorted(perm[e] for e in xs))

    nodes = {nd["id"]: nd for nd in doc["nodes"]}
    if doc["kind"] == "directed":
        kids = defaultdict(list)
        for e in doc["edges"]:
            kids[e["a"]].append(e["b"])

        def enc(t):
            nd = nodes[t]
            return (ids(nd["bag"]), ids(nd["cone"]), nd["tangleOrder"],
                    tuple(sorted(enc(u) for u in kids[t])))

        return ("directed", doc["order"], enc(doc["root"]))
    adj = defaultdict(list)
    for e in doc["edges"]:
        adj[e["a"]].append((e["b"], e["order"]))
        adj[e["b"]].append((e["a"], e["order"]))

    def enc_tree(t, parent):
        nd = nodes[t]
        label = (ids(nd["bag"]), nd["kind"], nd.get("tangleOrder", -1))
        return (label, tuple(sorted((o, enc_tree(u, t)) for u, o in adj[t] if u != parent)))

    return ("tree", doc["order"], bool(doc.get("refined")), min(enc_tree(t, None) for t in nodes))


def mask(ids) -> int:
    return sum(1 << e for e in ids)


def doc_well_formed(text: str, kappa: Callable[[int], int], n: int,
                    tangle_nodes: Optional[int]) -> bool:
    """Sorted keys and one trailing newline; bags partitioning the ground
    set; every edge's separation the union of the bags on its ``b`` side
    (for a directed document, the cone of ``b``), with its order by the
    reference kappa."""
    doc = json.loads(text)
    if emit.document_to_json(doc) != text:
        return False
    bags = {nd["id"]: mask(nd["bag"]) for nd in doc["nodes"]}
    if sum(b.bit_count() for b in bags.values()) != n or mask(
            e for nd in doc["nodes"] for e in nd["bag"]) != (1 << n) - 1:
        return False
    adj = defaultdict(list)
    for e in doc["edges"]:
        adj[e["a"]].append(e["b"])
        adj[e["b"]].append(e["a"])

    def side(b, a):  # union of the bags reachable from b without crossing a
        seen, todo, out = {a, b}, [b], 0
        while todo:
            t = todo.pop()
            out |= bags[t]
            for u in adj[t]:
                if u not in seen:
                    seen.add(u)
                    todo.append(u)
        return out

    directed = doc["kind"] == "directed"
    cones = {nd["id"]: mask(nd["cone"]) for nd in doc["nodes"]} if directed else {}
    for e in doc["edges"]:
        sep = mask(e["separation"])
        want = cones[e["b"]] if directed else side(e["b"], e["a"])
        if sep != want or e["order"] != kappa(sep):
            return False
    if tangle_nodes is not None:
        return sum(1 for nd in doc["nodes"] if nd["kind"] == "tangle") == tangle_nodes
    return True


class Reference:
    """Brute-force references and golden documents for one relabeled
    instance."""

    def __init__(self, inst: ins.Instance):
        self.inst = inst
        self.kappa = ins.reference_kappa(inst)
        ground = connectivity.GroundSet(inst.n)
        self.oracle = connectivity.ConnectivityOracle(ground, self.kappa, name="reference")
        self.explicit = [self.tangles_of_order(q) for q in range(inst.order + 1)]
        self.maximal = 0
        for q, level in enumerate(self.explicit):
            above = self.explicit[q + 1] if q + 1 < len(self.explicit) else []
            truncs = {self.truncation(t.members, q) for t in above}
            self.maximal += sum(1 for t in level if t.members not in truncs)
        with open(os.path.join(GOLDEN, f"{inst.family.name}.json"), encoding="utf-8") as handle:
            golden = json.load(handle)
        identity = range(inst.n)
        self.golden = {kind: [doc_code(doc, identity) for doc in docs]
                       for kind, docs in golden["documents"].items()}

    def tangles_of_order(self, q: int) -> list:
        return oracles.brute_force_tangles(self.oracle, q, max_ground=self.inst.n)

    def truncation(self, members: frozenset, q: int) -> frozenset:
        return frozenset(x for x in members if self.kappa(x) < q)

    def match(self, signatures) -> Optional[Dict[int, frozenset]]:
        """Index -> explicit member family, or None unless the census
        matches the brute-force tangles one to one, order by order."""
        found: Dict[int, frozenset] = {}
        for i, (q, sig) in enumerate(signatures, start=1):
            if q >= len(self.explicit):
                return None
            hits = [t.members for t in self.explicit[q] if all(s in t.members for s in sig)]
            if len(hits) != 1:
                return None
            found[i] = hits[0]
        for q, level in enumerate(self.explicit):
            mine = [found[i] for i, (p, _) in enumerate(signatures, start=1) if p == q]
            if sorted(map(sorted, mine)) != sorted(sorted(t.members) for t in level):
                return None
        return found

    def query_ok(self, query, value, members: Dict[int, frozenset], orders: Dict[int, int]) -> bool:
        kind, a, b = query
        if kind == "member":
            return value == (b in members[a])
        if kind == "find":
            return value == b
        if kind == "trunc":
            if b >= orders[a]:
                return value == a
            want = self.truncation(members[a], b)
            return value in members and orders[value] == b and members[value] == want
        want = oracles.brute_force_leftmost_tangle_separation(
            self.oracle, tangles.ExplicitTangle(orders[a], members[a]),
            tangles.ExplicitTangle(orders[b], members[b]))
        return value == want

    def canonical(self, kind: str, text: str) -> bool:
        """Does the document, mapped back through the seeded relabeling,
        equal a golden document of the unrelabeled instance?"""
        return doc_code(json.loads(text), ins.invert(self.inst.perm)) in self.golden[kind]


# ---------------------------------------------------------------------------
# Workloads.


class Failures:
    """Failed operations, counted per kind of failure."""

    def __init__(self):
        self.count = 0
        self.kinds: Dict[str, int] = defaultdict(int)

    def add(self, name: str, why: str, count: int = 1) -> None:
        fam, rest = name.split(":", 1)
        kind = "query" if rest.startswith("q:") else rest.rstrip("0123456789")
        self.count += count
        self.kinds[f"{fam}:{kind}: {why}"] += count

    def lines(self) -> List[str]:
        return [f"{n} x {why}" for why, n in sorted(self.kinds.items())]


class Workload:
    name = ""
    families: Tuple[str, ...] = ()
    # Timed passes over the query streams, set per workload: a few seconds of
    # them, long enough to take in the host's fast moments.
    query_passes = 0
    separation_queries = True

    def __init__(self, insts: Dict[str, ins.Instance], seed: int, workdir: str):
        self.insts = insts
        self.seed = seed
        self.workdir = workdir
        self.tracer = None
        self.low: Dict[str, List[List[int]]] = {}

    def prepare(self) -> None:
        """Untimed work before the first round: the sets queries ask about."""
        for key, inst in self.insts.items():
            self.low[key] = ins.low_order_sets(inst, ins.reference_kappa(inst), inst.order)

    def parse(self, inst: ins.Instance):
        return cli.parse_instance(inst.path, inst.fn)

    def add_queries(self, loop: QueryLoop, key: str, ds) -> None:
        rng = random.Random(f"queries:{self.seed}:{key}")
        loop.add(key, ds, query_stream(ds, self.insts[key].order, self.low[key], rng,
                                       self.separation_queries))

    def run_round(self) -> Round:
        raise NotImplementedError

    def check(self, rounds: List[Round]) -> Failures:
        failures = Failures()
        for key, inst in self.insts.items():
            ref = Reference(inst)
            first_text: Dict[str, str] = {}
            for rnd in rounds:
                members = orders = None
                for name, value, error in rnd.ops:
                    if not name.startswith(key + ":") or ":q:" in name:
                        continue
                    if error is not None:
                        failures.add(name, error)
                        continue
                    tag = name.split(":", 1)[1]
                    if tag == "census":
                        members = ref.match(value)
                        orders = {i: q for i, (q, _) in enumerate(value, start=1)}
                    why = self.check_op(ref, tag, value, members, first_text)
                    if why is not None:
                        failures.add(name, why)
                self.check_queries(rnd, key, ref, members, orders, failures)
        return failures

    def check_op(self, ref: Reference, tag: str, value, members, first_text) -> Optional[str]:
        """Why the operation's output is wrong, or None."""
        inst = ref.inst
        if tag == "census":
            return None if members is not None else "census differs from oracles.brute_force_tangles"
        if tag == "max_tangle_order":
            # Upper bound: a caterpillar of this width; lower bound: a
            # brute-force tangle of this order.
            width, _ = ins.best_caterpillar_width(inst, ref.kappa)
            if value == width and ref.tangles_of_order(width):
                return None
            return "not certified by a caterpillar width and a brute-force tangle"
        if tag == "canonical":
            if value == ref.maximal:
                return None
            return "tangle nodes differ from the brute-force maximal tangles"
        if tag == "verify":
            return "the verifier reports violations" if value else None
        if tag.startswith("verify-"):
            code, text = value
            if code == 0 and "verify: all conditions hold" in text:
                return None
            return "tanglekit verify rejected the document"
        # A decomposition document: from emit (text, dot) or the CLI (code, text).
        if tag == "emit":
            text, dot = value
            kind, ok = "decompose", dot.startswith("graph decomposition {")
        else:
            code, text = value
            kind, ok = tag.rstrip("0123456789"), code == 0
        tangle_nodes = ref.maximal if kind == "decompose" else None
        if not (ok and doc_well_formed(text, ref.kappa, inst.n, tangle_nodes)):
            return "document malformed"
        if first_text.setdefault(tag, text) != text:
            return "document differs between rounds"
        if not ref.canonical(kind, text):
            return "document does not map onto the golden one under the relabeling"
        return None

    def check_queries(self, rnd: Round, fam: str, ref: Reference, members, orders,
                      failures: Failures) -> None:
        for name, outcomes, _ in rnd.ops:
            if not name.startswith(fam + ":q:"):
                continue
            _, _, kind, a, b = name.split(":")
            query = (kind, int(a), int(b))
            for (value, error), count in outcomes.items():
                if error is not None:
                    failures.add(name, error, count)
                elif members is None:
                    failures.add(name, "census did not match, queries cannot be checked", count)
                elif not ref.query_ok(query, value, members, orders):
                    failures.add(name, f"{kind} answer differs from the brute-force tangles", count)


class PipelineWorkload(Workload):
    """One instance through the library pipeline, then queries."""

    with_max_order = False

    def run_round(self) -> Round:
        (fam,) = self.families
        inst = self.insts[fam]
        order = inst.order
        oracle = self.parse(inst)
        rnd = Round()
        t = self.tracer
        held = {}
        start = perf()
        if self.with_max_order:
            rnd.attempt(f"{fam}:max_tangle_order", lambda: tangles.max_tangle_order(oracle), t)

        def build():
            held["ds"] = tangle_ds.build_structure(oracle, order)
            return census(held["ds"], order)

        def canonical():
            held["ttd"] = decomposition.canonical_decomposition(oracle, order)
            return len(held["ttd"].tau)

        rnd.attempt(f"{fam}:census", build, t)
        rnd.attempt(f"{fam}:canonical", canonical, t)
        if "ttd" in held:
            ttd = held["ttd"]
            rnd.attempt(f"{fam}:verify",
                        lambda: decomposition.verify_tree_decomposition(ttd).violations, t)
            rnd.attempt(f"{fam}:emit", lambda: emit_tree(oracle, ttd, order), t)
        rnd.pipeline_s = perf() - start
        if "ds" in held:
            loop = QueryLoop(t)
            self.add_queries(loop, fam, held["ds"])
            loop.timed_passes(self.query_passes)
            loop.record(rnd)
        return rnd


class GridFixpoint(PipelineWorkload):
    name = "grid-fixpoint"
    families = ins.WORKLOAD_FAMILIES[name]
    with_max_order = True
    # Queries on the grid's four tangles take microseconds.
    query_passes = 10000


class Chain16Bases(PipelineWorkload):
    name = "chain16-bases"
    families = ins.WORKLOAD_FAMILIES[name]
    # A separation of two order-3 tangles here is a run of exhaustive 16-bit
    # box scans through the large memo, the pipeline's own work, which
    # pipeline_s measures.  Asked as queries they took most of the passes,
    # and their times followed the host's memory contention: their rate
    # spread 0.22 over ten seeds where the grid's spread 0.03.
    separation_queries = False
    query_passes = 6000


class PetalsServe(Workload):
    name = "petals-serve"
    families = ins.WORKLOAD_FAMILIES[name]
    # Timed passes over every structure built so far, after each instance's
    # pipeline and then after the last one: the askings of a query are
    # spread over the whole run.
    spread_passes = 2
    query_passes = 6

    def run_round(self) -> Round:
        rnd = Round()
        t = self.tracer
        loop = QueryLoop(t)
        # The other labelings' structures are built outside the timed phases,
        # before them, so that their queries are asked between the pipelines.
        for key, inst in self.insts.items():
            if "#" in key:
                other = {}

                def build_other():
                    other["ds"] = tangle_ds.build_structure(self.parse(inst), inst.order)
                    return census(other["ds"], inst.order)

                rnd.attempt(f"{key}:census", build_other, t)
                if "ds" in other:
                    self.add_queries(loop, key, other["ds"])
        built = {}
        for fam in self.families:
            inst = self.insts[fam]
            oracle = self.parse(inst)
            order = str(inst.order)
            common = ["--fn", inst.fn, inst.path]
            start = perf()

            def build():
                built[fam] = tangle_ds.build_structure(oracle, inst.order)
                return census(built[fam], inst.order)

            rnd.attempt(f"{fam}:census", build, t)
            roots = decomposition.maximal_indices(built[fam], inst.order) if fam in built else []
            docs = [("decompose", ["decompose", "--order", order] + common),
                    ("refined", ["decompose", "--order", order, "--refined"] + common)]
            docs += [(f"directed{r}", ["directed", "--order", order, "--root-index", str(r)] + common)
                     for r in roots]
            for tag, argv in docs:
                path = os.path.join(self.workdir, f"{fam}-{tag}.json")

                def produce():
                    code, text = cli_call(argv)
                    with open(path, "w", encoding="utf-8") as handle:
                        handle.write(text)
                    return code, text

                rnd.attempt(f"{fam}:{tag}", produce, t)
            for tag, _ in docs:
                path = os.path.join(self.workdir, f"{fam}-{tag}.json")
                rnd.attempt(f"{fam}:verify-{tag}", lambda: cli_call(["verify", path] + common), t)
            rnd.pipeline_s += perf() - start
            if fam in built:
                self.add_queries(loop, fam, built[fam])
            loop.timed_passes(self.spread_passes)
        loop.timed_passes(self.query_passes)
        loop.record(rnd)
        return rnd

    def check(self, rounds: List[Round]) -> Failures:
        failures = super().check(rounds)
        for fam in self.families:
            want = len(Reference(self.insts[fam]).golden["directed"])
            for rnd in rounds:
                roots = sum(1 for name, _, _ in rnd.ops if name.startswith(f"{fam}:directed"))
                if roots != want:
                    failures.add(f"{fam}:directed", "root count differs from the golden one")
        return failures


WORKLOADS = {w.name: w for w in (GridFixpoint, Chain16Bases, PetalsServe)}


# ---------------------------------------------------------------------------
# A run.


def run(workload: Workload, seconds: float) -> dict:
    tracer = workload.tracer
    rounds: List[Round] = []
    start = perf()
    while not rounds or perf() - start < seconds:
        # A structure and its oracle form a reference cycle; collecting here
        # makes every round start from the same heap.
        gc.collect()
        rounds.append(workload.run_round())
        if tracer is not None:
            tracer.harvest()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    layer = tracer.metrics(len(rounds)) if tracer is not None else None
    failures = workload.check(rounds)
    return {
        "rounds": len(rounds),
        "attempted": sum(r.attempted() for r in rounds),
        "failed": failures.count,
        "correct": failures.count == 0,
        "failure_lines": failures.lines(),
        "pipeline_s": statistics.median(r.pipeline_s for r in rounds),
        "queries_per_s": statistics.median(r.query_rate() for r in rounds),
        "peak_rss_mb": peak_rss_mb,
        "layer": layer,
    }
