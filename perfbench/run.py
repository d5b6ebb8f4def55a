"""Benchmark for the tanglekit pipeline, end to end and per layer.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload grid-fixpoint --seed 1 --seconds 5 --trace 0
    python3 perfbench/run.py --workload all --seed 1      # every workload, one process each

The seed fixes the relabelings of every instance and the query streams; the
program only reads the generated instance files (FORMATS.md), through
``tanglekit.cli.parse_instance`` and the CLI.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and the
end-to-end metrics (``--trace 0``) or the per-layer metrics (``--trace 1``).
See perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, HERE)

import instances as ins  # noqa: E402

SETUP_TRIALS = 15

END_TO_END_UNITS = {"setup_s": "s", "pipeline_s": "s", "queries_per_s": "1/s", "peak_rss_mb": "MB"}


def time_setup(files):
    """Import tanglekit afresh and parse every instance file; seconds taken."""
    for name in [m for m in sys.modules if m == "tanglekit" or m.startswith("tanglekit.")]:
        del sys.modules[name]
    gc.collect()
    start = time.perf_counter()
    from tanglekit import cli

    for path, fn in files:
        cli.parse_instance(path, fn)
    return time.perf_counter() - start


def unit_of(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith(".bytes"):
        return "bytes"
    return "count"


def run_one(args) -> int:
    if not os.path.isfile(os.path.join(SRC, "tanglekit", "__init__.py")):
        print(f"error: no tanglekit sources under {SRC}; run from a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    workdir = os.path.join(HERE, ".work", f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        rng = random.Random(f"{args.workload}:{args.seed}")
        insts = {}
        for fam in ins.WORKLOAD_FAMILIES[args.workload]:
            for k in range(ins.LABELINGS[args.workload]):
                key = fam if k == 0 else f"{fam}#{k}"
                insts[key] = ins.relabel(ins.FAMILIES[fam], rng, workdir, key)
        files = [(inst.path, inst.fn) for inst in insts.values()]
        setup_s = statistics.median(time_setup(files) for _ in range(SETUP_TRIALS))

        import tracing
        import workloads

        workload = workloads.WORKLOADS[args.workload](insts, args.seed, workdir)
        workload.prepare()
        if args.trace:
            workload.tracer = tracing.Tracer()
            workload.tracer.install()
        result = workloads.run(workload, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(f"workload {args.workload}: seed {args.seed}, {result['rounds']} round(s), "
          f"{result['attempted']} operations attempted, {result['failed']} failed")
    for line in result["failure_lines"]:
        print(f"  failed: {line}")
    if args.trace:
        metrics = dict(result["layer"])
        metrics["trace.pipeline_s"] = result["pipeline_s"]
        units = {name: unit_of(name) for name in metrics}
        out_dir = os.path.join(HERE, "out")
        os.makedirs(out_dir, exist_ok=True)
        trace_path = os.path.join(out_dir, f"trace-{args.workload}-seed{args.seed}.json")
        workload.tracer.write(trace_path, {"workload": args.workload, "seed": args.seed,
                                           "rounds": result["rounds"], "metrics": metrics})
        print(f"trace written to {os.path.relpath(trace_path, ROOT)}")
    else:
        metrics = {"setup_s": setup_s, "pipeline_s": result["pipeline_s"],
                   "queries_per_s": result["queries_per_s"], "peak_rss_mb": result["peak_rss_mb"]}
        units = END_TO_END_UNITS
    for name, value in metrics.items():
        print(f"  {name} = {value:.6g} {units[name]}")
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


def run_all(args) -> int:
    """Every workload, each in its own process, one after the other."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in ins.WORKLOAD_FAMILIES:
        argv = [sys.executable, os.path.abspath(__file__), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)]
        proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            print(f"workload {name} exited with code {proc.returncode}", file=sys.stderr)
            return proc.returncode or 1
        result = json.loads(lines[-1])
        total["correct"] = total["correct"] and result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            total["metrics"][f"{name}.{metric}"] = entry
    print(json.dumps(total))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=list(ins.WORKLOAD_FAMILIES) + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
