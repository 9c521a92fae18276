#!/usr/bin/env python3
"""Benchmark harness for the deltamatroid package.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload count5-cold --seed 1 --seconds 24 --trace 0

Workloads (see perfbench/README.md for why each exists and what every
metric means):

    count5-cold     ``dmtool count --max-n 5 --with-even`` on an empty cache,
                    then again on the filled cache (fresh processes)
    count6-sample   level-5 canonicalization, the level-6 compose kernel and
                    a seeded uniform sample of its per-class rows
    check-compress  the axiom checker on constructed valid and violating
                    systems, and record round trips at n = 12 and 13

The package is imported from ``src/`` of the checkout.  Inputs derive from
``--seed`` alone.  With ``--trace 0`` the run reports the end-to-end
metrics named in BENCHMARK.json; with ``--trace 1`` it records spans around
the calls into each package module, writes them to
``.perfbench-run/spans/``, and reports the per-layer metrics, the tracing
overhead among them.  Human-readable lines come first; the last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import shutil
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from common import DEFAULT_SEED, ROOT, RUN_DIR, SRC, Bench  # noqa: E402


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as fh:
        return json.load(fh)


def import_package() -> None:
    sys.path.insert(0, SRC)
    import deltamatroid

    origin = os.path.dirname(os.path.abspath(deltamatroid.__file__))
    if origin != os.path.join(SRC, "deltamatroid"):
        raise ImportError(f"deltamatroid imported from {origin}, not from {SRC}")


def pin_to_one_cpu() -> None:
    """Run this process and its children on one CPU.

    The host slows each of its CPUs down and speeds it up on its own, so a
    reference computation (``common.Reference``) timed on one CPU says
    nothing about an operation that ran on the other.  On one CPU, the
    reference and the operation share the host's current speed.  All load
    is single-threaded (the package's default ``--threads 1``).
    """
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def select_metrics(spec_rows: list[dict], values: dict[str, float], fill_zero: bool) -> dict:
    """Attach BENCHMARK.json units to the measured values, by name.

    End-to-end metrics must all be measured.  A per-layer metric of a layer
    the workload leaves idle reads 0.
    """
    known = {row["name"] for row in spec_rows}
    unknown = set(values) - known
    if unknown:
        raise KeyError(f"metrics missing from BENCHMARK.json: {sorted(unknown)}")
    out = {}
    for row in spec_rows:
        name = row["name"]
        if name not in values and not fill_zero:
            raise KeyError(f"workload did not measure {name}")
        out[name] = {"value": float(values.get(name, 0.0)), "unit": row["unit"]}
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="deltamatroid benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "deltamatroid", "__init__.py")):
        print(f"error: no package source under {SRC}", file=sys.stderr)
        return 2
    spec = load_spec()
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"error: unknown workload {args.workload}", file=sys.stderr)
        return 2
    import_package()
    mod = importlib.import_module(args.workload.replace("-", "_"))
    pin_to_one_cpu()

    bench = Bench(args.seed, args.seconds, bool(args.trace), mod.REFERENCE)
    os.makedirs(bench.workdir)
    started = time.perf_counter()
    try:
        e2e, layers = mod.run(bench)
    finally:
        shutil.rmtree(bench.workdir, ignore_errors=True)
    elapsed = time.perf_counter() - started

    if bench.tracer is None:
        metrics = select_metrics(spec["end_to_end"], e2e, fill_zero=False)
    else:
        metrics = select_metrics(spec["per_layer"], layers, fill_zero=True)
        spans_dir = os.path.join(RUN_DIR, "spans")
        os.makedirs(spans_dir, exist_ok=True)
        spans_path = os.path.join(
            spans_dir, f"{args.workload}-seed{args.seed}-{bench.run_id}.jsonl"
        )
        bench.tracer.write(spans_path)

    out = bench.outcome
    print(f"workload {args.workload}  seed {args.seed}  run {bench.run_id}  "
          f"trace {args.trace}  wall {elapsed:.1f} s")
    for name, value, unit in bench.report:
        print(f"  {name:<40} {value:>14.6g} {unit}")
    title = "per-layer" if args.trace else "end-to-end"
    print(f"  -- {title} --")
    for name, row in metrics.items():
        print(f"  {name:<40} {row['value']:>14.6g} {row['unit']}")
    if args.trace:
        overhead = metrics["trace.overhead_s"]["value"]
        print(f"  tracing overhead (trace.overhead_s): {overhead:.6g} s")
        print(f"  spans: {os.path.relpath(spans_path, ROOT)} ({len(bench.tracer.spans)} spans)")
    frac = out.failed / out.attempted if out.attempted else 1.0
    print(f"  ops_failed_frac {frac:.6g} ({out.failed} of {out.attempted} verified operations)")
    for problem in out.problems[:20]:
        print(f"  FAILED: {problem}")
    result = {
        "correct": out.failed == 0 and out.attempted > 0,
        "attempted": max(out.attempted, 1),
        "failed": out.failed,
        "metrics": metrics,
    }
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
