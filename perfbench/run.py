"""Run one benchmark workload against the public API and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload scan --seed 1 --seconds 15 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off; ``--trace 1``
installs spans around the benchmark's calls into each layer and reports the
per-layer metrics instead.  Both runs check every answer against
``SequentialScan``.  The human-readable report comes first, then one
``detail`` JSON line (counts, context, environment; see ``selfcheck.py``),
and the last line is the result object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

The metric names and units are the ones ``BENCHMARK.json`` declares.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import ROOT, Tracer, import_program  # noqa: E402

WORKLOADS = ("scan", "serve", "churn")


def environment() -> dict:
    import numpy

    return {
        "cores": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine": platform.machine(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    import_program()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    workload = importlib.import_module(args.workload)
    tracer = Tracer(enabled=bool(args.trace))
    outcome = workload.run(args.seed, args.seconds, tracer)

    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds}  "
          f"trace {args.trace}")
    for name, value in outcome.context.items():
        print(f"  {name}: {value}")
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {}
    for entry in declared:
        name = entry["name"]
        if args.trace:
            # A layer this workload does not exercise reads 0.
            value = outcome.per_layer.get(name, 0.0)
        else:
            value = outcome.end_to_end[name]
        metrics[name] = {"value": float(value), "unit": entry["unit"]}
    for name, (value, unit) in outcome.report.items():
        print(f"  {name:34s} {value:14.6g} {unit}")
    error_rate = outcome.failed / max(outcome.attempted, 1)
    print(f"  {'error_rate':34s} {error_rate:14.6g} failed/attempted "
          f"({outcome.failed}/{outcome.attempted})")
    for name, metric in metrics.items():
        print(f"  {name:34s} {metric['value']:14.6g} {metric['unit']}")
    print("detail " + json.dumps({
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "counts": outcome.counts,
        "context": outcome.context,
        "end_to_end": outcome.end_to_end,
        "per_layer": outcome.per_layer,
        "report": {name: value for name, (value, _unit) in outcome.report.items()},
        "environment": environment(),
    }))
    print(json.dumps({
        "correct": outcome.failed == 0,
        "attempted": int(outcome.attempted),
        "failed": int(outcome.failed),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
