"""Determinism self-check and tracing overhead, per workload.

Usage, from the root of a checkout::

    python3 perfbench/selfcheck.py --seed 7 --seconds 15 [--workload serve ...]

For each workload it runs ``run.py`` once untraced and twice traced with the
same seed.  The two traced runs must report exactly equal counts
(candidates, shard probes, cache hits, flushes, compactions, replayed
records, WAL bytes, ...); any difference is printed as a benchmark defect
and the exit code is 1.  It also prints the tracing overhead (traced minus
untraced, on the end-to-end figures both runs measure) and the share of
the timed phase the traced run's spans cover.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("scan", "serve", "churn")


def detail(workload: str, seed: int, seconds: int, trace: int) -> dict:
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        check=True, capture_output=True, text=True,
    ).stdout.splitlines()
    line = next(line for line in out if line.startswith("detail "))
    result = json.loads(out[-1])
    found = json.loads(line[len("detail "):])
    found["correct"] = result["correct"]
    return found


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--workload", action="append", choices=WORKLOADS)
    args = parser.parse_args(argv)
    defects = 0
    summary = {}
    for workload in args.workload or WORKLOADS:
        plain = detail(workload, args.seed, args.seconds, 0)
        first = detail(workload, args.seed, args.seconds, 1)
        second = detail(workload, args.seed, args.seconds, 1)
        for name in sorted(set(first["counts"]) | set(second["counts"])):
            a, b = first["counts"].get(name), second["counts"].get(name)
            if a != b:
                defects += 1
                print(f"DEFECT {workload}: count {name} differs between same-seed "
                      f"traced runs: {a} != {b}")
        for run in (plain, first, second):
            if not run["correct"]:
                defects += 1
                print(f"DEFECT {workload}: a run reported wrong answers")
        untraced, traced = plain["end_to_end"], first["end_to_end"]
        summary[workload] = {
            "counts": first["counts"],
            "overhead": {
                name: traced[name] - untraced[name]
                for name in ("op_ms_p50", "ops_per_s")
            },
            "overhead_share_op_ms_p50": traced["op_ms_p50"] / untraced["op_ms_p50"] - 1.0,
            "span_coverage": first["per_layer"].get("trace.span_coverage"),
        }
        print(f"{workload}: " + json.dumps(summary[workload]))
    print(json.dumps({"seed": args.seed, "seconds": args.seconds,
                      "defects": defects, "workloads": summary}))
    return 1 if defects else 0


if __name__ == "__main__":
    sys.exit(main())
