#!/usr/bin/env python3
"""Sharded-serving benchmark: ShardedIndex vs the single-session batch engine.

The headline scenario is the paper's Table 1 workload shape at serving scale: a
ChEMBL-like library (attractive drug-likeness with tight locality, repulsive
molecular weight spanning wide), query molecules sampled from the library (the
"find molecules like this one" traffic of the qualitative study), a k menu of
{1, 10}, and the engine range-sharded on the attractive dimension.  That is the
case horizontal partitioning is built for — bound-ordered probing prunes most
non-local shards outright — and where the >= 2x acceptance bar applies.

A second, adversarial scenario (uniform 4-dim data, hash and range sharding)
is measured and reported in the same JSON but not gated: with no locality for
the partitioning to exploit, shard bounds cannot exclude much and the sharded
engine only wins what the cross-shard tightened thresholds save.

Both scenarios verify bit-identical answers (same row ids, exactly equal
float scores) against the single-session engine before any timing is reported.

Run with::

    PYTHONPATH=src python benchmarks/bench_shard.py

Knobs (environment): ``REPRO_BENCH_SHARD_POINTS`` (dataset size, default
200000), ``REPRO_BENCH_SHARD_QUERIES`` (batch size, default 100),
``REPRO_BENCH_SHARD_SHARDS`` (shard count, default 4),
``REPRO_BENCH_SHARD_REPEAT`` (timing repetitions, default 3, best-of),
``REPRO_BENCH_SHARD_MIN_SPEEDUP`` (exit-1 bar on the chembl scenario, default
2.0; set to 0 on noisy shared runners to gate on correctness only),
``REPRO_BENCH_SHARD_MAX_OVERFETCH`` (exit-1 bar on the sharded-vs-flat
candidates-per-query ratio of the headline scenario, default 2.5 —
deterministic; cross-shard sample pooling must keep per-shard verification
as tight as the single-session engine's).
"""

from __future__ import annotations

import json
import os
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402

from repro.core.sdindex import SDIndex  # noqa: E402
from repro.data.chembl import generate_chembl_like  # noqa: E402
from repro.data.generators import generate_dataset  # noqa: E402
from repro.workloads.registry import build_workload  # noqa: E402
from repro.workloads.workload import BatchWorkload  # noqa: E402

NUM_POINTS = int(os.environ.get("REPRO_BENCH_SHARD_POINTS", "200000"))
NUM_QUERIES = int(os.environ.get("REPRO_BENCH_SHARD_QUERIES", "100"))
NUM_SHARDS = int(os.environ.get("REPRO_BENCH_SHARD_SHARDS", "4"))
REPEAT = int(os.environ.get("REPRO_BENCH_SHARD_REPEAT", "3"))
MIN_SPEEDUP = float(os.environ.get("REPRO_BENCH_SHARD_MIN_SPEEDUP", "2.0"))
MAX_OVERFETCH = float(os.environ.get("REPRO_BENCH_SHARD_MAX_OVERFETCH", "2.5"))
OUTPUT = Path(__file__).resolve().parent.parent / "BENCH_shard.json"


def best_of(callable_, repeat: int = REPEAT) -> float:
    best = float("inf")
    for _ in range(max(1, repeat)):
        started = time.perf_counter()
        callable_()
        best = min(best, time.perf_counter() - started)
    return best


def run_scenario(name, data, repulsive, attractive, workload, partitioner):
    flat = SDIndex.build(data, repulsive=repulsive, attractive=attractive)
    sharded = SDIndex.build_sharded(
        data,
        repulsive=repulsive,
        attractive=attractive,
        num_shards=NUM_SHARDS,
        partitioner=partitioner,
    )
    # Warm both paths (session construction, first-touch allocations).
    flat.batch_query(workload)
    sharded.batch_query(workload)

    expected = flat.batch_query(workload)
    answered = sharded.batch_query(workload)
    identical = all(
        mine.row_ids == theirs.row_ids and mine.scores == theirs.scores
        for mine, theirs in zip(answered, expected)
    )

    flat_seconds = best_of(lambda: flat.batch_query(workload))
    shard_seconds = best_of(lambda: sharded.batch_query(workload))
    stats = dict(sharded.serve_stats)
    nonempty_shards = sum(1 for size in sharded.shard_sizes() if size)
    sharded.close()
    return {
        "scenario": name,
        "partitioner": partitioner,
        "num_points": len(data),
        "num_queries": len(workload),
        "num_shards": NUM_SHARDS,
        "flat_seconds": flat_seconds,
        "sharded_seconds": shard_seconds,
        "flat_queries_per_second": len(workload) / flat_seconds,
        "sharded_queries_per_second": len(workload) / shard_seconds,
        "speedup": flat_seconds / shard_seconds,
        "bit_identical": identical,
        "flat_candidates_per_query": (
            sum(r.candidates_examined for r in expected) / len(workload)
        ),
        "sharded_candidates_per_query": (
            sum(r.candidates_examined for r in answered) / len(workload)
        ),
        "overfetch_ratio": (
            sum(r.candidates_examined for r in answered)
            / max(1, sum(r.candidates_examined for r in expected))
        ),
        "probes": stats["probes"],
        "probes_pruned": stats["pruned"],
        "rounds": stats["rounds"],
        "nonempty_shards": nonempty_shards,
    }


def main() -> int:
    print(
        f"sharded serving benchmark: {NUM_POINTS} points, "
        f"{NUM_QUERIES} queries, {NUM_SHARDS} shards"
    )

    # Headline: the paper's Table 1 shape with library-sampled queries.
    chembl = generate_chembl_like(max(1000, NUM_POINTS), seed=7).matrix
    rng = np.random.default_rng(1)
    points = chembl[rng.integers(0, len(chembl), size=NUM_QUERIES)]
    chembl_workload = BatchWorkload(
        points=points,
        ks=rng.choice(np.asarray([1, 10]), size=NUM_QUERIES),
        alphas=rng.uniform(0.05, 1.0, size=(NUM_QUERIES, 1)),
        betas=rng.uniform(0.05, 1.0, size=(NUM_QUERIES, 1)),
        repulsive=(1,),
        attractive=(0,),
        description="query molecules sampled from the library",
        seed=1,
    )
    headline = run_scenario(
        "chembl_serving", chembl, (1,), (0,), chembl_workload, "range"
    )

    # Adversarial floor: uniform data, both partitioners (reported, not gated).
    uniform = generate_dataset("uniform", NUM_POINTS, 4, seed=0).matrix
    uniform_workload = build_workload(
        "sharded_serving", (0, 1), (2, 3),
        num_queries=NUM_QUERIES, num_dims=4, seed=1,
    )
    secondary = [
        run_scenario("uniform", uniform, (0, 1), (2, 3), uniform_workload, part)
        for part in ("range", "hash")
    ]

    payload = {
        "benchmark": "sharded_serving",
        "headline": headline,
        "secondary": secondary,
    }
    OUTPUT.write_text(json.dumps(payload, indent=2) + "\n")

    for point in [headline, *secondary]:
        print(
            f"{point['scenario']:>15}/{point['partitioner']:<5} "
            f"flat {point['flat_seconds']:.3f}s  sharded {point['sharded_seconds']:.3f}s  "
            f"speedup {point['speedup']:.2f}x  pruned {point['probes_pruned']}"
            f"/{point['probes'] + point['probes_pruned']} probes  "
            f"over-fetch {point['overfetch_ratio']:.2f}x  "
            f"bit-identical: {point['bit_identical']}"
        )
    print(f"wrote {OUTPUT}")

    if not all(p["bit_identical"] for p in [headline, *secondary]):
        print("FAIL: sharded answers differ from the single-session engine",
              file=sys.stderr)
        return 1
    for point in [headline, *secondary]:
        pairs = point["num_queries"] * point["nonempty_shards"]
        if point["probes"] + point["probes_pruned"] != pairs:
            print(
                f"FAIL: {point['scenario']}/{point['partitioner']} counted "
                f"{point['probes']} probes + {point['probes_pruned']} pruned, "
                f"not the {pairs} (query, non-empty shard) pairs",
                file=sys.stderr,
            )
            return 1
    if headline["speedup"] < MIN_SPEEDUP:
        print(
            f"FAIL: headline speedup {headline['speedup']:.2f}x below the "
            f"{MIN_SPEEDUP:g}x acceptance bar",
            file=sys.stderr,
        )
        return 1
    if MAX_OVERFETCH > 0 and headline["overfetch_ratio"] > MAX_OVERFETCH:
        print(
            f"FAIL: sharded engine over-fetches {headline['overfetch_ratio']:.2f}x "
            f"the single-session candidates per query (bar: {MAX_OVERFETCH:g}x) — "
            "a cross-shard bound regression",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
