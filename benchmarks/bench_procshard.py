#!/usr/bin/env python3
"""Multi-process sharded serving benchmark: ProcessShardedIndex vs threads.

The GIL question, measured: the thread-pool ``ShardedIndex`` fans shard
probes out over threads inside one interpreter, so the Python halves of the
kernels serialize on the GIL; ``ProcessShardedIndex`` runs one worker
process per shard over mmap'd sub-snapshots, so probes execute on separate
cores with only the (spec, results) pickle crossing the pipe.  Both engines
answer bit-identically (verified here before any timing), so throughput is
the only axis.

Two gates:

* **Scaling** — process-backend serving throughput must reach
  ``REPRO_BENCH_PROCSHARD_MIN_SPEEDUP`` (default 1.5) x the thread-pool
  baseline, *on multi-core hosts only*.  On a single-core host there is no
  parallelism to win — IPC overhead is pure loss — so the gate is **skipped
  and reported as skipped** (never faked); the JSON records the core count
  either way.
* **Availability** — under a worker-kill storm (SIGKILL a random worker
  between serves, every serve racing respawn + breaker recovery), the
  fraction of requests answered (including explicitly degraded answers)
  must be >= ``REPRO_BENCH_PROCSHARD_MIN_AVAILABILITY`` (default 0.99):
  worker death degrades, never hangs and never errors.

Run with::

    PYTHONPATH=src python benchmarks/bench_procshard.py

Knobs (environment): ``REPRO_BENCH_PROCSHARD_POINTS`` (default 60000),
``REPRO_BENCH_PROCSHARD_QUERIES`` (default 64),
``REPRO_BENCH_PROCSHARD_SHARDS`` (default min(4, cores) on multi-core, 2 on
single-core), ``REPRO_BENCH_PROCSHARD_REPEAT`` (best-of, default 3),
``REPRO_BENCH_PROCSHARD_STORM_QUERIES`` (default 120),
``REPRO_BENCH_PROCSHARD_KILLS`` (default 6),
``REPRO_BENCH_PROCSHARD_MIN_SPEEDUP`` (default 1.5),
``REPRO_BENCH_PROCSHARD_MIN_AVAILABILITY`` (default 0.99).
"""

from __future__ import annotations

import json
import os
import signal
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402

from repro.core.procserving import ProcessShardedIndex  # noqa: E402
from repro.core.sharding import ShardedIndex  # noqa: E402
from repro.serving.breaker import ResiliencePolicy  # noqa: E402

CORES = os.cpu_count() or 1
NUM_POINTS = int(os.environ.get("REPRO_BENCH_PROCSHARD_POINTS", "60000"))
NUM_QUERIES = int(os.environ.get("REPRO_BENCH_PROCSHARD_QUERIES", "64"))
NUM_SHARDS = int(
    os.environ.get(
        "REPRO_BENCH_PROCSHARD_SHARDS", str(min(4, CORES) if CORES > 1 else 2)
    )
)
REPEAT = int(os.environ.get("REPRO_BENCH_PROCSHARD_REPEAT", "3"))
STORM_QUERIES = int(os.environ.get("REPRO_BENCH_PROCSHARD_STORM_QUERIES", "120"))
STORM_KILLS = int(os.environ.get("REPRO_BENCH_PROCSHARD_KILLS", "6"))
MIN_SPEEDUP = float(os.environ.get("REPRO_BENCH_PROCSHARD_MIN_SPEEDUP", "1.5"))
MIN_AVAILABILITY = float(
    os.environ.get("REPRO_BENCH_PROCSHARD_MIN_AVAILABILITY", "0.99")
)
OUTPUT = Path(__file__).resolve().parent.parent / "BENCH_procshard.json"

REPULSIVE = (0, 1)
ATTRACTIVE = (2, 3)
NUM_DIMS = 4


def best_of(callable_, repeat: int = REPEAT) -> float:
    best = float("inf")
    for _ in range(max(1, repeat)):
        started = time.perf_counter()
        callable_()
        best = min(best, time.perf_counter() - started)
    return best


def scaling_scenario(data: np.ndarray, points, ks, alphas, betas) -> dict:
    threads = ShardedIndex(
        data, repulsive=REPULSIVE, attractive=ATTRACTIVE, num_shards=NUM_SHARDS
    )
    procs = ProcessShardedIndex(
        data, repulsive=REPULSIVE, attractive=ATTRACTIVE, num_shards=NUM_SHARDS
    )
    try:
        serve_threads = lambda: threads.batch_query(  # noqa: E731
            points, k=ks, alpha=alphas, beta=betas
        )
        serve_procs = lambda: procs.batch_query(  # noqa: E731
            points, k=ks, alpha=alphas, beta=betas
        )
        # Warm both paths (sessions, first-touch mmap pages, worker boot).
        expected = serve_threads()
        answered = serve_procs()
        identical = all(
            mine.row_ids == theirs.row_ids and mine.scores == theirs.scores
            for mine, theirs in zip(answered.results, expected.results)
        )
        thread_seconds = best_of(serve_threads)
        proc_seconds = best_of(serve_procs)
        stats = dict(procs.serve_stats)
        nonempty_shards = sum(1 for size in procs.shard_sizes() if size)
    finally:
        procs.close()
        threads.close()
    return {
        "num_points": len(data),
        "num_queries": len(points),
        "num_shards": NUM_SHARDS,
        "thread_seconds": thread_seconds,
        "process_seconds": proc_seconds,
        "thread_queries_per_second": len(points) / thread_seconds,
        "process_queries_per_second": len(points) / proc_seconds,
        "speedup": thread_seconds / proc_seconds,
        "bit_identical": identical,
        "probes": stats["probes"],
        "probes_pruned": stats["pruned"],
        "rounds": stats["rounds"],
        "nonempty_shards": nonempty_shards,
    }


def storm_scenario(data: np.ndarray, points, ks) -> dict:
    """SIGKILL a worker every few serves; count answered vs failed requests."""
    rng = np.random.default_rng(2026)
    engine = ProcessShardedIndex(
        data,
        repulsive=REPULSIVE,
        attractive=ATTRACTIVE,
        num_shards=NUM_SHARDS,
        resilience=ResiliencePolicy(retry=None, failure_threshold=1, reset_timeout=0.1),
    )
    answered = degraded = errored = kills = 0
    try:
        kill_every = max(1, STORM_QUERIES // max(1, STORM_KILLS))
        for j in range(STORM_QUERIES):
            if j % kill_every == kill_every // 2 and kills < STORM_KILLS:
                pids = [pid for pid in engine.worker_pids() if pid is not None]
                if pids:
                    os.kill(int(rng.choice(pids)), signal.SIGKILL)
                    kills += 1
            try:
                result = engine.query(points[j % len(points)], k=int(ks[j % len(ks)]))
            except Exception:
                errored += 1
                continue
            answered += 1
            if result.degraded:
                degraded += 1
            if j % kill_every == kill_every - 1:
                engine.await_workers(30.0)  # let respawns rejoin the fleet
    finally:
        engine.close()
    total = answered + errored
    return {
        "requests": total,
        "answered": answered,
        "degraded": degraded,
        "errors": errored,
        "worker_kills": kills,
        "availability": answered / total if total else 1.0,
    }


def main() -> int:
    print(
        f"process-sharded serving benchmark: {NUM_POINTS} points, "
        f"{NUM_QUERIES} queries, {NUM_SHARDS} shards, {CORES} core(s)"
    )

    rng = np.random.default_rng(7)
    data = rng.random((NUM_POINTS, NUM_DIMS))
    points = rng.random((NUM_QUERIES, NUM_DIMS))
    ks = rng.choice(np.asarray([1, 10]), size=NUM_QUERIES)
    alphas = rng.uniform(0.05, 1.0, size=(NUM_QUERIES, len(REPULSIVE)))
    betas = rng.uniform(0.05, 1.0, size=(NUM_QUERIES, len(ATTRACTIVE)))

    scaling = scaling_scenario(data, points, ks, alphas, betas)
    storm = storm_scenario(data, points, ks)

    speedup_gate = "enforced" if CORES >= 2 else "skipped (single-core host)"
    payload = {
        "benchmark": "process_sharded_serving",
        "cores": CORES,
        "min_speedup": MIN_SPEEDUP,
        "speedup_gate": speedup_gate,
        "min_availability": MIN_AVAILABILITY,
        "scaling": scaling,
        "kill_storm": storm,
    }
    OUTPUT.write_text(json.dumps(payload, indent=2) + "\n")

    print(
        f"scaling: threads {scaling['thread_seconds']:.3f}s  "
        f"processes {scaling['process_seconds']:.3f}s  "
        f"speedup {scaling['speedup']:.2f}x  "
        f"bit-identical: {scaling['bit_identical']}  [{speedup_gate}]"
    )
    print(
        f"kill storm: {storm['answered']}/{storm['requests']} answered "
        f"({storm['degraded']} degraded), {storm['worker_kills']} kills, "
        f"availability {storm['availability']:.4f}"
    )
    print(f"wrote {OUTPUT}")

    if not scaling["bit_identical"]:
        print(
            "FAIL: process-sharded answers differ from the thread-pool engine",
            file=sys.stderr,
        )
        return 1
    pairs = scaling["num_queries"] * scaling["nonempty_shards"]
    if scaling["probes"] + scaling["probes_pruned"] != pairs:
        print(
            f"FAIL: counted {scaling['probes']} probes + "
            f"{scaling['probes_pruned']} pruned, not the {pairs} "
            "(query, non-empty shard) pairs",
            file=sys.stderr,
        )
        return 1
    if CORES >= 2 and scaling["speedup"] < MIN_SPEEDUP:
        print(
            f"FAIL: speedup {scaling['speedup']:.2f}x below the "
            f"{MIN_SPEEDUP:g}x bar on {CORES} cores",
            file=sys.stderr,
        )
        return 1
    if storm["availability"] < MIN_AVAILABILITY:
        print(
            f"FAIL: availability {storm['availability']:.4f} below "
            f"{MIN_AVAILABILITY:g} under the worker-kill storm",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
