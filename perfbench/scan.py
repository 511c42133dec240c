"""``scan``: closed-loop single ``SDIndex.query`` calls over a flat 400k world.

One caller issues one query at a time (no repeats, so no cache helps); almost
all the time goes to the ``core.batch`` filter-and-verify kernel over a flat
world larger than the CPU caches.  It bypasses the result cache, the
coalescer, shards and writes.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor

import numpy as np

from common import (
    Outcome,
    ATTRACTIVE,
    BLOCKS,
    DIMS,
    ORACLE_THREADS,
    REPULSIVE,
    SETUP_REPS,
    Tracer,
    batch_counters,
    batch_metrics,
    block_figures,
    median,
    oracle_mismatches,
    pct,
    peak_rss_mb,
    perf,
    random_queries,
    setup_once,
)

ROWS = 400_000
K_MENU = (1, 5, 10, 25)
#: Fixed work: ``QUERIES_PER_SECOND * seconds`` queries per run.
QUERIES_PER_SECOND = 67


def run(seed: int, seconds: int, tracer: Tracer) -> Outcome:
    from repro import SDIndex
    from repro.data.generators import generate_uniform

    data = generate_uniform(ROWS, DIMS, seed=seed).matrix
    count = QUERIES_PER_SECOND * seconds
    points, ks, alphas, betas = random_queries(
        np.random.default_rng([seed, 1]), count, K_MENU
    )

    def build(previous):
        if previous is not None:
            previous.close()
        start = perf()
        index = SDIndex.build(data, REPULSIVE, ATTRACTIVE)
        built = perf()
        index.query_session()
        tracer.add("sdindex.build", built - start)
        tracer.add("batch.flatten", perf() - built)
        return index

    # One set-up before each segment of the timed queries, so the timed
    # blocks spread across the whole run instead of one stretch of it.
    segments = np.array_split(np.arange(count), SETUP_REPS)
    blocks = [
        block
        for segment in segments
        for block in np.array_split(segment, BLOCKS // SETUP_REPS)
    ]
    starts = np.zeros(count)
    ends = np.full(count, np.nan)
    answers = [None] * count
    results = []
    setups = []
    index = None
    wall = 0.0
    for segment in segments:
        index, took = setup_once(build, index)
        setups.append(took)
        segment_start = perf()
        for j in segment:
            start = starts[j] = perf()
            try:
                result = index.query(
                    points[j], k=int(ks[j]), alpha=alphas[j], beta=betas[j]
                )
            except Exception:  # a failed query is counted, the loop goes on
                continue
            end = ends[j] = perf()
            if tracer.enabled:
                tracer.intervals.append((start, end))
            results.append(result)
            answers[j] = (result.row_ids, result.scores)
        wall += perf() - segment_start
    rss = peak_rss_mb()
    answered = ~np.isnan(ends)
    failed = int(count - answered.sum())

    with ThreadPoolExecutor(ORACLE_THREADS) as pool:
        failed += oracle_mismatches(
            data, np.arange(ROWS, dtype=np.int64), points, ks, alphas, betas,
            answers, pool=pool,
        )
    batch_counters(results, tracer)
    stats = index.maintenance_stats()
    index.close()

    ms = (ends - starts)[answered] * 1000.0
    op_ms_p50, ops_per_s = block_figures(starts, ends, blocks)
    per_layer = {
        "sdindex.build_s": median(tracer.spans["sdindex.build"]),
        "batch.flatten_s": median(tracer.spans["batch.flatten"]),
        **batch_metrics(tracer),
        "lsm.levels": stats.get("levels", 0),
        "lsm.delta_rows": stats.get("delta_rows", 0),
        "trace.span_coverage": tracer.coverage(wall),
    }
    return Outcome(
        attempted=count,
        failed=failed,
        end_to_end={
            "setup_s": median(setups),
            "peak_rss_mb": rss,
            "op_ms_p50": op_ms_p50,
            "ops_per_s": ops_per_s,
        },
        per_layer=per_layer,
        report={
            "op_ms_p95": (pct(ms, 95), "ms"),
            "op_ms_p99": (pct(ms, 99), "ms"),
            "op_samples": (len(ms), "count"),
            "query_ms_p50": (pct(ms, 50), "ms"),
            "query_ms_p99": (pct(ms, 99), "ms"),
            "queries_per_s": (len(ms) / wall, "1/s"),
        },
        counts={
            "queries": tracer.counts["queries"],
            "candidates": tracer.counts["candidates"],
            "full_evals": tracer.counts["full_evals"],
        },
        context={
            "rows": ROWS,
            "distribution": "uniform",
            "queries": count,
            "k_menu": list(K_MENU),
            "loop": "closed, 1 caller",
        },
    )
