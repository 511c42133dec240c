"""The bound-ordered multi-source merge and the sharded engine's counters.

:func:`repro.core.batch.merge_sources` is the one loop behind both LSM reads
(levels plus the delta) and sharded serving.  Here it runs over synthetic
sources — small arrays of ``(row_id, score)`` per query with an admissible
upper bound — against a brute-force ``(-score, row_id)`` top-k, and the
sharded engine's ``serve_stats`` are checked to count every (query, shard)
pair exactly once, however the queries are batched.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.batch import merge_sources
from repro.core.results import Match, TopKResult
from repro.core.sharding import ShardedIndex, serve_counters
from repro.data.generators import generate_dataset

REPULSIVE = (0, 1)
ATTRACTIVE = (2, 3)


def _sources(seed: int, num_sources: int, m: int):
    """Per source: row ids and an ``(m, rows)`` score matrix; plus the bounds.

    Scores sit on a coarse grid so exact ties (broken by row id) are common;
    each bound is the source's best score plus a random non-negative slack,
    ``-inf`` for an empty source.
    """
    rng = np.random.default_rng(seed)
    sources = []
    next_row = 0
    for _ in range(num_sources):
        rows = int(rng.choice([0, 1, 3, 8]))
        row_ids = np.arange(next_row, next_row + rows)
        next_row += rows
        sources.append((row_ids, rng.integers(-20, 20, size=(m, rows)) / 4.0))
    ubs = np.full((num_sources, m), -math.inf)
    for s, (row_ids, scores) in enumerate(sources):
        if len(row_ids):
            ubs[s] = scores.max(axis=1) + rng.choice([0.0, 0.25, 3.0], size=m)
    return sources, ubs


def _samples(rng, sources, m: int) -> np.ndarray:
    """Exact scores of a random subset of all rows, pooled across sources."""
    columns = np.hstack([scores for _, scores in sources])
    keep = rng.random(columns.shape[1]) < 0.5
    return columns[:, keep] if columns.size else np.empty((m, 0))


def _top(row_ids, scores, k: int):
    order = sorted(zip(row_ids.tolist(), scores.tolist()), key=lambda rs: (-rs[1], rs[0]))
    return order[:k]


@pytest.mark.lsm
@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    num_sources=st.integers(1, 5),
    m=st.integers(1, 4),
    use_floor=st.booleans(),
    failing=st.sets(st.integers(0, 4), max_size=2),
)
def test_merge_sources_matches_brute_force(seed, num_sources, m, use_floor, failing):
    sources, ubs = _sources(seed, num_sources, m)
    rng = np.random.default_rng(seed + 1)
    ks = rng.integers(1, 6, size=m)
    weight_scale = np.ones(m)
    floor = rng.integers(-20, 20, size=m) / 4.0 if use_floor else None
    failing = {s for s in failing if s < num_sources}
    handed = []

    def run_round(tasks):
        outcomes = []
        assert [s for s, _, _ in tasks] == sorted({s for s, _, _ in tasks})
        for s, members, thresholds in tasks:
            if floor is not None:
                assert np.all(thresholds >= floor[members])
            handed.extend((s, int(j)) for j in members)
            if s in failing:
                outcomes.append("fault")
                continue
            row_ids, scores = sources[s]
            results = []
            for j, threshold in zip(members, thresholds):
                # A source may drop every row below its threshold.
                keep = scores[j] >= threshold
                top = _top(row_ids[keep], scores[j][keep], int(ks[j]))
                results.append(
                    TopKResult(
                        matches=[Match(row_id=r, score=v) for r, v in top],
                        candidates_examined=int(keep.sum()),
                    )
                )
            outcomes.append(results)
        return outcomes

    merged = merge_sources(
        ubs, _samples(rng, sources, m), ks, weight_scale, 0.0, run_round, floor=floor
    )

    assert len(handed) == len(set(handed)) == merged.probes
    assert merged.probes + merged.pruned == int(np.isfinite(ubs).sum())
    assert set(merged.skipped) == {(s, j) for s, j in handed if s in failing}
    assert set(merged.skipped.values()) <= {"fault"}
    failed_rows = {int(r) for s in failing for r in sources[s][0]}
    for j in range(m):
        got = [(match.row_id, match.score) for match in merged.pools[j]]
        assert got == sorted(got, key=lambda rs: (-rs[1], rs[0]))
        assert len(got) <= ks[j]
        assert not {r for r, _ in got} & failed_rows
        if floor is not None:
            assert all(score >= floor[j] for _, score in got)
        if failing:
            continue
        row_ids = np.concatenate([rows for rows, _ in sources])
        scores = np.concatenate([values[j] for _, values in sources])
        if floor is not None:
            keep = scores >= floor[j]
            row_ids, scores = row_ids[keep], scores[keep]
        assert got == _top(row_ids, scores, int(ks[j]))


def test_merge_sources_stops_at_first_empty_round():
    """Bounds far below the seeded k-th best are pruned without a round."""
    ubs = np.asarray([[5.0], [-3.0], [-math.inf]])
    calls = []

    def run_round(tasks):
        calls.append([(s, members.tolist()) for s, members, _ in tasks])
        return [[TopKResult(matches=[Match(row_id=0, score=5.0)])] for _ in tasks]

    merged = merge_sources(
        ubs, np.asarray([[5.0, 4.0]]), np.asarray([1]), np.ones(1), 0.0, run_round
    )
    assert calls == [[(0, [0])]]
    assert (merged.probes, merged.pruned, merged.rounds) == (1, 1, 1)
    assert [match.row_id for match in merged.pools[0]] == [0]


def _clustered_engine(rows: int = 2000, seed: int = 0) -> ShardedIndex:
    data = generate_dataset("clustered", rows, 4, seed=seed).matrix
    return ShardedIndex(
        data,
        repulsive=REPULSIVE,
        attractive=ATTRACTIVE,
        num_shards=4,
        partitioner="range",
    )


def test_pruned_counts_every_pair_however_queries_are_batched():
    engine = _clustered_engine()
    rng = np.random.default_rng(1)
    data = np.vstack([engine.point(r) for r in rng.integers(0, 2000, size=16)])
    points = data + rng.normal(0, 0.01, size=data.shape)
    try:
        nonempty = sum(1 for size in engine.shard_sizes() if size)
        engine.batch_query(points, k=5)
        batch = dict(engine.serve_stats)
        assert batch["probes"] + batch["pruned"] == len(points) * nonempty
        assert batch["pruned"] > 0  # the clustered layout actually prunes
        probes = pruned = 0
        for point in points:
            engine.batch_query(point[None, :], k=5)
            probes += engine.serve_stats["probes"]
            pruned += engine.serve_stats["pruned"]
        assert (probes, pruned) == (batch["probes"], batch["pruned"])
    finally:
        engine.close()


def test_serve_stats_start_at_zero_on_fresh_and_reloaded_engines(tmp_path):
    zero = serve_counters()
    assert sorted(zero) == sorted(["probes", "pruned", "rounds", "skipped", "retries"])
    assert set(zero.values()) == {0}
    engine = _clustered_engine(rows=300)
    try:
        assert engine.serve_stats == zero
        engine.query(engine.point(7), k=3)
        assert sorted(engine.serve_stats) == sorted(zero)
        engine.save(tmp_path / "snap")
    finally:
        engine.close()
    reloaded = ShardedIndex.load(tmp_path / "snap")
    try:
        assert reloaded.serve_stats == zero
        assert reloaded.serve_stats["probes"] == 0
    finally:
        reloaded.close()
