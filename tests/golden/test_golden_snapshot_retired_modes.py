"""Back-compat: snapshots of the retired write modes load into the LSM engine.

The committed fixture (``tests/fixtures/retired_mode_snapshots/``, written by
``tests/fixtures/make_retired_mode_snapshots.py``) freezes one snapshot per
write mode that no longer exists: an ``SDIndex`` built with
``compaction="legacy"``, an ``SDIndex`` and a two-shard ``ShardedIndex`` built
with ``concurrency="unsafe"``, and a ``TopKIndex`` built with
``concurrency="unsafe"`` — each after spliced inserts and tombstoned deletes.
The loader ignores their ``concurrency``/``compaction`` keys and restores
every ``kind: "flat"`` session as a single-level LSM world with an empty
delta, so each must answer bit-identically to the frozen answers, serve
through :class:`~repro.core.lsm.LsmSession`, and stay exact against
``SequentialScan`` (the ``TopKIndex``: against its ``"streams"`` strategy)
under further writes, flushes and compactions.  Both full and ``mmap=True``
loads are checked.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

from repro.baselines import SequentialScan
from repro.core.lsm import LsmSession
from repro.core.sdindex import SDIndex
from repro.core.sharding import ShardedIndex
from repro.core.topk import TopKIndex

FIXTURE = Path(__file__).resolve().parents[1] / "fixtures" / "retired_mode_snapshots"
REPULSIVE = (0, 1)
ATTRACTIVE = (2, 3)


def _expected():
    with open(FIXTURE / "expected.json", "r", encoding="utf-8") as handle:
        return json.load(handle)


def _population(entry):
    return {
        int(row): np.asarray([float.fromhex(v) for v in point])
        for row, point in entry["population"].items()
    }


def _assert_frozen(answers, frozen, label):
    assert len(answers.results) == len(frozen)
    for j, (result, want) in enumerate(zip(answers.results, frozen)):
        got = [[int(m.row_id), float(m.score).hex()] for m in result.matches]
        assert got == want, f"{label} q{j}"


def _assert_matches_oracle(engine, store, queries, k):
    rows = sorted(store)
    expected = SequentialScan(
        np.asarray([store[row] for row in rows]), REPULSIVE, ATTRACTIVE, row_ids=rows
    ).batch_query(queries, k=k)
    got = engine.batch_query(queries, k=k)
    for want, have in zip(expected.results, got.results):
        assert [(m.row_id, m.score) for m in want.matches] == [
            (m.row_id, m.score) for m in have.matches
        ]


def _check_single_level(aggregators):
    sessions = [agg.serving_session() for agg in aggregators]
    for session in sessions:
        assert isinstance(session, LsmSession)
        layout = session.structure()
        assert len(layout["levels"]) == 1
        assert layout["delta_rows"] == 0
        # The spliced rows and tombstones of the flat state carry over.
        assert layout["levels"][0]["tombstoned"] > 0
    return sessions


@pytest.mark.parametrize("mmap", [False, True])
@pytest.mark.parametrize(
    "name,load",
    [
        ("sdindex_legacy", SDIndex.load),
        ("sdindex_unsafe", SDIndex.load),
        ("sharded_unsafe", ShardedIndex.load),
    ],
)
def test_flat_session_restores_as_one_lsm_level(name, load, mmap):
    expected = _expected()
    entry = expected["engines"][name]
    queries = np.asarray(expected["queries"], dtype=float)
    k = expected["k"]
    store = _population(entry)

    engine = load(FIXTURE / name, mmap=mmap)
    try:
        aggregators = (
            list(engine._shards) if name.startswith("sharded") else [engine._aggregator]
        )
        sessions = _check_single_level(aggregators)
        _assert_frozen(engine.batch_query(queries, k=k), entry["results"], name)
        _assert_matches_oracle(engine, store, queries, k)

        rng = np.random.default_rng(17)
        for point in rng.random((8, 4)):
            store[engine.insert(point)] = point
        for victim in (0, 20, 45, max(store)):  # level rows and a delta row
            engine.delete(victim)
            del store[victim]
        _assert_matches_oracle(engine, store, queries, k)
        for agg, session in zip(aggregators, sessions):
            if session.structure()["delta_rows"]:
                assert agg.lsm_flush()
        _assert_matches_oracle(engine, store, queries, k)
        for agg, session in zip(aggregators, sessions):
            agg.lsm_compact()
            layout = session.structure()
            assert len(layout["levels"]) == 1
            assert layout["levels"][0]["tombstoned"] == 0
        _assert_matches_oracle(engine, store, queries, k)
    finally:
        if hasattr(engine, "close"):
            engine.close()


@pytest.mark.parametrize("mmap", [False, True])
def test_unsafe_topk_snapshot_loads_and_accepts_updates(mmap):
    expected = _expected()
    entry = expected["engines"]["topk_unsafe"]
    planar = np.asarray(expected["topk_queries"], dtype=float)
    weights = expected["topk_weights"]
    k = expected["k"]
    store = _population(entry)

    index = TopKIndex.load(FIXTURE / "topk_unsafe", mmap=mmap)
    assert len(index) == len(store)
    answers = index.batch_query(planar[:, 0], planar[:, 1], k=k, **weights)
    _assert_frozen(answers, entry["results"], "topk_unsafe")

    pinned = index.flat_session()
    index.insert(0.41, 0.43)
    index.delete(min(store))
    # Updates publish a patched clone; the restored view is never mutated.
    assert index.flat_session() is not pinned
    for qx, qy in planar:
        flat = index.query(qx, qy, k=k, **weights)
        streams = index.query(qx, qy, k=k, strategy="streams", **weights)
        assert flat.row_ids == streams.row_ids
        assert flat.scores == streams.scores
