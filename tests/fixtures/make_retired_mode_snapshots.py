#!/usr/bin/env python3
"""Regenerate the committed snapshots of the retired write modes.

Before the LSM session became the only maintenance engine, an engine could
be built with ``compaction="legacy"`` (one flattened state spliced in place,
published copy-on-write) or ``concurrency="unsafe"`` (the same state patched
in place without epochs).  Their snapshots (format version 1, with the
refined bound arrays) carry a ``kind: "flat"`` session plus
``concurrency``/``compaction`` payload keys.  The fixture
(``retired_mode_snapshots/``) freezes one snapshot per retired mode, each taken
after spliced inserts and tombstoned deletes, together with ``expected.json``
holding the live population and the exact (row id, ``float.hex`` score)
answers of a fixed query batch.  Every later version must keep loading them
bit-identically (``tests/golden/test_golden_snapshot_retired_modes.py``).

The script needs a ``repro`` that still accepts those options (any release
before their removal); run it from such a checkout's root::

    PYTHONPATH=src python tests/fixtures/make_retired_mode_snapshots.py

Never rerun it to "fix" a failing golden test, which signals a real
compatibility break.
"""

from __future__ import annotations

import json
import shutil
from pathlib import Path

import numpy as np

from repro.core.sdindex import SDIndex
from repro.core.sharding import ShardedIndex
from repro.core.topk import TopKIndex

FIXTURE = Path(__file__).resolve().parent / "retired_mode_snapshots"
REPULSIVE = (0, 1)
ATTRACTIVE = (2, 3)
K = 5
TOPK_WEIGHTS = {"alpha": 1.3, "beta": 0.7}


def hexed(answers):
    return [
        [[int(m.row_id), float(m.score).hex()] for m in result.matches]
        for result in answers.results
    ]


def population(store):
    return {str(row): [float(v).hex() for v in point] for row, point in store.items()}


def splice(engine, store, rng, dims):
    """Ten spliced inserts and three tombstoned deletes (one of a new row)."""
    for _ in range(10):
        point = rng.random(dims)
        store[engine.insert(*point) if dims == 2 else engine.insert(point)] = point
    for victim in (4, 11, max(store)):
        engine.delete(victim)
        del store[victim]


def main() -> None:
    rng = np.random.default_rng(20261017)
    data = rng.random((60, 4))
    queries = rng.random((4, 4))
    planar = rng.random((60, 2))
    planar_queries = rng.random((3, 2))

    if FIXTURE.exists():
        shutil.rmtree(FIXTURE)
    FIXTURE.mkdir(parents=True)
    expected = {"k": K, "queries": queries.tolist(), "engines": {}}

    builders = {
        "sdindex_legacy": lambda: SDIndex.build(
            data, repulsive=REPULSIVE, attractive=ATTRACTIVE, compaction="legacy"
        ),
        "sdindex_unsafe": lambda: SDIndex.build(
            data, repulsive=REPULSIVE, attractive=ATTRACTIVE, concurrency="unsafe"
        ),
        "sharded_unsafe": lambda: ShardedIndex(
            data,
            repulsive=REPULSIVE,
            attractive=ATTRACTIVE,
            num_shards=2,
            partitioner="range",
            concurrency="unsafe",
        ),
    }
    for name, build in builders.items():
        engine = build()
        store = {row: data[row] for row in range(len(data))}
        engine.batch_query(queries, k=K)  # build the sessions that get spliced
        splice(engine, store, rng, 4)
        answers = engine.batch_query(queries, k=K)
        engine.save(FIXTURE / name)
        if hasattr(engine, "close"):
            engine.close()
        expected["engines"][name] = {
            "population": population(store),
            "results": hexed(answers),
        }

    topk = TopKIndex(planar[:, 0], planar[:, 1], concurrency="unsafe")
    store = {row: planar[row] for row in range(len(planar))}
    topk.query(0.5, 0.5, k=K)  # build the flat view that gets patched
    splice(topk, store, rng, 2)
    answers = topk.batch_query(
        planar_queries[:, 0], planar_queries[:, 1], k=K, **TOPK_WEIGHTS
    )
    topk.save(FIXTURE / "topk_unsafe")
    expected["topk_queries"] = planar_queries.tolist()
    expected["topk_weights"] = TOPK_WEIGHTS
    expected["engines"]["topk_unsafe"] = {
        "population": population(store),
        "results": hexed(answers),
    }

    with open(FIXTURE / "expected.json", "w", encoding="utf-8") as handle:
        json.dump(expected, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"wrote {FIXTURE}")


if __name__ == "__main__":
    main()
