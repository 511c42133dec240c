"""Back-compat: a format-v1 flat session restores into the LSM engine.

The committed v1 fixture (``tests/fixtures/golden_snapshot_v1/``) holds a
single flattened execution state patched in place (10 appended rows, 2
tombstoned) plus a WAL tail.  The LSM session is the only maintenance engine,
so loading it must yield an :class:`~repro.core.lsm.LsmSession` serving that
state as one level — and the usual write path (delta inserts, level
tombstones, flush, compact, a fresh checkpoint) must keep every answer
bit-identical to ``SequentialScan`` over the live population.

The population is rebuilt independently from the fixture's generator script
(``tests/fixtures/make_golden_snapshot.py``: the same seed, the same ops), so
the oracle never reads the engine under test.
"""

from __future__ import annotations

import json
import shutil
from pathlib import Path

import numpy as np
import pytest

from repro.baselines import SequentialScan
from repro.core.lsm import LsmSession
from repro.core.persistence import DurableIndex

FIXTURE = Path(__file__).resolve().parents[1] / "fixtures" / "golden_snapshot_v1"
REPULSIVE = (0, 1)
ATTRACTIVE = (2, 3)


def fixture_population():
    """Row id -> point of the fixture's live rows after its WAL tail."""
    rng = np.random.default_rng(20260729)
    data = rng.random((80, 4))
    rng.random((4, 4))  # the fixture's query batch
    store = {row: data[row] for row in range(80)}
    for row in range(80, 90):
        store[row] = rng.random(4)
    del store[3], store[85]
    for row in range(90, 95):
        store[row] = rng.random(4)
    del store[7]
    return store


def assert_matches_oracle(durable, store, queries) -> None:
    rows = sorted(store)
    expected = SequentialScan(
        np.asarray([store[row] for row in rows]), REPULSIVE, ATTRACTIVE, row_ids=rows
    ).batch_query(queries, k=5)
    got = durable.batch_query(queries, k=5)
    for want, have in zip(expected.results, got.results):
        assert [(m.row_id, m.score) for m in want.matches] == [
            (m.row_id, m.score) for m in have.matches
        ]


@pytest.mark.parametrize("mmap", [False, True])
def test_v1_flat_session_restores_as_one_lsm_level(tmp_path, mmap):
    store_path = tmp_path / "store"
    shutil.copytree(FIXTURE / "store", store_path)
    with open(FIXTURE / "expected.json", "r", encoding="utf-8") as handle:
        queries = np.asarray(json.load(handle)["queries"], dtype=float)
    store = fixture_population()

    durable = DurableIndex.recover(store_path, mmap=mmap)
    session = durable.engine._aggregator.serving_session()
    assert isinstance(session, LsmSession)
    structure = session.structure()
    assert len(structure["levels"]) == 1
    assert structure["levels"][0]["tombstoned"] == 3  # two checkpointed + row 7
    assert structure["delta_live"] == 5  # the replayed inserts
    assert_matches_oracle(durable, store, queries)

    rng = np.random.default_rng(5)
    for point in rng.random((6, 4)):
        store[durable.insert(point)] = point
    assert_matches_oracle(durable, store, queries)
    for victim in (0, 40, 81, 92, 95):  # level rows, a replayed row, a new one
        durable.delete(victim)
        del store[victim]
    assert_matches_oracle(durable, store, queries)
    assert durable.flush()
    assert len(session.structure()["levels"]) == 2
    assert_matches_oracle(durable, store, queries)
    assert durable.compact() is not None
    layout = session.structure()
    assert len(layout["levels"]) == 1 and layout["delta_rows"] == 0
    assert layout["levels"][0]["tombstoned"] == 0
    assert_matches_oracle(durable, store, queries)

    # A fresh checkpoint is written in the layered format and reloads exactly.
    durable.checkpoint()
    durable.close()
    reloaded = DurableIndex.recover(store_path, mmap=mmap)
    assert reloaded.last_recovery["replayed"] == 0
    assert reloaded.engine._aggregator.serving_session().structure() == layout
    assert_matches_oracle(reloaded, store, queries)
    reloaded.close()
