"""Integration tests for multi-process sharded serving (``core/procserving``).

One spawned worker process per shard serves its mmap-loaded sub-snapshot;
the coordinator scatter-gathers over pipes with the same bound-ordered,
cross-shard-pruned visit loop as the in-process ``ShardedIndex``.  These
tests pin down the operational half of that contract:

* worker death degrades (per-shard breaker + explicit ``ShardCoverage``),
  never hangs, and a respawned worker rejoins with bit-identical answers;
* a request deadline expires cooperatively into a degraded answer;
* the HTTP front end round-trips through ``backend="process"``;
* no test leaks worker processes (autouse tripwire).

Exact-answer agreement across fleets lives in the differential-fuzz harness
(``test_differential_fuzz.py::test_process_sharded_engines_agree_exactly``).
"""

from __future__ import annotations

import asyncio
import multiprocessing
import os
import signal
import time

import numpy as np
import pytest

from repro.baselines import SequentialScan
from repro.core.deadline import Deadline
from repro.core.procserving import ProcessShardedIndex
from repro.core.sharding import ShardedIndex, serve_counters
from repro.serving.breaker import ResiliencePolicy
from repro.serving.server import SDQueryServer, ServingClient, ServingConfig

pytestmark = pytest.mark.procserve

REPULSIVE = (0, 1)
ATTRACTIVE = (2, 3)
NUM_DIMS = 4


@pytest.fixture(autouse=True)
def no_orphaned_workers():
    """Tripwire: no test may leak a worker process past its engine's close."""
    yield
    deadline = time.monotonic() + 10.0
    while multiprocessing.active_children() and time.monotonic() < deadline:
        time.sleep(0.05)
    leftover = multiprocessing.active_children()
    assert leftover == [], f"leaked worker processes: {leftover}"


def _dataset(rows: int = 240, seed: int = 5) -> np.ndarray:
    return np.random.default_rng(seed).random((rows, NUM_DIMS))


def _points(count: int, seed: int = 11) -> np.ndarray:
    return np.random.default_rng(seed).random((count, NUM_DIMS))


def _same(expected, got) -> None:
    assert got.row_ids == expected.row_ids
    assert got.scores == expected.scores


class TestProcessServing:
    def test_snapshot_versions_flip_on_checkpoint(self):
        data = _dataset()
        with ProcessShardedIndex(
            data, repulsive=REPULSIVE, attractive=ATTRACTIVE, num_shards=2
        ) as engine:
            with engine.snapshot() as snap:
                v0 = snap.version
                assert len(snap) == len(data)
            engine.insert(np.full(NUM_DIMS, 0.5), row_id=10_000)
            with engine.snapshot() as snap:
                v1 = snap.version
            assert v1 != v0  # the WAL tail advanced
            engine.checkpoint()
            with engine.snapshot() as snap:
                v2 = snap.version
            assert v2[0] == v1[0] + 1  # an epoch flip was broadcast
        assert engine.closed

    def test_serve_stats_readable_before_the_first_batch(self):
        data = _dataset()
        with ProcessShardedIndex(
            data, repulsive=REPULSIVE, attractive=ATTRACTIVE, num_shards=2
        ) as engine:
            assert engine.serve_stats == serve_counters()
            engine.batch_query(_points(4), k=3)
            stats = engine.serve_stats
            assert sorted(stats) == sorted(serve_counters())
            nonempty = sum(1 for size in engine.shard_sizes() if size)
            assert stats["probes"] + stats["pruned"] == 4 * nonempty

    def test_queries_after_close_raise(self):
        engine = ProcessShardedIndex(
            _dataset(), repulsive=REPULSIVE, attractive=ATTRACTIVE, num_shards=2
        )
        engine.close()
        engine.close()  # idempotent
        with pytest.raises(RuntimeError, match="closed"):
            engine.batch_query(_points(2), k=3)

    def test_deadline_expiry_degrades_not_hangs(self):
        """An expiring budget turns into an explicitly partial answer —
        skipped shards with reason ``deadline`` — not a hang or a crash."""

        class Ticker:
            def __init__(self, step: float) -> None:
                self.now = 0.0
                self.step = step

            def __call__(self) -> float:
                self.now += self.step
                return self.now

        data = _dataset()
        with ProcessShardedIndex(
            data, repulsive=REPULSIVE, attractive=ATTRACTIVE, num_shards=2
        ) as engine:
            # The budget survives the serve-entry check, then expires on the
            # very next clock consult — before any shard is probed.
            deadline = Deadline(0.02, clock=Ticker(0.01))
            result = engine.batch_query(_points(3), k=5, deadline=deadline)
            for got in result.results:
                assert got.degraded
                assert got.coverage is not None
                reasons = {reason for _shard, reason in got.coverage.skipped}
                assert reasons == {"deadline"}

    @pytest.mark.chaos
    def test_sigkill_degrades_then_recovers_bit_identical(self):
        """The worker-death drill: SIGKILL one worker mid-service, observe
        explicit degradation (coverage + open breaker), then a respawned
        worker rejoining with answers bit-identical to the oracle."""
        data = _dataset(rows=300, seed=9)
        resilience = ResiliencePolicy(
            retry=None, failure_threshold=1, reset_timeout=0.2
        )
        with ProcessShardedIndex(
            data,
            repulsive=REPULSIVE,
            attractive=ATTRACTIVE,
            num_shards=2,
            resilience=resilience,
        ) as engine:
            oracle = SequentialScan(data, REPULSIVE, ATTRACTIVE)
            points = _points(4, seed=21)
            expected = oracle.batch_query(points, k=5)

            healthy = engine.batch_query(points, k=5)
            for want, got in zip(expected.results, healthy.results):
                _same(want, got)

            victim_pid = engine.worker_pids()[0]
            assert victim_pid is not None
            os.kill(victim_pid, signal.SIGKILL)

            degraded = engine.batch_query(points, k=5)
            skipped_shards = set()
            for got in degraded.results:
                assert got.degraded
                assert got.coverage is not None
                for shard, reason in got.coverage.skipped:
                    skipped_shards.add(shard)
                    assert reason in ("fault", "breaker_open")
            assert skipped_shards == {0}
            states = [b["state"] for b in engine.breaker_stats()]
            assert states[0] == "open" and states[1] == "closed"

            engine.await_workers(30.0)
            assert engine.worker_pids()[0] not in (None, victim_pid)
            time.sleep(resilience.reset_timeout + 0.1)  # half-open probe due

            recovered = engine.batch_query(points, k=5)
            for want, got in zip(expected.results, recovered.results):
                assert not got.degraded
                _same(want, got)
            assert engine.breaker_stats()[0]["state"] == "closed"

    @pytest.mark.chaos
    def test_kill_storm_never_hangs(self):
        """Kill every worker between serves: each call returns promptly with
        an explicit (possibly empty, fully skipped) answer, and the fleet
        heals once the storm stops."""
        data = _dataset(rows=200, seed=3)
        resilience = ResiliencePolicy(
            retry=None, failure_threshold=1, reset_timeout=0.1
        )
        with ProcessShardedIndex(
            data,
            repulsive=REPULSIVE,
            attractive=ATTRACTIVE,
            num_shards=2,
            resilience=resilience,
        ) as engine:
            points = _points(2, seed=33)
            for _round in range(3):
                for pid in engine.worker_pids():
                    if pid is not None:
                        os.kill(pid, signal.SIGKILL)
                start = time.monotonic()
                result = engine.batch_query(points, k=3)
                assert time.monotonic() - start < 30.0
                assert all(r.degraded for r in result.results)
                engine.await_workers(30.0)
            time.sleep(resilience.reset_timeout + 0.1)
            oracle = SequentialScan(data, REPULSIVE, ATTRACTIVE)
            expected = oracle.batch_query(points, k=3)
            healed = engine.batch_query(points, k=3)
            for want, got in zip(expected.results, healed.results):
                assert not got.degraded
                _same(want, got)


class TestProcessBackendServer:
    def test_http_round_trip_matches_oracle(self):
        """``backend="process"`` end to end: HTTP in, worker fleet out, and
        every wire answer bit-identical to the sequential-scan oracle."""
        data = _dataset(rows=220, seed=13)
        inner = ShardedIndex(
            data, repulsive=REPULSIVE, attractive=ATTRACTIVE, num_shards=2
        )
        oracle = SequentialScan(data, REPULSIVE, ATTRACTIVE)
        points = _points(3, seed=29)

        async def scenario():
            config = ServingConfig(
                tick_seconds=None, coalesce=False, backend="process"
            )
            async with SDQueryServer(inner, config) as server:
                host, port = await server.start()
                answers = []
                async with ServingClient(host, port) as client:
                    for point in points:
                        status, payload = await client.query(point, k=5)
                        answers.append((status, payload))
                stats = server.stats()
            return answers, stats

        answers, stats = asyncio.run(scenario())
        assert stats["engine"] == "ProcessShardedIndex"
        expected = oracle.batch_query(points, k=5)
        for expect, (status, payload) in zip(expected.results, answers):
            assert status == 200
            assert payload["row_ids"] == list(expect.row_ids)
            assert payload["scores"] == list(expect.scores)
            assert not payload["degraded"]
        # The server owned the process engine and closed it on exit.
        assert inner.num_shards == 2

    def test_passthrough_engine_is_not_closed_by_server(self):
        """Handing the server an already-built ProcessShardedIndex keeps
        ownership with the caller: the server must not close it."""
        data = _dataset(rows=180, seed=17)
        engine = ProcessShardedIndex(
            data, repulsive=REPULSIVE, attractive=ATTRACTIVE, num_shards=2
        )
        try:

            async def scenario():
                config = ServingConfig(
                    tick_seconds=None, coalesce=False, backend="process"
                )
                async with SDQueryServer(engine, config) as server:
                    served = await server.submit([0.5, 0.5, 0.5, 0.5], k=3)
                return served

            served = asyncio.run(scenario())
            assert not served.degraded
            assert not engine.closed  # still the caller's to close
            engine.batch_query(_points(1), k=3)
        finally:
            engine.close()

    def test_backend_validation(self):
        data = _dataset(rows=64)
        flat_like = SequentialScan(data, REPULSIVE, ATTRACTIVE)
        with pytest.raises(ValueError, match="backend"):
            SDQueryServer(flat_like, ServingConfig(backend="fork"))
        with pytest.raises(TypeError, match="ShardedIndex"):
            SDQueryServer(flat_like, ServingConfig(backend="process"))
