"""``churn``: a closed-loop write/read mix against a ``DurableIndex``.

One caller runs a seeded op stream against
``DurableIndex.create(SDIndex.build(100k uniform rows), fsync="commit")``
with the default flush policy: 70% writes (inserts of fresh points and
deletes of random live rows, 70/30) and 30% single queries, with a
checkpoint every 2,000 ops.  At the end the durable directory is copied
without ``close()`` and ``DurableIndex.recover`` runs on the copy.  Reads
merge the LSM delta and levels; writes go through the WAL, inline
``lsm_maintain`` flushes/compactions and epoch publishes.
"""

from __future__ import annotations

import itertools
import shutil
import tempfile
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

from common import (
    Outcome,
    ATTRACTIVE,
    BLOCKS,
    DIMS,
    ORACLE_THREADS,
    REPULSIVE,
    ROOT,
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
    timed_setup,
)

ROWS = 100_000
K_MENU = (1, 5, 10, 25)
#: Fixed work: ``OPS_PER_SECOND * seconds`` ops per run.
OPS_PER_SECOND = 430
WRITE_SHARE = 0.7
INSERT_SHARE = 0.7
CHECKPOINT_EVERY = 2000
#: Queries answered by the recovered copy, checked against the oracle.
RECOVERY_QUERIES = 100
#: Logical bytes of each acknowledged write: a row id (+ coordinates).
INSERT_BYTES = 8 * (DIMS + 1)
DELETE_BYTES = 8

QUERY, INSERT, DELETE = 0, 1, 2


def make_ops(seed: int, count: int):
    rng = np.random.default_rng([seed, 3])
    draw = rng.random(count)
    kinds = np.where(
        draw < WRITE_SHARE * INSERT_SHARE,
        INSERT,
        np.where(draw < WRITE_SHARE, DELETE, QUERY),
    )
    return kinds, rng.random(count), random_queries(rng, count, K_MENU)


def run(seed: int, seconds: int, tracer: Tracer) -> Outcome:
    from repro.data.generators import generate_uniform

    data = generate_uniform(ROWS, DIMS, seed=seed).matrix
    count = OPS_PER_SECOND * seconds
    kinds, picks, (points, ks, alphas, betas) = make_ops(seed, count)
    scratch = ROOT / ".perfbench_tmp"
    scratch.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="churn-", dir=scratch)
    try:
        return _run(seed, tracer, data, kinds, picks, points, ks, alphas, betas,
                    Path(workdir))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass  # another run still uses it


def _run(seed, tracer, data, kinds, picks, points, ks, alphas, betas,
         workdir: Path) -> Outcome:
    from repro import DurableIndex, SDIndex

    count = len(kinds)
    stores = itertools.count()

    def build(previous):
        if previous is not None:
            previous.close()
            shutil.rmtree(previous.path, ignore_errors=True)
        start = perf()
        engine = SDIndex.build(data, REPULSIVE, ATTRACTIVE)
        built = perf()
        engine.query_session()
        tracer.add("sdindex.build", built - start)
        tracer.add("batch.flatten", perf() - built)
        return DurableIndex.create(engine, workdir / f"store-{next(stores)}", fsync="commit")

    durable, setup_s = timed_setup(build)
    engine = durable.engine
    session = engine.query_session()
    policy = f"default: flush_rows={session.flush_rows}, fanout={session.fanout}, size-tiered"
    wal_state = _install_spans(durable, engine, tracer)

    live = list(range(ROWS))
    inserted = {}  # row id -> coordinates of acknowledged inserts
    log = []  # (kind, row id or query index), in acknowledgement order
    op_seconds, write_seconds, query_seconds, checkpoints = [], [], [], []
    starts = np.zeros(count)
    ends = np.full(count, np.nan)
    answers = {}
    results = []
    failed = 0
    wall_start = perf()
    for j in range(count):
        kind = kinds[j]
        start = starts[j] = perf()
        try:
            if kind == INSERT:
                row = durable.insert(points[j])
            elif kind == DELETE:
                slot = int(picks[j] * len(live))
                row = live[slot]
                durable.delete(row)
            else:
                result = durable.query(
                    points[j], k=int(ks[j]), alpha=alphas[j], beta=betas[j]
                )
        except Exception:  # a failed op is counted, the loop goes on
            failed += 1
            continue
        end = ends[j] = perf()
        op_seconds.append(end - start)
        if tracer.enabled:
            tracer.intervals.append((start, end))
        if kind == INSERT:
            write_seconds.append(end - start)
            live.append(row)
            inserted[row] = points[j]
            log.append((INSERT, row))
        elif kind == DELETE:
            write_seconds.append(end - start)
            live[slot] = live[-1]
            live.pop()
            log.append((DELETE, row))
        else:
            query_seconds.append(end - start)
            answers[j] = (result.row_ids, result.scores)
            results.append(result)
            log.append((QUERY, j))
        if (j + 1) % CHECKPOINT_EVERY == 0:
            start = perf()
            durable.checkpoint()
            end = perf()
            checkpoints.append(end - start)
            if tracer.enabled:
                tracer.intervals.append((start, end))
            wal_state.rotated()
    wall = perf() - wall_start
    rss = peak_rss_mb()
    stats = engine.maintenance_stats()
    store_bytes = sum(f.stat().st_size for f in durable.path.rglob("*") if f.is_file())
    store_ratio = store_bytes / (len(live) * DIMS * 8)

    copy = workdir / "copy"
    shutil.copytree(durable.path, copy)
    durable.close()
    start = perf()
    recovered = DurableIndex.recover(copy, fsync="commit")
    recover_s = perf() - start
    recovery = recovered.last_recovery

    # -------------------------------------------------------- correctness
    coords = np.zeros((max(inserted, default=ROWS - 1) + 1, DIMS))
    coords[:ROWS] = data
    for row, point in inserted.items():
        coords[row] = point
    failed += _check_reads(log, coords, points, ks, alphas, betas, answers)
    expected = np.sort(np.asarray(live, dtype=np.int64))
    lost, recovery_wrong = _check_recovery(recovered, expected, coords, seed)
    recovered.close()
    failed += lost + recovery_wrong
    batch_counters(results, tracer)

    op_ms = [x * 1000.0 for x in op_seconds]
    # The median over blocks holds through a slow spell of the host; the
    # throughput stays a whole-run figure so checkpoints and maintenance,
    # which fall in few blocks, count in it.
    op_ms_p50, _ = block_figures(starts, ends, np.array_split(np.arange(count), BLOCKS))
    query_ms = [x * 1000.0 for x in query_seconds]
    write_us = [x * 1e6 for x in write_seconds]
    per_layer = {}
    if tracer.enabled:
        per_layer = {
            "sdindex.build_s": median(tracer.spans["sdindex.build"]),
            "batch.flatten_s": median(tracer.spans["batch.flatten"]),
            "sdindex.apply_us_p50": tracer.p("sdindex.apply", 50, 1e6),
            "sdindex.apply_us_p99": tracer.p("sdindex.apply", 99, 1e6),
            **batch_metrics(tracer),
            "lsm.maintain_ms_total": sum(tracer.spans["lsm.maintain"]) * 1000.0,
            "lsm.maintain_ms_max": max(tracer.spans["lsm.maintain"], default=0.0) * 1000.0,
            "lsm.flushes": stats.get("flushes", 0),
            "lsm.compactions": stats.get("compactions", 0),
            "lsm.levels": stats.get("levels", 0),
            "lsm.delta_rows": stats.get("delta_rows", 0),
            "persistence.wal_append_us_p50": tracer.p("persistence.wal_append", 50, 1e6),
            "persistence.wal_append_us_p99": tracer.p("persistence.wal_append", 99, 1e6),
            "persistence.wal_bytes_per_user_byte": wal_state.bytes / max(wal_state.user_bytes, 1),
            "persistence.checkpoint_s": median(checkpoints),
            "persistence.recover_load_s": recover_s - recovery["replay_seconds"],
            "persistence.recover_replay_s": recovery["replay_seconds"],
            "persistence.replayed_records": recovery["replayed"],
            "trace.span_coverage": tracer.coverage(wall),
        }
    writes = len(write_seconds)
    return Outcome(
        attempted=count + RECOVERY_QUERIES,
        failed=failed,
        end_to_end={
            "setup_s": setup_s,
            "peak_rss_mb": rss,
            "op_ms_p50": op_ms_p50,
            "ops_per_s": len(op_seconds) / wall,
        },
        per_layer=per_layer,
        report={
            "op_ms_p95": (pct(op_ms, 95), "ms"),
            "op_ms_p99": (pct(op_ms, 99), "ms"),
            "op_samples": (len(op_ms), "count"),
            "query_ms_p50": (pct(query_ms, 50), "ms"),
            "query_ms_p99": (pct(query_ms, 99), "ms"),
            "write_us_p50": (pct(write_us, 50), "us"),
            "write_us_p99": (pct(write_us, 99), "us"),
            "ops_per_s": (len(op_seconds) / wall, "1/s"),
            "recover_s": (recover_s, "s"),
            "store_bytes_per_live_byte": (store_ratio, "ratio"),
            "lost_acknowledged_writes": (lost, "count"),
        },
        counts={
            "ops": len(op_seconds),
            "writes": writes,
            "candidates": tracer.counts["candidates"],
            "flushes": int(stats.get("flushes", 0)),
            "compactions": int(stats.get("compactions", 0)),
            "replayed": int(recovery["replayed"]),
            "wal_bytes": int(wal_state.bytes),
        },
        context={
            "rows": ROWS,
            "distribution": "uniform",
            "ops": count,
            "mix": "70% writes (70% insert / 30% delete), 30% queries",
            "k_menu": list(K_MENU),
            "checkpoint_every_ops": CHECKPOINT_EVERY,
            "fsync": "commit",
            "flush_policy": policy,
            "loop": "closed, 1 caller",
        },
    )


class _WalState:
    """WAL bytes appended, measured from the log file's size."""

    def __init__(self, wal) -> None:
        self.wal = wal
        self.bytes = 0
        self.user_bytes = 0
        self.size = wal.path.stat().st_size

    def appended(self, user_bytes: int) -> None:
        size = self.wal.path.stat().st_size
        self.bytes += size - self.size
        self.size = size
        self.user_bytes += user_bytes

    def rotated(self) -> None:
        self.size = self.wal.path.stat().st_size


def _install_spans(durable, engine, tracer: Tracer) -> _WalState:
    """Spans around the engine's own insert/delete, the WAL append and the
    inline LSM maintenance the durable wrapper calls."""
    state = _WalState(durable.wal)
    if not tracer.enabled:
        return state
    from repro.core.persistence import OP_DELETE, OP_INSERT

    user_bytes = {OP_INSERT: INSERT_BYTES, OP_DELETE: DELETE_BYTES}
    tracer.wrap(engine, "insert", "sdindex.apply")
    tracer.wrap(engine, "delete", "sdindex.apply")
    tracer.wrap(engine, "lsm_maintain", "lsm.maintain")
    tracer.wrap(
        durable.wal,
        "append",
        "persistence.wal_append",
        after=lambda _lsn, args: state.appended(user_bytes.get(args[0], 0)),
    )
    return state


def _check_reads(log, coords, points, ks, alphas, betas, answers) -> int:
    """Replay the acknowledged op log; check each query against the oracle
    over the rows live when it ran (consecutive queries share one scan)."""
    alive = np.zeros(len(coords), dtype=bool)
    alive[:ROWS] = True
    wrong = 0
    group = []
    in_flight = deque()

    def check(rows, group):
        sel = np.asarray(group)
        return oracle_mismatches(
            coords[rows], rows, points[sel], ks[sel], alphas[sel], betas[sel],
            [answers[j] for j in group],
        )

    with ThreadPoolExecutor(ORACLE_THREADS) as pool:
        for kind, value in log + [(None, None)]:
            if kind == QUERY:
                group.append(value)
                continue
            if group:
                # Bounded: each pending check holds a copy of the live rows.
                if len(in_flight) >= 2 * ORACLE_THREADS:
                    wrong += in_flight.popleft().result()
                in_flight.append(pool.submit(check, np.flatnonzero(alive), group))
                group = []
            if kind is not None:
                alive[value] = kind == INSERT
        wrong += sum(future.result() for future in in_flight)
    return wrong


def _check_recovery(recovered, expected, coords, seed: int):
    """Lost acknowledged writes, and wrong answers of the recovered copy."""
    with recovered.engine.snapshot() as snap:
        rows, matrix = snap.frozen()
    present = set(rows.tolist())
    wanted = set(expected.tolist())
    lost = len(wanted - present) + len(present - wanted)
    common = np.intersect1d(rows, expected)
    position = np.searchsorted(rows, common)
    lost += int(np.any(matrix[position] != coords[common], axis=1).sum())

    points, ks, alphas, betas = random_queries(
        np.random.default_rng([seed, 4]), RECOVERY_QUERIES, K_MENU
    )
    answers = []
    for j in range(RECOVERY_QUERIES):
        result = recovered.query(points[j], k=int(ks[j]), alpha=alphas[j], beta=betas[j])
        answers.append((result.row_ids, result.scores))
    with ThreadPoolExecutor(ORACLE_THREADS) as pool:
        wrong = oracle_mismatches(
            coords[expected], expected, points, ks, alphas, betas, answers, pool=pool
        )
    return lost, wrong
