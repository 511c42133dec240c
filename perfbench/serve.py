"""``serve``: traffic through the embedded ``SDQueryServer.submit``.

The index is a ``ShardedIndex`` of 200k clustered rows in 4 range shards
behind the default ``ServingConfig``; one asyncio loop drives it.  The time
goes to the coalescer, the result cache, epoch pins and shard pruning.  A run
has five phases on one server, ``closed.1``, ``r50``, ``closed.2``, ``r100``
and ``closed.3``:

* ``closed.*``: 8 callers, each sending its next request as soon as its last
  one is answered.  The gated end-to-end figures come from these phases; the
  closed loop runs in three parts so its timed blocks spread across the run.
* ``r50`` and ``r100``: seeded Poisson arrivals at fixed offered rates of 50
  and 100 requests/s.  Each request is timed from its *scheduled* send, so a
  stall that delays later requests shows in their latency, and the load
  generator reports how late it actually sent.  These figures are printed,
  not gated: on a 2-core host their medians moved by up to 1.8x between
  runs.
"""

from __future__ import annotations

import asyncio
import contextvars
from collections import defaultdict, deque
from concurrent.futures import ThreadPoolExecutor
from types import SimpleNamespace

import numpy as np

from common import (
    Outcome,
    ATTRACTIVE,
    BLOCKS,
    DIMS,
    ORACLE_THREADS,
    REPULSIVE,
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

ROWS = 200_000
SHARDS = 4
#: Enough clusters that the per-seed layout does not swing the work per query.
CLUSTERS = 32
K_MENU = (1, 5, 10)
TENANTS = 4
#: Concurrent callers of the closed-loop phases.
CALLERS = 8
#: Closed-loop requests per second of ``--seconds`` (1,650 at 15 s), split
#: evenly over the closed phases before, between and after the open ones.
CLOSED_PER_SECOND = 110
#: Fixed offered rates of the open-loop phases.  On a 2-core host the
#: coalesced path saturates near 150 requests/s; at 100 requests/s queueing
#: shows (median about 1.5x that at 50).
RATES = (50, 100)
#: Requests each open-loop phase sends per second of ``--seconds`` (500 at
#: 15 s).
OPEN_PER_SECOND = 100 / 3
#: Share of requests re-issuing an earlier request's exact query.
REPEAT_FRACTION = 0.25
#: A repeat's source is in an earlier phase, or at least ``CALLERS``
#: requests earlier in the closed loop (service is FIFO, so at most that many
#: are unanswered), or scheduled at least this long before it in an open
#: loop.  The source is then always answered and cached, so cache hits are
#: an exact count rather than a race between batches.
REPEAT_MIN_AGE_S = 1.0
#: Untimed requests that start the coalescer and warm the kernels first.
WARMUP_REQUESTS = 50

_request = contextvars.ContextVar("perfbench_request", default=-1)


def make_traffic(seed: int, seconds: int):
    """All phases' requests as one columnar stream, plus the phases as
    ``(name, rate or None, arrival offsets or None, first index, count)``."""
    from repro.workloads.workload import make_serving_workload

    closed = np.array_split(
        np.arange(int(round(CLOSED_PER_SECOND * seconds))), len(RATES) + 1
    )
    plan = []
    for number, part in enumerate(closed):
        plan.append((f"closed.{number + 1}", None, len(part)))
        if number < len(RATES):
            rate = RATES[number]
            plan.append((f"r{rate}", rate, int(round(OPEN_PER_SECOND * seconds))))
    parts = [
        make_serving_workload(
            REPULSIVE,
            ATTRACTIVE,
            num_requests=count,
            target_rate=rate or CLOSED_PER_SECOND,
            k=K_MENU,
            num_tenants=TENANTS,
            repeat_fraction=0.0,
            num_dims=DIMS,
            seed=seed * 10 + number,
        )
        for number, (_name, rate, count) in enumerate(plan)
    ]
    points = np.concatenate([w.reads.points for w in parts]).astype(float)
    ks = np.concatenate([w.reads.ks for w in parts]).astype(np.int64)
    alphas = np.concatenate([w.reads.alphas for w in parts]).astype(float)
    betas = np.concatenate([w.reads.betas for w in parts]).astype(float)
    tenants = [w.tenants[j % len(w.tenants)] for w in parts for j in range(len(w.reads))]

    phases = []
    first = 0
    rng = np.random.default_rng([seed, 2])
    for (name, rate, count), workload in zip(plan, parts):
        offsets = workload.arrival_offsets if rate else None
        for i in range(count):
            if rng.random() >= REPEAT_FRACTION:
                continue
            if offsets is None:
                older = max(i - CALLERS, 0)
            else:
                older = np.searchsorted(offsets, offsets[i] - REPEAT_MIN_AGE_S, side="right")
            if first + older == 0:
                continue
            j, src = first + i, int(rng.integers(0, first + older))
            points[j], ks[j] = points[src], ks[src]
            alphas[j], betas[j] = alphas[src], betas[src]
        phases.append((name, rate, offsets, first, count))
        first += count
    return points, ks, alphas, betas, tenants, phases


def run(seed: int, seconds: int, tracer: Tracer) -> Outcome:
    from repro import SDIndex, SDQueryServer, ServingConfig
    from repro.data.generators import generate_clustered

    data = generate_clustered(ROWS, DIMS, seed=seed, num_clusters=CLUSTERS).matrix
    points, ks, alphas, betas, tenants, phases = make_traffic(seed, seconds)
    total = len(points)

    def build(previous):
        if previous is not None:
            previous[0].close()
        start = perf()
        index = SDIndex.build_sharded(
            data, REPULSIVE, ATTRACTIVE, num_shards=SHARDS, partitioner="range",
            parallel=False,
        )
        built = perf()
        # The first query flattens every shard's session.
        index.query(points[0], k=int(ks[0]), alpha=alphas[0], beta=betas[0])
        tracer.add("sdindex.build", built - start)
        tracer.add("batch.flatten", perf() - built)
        return index, SDQueryServer(index, ServingConfig())

    (index, server), setup_s = timed_setup(build)

    due = np.zeros(total)
    sent = np.zeros(total)
    done = np.full(total, np.nan)
    answers = [None] * total
    fresh = []
    outcomes = {"ok": 0, "timeout": 0, "rejected": 0, "error": 0, "degraded": 0}

    async def one(j: int) -> None:
        from repro.serving.admission import AdmissionError
        from repro.serving.coalescer import RequestTimeout

        sent[j] = perf()
        _request.set(j)
        try:
            served = await server.submit(
                points[j],
                k=int(ks[j]),
                alpha=alphas[j],
                beta=betas[j],
                tenant=tenants[j],
            )
        except AdmissionError:
            outcomes["rejected"] += 1
            return
        except RequestTimeout:
            outcomes["timeout"] += 1
            return
        except Exception:  # counted against the requests issued
            outcomes["error"] += 1
            return
        done[j] = perf()
        if served.degraded:
            outcomes["degraded"] += 1
            return
        outcomes["ok"] += 1
        result = served.result
        answers[j] = (result.row_ids, result.scores)
        if not served.cached:
            fresh.append(result)

    async def closed_loop(first: int, count: int):
        queue = iter(range(first, first + count))

        async def caller():
            for j in queue:
                due[j] = perf()
                await one(j)

        await asyncio.gather(*(caller() for _ in range(CALLERS)))

    async def open_loop(offsets, first: int):
        tasks = []
        start = perf() + 0.005
        for i, offset in enumerate(offsets):
            j = first + i
            due[j] = start + offset
            delay = due[j] - perf()
            if delay > 0:
                await asyncio.sleep(delay)
            tasks.append(asyncio.create_task(one(j)))
        await asyncio.gather(*tasks)

    async def warm_up():
        """Start the coalescer's worker and warm the kernels, untimed, with
        queries the measured traffic never repeats."""
        w_points, w_ks, w_alphas, w_betas = random_queries(
            np.random.default_rng([seed, 5]), WARMUP_REQUESTS, K_MENU
        )
        tasks = []
        for j in range(WARMUP_REQUESTS):
            tasks.append(asyncio.create_task(server.submit(
                w_points[j], k=int(w_ks[j]), alpha=w_alphas[j], beta=w_betas[j]
            )))
            await asyncio.sleep(1.0 / RATES[0])
        await asyncio.gather(*tasks)

    async def drive():
        try:
            await warm_up()
            timed.before = server.coalescer.stats()
            timed.trace = _install_spans(index, server, tracer)
            for _name, rate, offsets, first, count in phases:
                if rate is None:
                    await closed_loop(first, count)
                else:
                    await open_loop(offsets, first)
        finally:
            await server.close()

    timed = SimpleNamespace()
    asyncio.run(drive())
    trace = timed.trace
    rss = peak_rss_mb()

    answered = ~np.isnan(done)
    latency_ms = (done - due) * 1000.0
    lag_ms = (sent - due) * 1000.0
    walls = {}
    opened = np.zeros(total, dtype=bool)
    for name, rate, _offsets, first, count in phases:
        sl = slice(first, first + count)
        walls[name] = np.nanmax(done[sl]) - due[first]
        opened[sl] = rate is not None
    closed = ~opened & answered
    closed_phases = [phase for phase in phases if phase[1] is None]
    blocks = [
        block
        for _name, _rate, _offsets, first, count in closed_phases
        for block in np.array_split(
            np.arange(first, first + count), BLOCKS // len(closed_phases)
        )
    ]
    op_ms_p50, ops_per_s = block_figures(due, done, blocks)
    report = {
        "closed_ms_p50": (pct(latency_ms[closed], 50), "ms"),
        "closed_ms_p99": (pct(latency_ms[closed], 99), "ms"),
    }
    for _name, rate, _offsets, first, count in phases:
        if rate is not None:
            sl = slice(first, first + count)
            ms = latency_ms[sl][answered[sl]]
            report[f"serve_ms_p50.r{rate}"] = (pct(ms, 50), "ms")
            report[f"serve_ms_p99.r{rate}"] = (pct(ms, 99), "ms")
    for name in ("timeout", "rejected", "error", "degraded"):
        report[f"requests_{name}"] = (outcomes[name], "count")
    report["send_lag_ms_p99"] = (pct(lag_ms[opened], 99), "ms")
    report["op_ms_p95"] = (pct(latency_ms[closed], 95), "ms")
    report["op_ms_p99"] = (pct(latency_ms[closed], 99), "ms")
    report["op_samples"] = (int(closed.sum()), "count")

    failed = total - outcomes["ok"]
    with ThreadPoolExecutor(ORACLE_THREADS) as pool:
        failed += oracle_mismatches(
            data, np.arange(ROWS, dtype=np.int64), points, ks, alphas, betas,
            answers, pool=pool,
        )
    batch_counters(fresh, tracer)
    sizes, cache = _stats_since(timed.before, server.coalescer.stats())
    lsm_levels = sum(
        index.shard(s).maintenance_stats().get("levels", 0) for s in range(SHARDS)
    )
    index.close()

    per_layer = {}
    if tracer.enabled:
        per_layer = _layer_metrics(tracer, trace, sizes, cache, sent)
        per_layer.update(batch_metrics(tracer))
        per_layer["sdindex.build_s"] = median(tracer.spans["sdindex.build"])
        per_layer["batch.flatten_s"] = median(tracer.spans["batch.flatten"])
        per_layer["serving.send_lag_ms_p99"] = pct(lag_ms[opened], 99)
        per_layer["lsm.levels"] = lsm_levels
        tracer.intervals = [(sent[j], done[j]) for j in np.flatnonzero(answered)]
        per_layer["trace.span_coverage"] = tracer.coverage(sum(walls.values()))

    return Outcome(
        attempted=total,
        failed=failed,
        end_to_end={
            "setup_s": setup_s,
            "peak_rss_mb": rss,
            "op_ms_p50": op_ms_p50,
            "ops_per_s": ops_per_s,
        },
        per_layer=per_layer,
        report=report,
        counts={
            "requests": total,
            "candidates": tracer.counts["candidates"],
            "full_evals": tracer.counts["full_evals"],
            "cache_hits": int(cache["hits"]),
            "cache_misses": int(cache["misses"]),
            "probes": int(sum(p for _m, p, _rounds in trace.batches)),
            "shard_visits_avoided": int(
                sum(m * SHARDS - p for m, p, _rounds in trace.batches)
            ),
        },
        context={
            "rows": ROWS,
            "distribution": f"clustered, {CLUSTERS} clusters",
            "shards": f"{SHARDS} range shards",
            "phases": {name: count for name, _r, _o, _f, count in phases},
            "closed_loop_callers": CALLERS,
            "open_loop_rates_per_s": list(RATES),
            "k_menu": list(K_MENU),
            "tenants": TENANTS,
            "repeat_fraction": REPEAT_FRACTION,
            "config": "ServingConfig() defaults",
            "loop": "one asyncio loop; closed phases gated, open phases reported",
        },
    )


def _install_spans(index, server, tracer: Tracer) -> SimpleNamespace:
    """Spans around the calls the coalescer makes into the index and cache.

    ``snapshot()`` (epoch pin) and the pinned view's ``batch_query`` and
    ``close()`` are timed; ``serve_stats`` is read right after each batch.
    The coalescer's ``submit`` and the cache's ``get`` record which request
    entered the queue and when its batch started, for the queue wait.
    """
    trace = SimpleNamespace(batches=[], queued=defaultdict(deque), starts=[])
    if not tracer.enabled:
        return trace
    from repro.serving.coalescer import query_key

    def read_serve_stats(_result, args):
        trace.batches.append((len(args[0]), index.serve_stats["probes"],
                              index.serve_stats["rounds"]))

    def wrap_view(view, _args):
        tracer.wrap(view, "batch_query", "sharding.batch", after=read_serve_stats)
        tracer.wrap(view, "close", "epoch.release")

    tracer.wrap(index, "snapshot", "epoch.pin", after=wrap_view)

    coalescer = server.coalescer
    submit = coalescer.submit

    def traced_submit(query, timeout=None):
        trace.queued[query_key(query)].append(_request.get())
        return submit(query, timeout=timeout)

    coalescer.submit = traced_submit
    get = coalescer.cache.get

    def traced_get(key, epoch):
        trace.starts.append((key, perf()))
        return get(key, epoch)

    coalescer.cache.get = traced_get
    return trace


def _stats_since(before, after):
    """Coalescer batch-size histogram and cache counters of the timed phases."""
    sizes = {
        int(size): count - before["batch_size_histogram"].get(size, 0)
        for size, count in after["batch_size_histogram"].items()
    }
    cache = {
        name: after["cache"][name] - before["cache"][name]
        for name in ("hits", "misses", "evictions")
    }
    return sizes, cache


def _layer_metrics(tracer: Tracer, trace, sizes, cache, sent):
    waits = []
    for key, started in trace.starts:
        j = trace.queued[key].popleft()
        waits.append((started - sent[j]) * 1000.0)
    pins = [
        (pin + release) * 1e6
        for pin, release in zip(tracer.spans["epoch.pin"], tracer.spans["epoch.release"])
    ]
    batches = max(len(trace.batches), 1)
    queries = sum(m for m, _probes, _rounds in trace.batches)
    probes = sum(p for _m, p, _rounds in trace.batches)
    served_batches = sum(sizes.values())
    lookups = cache["hits"] + cache["misses"]
    return {
        "sharding.batch_ms_p50": tracer.p("sharding.batch", 50, 1000.0),
        "sharding.batch_ms_p99": tracer.p("sharding.batch", 99, 1000.0),
        "sharding.probes_per_batch": probes / batches,
        # Shard visits avoided out of every (query, shard) pair.  The
        # program's own serve_stats["pruned"] stops counting once a round
        # has no probes left, so it depends on how requests were batched.
        "sharding.pruned_frac": 1.0 - probes / max(queries * SHARDS, 1),
        "sharding.rounds": sum(r for _m, _p, r in trace.batches) / batches,
        "epoch.pin_us_p50": pct(pins, 50),
        "coalescer.wait_ms_p50": pct(waits, 50),
        "coalescer.wait_ms_p99": pct(waits, 99),
        "coalescer.batch_size_mean": sum(s * c for s, c in sizes.items()) / max(served_batches, 1),
        "coalescer.batches": served_batches,
        "cache.hit_rate": cache["hits"] / max(lookups, 1),
        "cache.evictions": cache["evictions"],
    }
