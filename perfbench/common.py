"""Shared pieces of the benchmark: program import, outcome, tracing, statistics
and the oracle.

Nothing here imports the program at module load: :func:`import_program`
puts the checkout's ``src`` directory on ``sys.path`` first, and fails with a
message (no result line) when the sources are not there.
"""

from __future__ import annotations

import gc
import resource
import sys
import time
from collections import Counter, defaultdict
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

ROOT = Path(__file__).resolve().parent.parent

#: The dimension roles every workload queries with: 4 dims, 0/1 repulsive,
#: 2/3 attractive.
DIMS = 4
REPULSIVE = (0, 1)
ATTRACTIVE = (2, 3)
WEIGHT_RANGE = (0.05, 1.0)

#: Set-up is repeated this many times per run and reported as the median.
SETUP_REPS = 3

#: Blocks each gated timed phase is cut into for :func:`block_figures`.
BLOCKS = 30

#: Threads the oracle checks use; they run after the timed phase, so they
#: may use both cores.
ORACLE_THREADS = 2

perf = time.perf_counter


def import_program() -> None:
    """Make ``import repro`` resolve to the checkout's sources."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: program sources not found under {src}")
    sys.path.insert(0, str(src))


# --------------------------------------------------------------------- outcome
@dataclass
class Outcome:
    """What one workload run hands back to ``run.py``."""

    attempted: int
    failed: int
    #: The gated end-to-end metrics (names as in ``BENCHMARK.json``).
    end_to_end: Dict[str, float]
    #: Per-layer metrics of the traced run (names as in ``BENCHMARK.json``).
    per_layer: Dict[str, float] = field(default_factory=dict)
    #: Workload-specific figures printed by name, ``name -> (value, unit)``.
    report: Dict[str, Tuple[float, str]] = field(default_factory=dict)
    #: Exact counts two same-seed traced runs must reproduce.
    counts: Dict[str, int] = field(default_factory=dict)
    #: Sizes, rates and policies of the run, printed for the record.
    context: Dict[str, object] = field(default_factory=dict)


# ------------------------------------------------------------------ statistics
def pct(values: Sequence[float], q: float) -> float:
    """Percentile by the ``lower`` rule: always a value that was observed."""
    if len(values) == 0:
        return 0.0
    return float(np.percentile(np.asarray(values, dtype=float), q, method="lower"))


def median(values: Sequence[float]) -> float:
    return float(np.median(np.asarray(values, dtype=float))) if len(values) else 0.0


def peak_rss_mb() -> float:
    """The process's peak resident set so far (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def covered_seconds(intervals: List[Tuple[float, float]]) -> float:
    """Length of the union of ``(start, end)`` intervals."""
    total = 0.0
    reach = float("-inf")
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total


def setup_once(build: Callable[[Optional[object]], object], previous=None):
    """Run ``build(previous)`` once; return ``(product, seconds)``.

    ``build`` receives the previous product so it can release it first (and
    must return the new one).
    """
    gc.collect()
    start = perf()
    product = build(previous)
    return product, perf() - start


def timed_setup(build: Callable[[Optional[object]], object]):
    """Run ``build`` :data:`SETUP_REPS` times back to back; keep the last
    product.  Returns ``(product, median_seconds)``."""
    product = None
    seconds = []
    for _ in range(SETUP_REPS):
        product, took = setup_once(build, product)
        seconds.append(took)
    return product, median(seconds)


def block_figures(
    start: np.ndarray, end: np.ndarray, blocks: Sequence[np.ndarray]
) -> Tuple[float, float]:
    """Median over blocks of each block's p50 latency (ms), and of each
    block's throughput (answered operations per second).

    ``start``/``end`` hold each operation's times (``end`` is NaN for a
    failed one); ``blocks`` lists index arrays of consecutive operations.  A
    block's throughput is its answered operations over the time from its
    earliest start to its latest end.  The host's CPU speed can drop by 2x for
    tens of seconds: a pooled median moves with the share of samples such a
    spell covers, but a block's median varies little between blocks, so the
    median over blocks holds until the spell covers half of them.
    """
    p50s, rates = [], []
    for block in blocks:
        ok = block[~np.isnan(end[block])]
        if len(ok) == 0:
            continue
        p50s.append(pct((end[ok] - start[ok]) * 1000.0, 50))
        rates.append(len(ok) / (end[ok].max() - start[block].min()))
    return median(p50s), median(rates)


# --------------------------------------------------------------------- tracing
class Tracer:
    """Spans and counts recorded around the benchmark's own calls.

    Spans wrap public methods of objects the benchmark owns, by shadowing the
    method with an instance attribute, so no code under ``src`` changes.  A
    disabled tracer installs nothing: the untraced run pays no tracing cost.
    Durations are kept in memory (seconds) and summarized at the end.
    """

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.spans: Dict[str, List[float]] = defaultdict(list)
        self.counts: Counter = Counter()
        #: ``(start, end)`` of every top-level operation span of the timed
        #: phase, for the coverage share.
        self.intervals: List[Tuple[float, float]] = []

    def wrap(self, obj, method: str, name: str, after: Optional[Callable] = None) -> None:
        """Time every call of ``obj.method`` under span ``name``.

        ``after(result, args)`` runs outside the span (to read counters the
        call just updated).
        """
        if not self.enabled:
            return
        inner = getattr(obj, method)
        record = self.spans[name].append

        def timed(*args, **kwargs):
            start = perf()
            try:
                result = inner(*args, **kwargs)
            finally:
                record(perf() - start)
            if after is not None:
                after(result, args)
            return result

        setattr(obj, method, timed)

    def add(self, name: str, seconds: float) -> None:
        if self.enabled:
            self.spans[name].append(seconds)

    def coverage(self, wall: float) -> float:
        return covered_seconds(self.intervals) / wall if wall > 0 else 0.0

    def p(self, name: str, q: float, scale: float) -> float:
        return pct(self.spans.get(name, []), q) * scale


# ---------------------------------------------------------------------- oracle
def oracle_mismatches(
    data: np.ndarray,
    rows: np.ndarray,
    points: np.ndarray,
    ks: np.ndarray,
    alphas: np.ndarray,
    betas: np.ndarray,
    answers: Sequence[Optional[Tuple[List[int], List[float]]]],
    chunk: int = 4,
    pool: Optional[ThreadPoolExecutor] = None,
) -> int:
    """Count answers that are not bit-identical to ``SequentialScan``.

    ``answers[j]`` is ``(row_ids, scores)`` of query ``j`` (``None`` when the
    query failed; those are counted as failures elsewhere).  The scan runs in
    chunks of ``chunk`` queries so the ``chunk x n`` score matrices stay
    small; with a ``pool`` the chunks run on its threads (the scan's numpy
    kernels release the interpreter lock).

    ``rows`` must be strictly ascending.  The scan gets positions as its row
    ids and its answers are mapped back through ``rows``: the order is the
    same, so the scan's ``(-score, row id)`` tie-break picks the same rows,
    and the scan does not pass a large id array through a Python list on
    every call.
    """
    from repro.baselines import SequentialScan

    if np.any(rows[1:] <= rows[:-1]):
        raise ValueError("oracle rows must be strictly ascending")
    scan = SequentialScan(data, REPULSIVE, ATTRACTIVE)

    def wrong_in(lo: int) -> int:
        hi = min(lo + chunk, len(points))
        expected = scan.batch_query(
            points[lo:hi], k=ks[lo:hi], alpha=alphas[lo:hi], beta=betas[lo:hi]
        )
        wrong = 0
        for answer, truth in zip(answers[lo:hi], expected.results):
            if answer is None:
                continue
            truth_rows = rows[np.asarray(truth.row_ids, dtype=np.int64)].tolist()
            if list(answer[0]) != truth_rows or list(answer[1]) != truth.scores:
                wrong += 1
        return wrong

    starts = range(0, len(points), chunk)
    if pool is None:
        return sum(map(wrong_in, starts))
    return sum(pool.map(wrong_in, starts))


def random_queries(rng: np.random.Generator, count: int, k_menu: Sequence[int]):
    """Uniform query points, ``k`` from the menu, uniform random weights."""
    points = rng.random((count, DIMS))
    ks = rng.choice(np.asarray(k_menu, dtype=np.int64), size=count)
    alphas = rng.uniform(*WEIGHT_RANGE, size=(count, len(REPULSIVE)))
    betas = rng.uniform(*WEIGHT_RANGE, size=(count, len(ATTRACTIVE)))
    return points, ks, alphas, betas


def batch_counters(results, tracer: Tracer) -> None:
    """Per-query kernel counters read from each fresh ``TopKResult``."""
    for result in results:
        tracer.counts["queries"] += 1
        tracer.counts["candidates"] += result.candidates_examined
        tracer.counts["full_evals"] += result.full_evaluations
        tracer.counts["nodes_visited"] += result.nodes_visited
        tracer.counts["answered"] += len(result)


def batch_metrics(tracer: Tracer) -> Dict[str, float]:
    counts = tracer.counts
    queries = max(counts["queries"], 1)
    return {
        "batch.candidates_per_query": counts["candidates"] / queries,
        "batch.full_evals_per_query": counts["full_evals"] / queries,
        "batch.nodes_visited_per_query": counts["nodes_visited"] / queries,
        "batch.verify_yield": counts["answered"] / max(counts["candidates"], 1),
    }
