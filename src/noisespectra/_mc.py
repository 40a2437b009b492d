"""Streaming Monte Carlo engine over the per-worker Philox substreams.

Worker w of a run keyed by `seed` owns `worker_generator(seed, w)` and the
w-th contiguous share of the path budget (`chunk_bounds`).  It walks that
share in reduction chunks of CHUNK paths and draws each chunk block by block
into one reused buffer of BLOCK_FLOATS increments, so that buffer and one row
tile of `kernels.iterated_sum` scratch are a worker's working set; the stream is
consumed in the same order whatever the block size, so every drawn value is
bit-identical to one large draw.
Workers run on a thread pool and their chunk results come back in fixed
worker, then chunk, order, so a result depends on (seed, workers) only and
never on scheduling or on the pool size.
"""
from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Iterator

import numpy as np

from ._rng import chunk_bounds, worker_generator

CHUNK = 8192  # paths per reduction chunk
BLOCK_FLOATS = 1 << 18  # increments drawn per block (2 MiB of float64)


def map_workers(task: Callable[[int], object], workers: int) -> list:
    """[task(w) for w in range(workers)], on min(workers, cpu count) threads."""
    if workers == 1:
        return [task(0)]
    with ThreadPoolExecutor(max_workers=min(workers, os.cpu_count() or 1)) as pool:
        return list(pool.map(task, range(workers)))


def fill_increments(out: np.ndarray, seed: int, workers: int, scale: float) -> None:
    """Fill a C-contiguous (k, n, d) table with each worker's share of paths."""
    bounds = chunk_bounds(out.shape[0], workers)

    def fill(w: int) -> None:
        lo, hi = bounds[w]
        rows = out[lo:hi]
        worker_generator(seed, w).standard_normal(out=rows)
        rows *= scale

    map_workers(fill, workers)


def stream_moments(
    samples: int,
    seed: int,
    workers: int,
    n: int,
    d: int,
    scale: float,
    on_chunk: Callable[[Iterator[np.ndarray], int], tuple],
) -> tuple:
    """(sum, M2) over all paths of the per-path values on_chunk reduces.

    on_chunk(blocks, rows) returns (chunk sum, chunk (count, mean, M2)); `blocks`
    yields the chunk's `rows` paths of increments as consecutive (k, n, d) views
    of the worker's buffer, each overwritten by the next draw, so on_chunk may
    overwrite a block once it has read it.  Chunk sums are
    added in worker, then chunk, order, as one serial loop would add them.
    """
    if samples < 1:
        raise ValueError("need samples >= 1")
    step = max(1, min(CHUNK, BLOCK_FLOATS // (n * d)))
    bounds = chunk_bounds(samples, workers)

    def work(w: int) -> list:
        lo, hi = bounds[w]
        rng = worker_generator(seed, w)
        buf = np.empty((min(step, hi - lo), n, d))

        def blocks(start: int, stop: int) -> Iterator[np.ndarray]:
            for b in range(start, stop, step):
                inc = buf[: min(step, stop - b)]
                rng.standard_normal(out=inc)
                inc *= scale
                yield inc

        starts = range(lo, hi, CHUNK)
        return [on_chunk(blocks(s, min(s + CHUNK, hi)), min(CHUNK, hi - s)) for s in starts]

    chunks = [part for parts in map_workers(work, workers) for part in parts]
    total = 0.0
    for chunk_sum, _ in chunks:
        total = total + chunk_sum
    return total, merge_moments(stats for _, stats in chunks)[2]


def moments(x: np.ndarray, out: np.ndarray | None = None) -> tuple:
    """x's sum along axis 0, and its (count, mean, M2) by two passes.

    The deviations go to `out` (x's shape, or x itself) when given, else to a
    fresh array.
    """
    total = x.sum(axis=0)
    dev = np.subtract(x, total / x.shape[0], out=out)
    dev *= dev
    return total, (x.shape[0], total / x.shape[0], dev.sum(axis=0))


def merge_moments(parts) -> tuple[int, np.ndarray, np.ndarray]:
    """Pairwise merge of (count, mean, M2) partials, folded in the given order.

    Chan, Golub & LeVeque (1983): a merge adds only the spread between
    partial means, so a large common offset does not cancel the variance.
    """
    count, mean, m2 = 0, 0.0, 0.0
    for c, mu, q in parts:
        total = count + c
        delta = mu - mean
        mean = mean + delta * (c / total)
        m2 = m2 + q + delta * delta * (count * c / total)
        count = total
    return count, mean, m2
