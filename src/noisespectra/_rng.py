"""Counter-based random substreams for reproducible parallel Monte Carlo.

Every worker w of a run keyed by `seed` gets Philox(key=[seed, w]), both words
taken mod 2**64 (so -1 and 2**64 - 1 key one stream); sample budgets are split
into fixed contiguous chunks.  Results are therefore bit-reproducible for a fixed
(seed, workers) pair, regardless of how the chunks are scheduled.
"""
from __future__ import annotations

import os

import numpy as np
from numpy.random import Generator, Philox

from .grid import _integer

_MASK64 = (1 << 64) - 1


def worker_generator(seed: int, worker: int) -> Generator:
    seed, worker = _integer(seed, "seed"), _integer(worker, "worker")
    return Generator(Philox(key=np.array([seed & _MASK64, worker & _MASK64], dtype=np.uint64)))


def chunk_bounds(total: int, workers: int) -> list[tuple[int, int]]:
    """Contiguous per-worker (start, stop) chunks covering range(total)."""
    total, workers = _integer(total, "path total"), _integer(workers, "worker count")
    if total < 0 or workers < 1:
        raise ValueError("need total >= 0 and workers >= 1")
    base, extra = divmod(total, workers)
    bounds = []
    start = 0
    for w in range(workers):
        size = base + (1 if w < extra else 0)
        bounds.append((start, start + size))
        start += size
    return bounds


def worker_count(text: str) -> int | None:
    """`text` as a worker count: decimal digits worth at least 1, with spaces around them
    ignored; None for anything else, so "+2", "2_0" and "0" are not counts."""
    return int(text) if text.strip().isdecimal() and int(text) >= 1 else None


def default_workers() -> int:
    """NOISESPECTRA_THREADS as a worker count: 1 when unset or blank."""
    env = os.environ.get("NOISESPECTRA_THREADS", "").strip()
    workers = worker_count(env) if env else 1
    if workers is None:
        raise ValueError(f"NOISESPECTRA_THREADS must be a positive integer, got {env!r}")
    return workers
