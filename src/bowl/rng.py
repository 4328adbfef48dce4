"""Seeded substreams and the one batching rule, for reproducible, parallel-safe sampling."""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor

import numpy as np

MAX_BATCH = 25  # items per batch at most: a larger lockstep batch outgrows the cache and costs memory


def substream(seed: int, *key: int) -> np.random.Generator:
    """Return an independent Generator for (seed, key).

    Streams for distinct keys are statistically independent and do not
    depend on process/thread scheduling, so work items (chains, replications)
    can be farmed out in any order and still reproduce bit-for-bit.
    """
    return np.random.default_rng(np.random.SeedSequence(int(seed), spawn_key=tuple(int(k) for k in key)))


def map_batches(fn, items, jobs: int) -> list:
    """fn(batch) over contiguous batches of the sequence items, its outputs (one per item) concatenated in order.

    One batch per worker, min(jobs, len(items), CPUs), and more where a batch would pass MAX_BATCH items. With
    more than one worker the batches run in a process pool; the CPU cap bounds it, since under fork the pool
    starts every worker at its first submit.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    workers = min(jobs, len(items), os.cpu_count() or 1)
    count = max(workers, -(-len(items) // MAX_BATCH))
    batches = [items[len(items) * k // count : len(items) * (k + 1) // count] for k in range(count)]
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            outputs = list(pool.map(fn, batches))
    else:
        outputs = [fn(batch) for batch in batches]
    return [out for batch_outputs in outputs for out in batch_outputs]
