"""Seeded substream derivation for reproducible, parallel-safe sampling."""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor

import numpy as np


def substream(seed: int, *key: int) -> np.random.Generator:
    """Return an independent Generator for (seed, key).

    Streams for distinct keys are statistically independent and do not
    depend on process/thread scheduling, so work items (chains, replications)
    can be farmed out in any order and still reproduce bit-for-bit.
    """
    return np.random.default_rng(np.random.SeedSequence(int(seed), spawn_key=tuple(int(k) for k in key)))


def ordered_map(fn, items, jobs: int) -> list:
    """[fn(x) for x in items], in order; run in a pool of min(jobs, len(items), CPUs) processes if above 1.

    The CPU cap bounds a large `jobs`: under fork the pool starts every worker at its first submit.
    """
    workers = min(jobs, len(items), os.cpu_count() or 1)
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(fn, items))
    return [fn(x) for x in items]
