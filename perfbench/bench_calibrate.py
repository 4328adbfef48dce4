"""Host-speed calibration for the benchmark's timed calls.

The benchmark runs on shared hosts whose speed drifts by tens of percent
over seconds to minutes, as neighbours come and go. A fixed reference loop,
which uses no `bowl` code, is timed just before and just after every timed
call. A call's time is then rescaled to the speed at which the loop takes
`REF_SECONDS`:

    adjusted = seconds * REF_SECONDS / reference seconds

A change to the program leaves the loop alone, so it moves the adjusted
times as it moves the raw ones. A slower host stretches both the call and
the loop, so the ratio moves much less than either (the loop follows about
two thirds of the drift; see perfbench/README.md).
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

# About the loop's time on a quiet core of the 2-core x86-64 machine the
# benchmark was written on, so adjusted times read close to raw ones there.
# Only a scale: any fixed value compares two commits the same way.
REF_SECONDS = 0.015
REF_ROUNDS = 200

_rng = np.random.default_rng(20261018)
_X = _rng.standard_normal((400, 10))
_W = _rng.random(400) + 0.5


def reference_loop() -> float:
    """Seconds taken by a fixed mix of interpreter, numpy and text work."""
    t0 = perf_counter()
    acc = 0.0
    for k in range(REF_ROUNDS):
        order = np.lexsort((_W, _X[:, 1], _X[:, 0]))
        x = _X[order]
        m = x.T @ ((_W[order] ** 2)[:, None] * x) + np.eye(10)
        acc += float(np.linalg.cholesky(m)[-1, -1])
        for j in range(10):
            acc += float(m[j, j]) ** 0.5
        acc += len(",".join(repr(float(v)) for v in x[k]))
    if not acc > 0.0:
        raise RuntimeError("reference loop produced no result")
    return perf_counter() - t0


def adjusted(seconds: float, ref_seconds: float) -> float:
    """`seconds` rescaled to the host speed at which the loop takes REF_SECONDS."""
    return seconds * REF_SECONDS / ref_seconds
