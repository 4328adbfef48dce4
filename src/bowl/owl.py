"""Frequentist linear-kernel baseline: weighted hinge loss by subgradient descent."""

from __future__ import annotations

import math

import numpy as np

from .pseudo_model import Dataset, owl_weights
from .rng import substream


def fit_owl_linear(
    data: Dataset,
    reg_strength: float = 1e-3,
    epochs: int = 80,
    seed: int = 0,
) -> np.ndarray:
    """Minimize (1/n) sum_i w_i (1 - a_i x_i'beta)_+ + (reg/2)||beta||^2.

    Deterministic-shuffle stochastic subgradient descent with step size
    c/sqrt(t); the returned coefficients are the average of the iterates
    over the last half of all steps (suffix averaging).
    """
    if epochs < 1:
        raise ValueError("epochs must be at least 1")
    if reg_strength < 0:
        raise ValueError("reg_strength must be nonnegative")
    rng = substream(seed)
    n, p = data.features.shape
    if n == 0:
        return np.zeros(p)
    w = owl_weights(data)
    x = data.features
    a = data.actions
    # Scale steps to the average subgradient magnitude so rules of
    # unit-order norm are reachable within the first few epochs.
    step0 = 1.0 / (float(np.mean(w * np.linalg.norm(x, axis=1))) + reg_strength)

    total_steps = epochs * n
    suffix_start = total_steps // 2
    beta = np.zeros(p)
    suffix_sum = np.zeros(p)
    t = 0
    for _ in range(epochs):
        for i in rng.permutation(n):
            t += 1
            eta = step0 / math.sqrt(t)
            xi = x[i]
            if 1.0 - a[i] * (xi @ beta) > 0.0:
                beta = (1.0 - eta * reg_strength) * beta + (eta * w[i] * a[i]) * xi
            else:
                beta = (1.0 - eta * reg_strength) * beta
            if t > suffix_start:
                suffix_sum += beta
    return suffix_sum / (total_steps - suffix_start)


def flipped_owl_dataset(
    features: np.ndarray, actions: np.ndarray, raw_rewards: np.ndarray, rho: float
) -> Dataset:
    """Weighted-classification representation of possibly nonpositive rewards.

    A negative reward says the observed action was worse than its
    alternative, which at the zero-one level is exactly a unit of evidence
    for the opposite label: w * 1(a != f) = const + |w| * 1(-a != f) for
    w < 0. The hinge fit therefore uses weights |r| with labels a*sign(r);
    zero-reward rows carry no information and are dropped. This keeps the
    baseline's weights at the raw outcome scale instead of inflating every
    weight by a positivity shift.
    """
    features = np.atleast_2d(np.asarray(features, dtype=float))
    actions = np.asarray(actions, dtype=float).ravel()
    raw = np.asarray(raw_rewards, dtype=float).ravel()
    keep = raw != 0.0
    return Dataset(
        features=features[keep],
        actions=actions[keep] * np.sign(raw[keep]),
        rewards=np.abs(raw[keep]),
        rho=rho,
    )
