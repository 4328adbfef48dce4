"""Frequentist linear-kernel baseline: weighted hinge loss by subgradient descent."""

from __future__ import annotations

import math

import numpy as np

from .pseudo_model import Dataset, owl_weights
from .rng import substream

REG_STRENGTH = 1e-3
EPOCHS = 80


def owl_problem(features: np.ndarray, actions: np.ndarray, raw_rewards: np.ndarray,
                rho: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Weighted-classification form (x, labels, weights) of possibly nonpositive rewards.

    A negative reward says the received action a was worse than its
    alternative, which at the zero-one level is a unit of evidence for the
    opposite label: with w = r / P(A = a) < 0, w 1(a != f) = w + |w| 1(-a != f).
    So labels are a*sign(r) and weights |r| / P(A = a), at the raw outcome
    scale and the received action's propensity; zero-reward rows carry no
    information and are dropped.
    """
    raw = np.asarray(raw_rewards, dtype=float).ravel()
    keep = raw != 0.0
    received = Dataset(np.atleast_2d(features)[keep], np.ravel(actions)[keep], np.abs(raw[keep]), rho)
    return received.features, received.actions * np.sign(raw[keep]), owl_weights(received)


def fit_owl_linear(x: np.ndarray, labels: np.ndarray, weights: np.ndarray, seed: int) -> np.ndarray:
    """Minimize (1/n) sum_i w_i (1 - y_i x_i'beta)_+ + (REG_STRENGTH/2)||beta||^2.

    Deterministic-shuffle stochastic subgradient descent over EPOCHS passes
    with step size c/sqrt(t); the returned coefficients are the average of
    the iterates over the last half of all steps (suffix averaging).
    """
    rng = substream(seed)
    n, p = x.shape
    if n == 0:
        return np.zeros(p)
    # Scale steps to the average subgradient magnitude so rules of
    # unit-order norm are reachable within the first few epochs.
    step0 = 1.0 / (float(np.mean(weights * np.linalg.norm(x, axis=1))) + REG_STRENGTH)

    total_steps = EPOCHS * n
    suffix_start = total_steps // 2
    beta = np.zeros(p)
    suffix_sum = np.zeros(p)
    rows, labels, weights = list(x), labels.tolist(), weights.tolist()
    t = 0
    for _ in range(EPOCHS):
        for i in rng.permutation(n).tolist():
            t += 1
            eta = step0 / math.sqrt(t)
            xi = rows[i]
            hinge_active = 1.0 - labels[i] * xi.dot(beta) > 0.0
            beta *= 1.0 - eta * REG_STRENGTH  # in place, with the out-of-place update's bits
            if hinge_active:
                beta += (eta * weights[i] * labels[i]) * xi
            if t > suffix_start:
                suffix_sum += beta
    return suffix_sum / (total_steps - suffix_start)
