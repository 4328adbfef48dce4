"""Posterior-predictive treatment recommendations and certainty maps.

The predictive probability of recommending +1 for features x is the
probit average over retained coefficient draws, (1/G) sum_g Phi(x'b_g).
The scale augmentation never enters: Phi(x'beta) is free of it, so the
integral over the full augmented posterior collapses to the beta-marginal
average. Features are passed in raw form; the intercept column is applied
here exactly as during training (draws.intercept).
"""

from __future__ import annotations

import numpy as np
from scipy.special import ndtr

from .gibbs import PosteriorDraws
from .pseudo_model import add_intercept

# Rows per matrix product, as a number of (row, draw) cells: the block's one
# temporary, which ndtr overwrites in place, stays at 2 MB whatever the query size.
_BLOCK_CELLS = 2**18


def recommend(draws: PosteriorDraws, x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Recommendations for each row of the raw feature matrix x (m x p_raw).

    Returns (prob_plus, action, certainty), each of length m: the mean over
    draws of Phi(x'beta), the action +1 or -1 (ties at 0.5 go to +1), and
    certainty = max(prob_plus, 1 - prob_plus), the predictive probability
    of the action recommended.
    """
    x = np.atleast_2d(np.asarray(x, dtype=float))
    beta = draws.stacked_beta
    if beta.shape[0] == 0:
        raise ValueError("no retained draws")
    p_raw = beta.shape[1] - draws.intercept
    if x.ndim != 2 or x.shape[1] != p_raw:
        raise ValueError(f"features have shape {x.shape}, expected {p_raw} columns")
    prob = np.empty(x.shape[0])
    step = max(1, _BLOCK_CELLS // beta.shape[0])
    for lo in range(0, x.shape[0], step):
        block = x[lo : lo + step]
        design = add_intercept(block) if draws.intercept else block
        z = design @ beta.T
        prob[lo : lo + step] = ndtr(z, out=z).mean(axis=1)
    return prob, np.where(prob >= 0.5, 1, -1), np.maximum(prob, 1.0 - prob)


def check_grid_resolution(k: int) -> int:
    if k < 2:
        raise ValueError("grid resolution must be at least 2")
    return k


def certainty_grid(
    draws: PosteriorDraws, dims: tuple[int, int] = (0, 1), resolution: int = 33
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Recommendations on a k x k lattice over two raw features (0-based dims).

    The lattice spans [-1, 1] on both features, with every other feature
    at 0. Returns (node coordinates (k*k, 2), prob_plus, action, certainty),
    nodes in row-major order with the second grid dimension varying fastest.
    """
    k = check_grid_resolution(resolution)
    j1, j2 = dims
    n_raw = draws.beta.shape[-1] - draws.intercept
    if not (0 <= j1 < n_raw and 0 <= j2 < n_raw and j1 != j2):
        raise ValueError(f"grid dims {tuple(dims)} invalid for {n_raw} features")
    ticks = np.linspace(-1.0, 1.0, k)
    coords = np.column_stack([np.repeat(ticks, k), np.tile(ticks, k)])
    x = np.zeros((k * k, n_raw))
    x[:, [j1, j2]] = coords
    return (coords, *recommend(draws, x))


def coefficient_magnitudes(draws: PosteriorDraws) -> np.ndarray:
    """Absolute posterior mean per raw feature (the intercept is dropped)."""
    if draws.stacked_beta.shape[0] == 0:
        raise ValueError("no retained draws")
    mags = np.abs(draws.posterior_mean())
    return mags[1:] if draws.intercept else mags
