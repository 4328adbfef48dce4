"""Frequentist baseline: OWL's weighted hinge fit (Zhao et al., 2012), found as a pseudo-posterior mode.

2n times OWL's objective is minus the log of the bowl-normal pseudo-posterior
with mu0 = 0 and sigma0_sq = 1/(2n REG_STRENGTH), so OWL's rule is its mode: the
EM of Polson and Scott (2011) finds it on the sampler's own scale mixture.
"""

from __future__ import annotations

import numpy as np

from .distributions import solve
from .gibbs import CanonicalRows, build_suffstats
from .pseudo_model import Dataset, owl_weights

REG_STRENGTH = 1e-3
EM_CYCLES = 67  # 201 EM steps
EM_FLOOR = 1e-8  # keeps each lam_i positive once a margin reaches 1 exactly


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


def fit_owl_linear(x: np.ndarray, labels: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Minimize (1/n) sum_i w_i (1 - y_i x_i'beta)_+ + (REG_STRENGTH/2)||beta||^2 by EM from beta = 0.

    An EM step sets lam_i = 1/E[1/lam_i] = max(|w_i (1 - y_i x_i'beta)|, EM_FLOOR) for the GIG that
    `draw_lambda` samples, then solves the sums of `build_suffstats` plus the prior precision
    2n REG_STRENGTH I. SQUAREM (Varadhan and Roland, 2008) extrapolates every two steps: plain EM nears a
    margin at the hinge's kink by a factor of only 1 - 2n REG_STRENGTH / (w_i |x_i|^2) per step where the
    prior is the only other curvature. The sums run over the canonical rows, so no row order changes a bit.
    """
    n, p = x.shape
    if n == 0:
        return np.zeros(p)
    rows = CanonicalRows.from_arrays([x], [labels], [weights])  # a batch of one
    x, a, w = rows.x[0], rows.a[0], rows.w[0]
    prior_precision, lam = np.eye(p) * (2.0 * n * REG_STRENGTH), np.empty((1, n))

    def em_step(beta):
        lam.put(rows.order, np.maximum(np.abs(w * (1.0 - a * x.dot(beta))), EM_FLOOR))
        suff = build_suffstats(lam, rows)
        return solve(suff.precision_data[0] + prior_precision, suff.linear_data[0])

    def objective(beta):
        return np.mean(w * np.maximum(1.0 - a * x.dot(beta), 0.0)) + REG_STRENGTH / 2 * beta.dot(beta)

    beta = np.zeros(p)
    for _ in range(EM_CYCLES):
        b1 = em_step(beta)
        b2 = em_step(b1)
        r, v = b1 - beta, b2 - 2.0 * b1 + beta
        size = np.linalg.norm(v)
        step = max(np.linalg.norm(r) / size, 1.0) if size > 0.0 else 1.0  # step 1 extrapolates to b2
        b3 = em_step(beta + 2.0 * step * r + step**2 * v)
        beta = b3 if objective(b3) <= objective(b2) else b2  # never worse than two plain steps
    return beta
