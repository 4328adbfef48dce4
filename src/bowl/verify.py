"""Self-contained numerical checks behind `bowl verify`.

Each check compares a sampler or density against an independent route:
adaptive quadrature for the scale-mixture identity, closed-form moments
for the latent-scale draws, direct linear solves for the Gaussian
conditionals, a fresh factorization per subset for the spike-and-slab
inclusion odds, and the closed-form CDF of a one-feature pseudo-posterior
for the full Gibbs kernel. The test suite reuses these for the acceptance
gate.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad
from scipy.linalg import solve_triangular
from scipy.special import log_ndtr, logsumexp
from scipy.stats import kstest

from .distributions import _gig_half_draw_vec
from .gibbs import (
    CanonicalRows,
    GibbsConfig,
    _active_inverse,
    _inclusion_log_bf,
    build_suffstats,
    draw_beta_ep,
    draw_beta_normal,
    run_chain,
)
from .pseudo_model import Dataset, ExponentialPowerPrior, NormalPrior, owl_weights
from .rng import substream

IDENTITY_U_GRID = (-3.0, -1.0, -0.25, 0.0, 0.25, 1.0, 3.0)
MOMENT_DRAWS = 100_000  # per moment-checked distribution


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str


def scale_mixture_gap(u: float) -> float:
    """Absolute error of the latent-scale integral against exp(-2 max(u, 0)).

    The integrand is the Gaussian-kernel mixture (2 pi lam)^{-1/2}
    exp{-(u + lam)^2 / (2 lam)}; its integral over lam in (0, inf) should
    close the hinge exponential exactly.
    """

    def integrand(lam: float) -> float:
        return math.exp(-((u + lam) ** 2) / (2.0 * lam)) / math.sqrt(2.0 * math.pi * lam)

    total = 0.0
    for lo, hi in ((0.0, 1.0), (1.0, np.inf)):
        val, _ = quad(integrand, lo, hi, epsabs=1e-12, epsrel=1e-12, limit=200)
        total += val
    return abs(total - math.exp(-2.0 * max(u, 0.0)))


def check_scale_mixture_identity(tol: float = 1e-6) -> CheckResult:
    errors = [scale_mixture_gap(u) for u in IDENTITY_U_GRID]
    worst = max(errors)
    return CheckResult(
        "scale-mixture identity",
        worst < tol,
        f"max |quadrature - closed form| = {worst:.3e} over u in {IDENTITY_U_GRID} (tol {tol:g})",
    )


def check_gig_moments(seed: int = 0) -> CheckResult:
    """E[1/lam] for the half-order GIG against its reciprocal-IG mean."""
    rng = substream(seed, 401)
    failures = []
    details = []
    for chi in (0.25, 1.0, 4.0):
        draws = _gig_half_draw_vec(np.full(MOMENT_DRAWS, chi), rng)
        recip_mean = float(np.mean(1.0 / draws))
        target = chi**-0.5
        se = math.sqrt(chi**-1.5 / MOMENT_DRAWS)  # Var of the reciprocal is mu^3 here
        ok = abs(recip_mean - target) < 3.0 * se
        details.append(f"chi={chi:g}: |{recip_mean:.4f}-{target:.4f}|/SE={abs(recip_mean - target) / se:.2f}")
        if not ok:
            failures.append(chi)
    # chi = 0 degenerates to a chi-square(1) draw with mean 1, variance 2.
    zero_draws = _gig_half_draw_vec(np.zeros(MOMENT_DRAWS), rng)
    zero_mean = float(zero_draws.mean())
    zero_se = math.sqrt(2.0 / MOMENT_DRAWS)
    ok_zero = abs(zero_mean - 1.0) < 3.0 * zero_se
    details.append(f"chi=0: mean={zero_mean:.4f}")
    if not ok_zero:
        failures.append(0.0)
    return CheckResult(
        "half-order GIG moments",
        not failures,
        "; ".join(details) + ("" if not failures else f" (failed at chi={failures})"),
    )


def _moment_instance(seed: int, n: int = 6, p: int = 3):
    rng = substream(seed, 402)
    features = rng.uniform(-1.0, 1.0, size=(n, p))
    data = Dataset(
        features=features,
        actions=np.where(rng.uniform(size=n) < 0.5, 1.0, -1.0),
        rewards=rng.uniform(0.5, 3.0, size=n),
        rho=0.5,
    )
    lam = rng.uniform(0.5, 2.0, size=n)
    return data, lam


def check_beta_conditional_moments(seed: int = 0) -> CheckResult:
    """Empirical mean/covariance of the Gaussian conditionals vs direct solves."""
    data, lam = _moment_instance(seed)
    suff = build_suffstats(lam, CanonicalRows.of(data))
    p = data.p
    prior_n = NormalPrior(mu0=0.25, sigma0_sq=1.5)
    prior_ep = ExponentialPowerPrior(nu=0.8, sigma_j=np.full(p, 0.6))
    omega = substream(seed, 405).uniform(0.5, 2.0, size=p)
    # (label, substream key, prior precision, prior linear term, one kernel draw)
    normal_prec, normal_linear = np.eye(p) / prior_n.sigma0_sq, prior_n.mu0_vector(p) / prior_n.sigma0_sq
    slab_variance = prior_ep.nu**2 * prior_ep.sigma_j**2
    cases = (
        ("normal", 403, normal_prec, normal_linear,
         lambda rng: draw_beta_normal(suff, normal_prec, normal_linear, rng)),
        ("shrinkage", 404, np.diag(1.0 / (slab_variance * omega)), 0.0,
         lambda rng: draw_beta_ep(suff, omega, slab_variance, rng)),
    )
    details = []
    ok = True
    for label, key, prior_prec, prior_linear, draw in cases:
        rng = substream(seed, key)
        cov = np.linalg.inv(suff.precision_data + prior_prec)
        mean = cov @ (suff.linear_data + prior_linear)
        draws = np.array([draw(rng) for _ in range(MOMENT_DRAWS)])
        mean_err = np.abs(draws.mean(axis=0) - mean) / np.sqrt(np.diag(cov) / MOMENT_DRAWS)
        cov_err = np.linalg.norm(np.cov(draws.T) - cov) / np.linalg.norm(cov)
        ok &= bool(mean_err.max() < 3.0 and cov_err < 0.10)
        details.append(f"{label}: max|mean err|/SE={mean_err.max():.2f}, cov rel err={cov_err:.3f}")
    return CheckResult("beta conditional moments", ok, "; ".join(details))


def subset_log_marginal(
    precision_data: np.ndarray, linear_data: np.ndarray, prior_prec: np.ndarray, active: np.ndarray
) -> float:
    """Data-dependent part of the log marginal with beta integrated out.

    Returns (1/2)[sum log prior_prec - log|B^{-1}| + b' B b] over the active
    coordinates, from a fresh Cholesky factorization of the active block;
    zero for an empty active set (all constants shared by the gamma
    configurations cancel in the Bernoulli ratio).
    """
    idx = np.flatnonzero(active)
    if idx.size == 0:
        return 0.0
    chol = np.linalg.cholesky(precision_data[np.ix_(idx, idx)] + np.diag(prior_prec[idx]))
    half_logdet = float(np.sum(np.log(np.diag(chol))))
    u = solve_triangular(chol, linear_data[idx], lower=True)
    return 0.5 * float(np.sum(np.log(prior_prec[idx]))) - half_logdet + 0.5 * float(u @ u)


def check_ss_log_odds(tol: float = 1e-6, seed: int = 0) -> CheckResult:
    """The sweep's Schur-complement log odds (`_inclusion_log_bf`) against
    subset_log_marginal(S + {j}) - subset_log_marginal(S - {j}), over every (S, j) at p=5."""
    p = 5
    data, lam = _moment_instance(seed, n=12, p=p)
    suff = build_suffstats(lam, CanonicalRows.of(data))
    prior_prec = 1.0 / (0.8 * np.linspace(0.5, 1.5, p)) ** 2
    a_mat = suff.precision_data + np.diag(prior_prec)
    gap = 0.0
    for active in map(np.array, itertools.product((False, True), repeat=p)):
        m_inv = _active_inverse(a_mat, active)
        for j in range(p):
            log_bf = _inclusion_log_bf(a_mat, suff.linear_data, m_inv, active[j], prior_prec[j], j)
            with_j, without_j = active.copy(), active.copy()
            with_j[j], without_j[j] = True, False
            direct = subset_log_marginal(suff.precision_data, suff.linear_data, prior_prec, with_j)
            direct -= subset_log_marginal(suff.precision_data, suff.linear_data, prior_prec, without_j)
            gap = max(gap, abs(log_bf - direct) / max(abs(direct), 1.0))
    return CheckResult(
        "spike-and-slab Schur log odds",
        gap < tol,
        f"max relative gap to fresh factorizations over every (S, j) at p=5: {gap:.3e} (tol {tol:g})",
    )


def oracle_instance() -> tuple[Dataset, NormalPrior]:
    """Fixed two-observation, one-feature instance with an interior optimum."""
    data = Dataset(
        features=np.array([[1.0], [0.8]]),
        actions=np.array([1.0, -1.0]),
        rewards=np.array([1.2, 2.0]),
        rho=0.5,
    )
    return data, NormalPrior(mu0=0.0, sigma0_sq=1.0)


def _log_ndtr_diff(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """log(Phi(hi) - Phi(lo)) for lo <= hi, accurate in both tails.

    An interval above zero is mirrored to Phi(-lo) - Phi(-hi), so its lower
    end never lies above the median, where Phi would round to 1 and the
    difference cancel; an empty interval gives -inf.
    """
    upper = lo > 0.0
    lo, hi = np.where(upper, -hi, lo), np.where(upper, -lo, hi)
    log_hi = log_ndtr(hi)
    with np.errstate(divide="ignore"):
        return log_hi + np.log1p(-np.exp(log_ndtr(lo) - log_hi))


def exact_beta_cdf(data: Dataset, prior: NormalPrior):
    """Closed-form CDF of the one-feature pseudo-posterior the Gibbs chain targets.

    The latent scales integrate out exactly, so the target density is the
    normal prior times exp(-2 sum_i w_i max(1 - a_i x_i b, 0)). Between the
    kinks b = 1/(a_i x_i) the active hinge terms are linear in b, so each
    segment is a Gaussian N(m, sigma0_sq) scaled by a constant, and the CDF
    is a sum of Gaussian interval masses, normalized in log space. Rows with
    a_i x_i = 0 only scale the density; repeated kinks merge.
    """
    if data.p != 1:
        raise ValueError("the oracle is one-dimensional")
    w = owl_weights(data)
    slope = data.actions * data.features[:, 0]
    mu0 = float(prior.mu0_vector(1)[0])
    sd = math.sqrt(prior.sigma0_sq)
    kinks = np.unique(1.0 / slope[slope != 0.0])
    lo = np.concatenate(([-np.inf], kinks))
    hi = np.concatenate((kinks, [np.inf]))
    # One point strictly inside each segment decides which hinge terms are active there.
    padded = np.concatenate(([kinks.min(initial=0.0) - 1.0], kinks, [kinks.max(initial=0.0) + 1.0]))
    active = 1.0 - np.outer(0.5 * (padded[:-1] + padded[1:]), slope) > 0.0
    # -2 sum_active w_i (1 - s_i b) - (b - mu0)^2 / (2 sigma0_sq) = -(b - m)^2 / (2 sigma0_sq) + log_scale
    mean = mu0 + prior.sigma0_sq * (active @ (2.0 * w * slope))
    log_scale = (mean**2 - mu0**2) / (2.0 * prior.sigma0_sq) - active @ (2.0 * w)
    z_lo = (lo - mean) / sd
    log_norm = logsumexp(log_scale + _log_ndtr_diff(z_lo, (hi - mean) / sd))

    def cdf(b):
        z = (np.clip(np.asarray(b, dtype=float)[..., None], lo, hi) - mean) / sd
        return np.exp(logsumexp(log_scale + _log_ndtr_diff(z_lo, z), axis=-1) - log_norm)

    return cdf


def check_gibbs_vs_exact(seed: int = 0) -> CheckResult:
    """One-sample KS of 45,000 Gibbs draws against the exact 1-D pseudo-posterior CDF."""
    data, prior = oracle_instance()
    config = GibbsConfig(n_draws=50_000, burn_in=5_000, seed=seed + 17)
    gibbs = run_chain(data, prior, config).stacked_beta[:, 0]
    stat = float(kstest(gibbs, exact_beta_cdf(data, prior)).statistic)
    return CheckResult(
        "Gibbs vs exact pseudo-posterior",
        stat < 0.03,
        f"one-sample KS = {stat:.4f} (threshold 0.03, {gibbs.size} Gibbs samples)",
    )


def run_all(tol: float = 1e-6, seed: int = 0) -> list[CheckResult]:
    """Every check, in order; a tolerance that is not finite and positive raises ValueError first."""
    if not 0.0 < tol < math.inf:
        raise ValueError(f"tol must be finite and positive, got {tol}")
    return [
        check_scale_mixture_identity(tol),
        check_gig_moments(seed),
        check_beta_conditional_moments(seed),
        check_ss_log_odds(tol, seed),
        check_gibbs_vs_exact(seed),
    ]
