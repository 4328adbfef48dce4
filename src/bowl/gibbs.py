"""Gibbs kernels and chain driver for the weighted-hinge pseudo-posterior.

Three prior variants share the same data-augmented Gaussian core. The
sufficient statistics are kept in the canonical per-observation form

    precision_data = sum_i (w_i^2 / lam_i) x_i x_i'
    linear_data    = sum_i w_i (1 + w_i / lam_i) a_i x_i

which is what completing the square on
exp{-(w_i + lam_i - w_i a_i x_i'beta)^2 / (2 lam_i)} yields; both
treatment arms are carried by the weights w_i, so no arm-partitioned
matrices are needed.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from .distributions import (
    MvnParams,
    _all_true,
    _gig_half_draw_vec,
    _invgauss_draw,
    cholesky,
    count_nonzero,
    inv,
    sample_mvn,
)
from .pseudo_model import (
    Dataset,
    ExponentialPowerPrior,
    NormalPrior,
    PriorSpec,
    SpikeSlabPrior,
    add_intercept,
    owl_weights,
    prior_scales,
)
from .rng import ordered_map, substream

BETA_ZERO_TOL = 1e-12


class GibbsNumericalError(RuntimeError):
    """Numerical failure inside a chain, annotated with where it happened."""

    def __init__(self, message: str, chain: int, iteration: int):
        super().__init__(f"chain {chain}, iteration {iteration}: {message}")
        self.message = message
        self.chain = chain
        self.iteration = iteration

    def __reduce__(self):  # a chain in a worker process raises it through the process pool
        return type(self), (self.message, self.chain, self.iteration)


@dataclass
class ChainState:
    """Current augmented state of one chain.

    lam is the per-observation scale augmentation; omega only exists under
    the exponential-power prior, gamma only under spike-and-slab (where
    beta_j = 0 exactly when gamma_j = 0).
    """

    beta: np.ndarray
    lam: np.ndarray
    omega: np.ndarray | None = None
    gamma: np.ndarray | None = None


@dataclass
class SuffStats:
    precision_data: np.ndarray  # p x p, symmetric PSD
    linear_data: np.ndarray  # length p


@dataclass(frozen=True)
class GibbsConfig:
    n_draws: int = 500
    burn_in: int = 150
    n_chains: int = 1
    seed: int = 0

    def __post_init__(self):
        if self.n_draws < 1:
            raise ValueError("n_draws must be positive")
        if not (0 <= self.burn_in < self.n_draws):
            raise ValueError("burn_in must satisfy 0 <= burn_in < n_draws")
        if self.n_chains < 1:
            raise ValueError("n_chains must be positive")


@dataclass
class PosteriorDraws:
    """Retained draws: beta has shape (n_chains, n_draws - burn_in, p).

    With intercept set, coordinate 0 is the rule's affine term and the raw
    features are coordinates 1..p-1.
    """

    beta: np.ndarray
    gamma: np.ndarray | None = None
    intercept: bool = False

    @property
    def stacked_beta(self) -> np.ndarray:
        """All retained draws across chains, shape (chains * kept, p)."""
        return self.beta.reshape(-1, self.beta.shape[-1])

    @property
    def stacked_gamma(self) -> np.ndarray | None:
        if self.gamma is None:
            return None
        return self.gamma.reshape(-1, self.gamma.shape[-1])

    def posterior_mean(self) -> np.ndarray:
        return self.stacked_beta.mean(axis=0)


def _check_constant(values, what: str, inputs: str, positive: bool = True) -> None:
    """Raise ValueError naming `inputs` unless every entry of `values` is finite, and positive if asked.

    The kernels check each constant they derive from the prior and the data this way.
    """
    values = np.asarray(values)
    ok = np.isfinite(values)
    if positive:
        ok &= values > 0
    if not _all_true(ok):
        raise ValueError(f"{what} is not finite{' and positive' if positive else ''} (check {inputs})")


def draw_lambda(beta: np.ndarray, data: Dataset, rng: np.random.Generator, weights: np.ndarray) -> np.ndarray:
    """Sample lam_i ~ GIG(1/2, 1, w_i^2 (1 - a_i x_i'beta)^2) independently, w = owl_weights(data), computed once."""
    beta = np.asarray(beta, dtype=float)
    if not _all_true(np.isfinite(beta)):
        raise ValueError("beta must be finite")
    margins = 1.0 - data.actions * data.features.dot(beta)
    return _gig_half_draw_vec((weights * margins) ** 2, rng)


def _canonical_order(x: np.ndarray, a: np.ndarray, w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Rows in lexicographic (x_1..x_p, a, w) order, stable, and their dense ranks in that order.

    Exact duplicates share a rank; -0.0 equals 0.0, as in np.lexsort. A `Dataset`'s
    w = r / P(A = a) rises with r at fixed a, so this is its (x, a, r) order.
    """
    order = np.lexsort((w, a) + tuple(x[:, ::-1].T))
    rows = np.column_stack((x, a, w))[order]
    starts_group = np.ones(a.size, dtype=bool)
    starts_group[1:] = np.any(rows[1:] != rows[:-1], axis=1)
    return order, np.cumsum(starts_group)


@dataclass(frozen=True)
class CanonicalRows:
    """A dataset's rows gathered once in canonical order (`_canonical_order`).

    Without exact-duplicate rows the order is the same for every `lam`, so
    a sweep only gathers `lam`. `tied_rank` (the canonical ranks in that
    order) is kept only when duplicates exist; `lam` then breaks their ties,
    and only `lam` is re-sorted every sweep.
    """

    order: np.ndarray
    tied_rank: np.ndarray | None
    x: np.ndarray
    xt: np.ndarray  # a C-contiguous x.T: the Gram product scales it faster than x, with the same bits
    a: np.ndarray
    w: np.ndarray
    w_sq: np.ndarray

    @classmethod
    def of(cls, data: Dataset) -> CanonicalRows:
        return cls.from_arrays(data.features, data.actions, owl_weights(data))

    @classmethod
    def from_arrays(cls, x: np.ndarray, a: np.ndarray, w: np.ndarray) -> CanonicalRows:
        """The rows of features x, labels a in {-1, +1} and positive weights w."""
        order, rank = _canonical_order(x, a, w)
        tied = a.size > 0 and rank[-1] < a.size
        w, x = w[order], x[order]
        w_sq = w**2  # positive rewards and rho in (0, 1) make every weight positive, so this checks both
        _check_constant(w_sq, "an OWL weight r/rho or r/(1 - rho), or its square,", "rho and the rewards")
        return cls(order, rank if tied else None, x, np.ascontiguousarray(x.T), a[order], w, w_sq)


def build_suffstats(lam: np.ndarray, rows: CanonicalRows) -> SuffStats:
    """Accumulate the canonical sufficient statistics for the beta draw.

    Observations are summed in a canonical order, so the sums are
    bit-identical under any permutation of the input rows: rows gathered
    once per chain (`CanonicalRows`), `lam` breaks exact-duplicate ties.
    With no rows the sums are zero.
    """
    lam = np.asarray(lam, dtype=float).ravel()
    if lam.shape != rows.order.shape:
        raise ValueError(f"lam has length {lam.size}, expected {rows.order.size}")
    if not _all_true(lam > 0):
        raise ValueError("lam must be strictly positive")

    lam_o = lam[rows.order]
    if rows.tied_rank is not None:  # a tie group shares x, a and w, so only lam is re-sorted
        lam_o = lam_o[np.lexsort((lam_o, rows.tied_rank))]

    precision = rows.x.T @ (rows.xt * (rows.w_sq / lam_o)).T
    precision = 0.5 * (precision + precision.T)
    linear = rows.x.T @ (rows.w * (1.0 + rows.w / lam_o) * rows.a)
    return SuffStats(precision, linear)


def draw_beta_normal(
    suff: SuffStats, prior_precision: np.ndarray, prior_linear: np.ndarray, rng: np.random.Generator
) -> np.ndarray:
    """beta ~ N(B1 b1, B1), B1^{-1} = precision_data + prior_precision, b1 = linear_data + prior_linear."""
    return sample_mvn(MvnParams(suff.precision_data + prior_precision, suff.linear_data + prior_linear), rng)


def draw_beta_ep(
    suff: SuffStats, omega: np.ndarray, slab_variance: np.ndarray, rng: np.random.Generator
) -> np.ndarray:
    """beta ~ N(B2 b2, B2), B2^{-1} = precision_data + diag(1/(slab_variance_j omega_j))."""
    omega = np.asarray(omega, dtype=float).ravel()
    if not _all_true(omega > 0):
        raise ValueError("omega must be strictly positive")
    b_inv = suff.precision_data + np.diag(1.0 / (slab_variance * omega))
    return sample_mvn(MvnParams(b_inv, suff.linear_data), rng)


def draw_omega(beta: np.ndarray, nu_sigma: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """omega_j = 1 / u_j with u_j ~ IG(nu_sigma_j / |beta_j|, 1), where nu_sigma = nu sigma_j.

    That is the exact conditional GIG(1/2, 1, beta_j^2 / nu_sigma_j^2).
    Coordinates with beta_j numerically zero take its beta_j = 0 limit,
    Gamma(1/2, rate 1/2) with mean 1.
    """
    beta = np.asarray(beta, dtype=float).ravel()
    abs_beta = np.abs(beta)
    degenerate = abs_beta < BETA_ZERO_TOL
    if not count_nonzero(degenerate):
        return 1.0 / _invgauss_draw(nu_sigma / abs_beta, rng)
    out = np.empty_like(beta)
    out[degenerate] = rng.gamma(0.5, 2.0, size=int(degenerate.sum()))
    proper = ~degenerate  # may be empty: a size-0 draw takes nothing from the stream
    out[proper] = 1.0 / _invgauss_draw(nu_sigma[proper] / abs_beta[proper], rng)
    return out


def _active_inverse(a_mat: np.ndarray, active: np.ndarray) -> np.ndarray:
    """A_SS^{-1} embedded in a p x p array of zeros.

    A Cholesky factorization of A_SS checks that it is positive definite
    (else LinAlgError); the inverse itself is numpy's LU `inv`. Its last bits
    differ from an inverse through the factor, but it only feeds the
    inclusion odds, which are compared with uniforms.
    """
    m_inv = np.zeros(a_mat.shape)
    idx = active.nonzero()[0]
    if idx.size > 0:
        rows = idx[:, None]
        block = a_mat[rows, idx]
        cholesky(block)
        m_inv[rows, idx] = inv(block)
    return m_inv


def _inclusion_log_bf(a_mat, b_vec, m_inv, is_active: bool, prior_prec_j: float, j: int) -> float:
    """Log Bayes factor of gamma_j = 1 over 0, read off m_inv = A_SS^{-1} (`_active_inverse`).

    With R = S - {j}: s = A_jj - A_jR A_RR^{-1} A_Rj and t = b_j - A_jR A_RR^{-1} b_R,
    and the log Bayes factor is (1/2)(log prior_prec_j - log s + t^2 / s).
    """
    if is_active:
        s = float(1.0 / m_inv[j, j])
        t = float(m_inv[j].dot(b_vec)) * s
    else:
        v = m_inv.dot(a_mat[j])  # A is exactly symmetric, so row j is column j
        s = float(a_mat[j, j]) - float(a_mat[j].dot(v))
        t = float(b_vec[j]) - float(v.dot(b_vec))
    if not (0.0 < s < math.inf and math.isfinite(t)):
        raise ValueError(f"non-positive or non-finite Schur complement {s!r} at coordinate {j}")
    return 0.5 * (math.log(prior_prec_j) - math.log(s) + t * t / s)


def draw_gamma_and_beta_ss(
    state: ChainState, kernel: SpikeSlabKernel, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Nested single-site sweep over inclusion indicators, then the slab draw.

    For each coordinate j, the Bernoulli odds compare the beta-integrated
    log marginals of the augmented model under gamma_j = 0 vs 1 holding the
    rest fixed. The active block of A = precision_data + diag(prior_prec) is
    factored once per sweep and again after each accepted flip (fewer than
    one flip per sweep in practice). After the sweep, beta on the active set
    is drawn from its conditional Gaussian and the inactive coordinates are
    exactly zero.
    """
    suff = build_suffstats(state.lam, kernel.rows)
    a_mat = suff.precision_data + kernel.prior_precision
    b_vec = suff.linear_data

    active = np.array(state.gamma, dtype=bool)
    m_inv = _active_inverse(a_mat, active)
    uniforms = rng.random(kernel.data.p).tolist()  # the same stream as one scalar draw per coordinate
    for j in range(kernel.data.p):
        log_bf = _inclusion_log_bf(a_mat, b_vec, m_inv, active[j], kernel.prior_prec[j], j)
        prob_include = 1.0 / (1.0 + math.exp(min(kernel.log_prior_odds_out - log_bf, 700.0)))
        include = uniforms[j] < prob_include
        if include != active[j]:
            active[j] = include
            m_inv = _active_inverse(a_mat, active)

    beta = np.zeros(kernel.data.p)
    idx = active.nonzero()[0]
    if idx.size > 0:
        beta[idx] = sample_mvn(MvnParams(a_mat[idx[:, None], idx], b_vec[idx]), rng)
    return active.astype(np.int8), beta


class NormalKernel:
    """The Gibbs sweep under the normal prior, with every constant of a chain built once.

    Each prior's kernel advances a copy of its `start` state in place (`sweep`)
    through the module-level draw functions, looked up on every call; the
    kernel itself never changes.
    """

    def __init__(self, data: Dataset, rows: CanonicalRows, prior: NormalPrior):
        self.data, self.rows, self.weights = data, rows, owl_weights(data)
        self.prior_precision = np.eye(data.p) / prior.sigma0_sq
        self.prior_linear = prior.mu0_vector(data.p) / prior.sigma0_sq
        _check_constant(1.0 / prior.sigma0_sq, "the prior precision 1/sigma0_sq", "sigma0_sq")
        _check_constant(self.prior_linear, "the prior linear term mu0/sigma0_sq", "mu0 and sigma0_sq", positive=False)
        self.start = ChainState(np.zeros(data.p), np.ones(data.n))

    def sweep(self, state: ChainState, rng: np.random.Generator) -> None:
        suff = build_suffstats(state.lam, self.rows)
        state.beta = draw_beta_normal(suff, self.prior_precision, self.prior_linear, rng)
        state.lam = draw_lambda(state.beta, self.data, rng, self.weights)


class ExponentialPowerKernel:
    """The Gibbs sweep under the exponential-power prior (see `NormalKernel`)."""

    def __init__(self, data: Dataset, rows: CanonicalRows, prior: ExponentialPowerPrior):
        self.data, self.rows, self.weights = data, rows, owl_weights(data)
        sigma = prior_scales(prior, data.features)
        self.slab_variance = np.float64(prior.nu) ** 2 * sigma**2  # Python's nu**2 bits, inf past the range
        self.nu_sigma = prior.nu * sigma
        _check_constant(self.slab_variance, "the slab variance nu^2 sigma_j^2", "nu and sigma_j")
        _check_constant(self.nu_sigma, "the scale nu sigma_j", "nu and sigma_j")
        self.start = ChainState(np.zeros(data.p), np.ones(data.n), omega=np.ones(data.p))

    def sweep(self, state: ChainState, rng: np.random.Generator) -> None:
        suff = build_suffstats(state.lam, self.rows)
        state.beta = draw_beta_ep(suff, state.omega, self.slab_variance, rng)
        state.lam = draw_lambda(state.beta, self.data, rng, self.weights)
        state.omega = draw_omega(state.beta, self.nu_sigma, rng)


class SpikeSlabKernel:
    """The Gibbs sweep under the spike-and-slab prior (see `NormalKernel`)."""

    def __init__(self, data: Dataset, rows: CanonicalRows, prior: SpikeSlabPrior):
        self.data, self.rows, self.weights = data, rows, owl_weights(data)
        prior_prec = 1.0 / (np.float64(prior.nu) ** 2 * prior_scales(prior, data.features) ** 2)
        self.prior_prec = prior_prec.tolist()  # Python floats for the coordinate loop
        self.prior_precision = np.diag(prior_prec)
        self.log_prior_odds_out = math.log1p(-prior.pi_incl) - math.log(prior.pi_incl)
        _check_constant(prior_prec, "the slab precision 1/(nu^2 sigma_j^2)", "nu and sigma_j")
        _check_constant(self.log_prior_odds_out, "the log prior odds", "pi_incl", positive=False)
        self.start = ChainState(np.zeros(data.p), np.ones(data.n), gamma=np.ones(data.p, dtype=np.int8))

    def sweep(self, state: ChainState, rng: np.random.Generator) -> None:
        state.lam = draw_lambda(state.beta, self.data, rng, self.weights)
        state.gamma, state.beta = draw_gamma_and_beta_ss(state, self, rng)


_KERNELS = ((NormalPrior, NormalKernel), (ExponentialPowerPrior, ExponentialPowerKernel),
            (SpikeSlabPrior, SpikeSlabKernel))


# Overflow and NaN inside a sweep are silent: the checks after each sweep report them as GibbsNumericalError.
@np.errstate(over="ignore", divide="ignore", invalid="ignore")
def _run_single_chain(
    kernel: NormalKernel | ExponentialPowerKernel | SpikeSlabKernel, config: GibbsConfig, chain_index: int
) -> tuple[np.ndarray, np.ndarray | None]:
    rng = substream(config.seed, chain_index)
    state = copy.deepcopy(kernel.start)
    kept = config.n_draws - config.burn_in
    beta_out = np.empty((kept, kernel.data.p))
    gamma_out = np.empty((kept, kernel.data.p), dtype=np.int8) if state.gamma is not None else None

    for g in range(config.n_draws):
        try:
            kernel.sweep(state, rng)
        except (ValueError, FloatingPointError, OverflowError) as exc:  # LinAlgError is a ValueError
            raise GibbsNumericalError(str(exc), chain_index, g) from exc

        if not _all_true(np.isfinite(state.beta)):
            raise GibbsNumericalError("non-finite beta", chain_index, g)
        if not _all_true(state.lam > 0):
            raise GibbsNumericalError("nonpositive lam", chain_index, g)
        if state.omega is not None and not _all_true(state.omega > 0):
            raise GibbsNumericalError("nonpositive omega", chain_index, g)

        if g >= config.burn_in:
            beta_out[g - config.burn_in] = state.beta
            if gamma_out is not None:
                gamma_out[g - config.burn_in] = state.gamma
    return beta_out, gamma_out


def run_chain(
    data: Dataset, prior: PriorSpec, config: GibbsConfig, jobs: int = 1, intercept: bool = False
) -> PosteriorDraws:
    """Run n_chains independent Gibbs chains and collect retained draws.

    With intercept set, the constant column is prepended to the features
    before the kernel reads the prior. Each chain derives its own substream from
    (seed, chain_index), so the result is identical whether chains run
    sequentially or in parallel; assembly is always ordered by chain index.
    """
    if intercept:
        data = Dataset(add_intercept(data.features), data.actions, data.rewards, data.rho)
    kernel_type = next((k for prior_type, k in _KERNELS if isinstance(prior, prior_type)), None)
    if kernel_type is None:
        raise TypeError(f"unknown prior type {type(prior)!r}")
    # A constant that overflows raises ValueError from the kernel's own check, not a RuntimeWarning.
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        kernel = kernel_type(data, CanonicalRows.of(data), prior)
    one_chain = partial(_run_single_chain, kernel, config)
    betas, gammas = zip(*ordered_map(one_chain, range(config.n_chains), jobs))
    gamma = np.stack(gammas) if gammas[0] is not None else None
    return PosteriorDraws(np.stack(betas), gamma, intercept)
