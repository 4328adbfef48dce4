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

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from .distributions import (
    MvnParams,
    _all_true,
    _gig_half_draw_vec,
    _invgauss,
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
from .rng import map_batches, substream

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
    """Current augmented state of a batch of R chains, one row per member.

    lam is the per-observation scale augmentation; omega only exists under
    the exponential-power prior, gamma only under spike-and-slab (where
    beta_j = 0 exactly when gamma_j = 0).
    """

    beta: np.ndarray  # R x p
    lam: np.ndarray  # R x n
    omega: np.ndarray | None = None  # R x p
    gamma: np.ndarray | None = None  # R x p


@dataclass
class SuffStats:
    precision_data: np.ndarray  # R x p x p, each symmetric PSD
    linear_data: np.ndarray  # R x p


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


def _canonical_order(x: np.ndarray, a: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Rows in lexicographic (x_1..x_p, a, w) order, stable, so exact duplicates keep their input order.

    -0.0 equals 0.0, as in np.lexsort. A `Dataset`'s w = r / P(A = a) rises
    with r at fixed a, so this is its (x, a, r) order.
    """
    return np.lexsort((w, a) + tuple(x[:, ::-1].T))


@dataclass(frozen=True)
class CanonicalRows:
    """The rows of a batch's R datasets (sharing n and p), each gathered once in canonical order (`_canonical_order`).

    Arrays carry a leading member axis. A member's order does not depend
    on `lam`, so a sweep only gathers `lam`, and sums over these rows are
    bit-identical under any permutation of a member's rows that keeps the
    order of its exact duplicates.
    """

    order: np.ndarray  # R x n flat indices into an R x n lam: member r's canonical order, plus r n
    x: np.ndarray
    xt: np.ndarray  # C-contiguous x.T per member: the Gram product scales it faster than x, with the same bits
    a: np.ndarray
    w: np.ndarray
    w_sq: np.ndarray
    wa: np.ndarray  # w a, exactly: a is -1 or +1

    @classmethod
    def of(cls, datasets: list[Dataset]) -> CanonicalRows:
        return cls.from_arrays([d.features for d in datasets], [d.actions for d in datasets],
                               [owl_weights(d) for d in datasets])

    @classmethod
    def from_arrays(cls, x, a, w) -> CanonicalRows:
        """The rows of R members' features x, labels a in {-1, +1} and positive weights w, listed per member."""
        order = np.array([_canonical_order(*member) for member in zip(x, a, w)], dtype=np.intp)
        x, a, w = (np.stack([v[o] for v, o in zip(values, order)]) for values in (x, a, w))
        w_sq = w**2  # positive rewards and rho in (0, 1) make every weight positive, so this checks both
        _check_constant(w_sq, "an OWL weight r/rho or r/(1 - rho), or its square,", "rho and the rewards")
        order += np.arange(len(order))[:, None] * order.shape[1]
        return cls(order, x, np.ascontiguousarray(x.mT), a, w, w_sq, w * a)


def build_suffstats(lam: np.ndarray, rows: CanonicalRows) -> SuffStats:
    """Accumulate each member's canonical sufficient statistics for the beta draw, lam being R x n.

    Observations are summed in a canonical order gathered once per batch
    (`CanonicalRows`), so the sums are bit-identical under any permutation
    of a member's rows that keeps the order of its exact duplicates. One
    `np.matmul` forms all R Gram products and one stacked gemv all R
    linear terms, each with the bits of its own 2-D product. With no rows
    the sums are zero.
    """
    lam = np.asarray(lam, dtype=float)
    if lam.shape != rows.w.shape:
        raise ValueError(f"lam has shape {lam.shape}, expected {rows.w.shape}")
    if not _all_true(lam > 0):
        raise ValueError("lam must be strictly positive")

    lam_o = lam.take(rows.order)
    precision = rows.x.mT @ (rows.xt * (rows.w_sq / lam_o)[:, None]).mT
    precision = 0.5 * (precision + precision.mT)
    linear = (rows.x.mT @ (rows.wa * (1.0 + rows.w / lam_o))[:, :, None])[:, :, 0]  # w (1 + w/lam) a, bit for bit
    return SuffStats(precision, linear)


def draw_beta_normal(
    suff: SuffStats, prior_precision: np.ndarray, prior_linear: np.ndarray, rngs
) -> np.ndarray:
    """beta_r ~ N(B1 b1, B1), B1^{-1} = precision_data_r + prior_precision, b1 = linear_data_r + prior_linear."""
    return sample_mvn(MvnParams(suff.precision_data + prior_precision, suff.linear_data + prior_linear), rngs)


def draw_beta_ep(suff: SuffStats, omega: np.ndarray, slab_variance: np.ndarray, rngs) -> np.ndarray:
    """beta_r ~ N(B2 b2, B2), B2^{-1} = precision_data_r + diag(1/(slab_variance_rj omega_rj)), omega being R x p."""
    omega = np.asarray(omega, dtype=float)
    if not _all_true(omega > 0):
        raise ValueError("omega must be strictly positive")
    b_inv = suff.precision_data.copy()
    p = b_inv.shape[-1]
    b_inv.reshape(-1, p * p)[:, :: p + 1] += 1.0 / (slab_variance * omega)  # the diagonals, in place
    return sample_mvn(MvnParams(b_inv, suff.linear_data), rngs)


def draw_omega(beta: np.ndarray, nu_sigma: np.ndarray, rngs) -> np.ndarray:
    """omega_rj = 1 / u_rj with u_rj ~ IG(nu_sigma_rj / |beta_rj|, 1), where nu_sigma = nu sigma_j, beta being R x p.

    That is the exact conditional GIG(1/2, 1, beta_j^2 / nu_sigma_j^2).
    Coordinates with beta_j numerically zero take its beta_j = 0 limit,
    Gamma(1/2, rate 1/2) with mean 1; a member with one draws its Gammas
    first, as it does alone.
    """
    beta = np.asarray(beta, dtype=float)
    abs_beta = np.abs(beta)
    degenerate = abs_beta < BETA_ZERO_TOL
    if not count_nonzero(degenerate):
        normal, uniform = np.empty(beta.shape), np.empty(beta.shape)
        for r, rng in enumerate(rngs):
            rng.standard_normal(out=normal[r])
        for r, rng in enumerate(rngs):
            rng.random(out=uniform[r])
        return 1.0 / _invgauss(nu_sigma / abs_beta, normal, uniform)
    out = np.empty_like(beta)
    for r, rng in enumerate(rngs):
        zero, proper = degenerate[r], ~degenerate[r]  # either may be empty: a size-0 draw takes nothing from the stream
        out[r, zero] = rng.gamma(0.5, 2.0, size=int(zero.sum()))
        out[r, proper] = 1.0 / _invgauss_draw(nu_sigma[r, proper] / abs_beta[r, proper], rng)
    return out


def _stretch_log_bfs(augmented, active, start: int, log_prior_prec):
    """Yield (j, gamma_j, log Bayes factor of gamma_j = 1 over 0) for j = start..p-1, all under the active set as it is.

    augmented is [A | b], A = precision_data + diag(prior_prec) (exactly
    symmetric) and b = linear_data. One Cholesky factorization checks that
    the active block A_SS is positive definite (else LinAlgError), and one
    LU inverse M = A_SS^{-1} gives every coordinate's Schur complement s and
    t. With R = S - {j}, s = A_jj - A_jR A_RR^{-1} A_Rj and
    t = b_j - A_jR A_RR^{-1} b_R: that is s = 1/M_jj and t = (M b_S)_j s for
    active j, and s = A_jj - a'M a and t = b_j - a'M b_S with a = A_Sj for
    inactive j. The log Bayes factor is (1/2)(log prior_prec_j - log s + t^2 / s).
    Its last bits differ from a factorization per coordinate, but it only
    meets uniforms. A coordinate whose s is not finite and positive, or
    whose t is not finite, raises ValueError when it is reached.
    """
    idx = active.nonzero()[0]
    rows = augmented.take(idx, 0)
    block = rows.take(idx, 1)
    cholesky(block)
    m_inv = inv(block)
    cols = rows[:, start:]  # A_Sj of each coordinate j ahead, then b_S
    m_cols = m_inv @ cols
    mb = m_cols[:, -1]
    quad, cross = np.vecdot(cols, m_cols, axis=0).tolist(), (mb @ cols).tolist()
    recip, mb = (1.0 / m_inv.diagonal()).tolist(), mb.tolist()
    a_diag, b_vec = augmented.diagonal().tolist(), augmented[:, -1].tolist()
    k = idx.size - count_nonzero(active[start:])  # the row of M of the next active coordinate
    for j, is_active, quad_j, cross_j in zip(range(start, active.size), active[start:].tolist(), quad, cross):
        if is_active:
            s = recip[k]
            t = mb[k] * s
            k += 1
        else:
            s, t = a_diag[j] - quad_j, b_vec[j] - cross_j
        if not (0.0 < s < math.inf and math.isfinite(t)):
            raise ValueError(f"non-positive or non-finite Schur complement {s!r} at coordinate {j}")
        yield j, is_active, 0.5 * (log_prior_prec[j] - math.log(s) + t * t / s)


def draw_gamma_and_beta_ss(state: ChainState, kernel: SpikeSlabKernel, rngs) -> tuple[np.ndarray, np.ndarray]:
    """Nested single-site sweep over inclusion indicators, then the slab draw, for each member of a batch.

    For each coordinate j, the Bernoulli odds compare the beta-integrated
    log marginals of the augmented model under gamma_j = 0 vs 1 holding the
    rest fixed. The sweep runs in stretches (`_stretch_log_bfs`): each
    factors and inverts the active block of A = precision_data +
    diag(prior_prec) once, reads the odds of every coordinate still ahead
    off that inverse, and ends at the first accepted flip, where the next
    begins. So a member-sweep factors its block 1 + (its flips) times. After
    the sweep, beta on the active set is drawn from its conditional
    Gaussian and the inactive coordinates are exactly zero. The sums are
    formed for the whole batch; the coordinate loop and the slab draw run
    one member at a time, each from its own rng.
    """
    suff = build_suffstats(state.lam, kernel.rows)
    a_mats = suff.precision_data + kernel.prior_precision
    augmented = np.concatenate((a_mats, suff.linear_data[:, :, None]), axis=2)
    odds_out = kernel.log_prior_odds_out
    gamma = np.array(state.gamma, dtype=bool)
    beta = np.zeros(gamma.shape)
    for r, (log_prior_prec, rng) in enumerate(zip(kernel.log_prior_prec, rngs)):
        active = gamma[r]
        uniforms = rng.random(active.size).tolist()  # the same stream as one scalar draw per coordinate
        start = 0
        while True:
            for j, is_active, log_bf in _stretch_log_bfs(augmented[r], active, start, log_prior_prec):
                if (uniforms[j] < 1.0 / (1.0 + math.exp(min(odds_out - log_bf, 700.0)))) != is_active:
                    active[j], start = not is_active, j + 1
                    break
            else:
                break

        idx = active.nonzero()[0]
        if idx.size > 0:
            a_mat, b_vec = a_mats[r], suff.linear_data[r]
            beta[r, idx] = sample_mvn(MvnParams(a_mat[idx[:, None], idx][None], b_vec[idx][None]), (rng,))[0]
    return gamma.astype(np.int8), beta


class _Batch:
    """What every prior's kernel holds for a batch of members that share n and p.

    Each member is one dataset; a kernel's constants have a leading member
    axis. A kernel is built for one run of its batch, which advances its
    `start` state in place (`sweep`) through the module-level draw functions,
    looked up on every call.
    """

    def __init__(self, datasets: list[Dataset]):
        self.data = list(datasets)
        weights = [owl_weights(d) for d in self.data]
        self.rows = CanonicalRows.from_arrays([d.features for d in self.data], [d.actions for d in self.data], weights)
        self.lambda_args = list(zip(self.data, weights))
        self.p = self.data[0].p

    def draw_lambdas(self, state: ChainState, rngs) -> None:
        """Each member's `draw_lambda`, one call per member, written over its row of state.lam."""
        for r, (data, weights) in enumerate(self.lambda_args):
            state.lam[r] = draw_lambda(state.beta[r], data, rngs[r], weights)

    def start_state(self, **latents) -> ChainState:
        return ChainState(np.zeros((len(self.data), self.p)), np.ones(self.rows.w.shape), **latents)


class NormalKernel(_Batch):
    """The Gibbs sweep under the normal prior."""

    def __init__(self, datasets: list[Dataset], prior: NormalPrior):
        super().__init__(datasets)
        members = len(self.data)  # one row per member: adding same-shape arrays skips numpy's broadcasting
        self.prior_precision = np.tile(np.eye(self.p) / prior.sigma0_sq, (members, 1, 1))
        self.prior_linear = np.tile(prior.mu0_vector(self.p) / prior.sigma0_sq, (members, 1))
        _check_constant(1.0 / prior.sigma0_sq, "the prior precision 1/sigma0_sq", "sigma0_sq")
        _check_constant(self.prior_linear, "the prior linear term mu0/sigma0_sq", "mu0 and sigma0_sq", positive=False)
        self.start = self.start_state()

    def sweep(self, state: ChainState, rngs) -> None:
        suff = build_suffstats(state.lam, self.rows)
        state.beta = draw_beta_normal(suff, self.prior_precision, self.prior_linear, rngs)
        self.draw_lambdas(state, rngs)


class ExponentialPowerKernel(_Batch):
    """The Gibbs sweep under the exponential-power prior."""

    def __init__(self, datasets: list[Dataset], prior: ExponentialPowerPrior):
        super().__init__(datasets)
        sigma = np.array([prior_scales(prior, d.features) for d in self.data])
        self.slab_variance = np.float64(prior.nu) ** 2 * sigma**2  # Python's nu**2 bits, inf past the range
        self.nu_sigma = prior.nu * sigma
        _check_constant(self.slab_variance, "the slab variance nu^2 sigma_j^2", "nu and sigma_j")
        _check_constant(self.nu_sigma, "the scale nu sigma_j", "nu and sigma_j")
        self.start = self.start_state(omega=np.ones(sigma.shape))

    def sweep(self, state: ChainState, rngs) -> None:
        suff = build_suffstats(state.lam, self.rows)
        state.beta = draw_beta_ep(suff, state.omega, self.slab_variance, rngs)
        self.draw_lambdas(state, rngs)
        state.omega = draw_omega(state.beta, self.nu_sigma, rngs)


class SpikeSlabKernel(_Batch):
    """The Gibbs sweep under the spike-and-slab prior."""

    def __init__(self, datasets: list[Dataset], prior: SpikeSlabPrior):
        super().__init__(datasets)
        scales = np.array([prior_scales(prior, d.features) for d in self.data])
        prior_prec = 1.0 / (np.float64(prior.nu) ** 2 * scales**2)
        self.prior_precision = np.zeros(prior_prec.shape + (self.p,))
        self.prior_precision.reshape(-1, self.p * self.p)[:, :: self.p + 1] = prior_prec
        self.log_prior_odds_out = math.log1p(-prior.pi_incl) - math.log(prior.pi_incl)
        _check_constant(prior_prec, "the slab precision 1/(nu^2 sigma_j^2)", "nu and sigma_j")
        _check_constant(self.log_prior_odds_out, "the log prior odds", "pi_incl", positive=False)
        self.log_prior_prec = [[math.log(v) for v in row] for row in prior_prec.tolist()]  # floats for the sweep
        self.start = self.start_state(gamma=np.ones(prior_prec.shape, dtype=np.int8))

    def sweep(self, state: ChainState, rngs) -> None:
        self.draw_lambdas(state, rngs)
        state.gamma, state.beta = draw_gamma_and_beta_ss(state, self, rngs)


_KERNELS = ((NormalPrior, NormalKernel), (ExponentialPowerPrior, ExponentialPowerKernel),
            (SpikeSlabPrior, SpikeSlabKernel))


def _check_invariants(state: ChainState) -> None:
    if not _all_true(np.isfinite(state.beta)):
        raise ValueError("non-finite beta")
    if not _all_true(state.lam > 0):
        raise ValueError("nonpositive lam")
    if state.omega is not None and not _all_true(state.omega > 0):
        raise ValueError("nonpositive omega")


# Overflow and NaN are silent: the kernel's checks raise ValueError, those after each sweep GibbsNumericalError.
@np.errstate(over="ignore", divide="ignore", invalid="ignore")
def _run_batch(kernel_type: type[_Batch], prior: PriorSpec, config: GibbsConfig, members: list) -> list:
    """Build the kernel of members, (dataset, (seed, chain)) pairs, and step them in lockstep from their substreams.

    Returns, per member, its retained (beta, gamma) draws or the GibbsNumericalError that stopped it, naming its
    chain and iteration. A failed batch is rerun one member at a time, so each failure reads as a lone run's and
    the others keep their bytes.
    """
    kernel = kernel_type([data for data, _ in members], prior)
    rngs = [substream(seed, chain) for _, (seed, chain) in members]
    state = kernel.start
    beta_out = np.empty((len(members), config.n_draws - config.burn_in, kernel.p))
    gamma_out = np.empty(beta_out.shape, dtype=np.int8) if state.gamma is not None else None

    for g in range(config.n_draws):
        try:
            kernel.sweep(state, rngs)
            _check_invariants(state)
        except (ValueError, FloatingPointError, OverflowError) as exc:  # LinAlgError is a ValueError
            if len(members) > 1:
                return [out for member in members for out in _run_batch(kernel_type, prior, config, [member])]
            error = GibbsNumericalError(str(exc), members[0][1][1], g)
            error.__cause__ = exc
            return [error]

        if g >= config.burn_in:
            beta_out[:, g - config.burn_in] = state.beta
            if gamma_out is not None:
                gamma_out[:, g - config.burn_in] = state.gamma
    return [(beta_out[r], None if gamma_out is None else gamma_out[r]) for r in range(len(members))]


def run_chain(data, prior: PriorSpec, config, jobs: int = 1, intercept: bool = False):
    """Run config.n_chains independent Gibbs chains on data and collect their retained draws.

    With intercept set, the constant column is prepended to the features
    before the kernel reads the prior. Each chain is a member (dataset,
    seed, chain index) with its own substream(seed, chain_index), stepped
    in lockstep with the other members of its `map_batches` batch; the draws
    are identical however members are batched, and assembly is always
    ordered by chain index. The first failed chain raises its
    GibbsNumericalError.

    data and config may instead be equal-length lists, one fit per dataset,
    whose datasets share n and p and whose configs share n_draws and
    burn_in: a study's batch of replications. Every chain of every fit is a
    member, and the result lists, per fit, its PosteriorDraws or the
    GibbsNumericalError of its first failed chain. Unequal lists, or datasets
    that differ in n or p, raise ValueError; empty lists give [].
    """
    fits = not isinstance(data, Dataset)
    datasets, configs = (list(data), list(config)) if fits else ([data], [config])
    if len(datasets) != len(configs):
        raise ValueError(f"got {len(datasets)} datasets but {len(configs)} configs")
    if not datasets:
        return []
    shapes = {d.features.shape for d in datasets}
    if len(shapes) > 1:
        raise ValueError(f"the datasets must share n and p, got (n, p) in {sorted(shapes)}")
    if intercept:
        datasets = [Dataset(add_intercept(d.features), d.actions, d.rewards, d.rho) for d in datasets]
    kernel_type = next((k for prior_type, k in _KERNELS if isinstance(prior, prior_type)), None)
    if kernel_type is None:
        raise TypeError(f"unknown prior type {type(prior)!r}")
    if len({(c.n_draws, c.burn_in) for c in configs}) > 1:
        raise ValueError("the fits of a batch must share n_draws and burn_in")
    members = [(d, (c.seed, chain)) for d, c in zip(datasets, configs) for chain in range(c.n_chains)]
    chains = iter(map_batches(partial(_run_batch, kernel_type, prior, configs[0]), members, jobs))
    results = []
    for c in configs:
        own = [next(chains) for _ in range(c.n_chains)]
        failed = next((out for out in own if isinstance(out, GibbsNumericalError)), None)
        if failed is None:
            betas, gammas = zip(*own)
            results.append(PosteriorDraws(np.stack(betas), None if gammas[0] is None else np.stack(gammas), intercept))
        else:
            results.append(failed)
    if not fits and isinstance(results[0], GibbsNumericalError):
        raise results[0]
    return results if fits else results[0]
