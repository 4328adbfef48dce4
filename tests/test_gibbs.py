import itertools
import math
import os
import subprocess
import sys
import textwrap
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import integrate
from scipy.optimize import minimize_scalar
from scipy.stats import kstest, norm

import bowl
import bowl.gibbs
from bowl.diagnostics import effective_sample_size, split_rhat
from bowl.distributions import CHI_DEGENERATE
from bowl.gibbs import (
    BETA_ZERO_TOL,
    CanonicalRows,
    ChainState,
    GibbsConfig,
    GibbsNumericalError,
    SpikeSlabKernel,
    SuffStats,
    _canonical_order,
    _gaussian_from_natural,
    build_suffstats,
    draw_beta_ep,
    draw_beta_normal,
    draw_gamma_and_beta_ss,
    draw_lambda,
    draw_omega,
    run_chain,
)
from bowl.pseudo_model import (
    Dataset,
    ExponentialPowerPrior,
    NormalPrior,
    SpikeSlabPrior,
    add_intercept,
    feature_scales,
    owl_weights,
    prior_scales,
)
from bowl.rng import substream
from bowl.verify import check_ss_log_odds, exact_beta_cdf, oracle_instance, subset_log_marginal
from tests.test_distributions import log_density_gig_half
from tests.test_pseudo_model import log_pseudo_likelihood, log_pseudo_posterior

N = 100_000


def random_dataset(seed, n=7, p=3, rho=0.4):
    rng = substream(seed)
    return Dataset(
        features=rng.uniform(-1, 1, size=(n, p)),
        actions=np.where(rng.uniform(size=n) < rho, 1.0, -1.0),
        rewards=rng.uniform(0.2, 4.0, size=n),
        rho=rho,
    )


def duplicated_dataset(seed, n=36, p=3, rho=0.4):
    """Rows drawn with replacement from 9 distinct ones, with a column of mixed +0.0 and -0.0."""
    base = random_dataset(seed, n=9, p=p, rho=rho)
    rng = substream(seed, 1)
    idx = rng.integers(0, base.n, size=n)
    features = base.features[idx].copy()
    features[:, 1] = np.where(rng.uniform(size=n) < 0.5, 0.0, -0.0)
    return Dataset(features, base.actions[idx], base.rewards[idx], rho)


def correlated_dataset(seed, n=7, p=3, rho=0.4):
    """random_dataset's actions and rewards, with features that share one common factor (correlation ~0.9)."""
    base = random_dataset(seed, n=n, p=p, rho=rho)
    rng = substream(seed, 2)
    features = rng.standard_normal((n, 1)) + 0.3 * rng.standard_normal((n, p))
    return Dataset(features, base.actions, base.rewards, rho)


def normal_terms(prior, p):
    """The normal prior's precision and linear term, the constants draw_beta_normal takes."""
    return np.eye(p) / prior.sigma0_sq, prior.mu0_vector(p) / prior.sigma0_sq


def ss_kernel(data, prior):
    return SpikeSlabKernel(data, CanonicalRows.of(data), prior)


def lexsort_suffstats(lam, data):
    """Reference build_suffstats: the 13-key lexsort (lam, r, a, x_p..x_1) on every call."""
    lam = np.asarray(lam, dtype=float).ravel()
    keys = (lam, data.rewards, data.actions) + tuple(
        data.features[:, j] for j in range(data.p - 1, -1, -1)
    )
    order = np.lexsort(keys)
    x = data.features[order]
    a = data.actions[order]
    w = owl_weights(data)[order]
    lam_o = lam[order]
    precision = x.T @ ((w**2 / lam_o)[:, None] * x)
    precision = 0.5 * (precision + precision.T)
    linear = x.T @ (w * (1.0 + w / lam_o) * a)
    return SuffStats(precision, linear)


def cholesky_ss_reference(state, data, prior, rng):
    """Reference draw_gamma_and_beta_ss: a fresh Cholesky of the active block for every flip.

    The sweep as it was before the Schur-complement updates, for a resolved prior.
    """
    suff = lexsort_suffstats(state.lam, data)
    prior_prec = 1.0 / (prior.nu**2 * np.asarray(prior.sigma_j, dtype=float) ** 2)
    log_pi, log_one_minus_pi = math.log(prior.pi_incl), math.log1p(-prior.pi_incl)
    active = np.asarray(state.gamma, dtype=bool).copy()
    current_part = subset_log_marginal(suff.precision_data, suff.linear_data, prior_prec, active)
    for j in range(data.p):
        flipped = active.copy()
        flipped[j] = not flipped[j]
        flipped_part = subset_log_marginal(suff.precision_data, suff.linear_data, prior_prec, flipped)
        if active[j]:
            log_w1, log_w0 = current_part + log_pi, flipped_part + log_one_minus_pi
        else:
            log_w1, log_w0 = flipped_part + log_pi, current_part + log_one_minus_pi
        prob_include = 1.0 / (1.0 + math.exp(min(log_w0 - log_w1, 700.0)))
        include = rng.uniform() < prob_include
        if include != active[j]:
            active[j] = include
            current_part = flipped_part
    beta = np.zeros(data.p)
    idx = np.flatnonzero(active)
    if idx.size > 0:
        b_inv = suff.precision_data[np.ix_(idx, idx)] + np.diag(prior_prec[idx])
        beta[idx] = _gaussian_from_natural(b_inv, suff.linear_data[idx], rng)
    return active.astype(np.int8), beta


def reference_reciprocal_ig(mu, rng):
    """1 / IG(mu, 1) by the textbook Michael-Schucany-Haas steps, one expression each."""
    y = rng.standard_normal(size=mu.shape) ** 2
    t = mu * y / 2.0
    x_small = mu / (1.0 + t + np.sqrt(t * t + 2.0 * t))
    u = rng.uniform(size=mu.shape)
    return 1.0 / np.where(u <= mu / (mu + x_small), x_small, mu * mu / x_small)


def reference_chain(data, prior, config):
    """Reference run_chain (no intercept): every sweep's arithmetic written out, one chain after another.

    The lambda, omega and beta updates are the formulas the sampler had before
    its per-prior kernels; build_suffstats is `lexsort_suffstats` and the ss
    sweep is `cholesky_ss_reference`. Returns the retained beta and gamma draws
    (gamma all ones outside ss).
    """
    if not isinstance(prior, NormalPrior):
        prior = replace(prior, sigma_j=prior_scales(prior, data.features))
    p, w, kept = data.p, owl_weights(data), config.n_draws - config.burn_in
    betas, gammas = np.empty((config.n_chains, kept, p)), np.empty((config.n_chains, kept, p), dtype=np.int8)
    for chain in range(config.n_chains):
        rng = substream(config.seed, chain)
        beta, lam, omega, gamma = np.zeros(p), np.ones(data.n), np.ones(p), np.ones(p, dtype=np.int8)
        for g in range(config.n_draws):
            if not isinstance(prior, SpikeSlabPrior):
                suff = lexsort_suffstats(lam, data)
                if isinstance(prior, NormalPrior):
                    b_inv = suff.precision_data + np.eye(p) / prior.sigma0_sq
                    b_vec = suff.linear_data + prior.mu0_vector(p) / prior.sigma0_sq
                else:
                    b_inv = suff.precision_data + np.diag(1.0 / (prior.nu**2 * prior.sigma_j**2 * omega))
                    b_vec = suff.linear_data
                beta = _gaussian_from_natural(b_inv, b_vec, rng)
            chi = (w * (1.0 - data.actions * (data.features @ beta))) ** 2
            small = chi < CHI_DEGENERATE
            lam = np.empty(data.n)
            if small.any():
                lam[small] = rng.gamma(0.5, 2.0, size=int(small.sum()))
            if (~small).any():
                lam[~small] = reference_reciprocal_ig(np.sqrt(1.0 / chi[~small]), rng)
            if isinstance(prior, ExponentialPowerPrior):
                zero = np.abs(beta) < BETA_ZERO_TOL
                omega = np.empty(p)
                if zero.any():
                    omega[zero] = rng.gamma(0.5, 2.0, size=int(zero.sum()))
                if (~zero).any():
                    omega[~zero] = reference_reciprocal_ig(prior.nu * prior.sigma_j[~zero] / np.abs(beta[~zero]), rng)
            if isinstance(prior, SpikeSlabPrior):
                gamma, beta = cholesky_ss_reference(SimpleNamespace(lam=lam, gamma=gamma), data, prior, rng)
            if g >= config.burn_in:
                betas[chain, g - config.burn_in], gammas[chain, g - config.burn_in] = beta, gamma
    return betas, gammas


class TestDrawLambda:
    def test_unit_margin_gives_chisquare_one(self):
        # a x'beta = 1 makes chi vanish; the draw degenerates to chi-square(1).
        data = Dataset(np.array([[0.5]]), np.array([1.0]), np.array([1.0]), 0.5)
        rng = substream(30)
        draws = np.array([draw_lambda(np.array([2.0]), data, rng, owl_weights(data))[0] for _ in range(N // 4)])
        assert abs(draws.mean() - 1.0) < 3 * math.sqrt(2.0 / (N // 4))

    def test_reciprocal_mean_at_chi_four(self):
        # w = 2 at zero margin: chi = 4, E[1/lam] = 1/sqrt(chi) = 0.5.
        data = Dataset(np.array([[0.0]]), np.array([1.0]), np.array([1.0]), 0.5)
        rng = substream(31)
        draws = np.array([draw_lambda(np.zeros(1), data, rng, owl_weights(data))[0] for _ in range(N // 4)])
        se = math.sqrt(4.0**-1.5 / (N // 4))
        assert abs((1.0 / draws).mean() - 0.5) < 3 * se

    def test_independent_across_observations(self):
        data = random_dataset(32, n=2)
        rng = substream(33)
        beta = np.zeros(data.p)
        draws = np.array([draw_lambda(beta, data, rng, owl_weights(data)) for _ in range(N // 2)])
        corr = np.corrcoef(draws.T)[0, 1]
        assert abs(corr) < 0.02


class TestBuildSuffstats:
    def test_single_observation_closed_form(self):
        # w = 1, lam = 1: precision = w^2/lam = 1, linear = w(1 + w/lam) = 2.
        data = Dataset(np.array([[1.0]]), np.array([1.0]), np.array([0.5]), 0.5)
        suff = build_suffstats(np.ones(1), CanonicalRows.of(data))
        assert suff.precision_data[0, 0] == pytest.approx(1.0)
        assert suff.linear_data[0] == pytest.approx(2.0)

    def test_matches_loop_oracle(self):
        data = random_dataset(34)
        lam = substream(35).uniform(0.5, 2.0, size=data.n)
        suff = build_suffstats(lam, CanonicalRows.of(data))
        precision = np.zeros((data.p, data.p))
        linear = np.zeros(data.p)
        for i in range(data.n):
            a, r = data.actions[i], data.rewards[i]
            w = r / data.rho if a == 1 else r / (1 - data.rho)
            ax = a * data.features[i]
            precision += np.outer(ax, ax) * (w**2 / lam[i])
            linear += w * (1.0 + w / lam[i]) * ax
        np.testing.assert_allclose(suff.precision_data, precision, atol=1e-12)
        np.testing.assert_allclose(suff.linear_data, linear, atol=1e-12)

    def test_permutation_bit_exact(self):
        for data in (random_dataset(36, n=12), duplicated_dataset(36)):
            lam = substream(37).uniform(0.5, 2.0, size=data.n)
            suff = build_suffstats(lam, CanonicalRows.of(data))
            perm = substream(38).permutation(data.n)
            shuffled = Dataset(data.features[perm], data.actions[perm], data.rewards[perm], data.rho)
            suff_p = build_suffstats(lam[perm], CanonicalRows.of(shuffled))
            np.testing.assert_array_equal(suff.precision_data, suff_p.precision_data)
            np.testing.assert_array_equal(suff.linear_data, suff_p.linear_data)

    @pytest.mark.parametrize("lam_kind", ["distinct", "tied", "all_equal"])
    def test_matches_lexsort_reference_bit_exact(self, lam_kind):
        # Duplicated rows and +-0.0 entries form the tie groups that lam breaks, so they
        # take the per-call sort; tie-free rows take the order gathered once.
        for make_data, seed in itertools.product(
            (duplicated_dataset, random_dataset, correlated_dataset), range(5)
        ):
            data = make_data(100 + seed, n=36)
            rows = CanonicalRows.of(data)
            assert (rows.tied_rank is not None) == (make_data is duplicated_dataset)
            rng = substream(110, seed)
            lam = {
                "distinct": rng.uniform(0.5, 2.0, size=data.n),
                "tied": rng.choice([0.5, 1.0, 2.0], size=data.n),
                "all_equal": np.ones(data.n),
            }[lam_kind]
            ref = lexsort_suffstats(lam, data)
            suff = build_suffstats(lam, rows)
            np.testing.assert_array_equal(suff.precision_data, ref.precision_data)
            np.testing.assert_array_equal(suff.linear_data, ref.linear_data)

    def test_canonical_rank_ties_exact_duplicates_only(self):
        data = Dataset(
            np.array([[0.0, 1.0], [-0.0, 1.0], [0.0, 1.0], [0.0, 2.0], [-1.0, 5.0]]),
            np.array([1.0, 1.0, -1.0, 1.0, 1.0]),
            np.array([1.0, 1.0, 1.0, 1.0, 1.0]),
            0.5,
        )
        order, rank = _canonical_order(data.features, data.actions, owl_weights(data))
        np.testing.assert_array_equal(order, [4, 2, 0, 1, 3])
        np.testing.assert_array_equal(rank, [1, 2, 3, 3, 4])

    def test_rejects_nonpositive_lambda(self):
        data = random_dataset(39)
        with pytest.raises(ValueError):
            build_suffstats(np.zeros(data.n), CanonicalRows.of(data))


class TestDrawBetaNormal:
    def test_prior_recovery_without_data(self):
        empty = Dataset(np.empty((0, 2)), np.empty(0), np.empty(0), 0.5)
        suff = build_suffstats(np.empty(0), CanonicalRows.of(empty))
        np.testing.assert_array_equal(suff.precision_data, np.zeros((2, 2)))
        np.testing.assert_array_equal(suff.linear_data, np.zeros(2))
        prior = NormalPrior(mu0=np.array([0.5, -1.0]), sigma0_sq=2.0)
        rng = substream(40)
        draws = np.array([draw_beta_normal(suff, *normal_terms(prior, empty.p), rng) for _ in range(N // 4)])
        se = math.sqrt(2.0 / (N // 4))
        assert np.all(np.abs(draws.mean(axis=0) - [0.5, -1.0]) < 3 * se)
        assert np.all(np.abs(draws.var(axis=0) - 2.0) < 0.1 * 2.0)

    def test_scalar_closed_form(self):
        # One observation with w = 1, lam = 1: B = 1/2, b = 2, mean = 1.
        data = Dataset(np.array([[1.0]]), np.array([1.0]), np.array([0.5]), 0.5)
        suff = build_suffstats(np.ones(1), CanonicalRows.of(data))
        prior = NormalPrior(mu0=0.0, sigma0_sq=1.0)
        rng = substream(41)
        draws = np.array([draw_beta_normal(suff, *normal_terms(prior, data.p), rng)[0] for _ in range(N // 2)])
        se = math.sqrt(0.5 / (N // 2))
        assert abs(draws.mean() - 1.0) < 3 * se
        assert abs(draws.var() - 0.5) < 0.05 * 0.5

    def test_mean_matches_direct_solve(self):
        data = random_dataset(42)
        lam = substream(43).uniform(0.5, 2.0, size=data.n)
        suff = build_suffstats(lam, CanonicalRows.of(data))
        prior = NormalPrior(mu0=0.25, sigma0_sq=1.5)
        b_inv = suff.precision_data + np.eye(data.p) / prior.sigma0_sq
        target = np.linalg.solve(b_inv, suff.linear_data + 0.25 / 1.5)
        cov = np.linalg.inv(b_inv)
        rng = substream(44)
        draws = np.array([draw_beta_normal(suff, *normal_terms(prior, data.p), rng) for _ in range(N // 2)])
        se = np.sqrt(np.diag(cov) / (N // 2))
        assert np.all(np.abs(draws.mean(axis=0) - target) < 3 * se)


class TestDrawBetaEp:
    def test_huge_omega_recovers_data_only_gaussian(self):
        data = random_dataset(45)
        lam = substream(46).uniform(0.5, 2.0, size=data.n)
        suff = build_suffstats(lam, CanonicalRows.of(data))
        prior = ExponentialPowerPrior(nu=1.0, sigma_j=np.ones(data.p))
        omega = np.full(data.p, 1e12)
        target = np.linalg.solve(suff.precision_data, suff.linear_data)
        rng = substream(47)
        draws = np.array([draw_beta_ep(suff, omega, prior.nu**2 * prior.sigma_j**2, rng) for _ in range(N // 2)])
        cov = np.linalg.inv(suff.precision_data)
        se = np.sqrt(np.diag(cov) / (N // 2))
        assert np.all(np.abs(draws.mean(axis=0) - target) < 4 * se)

    def test_scalar_closed_form(self):
        from bowl.gibbs import SuffStats

        suff = SuffStats(np.array([[1.0]]), np.array([2.0]))
        prior = ExponentialPowerPrior(nu=1.0, sigma_j=np.ones(1))
        rng = substream(48)
        draws = np.array(
            [draw_beta_ep(suff, np.ones(1), prior.nu**2 * prior.sigma_j**2, rng)[0] for _ in range(N // 2)]
        )
        se = math.sqrt(0.5 / (N // 2))
        assert abs(draws.mean() - 1.0) < 3 * se
        assert abs(draws.var() - 0.5) < 0.05 * 0.5

    def test_mean_norm_nondecreasing_in_nu(self):
        # Growing nu weakens the ridge, so the conditional mean can only grow.
        rng = substream(49)
        for _ in range(5):
            data = random_dataset(int(rng.integers(0, 10_000)), n=9, p=3)
            lam = rng.uniform(0.5, 2.0, size=data.n)
            suff = build_suffstats(lam, CanonicalRows.of(data))
            sigma = np.full(data.p, 0.7)
            norms = []
            for nu in (0.2, 0.5, 1.0, 2.0, 5.0):
                b_inv = suff.precision_data + np.diag(1.0 / (nu**2 * sigma**2))
                norms.append(np.linalg.norm(np.linalg.solve(b_inv, suff.linear_data)))
            assert np.all(np.diff(norms) >= -1e-12)

    def test_rejects_nonpositive_omega(self):
        data = random_dataset(50)
        suff = build_suffstats(np.ones(data.n), CanonicalRows.of(data))
        prior = ExponentialPowerPrior(nu=1.0, sigma_j=np.ones(data.p))
        with pytest.raises(ValueError):
            draw_beta_ep(suff, np.zeros(data.p), prior.nu**2 * prior.sigma_j**2, substream(51))


class TestDrawOmega:
    def test_unit_mean_case(self):
        # |beta_j| = nu sigma_j makes the reciprocal's mean exactly 1.
        prior = ExponentialPowerPrior(nu=0.8, sigma_j=np.array([0.5]))
        beta = np.array([0.4])
        rng = substream(52)
        draws = np.array([draw_omega(beta, prior.nu * prior.sigma_j, rng)[0] for _ in range(N // 2)])
        recip = 1.0 / draws
        se = recip.std(ddof=1) / math.sqrt(recip.size)
        assert abs(recip.mean() - 1.0) < 3 * se

    def test_zero_beta_takes_the_conditional_limit(self):
        prior = ExponentialPowerPrior(nu=0.8, sigma_j=np.ones(1))
        rng = substream(53)
        draws = np.array([draw_omega(np.zeros(1), prior.nu * prior.sigma_j, rng)[0] for _ in range(N // 2)])
        # GIG(1/2, 1, 0) = Gamma(1/2, rate 1/2): mean 1, variance 2.
        se = math.sqrt(2.0 / (N // 2))
        assert abs(draws.mean() - 1.0) < 3 * se

    def test_reciprocal_mean_half(self):
        prior = ExponentialPowerPrior(nu=1.0, sigma_j=np.ones(1))
        beta = np.array([2.0])  # nu sigma / |beta| = 0.5
        rng = substream(54)
        draws = np.array([draw_omega(beta, prior.nu * prior.sigma_j, rng)[0] for _ in range(N // 2)])
        recip = 1.0 / draws
        se = recip.std(ddof=1) / math.sqrt(recip.size)
        assert abs(recip.mean() - 0.5) < 3 * se


def enumeration_inclusion_prob(data: Dataset, prior: SpikeSlabPrior, lam: np.ndarray) -> float:
    """Brute-force p = 1 oracle: integrate both gamma configurations directly."""
    suff = build_suffstats(lam, CanonicalRows.of(data))
    p_term = float(suff.precision_data[0, 0])
    b_term = float(suff.linear_data[0])
    slab_sd = prior.nu * float(prior.sigma_j[0])

    def integrand(t):
        return math.exp(-0.5 * p_term * t * t + b_term * t) * norm.pdf(t, scale=slab_sd)

    m1, _ = integrate.quad(integrand, -np.inf, np.inf, limit=200)
    m1 *= prior.pi_incl
    m0 = 1.0 - prior.pi_incl  # beta = 0 contributes a unit data factor
    return m1 / (m0 + m1)


class TestDrawGammaAndBetaSs:
    def test_pi_near_one_matches_unit_omega_gaussian(self):
        data = random_dataset(55, n=9, p=2)
        lam = substream(56).uniform(0.5, 2.0, size=data.n)
        sigma = np.full(data.p, 0.7)
        prior = SpikeSlabPrior(nu=0.9, pi_incl=1.0 - 1e-12, sigma_j=sigma)
        suff = build_suffstats(lam, CanonicalRows.of(data))
        b_inv = suff.precision_data + np.diag(1.0 / (0.9**2 * sigma**2))
        cov = np.linalg.inv(b_inv)
        target = cov @ suff.linear_data
        rng = substream(57)
        kernel = ss_kernel(data, prior)
        draws = []
        for _ in range(N // 5):
            state = ChainState(beta=np.zeros(data.p), lam=lam, gamma=np.ones(data.p, dtype=np.int8))
            gamma, beta = draw_gamma_and_beta_ss(state, kernel, rng)
            assert gamma.all()
            draws.append(beta)
        draws = np.array(draws)
        se = np.sqrt(np.diag(cov) / draws.shape[0])
        assert np.all(np.abs(draws.mean(axis=0) - target) < 4 * se)

    def test_p1_inclusion_matches_enumeration_oracle(self):
        data = Dataset(np.array([[0.9], [-0.6]]), np.array([1.0, -1.0]), np.array([0.5, 0.4]), 0.5)
        lam = np.array([0.8, 1.3])
        prior = SpikeSlabPrior(nu=0.8, pi_incl=0.4, sigma_j=np.array([0.75]))
        target = enumeration_inclusion_prob(data, prior, lam)
        rng = substream(58)
        kernel = ss_kernel(data, prior)
        hits = 0
        n_sweeps = 20_000
        for _ in range(n_sweeps):
            state = ChainState(beta=np.zeros(1), lam=lam, gamma=np.ones(1, dtype=np.int8))
            gamma, _ = draw_gamma_and_beta_ss(state, kernel, rng)
            hits += int(gamma[0])
        assert abs(hits / n_sweeps - target) < 0.02

    def test_informative_feature_beats_noise(self):
        # Feature 1 decides which action pays; feature 2 is noise. Rewards
        # are kept at unit scale so the sparsity prior is not drowned out.
        wins = 0
        for s in range(20):
            rng = substream(59, s)
            n = 200
            x = rng.uniform(-1, 1, size=(n, 2))
            a = np.where(rng.uniform(size=n) < 0.5, 1.0, -1.0)
            r = 0.5 * (1.0 + 0.6 * np.sign(x[:, 0]) * a) + 0.1 * rng.standard_normal(n)
            data = Dataset(x, a, np.maximum(r, 1e-3), 0.5)
            prior = SpikeSlabPrior(nu=0.8, pi_incl=0.3)
            draws = run_chain(data, prior, GibbsConfig(n_draws=300, burn_in=100, seed=1000 + s))
            incl = draws.stacked_gamma.mean(axis=0)
            wins += int(incl[0] > incl[1])
        assert wins >= 19

    def test_schur_log_odds_match_direct_marginals(self):
        # Every (S, j) of a p=5 problem, against a fresh factorization per subset.
        for seed in range(4):
            result = check_ss_log_odds(1e-10, seed)
            assert result.passed, result.detail

    def test_p3_gamma_frequencies_match_enumeration(self):
        # lam fixed: the sweeps form a Markov chain on gamma whose stationary law is
        # the exact posterior over the 2^3 configurations.
        data = random_dataset(81, n=8, p=3)
        lam = substream(81, 1).uniform(0.5, 2.0, size=data.n)
        prior = SpikeSlabPrior(nu=0.8, pi_incl=0.4, sigma_j=np.array([0.5, 0.8, 1.2]))
        suff = build_suffstats(lam, CanonicalRows.of(data))
        prior_prec = 1.0 / (prior.nu**2 * prior.sigma_j**2)
        configs = [np.array([(code >> k) & 1 for k in range(3)], dtype=bool) for code in range(8)]
        log_post = np.array([
            g.sum() * math.log(prior.pi_incl) + (~g).sum() * math.log1p(-prior.pi_incl)
            + subset_log_marginal(suff.precision_data, suff.linear_data, prior_prec, g)
            for g in configs
        ])
        exact = np.exp(log_post - log_post.max())
        exact /= exact.sum()
        assert exact.min() > 0.005  # every configuration is visited

        rng = substream(81, 2)
        kernel = ss_kernel(data, prior)
        state = ChainState(beta=np.zeros(3), lam=lam, gamma=np.ones(3, dtype=np.int8))
        counts = np.zeros(8)
        n_sweeps = 20_000
        for _ in range(n_sweeps):
            state.gamma, state.beta = draw_gamma_and_beta_ss(state, kernel, rng)
            counts[int(state.gamma @ (1 << np.arange(3)))] += 1
        assert np.abs(counts / n_sweeps - exact).max() < 0.02

    def test_nonpositive_schur_complement_raises(self, monkeypatch):
        # A_00 > 0 but the 2x2 block is indefinite: adding coordinate 1 to {0} fails
        # (pi near 1 keeps coordinate 0 in).
        data = random_dataset(82, n=5, p=2)
        prior = SpikeSlabPrior(nu=1.0, pi_incl=1.0 - 1e-12, sigma_j=np.ones(2))
        indefinite = SuffStats(np.array([[0.0, 3.0], [3.0, 0.0]]), np.ones(2))
        monkeypatch.setattr("bowl.gibbs.build_suffstats", lambda *args: indefinite)
        state = ChainState(beta=np.zeros(2), lam=np.ones(data.n), gamma=np.array([1, 0], dtype=np.int8))
        with pytest.raises(ValueError, match=r"Schur complement -8\.0 at coordinate 1$") as exc:
            draw_gamma_and_beta_ss(state, ss_kernel(data, prior), substream(83))
        assert "np.float64" not in str(exc.value)

    def test_empty_active_set_returns_zero_beta(self):
        data = random_dataset(60, n=4, p=2)
        prior = SpikeSlabPrior(nu=0.8, pi_incl=1e-12, sigma_j=np.full(2, 0.7))
        rng = substream(61)
        state = ChainState(beta=np.zeros(2), lam=np.ones(data.n), gamma=np.zeros(2, dtype=np.int8))
        gamma, beta = draw_gamma_and_beta_ss(state, ss_kernel(data, prior), rng)
        assert not gamma.any()
        np.testing.assert_array_equal(beta, np.zeros(2))


ORACLE_FEATURES = st.one_of(
    st.just(0.0), st.sampled_from([0.5, -1.0]), st.floats(0.1, 2.0), st.floats(-2.0, -0.1)
)


class TestExactBetaCdf:
    # Rows with x = 0 add no kink, the sampled values repeat kinks, and
    # weights up to 40 put a segment's Gaussian mean far outside it (the
    # examples: far above a lower segment, far below an upper one).
    @settings(max_examples=60, deadline=None)
    @given(
        rows=st.lists(
            st.tuples(ORACLE_FEATURES, st.sampled_from([-1.0, 1.0]), st.floats(0.05, 8.0)),
            min_size=1,
            max_size=6,
        ),
        rho=st.floats(0.2, 0.8),
        mu0=st.floats(-2.0, 2.0),
        sigma0_sq=st.floats(0.05, 4.0),
    )
    @example(rows=[(1.0, 1.0, 8.0), (0.0, -1.0, 1.0)], rho=0.2, mu0=0.0, sigma0_sq=4.0)
    @example(rows=[(1.0, -1.0, 8.0), (1.0, -1.0, 8.0)], rho=0.8, mu0=0.0, sigma0_sq=4.0)
    def test_matches_quadrature(self, rows, rho, mu0, sigma0_sq):
        x, a, r = map(np.array, zip(*rows))
        data = Dataset(x[:, None], a, r, rho)

        def log_target(b):
            return log_pseudo_likelihood([b], data) - (b - mu0) ** 2 / (2.0 * sigma0_sq)

        mode = minimize_scalar(lambda b: -log_target(b)).x  # the target is log-concave
        top = log_target(mode)

        def density(b):
            return math.exp(log_target(b) - top)

        sd = math.sqrt(sigma0_sq)
        kinks = [1.0 / s for s in a * x if s != 0.0]
        points = np.unique(kinks + [mode + k * sd for k in (-2.0, -0.5, 0.0, 0.5, 2.0)])
        ends = np.concatenate(([-np.inf], points, [np.inf]))
        pieces = [
            integrate.quad(density, lo, hi, epsabs=0.0, epsrel=1e-11, limit=200)[0]
            for lo, hi in zip(ends[:-1], ends[1:])
        ]
        expected = np.cumsum(pieces)[:-1] / sum(pieces)
        got = exact_beta_cdf(data, NormalPrior(mu0=mu0, sigma0_sq=sigma0_sq))(points)
        np.testing.assert_allclose(got, expected, rtol=0.0, atol=1e-8)

    def test_rejects_more_than_one_feature(self):
        with pytest.raises(ValueError):
            exact_beta_cdf(random_dataset(70), NormalPrior())


class TestRunChain:
    def test_bitwise_deterministic(self):
        data = random_dataset(62)
        config = GibbsConfig(n_draws=60, burn_in=20, n_chains=2, seed=5)
        for prior in (NormalPrior(), ExponentialPowerPrior(), SpikeSlabPrior()):
            a = run_chain(data, prior, config)
            b = run_chain(data, prior, config)
            np.testing.assert_array_equal(a.beta, b.beta)
            if a.gamma is not None:
                np.testing.assert_array_equal(a.gamma, b.gamma)

    def test_chains_differ_but_assembly_is_ordered(self):
        data = random_dataset(63)
        config = GibbsConfig(n_draws=50, burn_in=10, n_chains=2, seed=5)
        draws = run_chain(data, NormalPrior(), config)
        assert not np.array_equal(draws.beta[0], draws.beta[1])
        assert draws.beta.shape == (2, 40, data.p)
        one = run_chain(data, NormalPrior(), GibbsConfig(n_draws=50, burn_in=10, n_chains=1, seed=5))
        np.testing.assert_array_equal(draws.beta[0], one.beta[0])

    def test_parallel_chains_match_sequential(self):
        data = random_dataset(64)
        config = GibbsConfig(n_draws=40, burn_in=10, n_chains=2, seed=9)
        seq = run_chain(data, NormalPrior(), config, jobs=1)
        par = run_chain(data, NormalPrior(), config, jobs=2)
        np.testing.assert_array_equal(seq.beta, par.beta)

    @pytest.mark.parametrize("prior", [NormalPrior(), ExponentialPowerPrior(), SpikeSlabPrior()])
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_intercept_flag_matches_explicit_design(self, prior, jobs):
        data = random_dataset(65, n=30)
        design = Dataset(add_intercept(data.features), data.actions, data.rewards, data.rho)
        config = GibbsConfig(n_draws=40, burn_in=10, n_chains=2, seed=8)
        flagged = run_chain(data, prior, config, jobs=jobs, intercept=True)
        explicit = run_chain(design, prior, config, jobs=jobs)
        assert flagged.intercept is True and explicit.intercept is False
        np.testing.assert_array_equal(flagged.beta, explicit.beta)
        assert (flagged.gamma is None) == (explicit.gamma is None) == (not isinstance(prior, SpikeSlabPrior))
        if flagged.gamma is not None:
            np.testing.assert_array_equal(flagged.gamma, explicit.gamma)

    def test_empty_dataset_recovers_prior(self):
        empty = Dataset(np.empty((0, 2)), np.empty(0), np.empty(0), 0.5)
        prior = NormalPrior(mu0=np.array([1.0, -0.5]), sigma0_sq=0.8)
        draws = run_chain(empty, prior, GibbsConfig(n_draws=3000, burn_in=500, seed=2))
        stacked = draws.stacked_beta
        se = math.sqrt(0.8 / stacked.shape[0])
        assert np.all(np.abs(stacked.mean(axis=0) - [1.0, -0.5]) < 3.5 * se)
        assert np.all(np.abs(stacked.var(axis=0) - 0.8) < 0.05 * 0.8)

    def test_one_observation_matches_exact_cdf(self):
        data = Dataset(np.array([[1.0]]), np.array([1.0]), np.array([0.9]), 0.5)
        prior = NormalPrior(mu0=0.0, sigma0_sq=1.0)
        gibbs = run_chain(data, prior, GibbsConfig(n_draws=22_000, burn_in=2_000, seed=3))
        assert kstest(gibbs.stacked_beta[:, 0], exact_beta_cdf(data, prior)).statistic < 0.03

    def test_one_cycle_preserves_stationary_moments(self):
        # Start beta* from exact target draws (the exact CDF inverted at
        # stratified uniforms), push it through one full Gibbs cycle, and
        # check test-function expectations agree.
        data, prior = oracle_instance()
        size = 10_000
        grid = np.linspace(-8.0, 8.0, 32_001)
        uniforms = (np.arange(size) + substream(21).uniform(size=size)) / size
        batch = np.interp(uniforms, exact_beta_cdf(data, prior)(grid), grid)
        rng = substream(65)
        cycled = np.empty(batch.size)
        for i, beta_star in enumerate(batch):
            lam = draw_lambda(np.array([beta_star]), data, rng, owl_weights(data))
            suff = build_suffstats(lam, CanonicalRows.of(data))
            beta_new = draw_beta_normal(suff, *normal_terms(prior, data.p), rng)
            cycled[i] = beta_new[0]
        for f in (lambda x: x, lambda x: x * x, np.abs):
            target, got = f(batch), f(cycled)
            se = math.sqrt(target.var(ddof=1) / target.size + got.var(ddof=1) / got.size)
            assert abs(got.mean() - target.mean()) < 4 * se

    def test_spike_slab_zero_iff_excluded(self):
        data = random_dataset(66, n=30, p=4)
        draws = run_chain(data, SpikeSlabPrior(), GibbsConfig(n_draws=200, burn_in=50, seed=8))
        beta = draws.stacked_beta
        gamma = draws.stacked_gamma
        assert np.all((beta == 0.0) == (gamma == 0))

    def test_latents_stay_positive_and_finite(self):
        data = random_dataset(67, n=15)
        for prior in (NormalPrior(), ExponentialPowerPrior(), SpikeSlabPrior()):
            draws = run_chain(data, prior, GibbsConfig(n_draws=150, burn_in=20, seed=4))
            assert np.all(np.isfinite(draws.beta))

    @pytest.mark.parametrize("prior, rho, message", [
        (NormalPrior(mu0=np.inf), 0.4, r"prior linear term mu0/sigma0_sq is not finite \(check mu0"),
        (NormalPrior(mu0=np.array([0.0, np.nan, 0.0])), 0.4, r"prior linear term"),
        (NormalPrior(sigma0_sq=np.inf), 0.4, r"prior precision 1/sigma0_sq is not finite and positive"),
        (NormalPrior(sigma0_sq=1e-320), 0.4, r"prior precision 1/sigma0_sq"),
        (ExponentialPowerPrior(nu=1e200), 0.4, r"slab variance nu\^2 sigma_j\^2 .* \(check nu and sigma_j\)"),
        (ExponentialPowerPrior(nu=1e-200), 0.4, r"slab variance nu\^2 sigma_j\^2"),
        (ExponentialPowerPrior(sigma_j=np.array([1.0, np.inf, 1.0])), 0.4, r"slab variance"),
        (SpikeSlabPrior(nu=np.inf), 0.4, r"slab precision 1/\(nu\^2 sigma_j\^2\)"),
        (SpikeSlabPrior(nu=1e-200), 0.4, r"slab precision 1/\(nu\^2 sigma_j\^2\)"),
        (NormalPrior(), 1e-300, r"OWL weight r/rho or r/\(1 - rho\), or its square, is not finite and positive"),
        (NormalPrior(), 5e-324, r"OWL weight .* \(check rho and the rewards\)"),
    ])
    def test_a_constant_that_is_not_finite_raises_before_the_first_sweep(self, prior, rho, message, monkeypatch,
                                                                          recwarn):
        def no_sweep(*args, **kwargs):
            raise AssertionError("a sweep ran")

        monkeypatch.setattr("bowl.gibbs._run_single_chain", no_sweep)
        d = random_dataset(68)
        data = Dataset(d.features, d.actions, d.rewards, rho)
        with pytest.raises(ValueError, match=message):
            run_chain(data, prior, GibbsConfig(n_draws=10, burn_in=0, seed=1))
        assert [str(w.message) for w in recwarn] == []

    def test_numerical_failure_reports_location(self, monkeypatch):
        data = random_dataset(68)

        def explode(*args, **kwargs):
            raise np.linalg.LinAlgError("synthetic failure")

        monkeypatch.setattr("bowl.gibbs.build_suffstats", explode)
        with pytest.raises(GibbsNumericalError, match="chain 0, iteration 0"):
            run_chain(data, NormalPrior(), GibbsConfig(n_draws=10, burn_in=0, seed=1))

    @pytest.mark.parametrize(
        "prior", [NormalPrior(), ExponentialPowerPrior(), SpikeSlabPrior()], ids=["normal", "ep", "ss"]
    )
    def test_draws_match_lexsort_reference(self, monkeypatch, prior):
        # The tie fallback (duplicated rows) and the order gathered once (the other two).
        config = GibbsConfig(n_draws=40, burn_in=10, n_chains=2, seed=6)
        for make_data in (duplicated_dataset, random_dataset, correlated_dataset):
            data = make_data(69, n=36)
            real = run_chain(data, prior, config)
            with monkeypatch.context() as patch:
                patch.setattr("bowl.gibbs.build_suffstats", lambda lam, rows: lexsort_suffstats(lam, data))
                ref = run_chain(data, prior, config)
            np.testing.assert_array_equal(real.beta, ref.beta)
            if ref.gamma is not None:
                np.testing.assert_array_equal(real.gamma, ref.gamma)

    @pytest.mark.parametrize(
        "prior",
        [NormalPrior(mu0=0.3, sigma0_sq=1.5), ExponentialPowerPrior(nu=0.6), SpikeSlabPrior(nu=0.9, pi_incl=0.4)],
        ids=["normal", "ep", "ss"],
    )
    @pytest.mark.parametrize(
        "make_data", [random_dataset, duplicated_dataset, correlated_dataset], ids=["random", "duplicated", "correlated"]
    )
    def test_draws_match_reference_chain(self, prior, make_data):
        # Every byte of the draws, against the sweep arithmetic written out in `reference_chain`.
        data = make_data(86, n=36)
        config = GibbsConfig(n_draws=40, burn_in=10, n_chains=2, seed=9)
        real = run_chain(data, prior, config)
        beta, gamma = reference_chain(data, prior, config)
        np.testing.assert_array_equal(real.beta, beta)
        if real.gamma is not None:
            assert 0 < real.gamma.mean() < 1
            np.testing.assert_array_equal(real.gamma, gamma)

    @pytest.mark.parametrize(
        "make_data", [random_dataset, duplicated_dataset, correlated_dataset], ids=["random", "duplicated", "correlated"]
    )
    def test_ss_draws_match_cholesky_reference(self, monkeypatch, make_data):
        # Correlated features make a coordinate's odds depend on the flips made earlier
        # in the same sweep, so a stale inverse after a flip changes the draws.
        data = make_data(84, n=40, p=4)
        config = GibbsConfig(n_draws=60, burn_in=10, n_chains=2, seed=7)
        real = run_chain(data, SpikeSlabPrior(), config)
        prior = SpikeSlabPrior(sigma_j=prior_scales(SpikeSlabPrior(), data.features))
        monkeypatch.setattr(
            "bowl.gibbs.draw_gamma_and_beta_ss",
            lambda state, kernel, rng: cholesky_ss_reference(state, kernel.data, prior, rng),
        )
        ref = run_chain(data, SpikeSlabPrior(), config)
        assert 0 < real.gamma.mean() < 1  # the sweeps both add and drop coordinates
        np.testing.assert_array_equal(real.beta, ref.beta)
        np.testing.assert_array_equal(real.gamma, ref.gamma)

    def test_non_pd_active_block_raises_with_location(self, monkeypatch):
        # Iteration 0 starts from the full active set, whose block fails the Cholesky
        # factorization; iteration 1 starts from the empty set (pi near 0), so the
        # first add meets a negative Schur complement.
        data = random_dataset(85)
        prior = SpikeSlabPrior(pi_incl=1e-12)
        config = GibbsConfig(n_draws=5, burn_in=0, n_chains=2, seed=1)
        indefinite = SuffStats(-100.0 * np.eye(data.p), np.zeros(data.p))
        monkeypatch.setattr("bowl.gibbs.build_suffstats", lambda *args: indefinite)
        with pytest.raises(GibbsNumericalError, match="chain 0, iteration 0") as exc:
            run_chain(data, prior, config)
        assert isinstance(exc.value.__cause__, np.linalg.LinAlgError)

        calls = []

        def definite_then_indefinite(lam, rows):
            calls.append(1)
            if len(calls) == 1:
                return SuffStats(np.eye(data.p), np.zeros(data.p))
            return indefinite

        monkeypatch.setattr("bowl.gibbs.build_suffstats", definite_then_indefinite)
        with pytest.raises(GibbsNumericalError, match="chain 0, iteration 1: non-positive") as exc:
            run_chain(data, prior, config)
        assert (exc.value.chain, exc.value.iteration) == (0, 1)
        assert "np.float64" not in str(exc.value)

    def test_nonfinite_beta_raises(self, monkeypatch):
        data = random_dataset(70)
        monkeypatch.setattr("bowl.gibbs.draw_beta_normal", lambda *args: np.full(data.p, np.nan))
        with pytest.raises(GibbsNumericalError, match="chain 0, iteration 0"):
            run_chain(data, NormalPrior(), GibbsConfig(n_draws=10, burn_in=0, seed=1))

    def test_nonfinite_spike_slab_beta_raises(self, monkeypatch):
        data = random_dataset(71)
        monkeypatch.setattr(
            "bowl.gibbs.draw_gamma_and_beta_ss",
            lambda *args: (np.ones(data.p, dtype=np.int8), np.full(data.p, np.nan)),
        )
        with pytest.raises(GibbsNumericalError, match="chain 0, iteration 0: non-finite beta"):
            run_chain(data, SpikeSlabPrior(), GibbsConfig(n_draws=10, burn_in=0, seed=1))

    def test_nonpositive_lambda_raises(self, monkeypatch):
        data = random_dataset(72)
        real_draw = bowl.gibbs.draw_lambda

        def zero_first(*args):
            lam = real_draw(*args)
            lam[0] = 0.0
            return lam

        monkeypatch.setattr("bowl.gibbs.draw_lambda", zero_first)
        with pytest.raises(GibbsNumericalError, match="chain 0, iteration 0: nonpositive lam"):
            run_chain(data, NormalPrior(), GibbsConfig(n_draws=10, burn_in=0, seed=1))

    def test_invariants_raise_under_optimize_flag(self):
        # python -O strips assert statements; the chain invariants must not be asserts.
        script = textwrap.dedent(
            """
            import numpy as np
            import bowl.gibbs as g
            from bowl.pseudo_model import Dataset, NormalPrior

            data = Dataset(np.array([[0.5, 1.0], [-0.3, 0.2]]), np.array([1.0, -1.0]),
                           np.array([1.0, 2.0]), 0.5)
            real_draw = g.draw_lambda
            patches = {
                "draw_beta_normal": lambda *args: np.full(2, np.nan),
                "draw_lambda": lambda *args: real_draw(*args) * np.array([0.0, 1.0]),
            }
            for name, fake in patches.items():
                original = getattr(g, name)
                setattr(g, name, fake)
                try:
                    g.run_chain(data, NormalPrior(), g.GibbsConfig(n_draws=5, burn_in=0))
                except g.GibbsNumericalError as exc:
                    if "chain 0, iteration 0" not in str(exc):
                        raise SystemExit(f"{name}: wrong location: {exc}")
                else:
                    raise SystemExit(f"{name}: no GibbsNumericalError")
                setattr(g, name, original)
            print("ok")
            """
        )
        src = os.path.dirname(os.path.dirname(bowl.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        result = subprocess.run(
            [sys.executable, "-O", "-c", script], env=env, capture_output=True, text=True, timeout=120
        )
        assert result.returncode == 0 and result.stdout.strip() == "ok", result.stderr + result.stdout

    @pytest.mark.parametrize(
        "prior, name",
        [(NormalPrior(mu0=np.zeros(2)), "mu0"), (ExponentialPowerPrior(sigma_j=np.ones(4)), "sigma_j"),
         (SpikeSlabPrior(sigma_j=np.ones((3, 1))), "sigma_j")],
        ids=["normal", "ep", "ss"],
    )
    def test_wrong_prior_shape_rejected_before_any_chain(self, monkeypatch, prior, name):
        data = random_dataset(66)  # p = 3
        monkeypatch.setattr(bowl.gibbs, "_run_single_chain", lambda *args: pytest.fail("a chain started"))
        with pytest.raises(ValueError, match=rf"\.{name} has shape .*length p = 3"):
            run_chain(data, prior, GibbsConfig(n_draws=5, burn_in=0))

    def test_scalar_ss_sigma_broadcasts(self):
        data = random_dataset(67)
        config = GibbsConfig(n_draws=30, burn_in=5, seed=4)
        scalar = run_chain(data, SpikeSlabPrior(sigma_j=np.float64(0.7)), config)
        vector = run_chain(data, SpikeSlabPrior(sigma_j=np.full(data.p, 0.7)), config)
        np.testing.assert_array_equal(scalar.beta, vector.beta)
        np.testing.assert_array_equal(scalar.gamma, vector.gamma)


class TestConditionalsMatchJoint:
    """Each kernel's conditional, captured where it is sampled, against the augmented joint.

    The joint is `log_pseudo_posterior`: the prior times
    prod_i (2 pi lam_i)^-1/2 exp{-(w_i + lam_i - w_i a_i x_i'beta)^2 / (2 lam_i)},
    plus omega's Exponential(mean 2) mixing under ep. At a random state of
    a p=3 dataset, the log-density difference between two values of one
    block must equal the joint's with the other blocks held fixed.
    """

    @staticmethod
    def capture(monkeypatch, name):
        """Record the arguments of every call of `bowl.gibbs.<name>`, passing each through."""
        calls, original = [], getattr(bowl.gibbs, name)

        def spy(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(bowl.gibbs, name, spy)
        return calls

    @staticmethod
    def random_state(seed):
        data = random_dataset(seed, n=9)
        rng = substream(seed, 3)
        state = SimpleNamespace(
            beta=rng.normal(size=data.p), lam=rng.uniform(0.2, 3.0, size=data.n),
            omega=rng.uniform(0.3, 3.0, size=data.p), gamma=None,
        )
        return data, feature_scales(data.features), state, rng

    @staticmethod
    def joint_diff(state, data, prior, block, values):
        """The joint's log-density difference between two values of one block, the rest held at `state`."""
        v1, v2 = (log_pseudo_posterior(SimpleNamespace(**{**vars(state), block: v}), data, prior)
                  for v in values)
        return v1 - v2

    @pytest.mark.parametrize("seed", range(4))
    def test_beta_blocks(self, monkeypatch, seed):
        data, sigma, state, rng = self.random_state(seed)
        betas = rng.normal(size=(2, data.p))
        calls = self.capture(monkeypatch, "_gaussian_from_natural")
        suff = build_suffstats(state.lam, CanonicalRows.of(data))
        normal, ep = NormalPrior(mu0=0.3, sigma0_sq=1.5), ExponentialPowerPrior(nu=0.8, sigma_j=sigma)
        ss = SpikeSlabPrior(nu=0.8, pi_incl=0.9, sigma_j=sigma)
        draw_beta_normal(suff, *normal_terms(normal, data.p), rng)
        draw_beta_ep(suff, state.omega, ep.nu**2 * ep.sigma_j**2, rng)
        ss_state = ChainState(state.beta, state.lam, gamma=np.ones(data.p, dtype=np.int8))
        gamma, _ = draw_gamma_and_beta_ss(ss_state, ss_kernel(data, ss), rng)
        active = gamma.astype(bool)
        assert active.any() and len(calls) == 3
        ss_betas = np.where(active, betas, 0.0)
        cases = [(normal, state, betas, slice(None)), (ep, state, betas, slice(None)),
                 (ss, SimpleNamespace(**{**vars(state), "gamma": gamma}), ss_betas, active)]
        for (b_inv, b_vec, _), (prior, at, values, block) in zip(calls, cases):
            v1, v2 = values[0][block], values[1][block]
            conditional = (-0.5 * v1 @ b_inv @ v1 + b_vec @ v1) - (-0.5 * v2 @ b_inv @ v2 + b_vec @ v2)
            assert conditional == pytest.approx(self.joint_diff(at, data, prior, "beta", values), rel=1e-9)

    @pytest.mark.parametrize("seed", range(4))
    def test_lambda_block(self, monkeypatch, seed):
        data, _, state, rng = self.random_state(seed)
        calls = self.capture(monkeypatch, "_gig_half_draw_vec")
        draw_lambda(state.beta, data, rng, owl_weights(data))
        ((chi, _),) = calls
        values = rng.uniform(0.2, 3.0, size=(2, data.n))
        v1, v2 = (sum(map(log_density_gig_half, v, np.ones(data.n), chi)) for v in values)
        assert v1 - v2 == pytest.approx(self.joint_diff(state, data, NormalPrior(), "lam", values), rel=1e-9)

    @pytest.mark.parametrize("seed", range(4))
    def test_omega_block(self, monkeypatch, seed):
        # 1/omega ~ IG(mu, 1) makes omega ~ GIG(1/2, 1, 1 / mu^2).
        data, sigma, state, rng = self.random_state(seed)
        prior = ExponentialPowerPrior(nu=0.8, sigma_j=sigma)
        calls = self.capture(monkeypatch, "_invgauss_draw")
        draw_omega(state.beta, prior.nu * prior.sigma_j, rng)
        ((mu, _),) = calls
        values = rng.uniform(0.3, 3.0, size=(2, data.p))
        v1, v2 = (sum(log_density_gig_half(o, 1.0, 1.0 / m**2) for o, m in zip(v, mu)) for v in values)
        assert v1 - v2 == pytest.approx(self.joint_diff(state, data, prior, "omega", values), rel=1e-9)


class TestDiagnostics:
    def test_ess_near_n_for_iid(self):
        x = substream(70).standard_normal((1, 4000))
        ess = effective_sample_size(x)
        assert 2500 < ess < 5500

    def test_ess_small_for_correlated(self):
        steps = substream(71).standard_normal(4000)
        x = np.empty(4000)
        x[0] = 0.0
        for t in range(1, 4000):
            x[t] = 0.95 * x[t - 1] + steps[t]
        assert effective_sample_size(x[None, :]) < 1000

    def test_split_rhat_near_one_for_identical_chains(self):
        x = substream(72).standard_normal((2, 2000))
        assert abs(split_rhat(x) - 1.0) < 0.05

    def test_split_rhat_large_for_disjoint_chains(self):
        a = substream(73).standard_normal((1, 1000))
        chains = np.vstack([a, a + 10.0])
        assert split_rhat(chains) > 2.0

    def test_split_rhat_infinite_for_stuck_chains_at_different_values(self):
        # No within-segment spread, but the segments disagree: not converged.
        assert split_rhat([[1.0] * 6, [2.0] * 6]) == math.inf
        assert split_rhat([[1.0] * 3 + [2.0] * 3]) == math.inf
        assert split_rhat([[1.5] * 6, [1.5] * 6]) == 1.0
