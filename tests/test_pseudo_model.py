import math
from types import SimpleNamespace

import numpy as np
import pytest
from scipy import integrate

from bowl.pseudo_model import (
    DataError,
    Dataset,
    ExponentialPowerPrior,
    NormalPrior,
    SpikeSlabPrior,
    add_intercept,
    feature_scales,
    load_dataset_csv,
    owl_weights,
    prior_scales,
    reward_transform,
)
from bowl.rng import substream


def random_dataset(seed, n=5, p=3, rho=0.4):
    rng = substream(seed)
    return Dataset(
        features=rng.uniform(-1, 1, size=(n, p)),
        actions=np.where(rng.uniform(size=n) < rho, 1.0, -1.0),
        rewards=rng.uniform(0.2, 4.0, size=n),
        rho=rho,
    )


# The weighted-hinge objective and its pseudo-likelihood: test oracles, which
# the sampler never evaluates (it works with the lam-augmented form).


def _check_dims(beta: np.ndarray, data: Dataset) -> None:
    if beta.shape != (data.p,):
        raise ValueError(f"beta has length {beta.size}, expected {data.p}")


def hinge_losses(beta, data: Dataset) -> np.ndarray:
    """Per-observation hinge terms max(1 - a_i x_i'beta, 0)."""
    b = np.asarray(beta, dtype=float).ravel()
    _check_dims(b, data)
    return np.maximum(1.0 - data.actions * (data.features @ b), 0.0)


def owl_objective(beta, data: Dataset) -> float:
    """(1/n) sum_i w_i max(1 - a_i x_i'beta, 0)."""
    if data.n == 0:
        return 0.0
    return float(np.mean(owl_weights(data) * hinge_losses(beta, data)))


def log_pseudo_likelihood(beta, data: Dataset) -> float:
    """-2 sum_i w_i max(1 - a_i x_i'beta, 0); equals -2n * owl_objective."""
    if data.n == 0:
        return 0.0
    return float(-2.0 * np.sum(owl_weights(data) * hinge_losses(beta, data)))


def one_row_weight(a, r, rho):
    return owl_weights(Dataset(np.zeros((1, 1)), np.array([a]), np.array([r]), rho))[0]


class TestOwlWeight:
    def test_positive_action(self):
        assert one_row_weight(1.0, 2.0, 0.5) == pytest.approx(4.0)

    def test_negative_action_symmetric_rho(self):
        assert one_row_weight(-1.0, 2.0, 0.5) == pytest.approx(4.0)

    def test_negative_action_asymmetric_rho(self):
        assert one_row_weight(-1.0, 3.0, 0.25) == pytest.approx(4.0)

    def test_rejects_nonpositive_reward(self):
        for r in (0.0, -1.0):
            with pytest.raises(DataError):
                one_row_weight(1.0, r, 0.5)

    def test_vector_weights_match_scalar(self):
        data = random_dataset(0)
        w = owl_weights(data)
        for i in range(data.n):
            a, r, rho = data.actions[i], data.rewards[i], data.rho
            assert w[i] == pytest.approx(r / rho if a == 1 else r / (1 - rho))


class TestOwlObjective:
    def test_zero_beta_hinge_is_one(self):
        data = Dataset(
            features=np.array([[0.3, 0.1], [0.2, -0.5]]),
            actions=np.array([1.0, -1.0]),
            rewards=np.array([1.0, 1.0]),
            rho=0.5,
        )
        assert owl_objective(np.zeros(2), data) == pytest.approx(2.0)

    def test_clipped_hinge_is_zero(self):
        data = Dataset(np.array([[1.0, 0.0]]), np.array([1.0]), np.array([1.0]), 0.5)
        assert owl_objective(np.array([2.0, 0.0]), data) == 0.0

    def test_matches_loop_oracle(self):
        data = random_dataset(1)
        beta = substream(2).normal(size=data.p)
        expected = 0.0
        for i in range(data.n):
            a, r = data.actions[i], data.rewards[i]
            w = r / data.rho if a == 1 else r / (1 - data.rho)
            expected += w * max(1.0 - data.actions[i] * float(data.features[i] @ beta), 0.0)
        expected /= data.n
        assert owl_objective(beta, data) == pytest.approx(expected, abs=1e-12)

    def test_accepts_array_like_coefficients(self):
        data = random_dataset(1)
        beta = substream(2).normal(size=data.p)
        assert owl_objective(list(beta), data) == owl_objective(beta, data)
        assert owl_objective(beta[:, None], data) == owl_objective(beta, data)

    def test_permutation_invariant(self):
        data = random_dataset(3, n=8)
        beta = substream(4).normal(size=data.p)
        perm = substream(5).permutation(data.n)
        shuffled = Dataset(data.features[perm], data.actions[perm], data.rewards[perm], data.rho)
        assert owl_objective(beta, shuffled) == pytest.approx(owl_objective(beta, data), rel=1e-12)

    def test_scales_linearly_in_rewards(self):
        data = random_dataset(6)
        beta = substream(7).normal(size=data.p)
        scaled = Dataset(data.features, data.actions, 3.5 * data.rewards, data.rho)
        assert owl_objective(beta, scaled) == pytest.approx(3.5 * owl_objective(beta, data), rel=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            owl_objective(np.zeros(4), random_dataset(0, p=3))


class TestLogPseudoLikelihood:
    def test_identity_with_objective(self):
        data = random_dataset(8)
        beta = substream(9).normal(size=data.p)
        assert log_pseudo_likelihood(beta, data) == pytest.approx(
            -2.0 * data.n * owl_objective(beta, data), abs=1e-12
        )

    def test_separating_beta_gives_zero(self):
        data = Dataset(
            features=np.array([[1.0], [-1.0]]),
            actions=np.array([1.0, -1.0]),
            rewards=np.array([2.0, 1.0]),
            rho=0.5,
        )
        # a_i x_i'beta = 2 for both rows: margins are negative, hinges vanish.
        assert log_pseudo_likelihood(np.array([2.0]), data) == 0.0

    def test_matches_per_term_oracle(self):
        data = random_dataset(10)
        beta = substream(11).normal(size=data.p)
        expected = sum(
            -2.0
            * (data.rewards[i] / (data.rho if data.actions[i] == 1 else 1 - data.rho))
            * max(1.0 - data.actions[i] * float(data.features[i] @ beta), 0.0)
            for i in range(data.n)
        )
        assert log_pseudo_likelihood(beta, data) == pytest.approx(expected, abs=1e-12)


def log_pseudo_posterior(state, data, prior):
    """Joint log density of the augmented state, up to an additive constant.

    `state` carries beta and the positive scale augmentation lam (length n),
    plus omega (exponential-power prior) or gamma (spike-and-slab). The data
    part is the scale-mixture-of-normals form whose lam-marginal recovers
    exp(log_pseudo_likelihood) exactly.
    """
    beta = np.asarray(state.beta, dtype=float).ravel()
    if beta.shape != (data.p,):
        raise ValueError(f"beta has length {beta.size}, expected {data.p}")
    lam = np.asarray(state.lam, dtype=float).ravel()
    if lam.shape != (data.n,):
        raise ValueError(f"lam has length {lam.size}, expected {data.n}")
    if data.n > 0 and not np.all(lam > 0):
        raise ValueError("lam must be strictly positive")

    total = 0.0
    if data.n > 0:
        w = owl_weights(data)
        resid = w + lam - w * data.actions * (data.features @ beta)
        total += float(-0.5 * np.sum(np.log(lam) + resid**2 / lam))

    if isinstance(prior, NormalPrior):
        mu0 = prior.mu0_vector(data.p)
        total += float(-0.5 * np.sum((beta - mu0) ** 2) / prior.sigma0_sq)
    elif isinstance(prior, ExponentialPowerPrior):
        omega = np.asarray(state.omega, dtype=float).ravel()
        if omega.shape != beta.shape or not np.all(omega > 0):
            raise ValueError("omega must be positive and length p")
        sigma_sq = np.asarray(prior.sigma_j, dtype=float) ** 2
        total += float(
            -0.5 * np.sum(np.log(omega) + beta**2 / (prior.nu**2 * sigma_sq * omega) + omega)
        )
    elif isinstance(prior, SpikeSlabPrior):
        gamma = np.asarray(state.gamma).astype(bool).ravel()
        if gamma.shape != beta.shape:
            raise ValueError("gamma must be length p")
        if np.any(beta[~gamma] != 0.0):
            raise ValueError("beta must be exactly zero where gamma is zero")
        sigma_sq = np.asarray(prior.sigma_j, dtype=float) ** 2
        active = gamma
        slab_var = prior.nu**2 * sigma_sq[active]
        total += float(
            -0.5 * np.sum(np.log(2.0 * math.pi * slab_var) + beta[active] ** 2 / slab_var)
        )
        total += float(np.sum(np.where(gamma, math.log(prior.pi_incl), math.log1p(-prior.pi_incl))))
    else:
        raise TypeError(f"unknown prior type {type(prior)!r}")
    return total


class TestLogPseudoPosterior:
    def test_matches_term_by_term_oracle_normal_prior(self):
        data = random_dataset(12)
        prior = NormalPrior(mu0=0.3, sigma0_sq=2.0)
        beta = prior.mu0_vector(data.p)
        w = owl_weights(data)
        lam = np.abs(w * (1.0 - data.actions * (data.features @ beta))) + 0.1
        state = SimpleNamespace(beta=beta, lam=lam, omega=None, gamma=None)
        value = log_pseudo_posterior(state, data, prior)
        expected = 0.0
        for i in range(data.n):
            resid = w[i] + lam[i] - w[i] * data.actions[i] * float(data.features[i] @ beta)
            expected += -0.5 * (math.log(lam[i]) + resid**2 / lam[i])
        expected += -0.5 * float(np.sum((beta - 0.3) ** 2)) / 2.0
        assert value == pytest.approx(expected, abs=1e-10)
        assert math.isfinite(value)

    def test_lambda_marginalization_recovers_hinge_exponential(self):
        # Integrating the augmented kernel over one lam recovers
        # exp(-2 w max(1 - a x'beta, 0)) by the scale-mixture identity.
        w, margin = 1.7, 0.4  # u = w * margin
        u = w * margin

        def integrand(lam):
            return math.exp(-((u + lam) ** 2) / (2.0 * lam)) / math.sqrt(2.0 * math.pi * lam)

        val, _ = integrate.quad(integrand, 0, np.inf, epsabs=1e-12, limit=200)
        assert val == pytest.approx(math.exp(-2.0 * max(u, 0.0)), abs=1e-6)

    def test_quadratic_in_beta_for_fixed_lambda(self):
        data = random_dataset(13)
        prior = NormalPrior(0.0, 1.0)
        lam = substream(14).uniform(0.5, 2.0, size=data.n)
        direction = substream(15).normal(size=data.p)
        beta0 = substream(16).normal(size=data.p)

        def f(t):
            state = SimpleNamespace(beta=beta0 + t * direction, lam=lam)
            return log_pseudo_posterior(state, data, prior)

        h = 1e-3
        second_diffs = [
            (f(t + h) - 2.0 * f(t) + f(t - h)) / h**2 for t in np.linspace(-1.0, 1.0, 7)
        ]
        assert np.ptp(second_diffs) < 1e-6 * max(1.0, abs(second_diffs[0]))

    def test_ep_and_ss_prior_terms(self):
        data = random_dataset(17)
        sigma = feature_scales(data.features)
        lam = np.ones(data.n)
        ep = ExponentialPowerPrior(nu=0.8, sigma_j=sigma)
        beta = substream(18).normal(size=data.p)
        omega = substream(19).uniform(0.5, 2.0, size=data.p)
        base = log_pseudo_posterior(SimpleNamespace(beta=beta, lam=lam), data, NormalPrior(0.0, 1e12))
        val_ep = log_pseudo_posterior(SimpleNamespace(beta=beta, lam=lam, omega=omega), data, ep)
        expected_ep = base + float(
            np.sum(-0.5 * (np.log(omega) + beta**2 / (0.8**2 * sigma**2 * omega) + omega))
        )
        assert val_ep == pytest.approx(expected_ep, abs=1e-6)

        ss = SpikeSlabPrior(nu=0.8, pi_incl=0.3, sigma_j=sigma)
        gamma = np.array([1] + [0] * (data.p - 1))
        beta_ss = np.zeros(data.p)
        beta_ss[0] = 0.7
        val_ss = log_pseudo_posterior(
            SimpleNamespace(beta=beta_ss, lam=lam, gamma=gamma), data, ss
        )
        slab_var = 0.8**2 * sigma[0] ** 2
        expected_ss = (
            log_pseudo_posterior(SimpleNamespace(beta=beta_ss, lam=lam), data, NormalPrior(0.0, 1e12))
            - 0.5 * (math.log(2 * math.pi * slab_var) + 0.7**2 / slab_var)
            + math.log(0.3)
            + (data.p - 1) * math.log(0.7)
        )
        assert val_ss == pytest.approx(expected_ss, abs=1e-6)

    def test_rejects_nonpositive_lambda(self):
        data = random_dataset(20)
        state = SimpleNamespace(beta=np.zeros(data.p), lam=np.zeros(data.n))
        with pytest.raises(ValueError):
            log_pseudo_posterior(state, data, NormalPrior())

    def test_ss_rejects_nonzero_excluded_beta(self):
        data = random_dataset(21)
        prior = SpikeSlabPrior(sigma_j=feature_scales(data.features))
        state = SimpleNamespace(
            beta=np.ones(data.p), lam=np.ones(data.n), gamma=np.zeros(data.p, dtype=int)
        )
        with pytest.raises(ValueError):
            log_pseudo_posterior(state, data, prior)

    def test_mode_consistency_with_flat_prior(self):
        # With a nearly flat prior the lam-marginalized pseudo-posterior is
        # -2n * objective, so grid argmax and argmin must coincide.
        data = random_dataset(22, n=20, p=2)
        grid = np.linspace(-2, 2, 81)
        obj = np.empty((81, 81))
        logpost = np.empty((81, 81))
        for i, b1 in enumerate(grid):
            for j, b2 in enumerate(grid):
                beta = np.array([b1, b2])
                obj[i, j] = owl_objective(beta, data)
                logpost[i, j] = log_pseudo_likelihood(beta, data) - float(
                    np.sum(beta**2)
                ) / (2.0 * 1e8)
        min_idx = np.unravel_index(np.argmin(obj), obj.shape)
        max_idx = np.unravel_index(np.argmax(logpost), logpost.shape)
        assert abs(min_idx[0] - max_idx[0]) <= 1 and abs(min_idx[1] - max_idx[1]) <= 1


class TestRewardTransform:
    def test_already_positive_is_identity(self):
        out, shift = reward_transform(np.array([1.0, 2.0, 3.0]))
        np.testing.assert_array_equal(out, [1.0, 2.0, 3.0])
        assert shift == 0.0

    def test_shift_rule(self):
        out, shift = reward_transform(np.array([-1.0, 0.0, 1.0]))
        assert shift == pytest.approx(1.002)
        np.testing.assert_allclose(out, [0.002, 1.002, 2.002])

    def test_degenerate_constant_vector(self):
        out, shift = reward_transform(np.zeros(3))
        np.testing.assert_allclose(out, [0.001, 0.001, 0.001])
        assert shift == pytest.approx(0.001)

    def test_distance_preserving(self):
        raw = substream(23).normal(size=50)
        out, _ = reward_transform(raw)
        np.testing.assert_allclose(
            out[:, None] - out[None, :], raw[:, None] - raw[None, :], atol=1e-12
        )

    def test_empty_rejected(self):
        with pytest.raises(DataError):
            reward_transform(np.array([]))


class TestDatasetAndCsv:
    def test_dataset_validation(self):
        with pytest.raises(DataError):
            Dataset(np.ones((2, 2)), np.array([1.0, 2.0]), np.ones(2), 0.5)
        with pytest.raises(DataError):
            Dataset(np.ones((2, 2)), np.array([1.0, -1.0]), np.array([1.0, -0.5]), 0.5)
        with pytest.raises(DataError):
            Dataset(np.ones((2, 2)), np.array([1.0, -1.0]), np.ones(2), 1.5)

    def test_empty_dataset_allowed_for_prior_recovery(self):
        data = Dataset(np.empty((0, 3)), np.empty(0), np.empty(0), 0.5)
        assert data.n == 0 and data.p == 3

    def test_feature_scales_constant_column(self):
        x = add_intercept(substream(24).uniform(-1, 1, size=(50, 2)))
        scales = feature_scales(x)
        assert scales[0] == 1.0
        assert np.all(scales[1:] > 0)

    def test_prior_scales_fills_sigma(self):
        data = random_dataset(25)
        np.testing.assert_allclose(prior_scales(ExponentialPowerPrior(nu=0.8), data.features),
                                   feature_scales(data.features))
        sigma = np.array([0.5, 1.0, 2.0])
        np.testing.assert_array_equal(prior_scales(SpikeSlabPrior(sigma_j=sigma), data.features), sigma)

    def test_csv_roundtrip(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("x1,x2,a,r\n0.5,-0.25,1,2.0\n-0.125,0.75,-1,1.5\n")
        data, shift = load_dataset_csv(path, rho=0.5)
        assert data.n == 2 and data.p == 2
        assert shift == 0.0
        np.testing.assert_allclose(data.features, [[0.5, -0.25], [-0.125, 0.75]])

    def test_csv_applies_reward_shift(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("x1,a,r\n0.5,1,-1.0\n0.25,-1,1.0\n")
        data, shift = load_dataset_csv(path, rho=0.5)
        assert shift == pytest.approx(1.002)
        assert np.all(data.rewards > 0)

    def test_csv_missing_reward_column(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("x1,x2,a\n0.5,0.5,1\n")
        with pytest.raises(DataError, match="r"):
            load_dataset_csv(path, rho=0.5)

    def test_csv_rejects_nan(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("x1,a,r\nnan,1,2.0\n")
        with pytest.raises(DataError):
            load_dataset_csv(path, rho=0.5)

    def test_csv_rejects_bad_action(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("x1,a,r\n0.5,2,2.0\n")
        with pytest.raises(DataError):
            load_dataset_csv(path, rho=0.5)

    def test_csv_rejects_ragged_rows(self, tmp_path):
        for body in ("0.5,1,2.0,7\n", "0.5,1\n"):
            path = tmp_path / "data.csv"
            path.write_text("x1,a,r\n0.25,-1,1.0\n" + body)
            with pytest.raises(DataError, match="ragged rows") as exc:
                load_dataset_csv(path, rho=0.5)
            assert str(path) in str(exc.value) and "line 3" in str(exc.value)

    def test_csv_errors_name_the_file(self, tmp_path):
        cases = {
            "empty": "",
            "comments_only": "# nothing here\n",
            "header_only": "x1,a,r\n",
            "non_numeric": "x1,a,r\n0.5,1,abc\n",
            "inf": "x1,a,r\n0.5,1,inf\n",
        }
        for name, text in cases.items():
            path = tmp_path / f"{name}.csv"
            path.write_text(text)
            with pytest.raises(DataError, match=str(path)):
                load_dataset_csv(path, rho=0.5)

    def test_csv_keeps_reader_semantics(self, tmp_path):
        # Quoted cells, blank lines, indented comment rows and CRLF endings parse as before.
        path = tmp_path / "data.csv"
        lines = ["  # leading comment", "x1, a ,r", "", '"0.5",1,2.0', "  # mid comment", "-0.25,-1,1.5"]
        path.write_text("\r\n".join(lines) + "\r\n")
        data, _ = load_dataset_csv(path, rho=0.5)
        np.testing.assert_array_equal(data.features, [[0.5], [-0.25]])
        np.testing.assert_array_equal(data.actions, [1.0, -1.0])
