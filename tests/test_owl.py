import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bowl.owl import REG_STRENGTH, fit_owl_linear, owl_problem
from bowl.pseudo_model import Dataset, add_intercept, owl_weights
from bowl.rng import substream
from tests.test_pseudo_model import owl_objective

EPOCHS = 80  # reference_owl_fit's passes over the data


def regularized_objective(beta, data):
    """The fit's own objective: mean weighted hinge plus (REG_STRENGTH/2)||beta||^2."""
    return owl_objective(beta, data) + 0.5 * REG_STRENGTH * float(beta @ beta)


def array_objective(beta, x, labels, weights):
    """regularized_objective of the problem (x, labels, weights)."""
    hinge = np.maximum(1.0 - labels * (x @ beta), 0.0)
    return float(np.mean(weights * hinge)) + 0.5 * REG_STRENGTH * float(beta @ beta) if len(x) else 0.0


def fit(data):
    """fit_owl_linear on a Dataset's positive-reward problem: labels a, weights owl_weights."""
    return fit_owl_linear(data.features, data.actions, owl_weights(data))


def random_dataset(seed, n=12, p=2, rho=0.5):
    rng = substream(seed)
    return Dataset(
        features=rng.uniform(-1, 1, size=(n, p)),
        actions=np.where(rng.uniform(size=n) < rho, 1.0, -1.0),
        rewards=rng.uniform(0.2, 4.0, size=n),
        rho=rho,
    )


def reference_owl_fit(x, labels, weights, seed):
    """The seeded subgradient-descent OWL fit (suffix-averaged over EPOCHS passes), the EM's reference."""
    rng = substream(seed)
    n, p = x.shape
    if n == 0:
        return np.zeros(p)
    step0 = 1.0 / (float(np.mean(weights * np.linalg.norm(x, axis=1))) + REG_STRENGTH)

    total_steps = EPOCHS * n
    suffix_start = total_steps // 2
    beta = np.zeros(p)
    suffix_sum = np.zeros(p)
    t = 0
    for _ in range(EPOCHS):
        for i in rng.permutation(n):
            t += 1
            eta = step0 / math.sqrt(t)
            xi = x[i]
            if 1.0 - labels[i] * (xi @ beta) > 0.0:
                beta = (1.0 - eta * REG_STRENGTH) * beta + (eta * weights[i] * labels[i]) * xi
            else:
                beta = (1.0 - eta * REG_STRENGTH) * beta
            if t > suffix_start:
                suffix_sum += beta
    return suffix_sum / (total_steps - suffix_start)


def grid_min_objective(data, lo=-2.0, hi=2.0, step=0.05):
    """Exhaustive search over the 2-d coefficient grid."""
    grid = np.arange(lo, hi + step / 2, step)
    w = owl_weights(data)
    best = np.inf
    for b1 in grid:
        for b2 in grid:
            beta = np.array([b1, b2])
            hinge = np.maximum(1.0 - data.actions * (data.features @ beta), 0.0)
            val = float(np.mean(w * hinge) + 0.5 * REG_STRENGTH * (beta @ beta))
            best = min(best, val)
    return best


@pytest.fixture(params=["n100-p11-intercept", "negative-rewards-rho0.3", "n1", "n0"])
def problem(request):
    """A fixed OWL problem (x, labels, weights): with an intercept, with flipped labels, one row, no rows."""
    rng = substream(31)
    if request.param == "n100-p11-intercept":
        data = random_dataset(32, n=100, p=10)
        return add_intercept(data.features), data.actions, owl_weights(data)
    if request.param == "negative-rewards-rho0.3":
        x = rng.uniform(-1, 1, size=(80, 3))
        a = np.where(rng.uniform(size=80) < 0.3, 1.0, -1.0)
        flipped = owl_problem(add_intercept(x), a, rng.normal(size=80), 0.3)
        assert np.any(flipped[1] != a)  # some labels flipped
        return flipped
    n = int(request.param[1:])
    return rng.uniform(-1, 1, size=(n, 3)), np.ones(n), rng.uniform(0.5, 2.0, size=n)


class TestFitOwlLinear:
    def test_separable_toy_data(self):
        data = Dataset(
            features=np.array([[1.0, 0.0], [-1.0, 0.0]]),
            actions=np.array([1.0, -1.0]),
            rewards=np.array([2.0, 2.0]),
            rho=0.5,
        )
        beta = fit(data)
        assert beta[0] > 0
        assert regularized_objective(beta, data) < 0.1

    def test_within_two_percent_of_grid_search(self):
        for seed in range(10):
            data = random_dataset(seed)
            achieved = regularized_objective(fit(data), data)
            best = grid_min_objective(data)
            assert achieved <= 1.02 * best + 1e-9, f"seed {seed}: {achieved} vs grid {best}"

    def test_objective_no_worse_than_zero_vector(self):
        for seed in range(5):
            data = random_dataset(100 + seed, n=30, p=4)
            beta = fit(data)
            at_zero = float(np.mean(owl_weights(data) * np.ones(data.n)))
            assert regularized_objective(beta, data) <= at_zero

    def test_deterministic(self):
        data = random_dataset(8)
        np.testing.assert_array_equal(fit(data), fit(data))

    def test_objective_no_worse_than_reference_loop(self, problem):
        achieved = array_objective(fit_owl_linear(*problem), *problem)
        assert achieved <= array_objective(reference_owl_fit(*problem, seed=7), *problem)

    def test_finite_and_zero_without_rows(self, problem):
        x = problem[0]
        beta = fit_owl_linear(*problem)
        assert beta.shape == (x.shape[1],) and np.all(np.isfinite(beta))
        if len(x) == 0:
            np.testing.assert_array_equal(beta, np.zeros(x.shape[1]))

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 40), p=st.integers(1, 4), data=st.data())
    def test_bit_identical_under_row_permutation(self, seed, n, p, data):
        rng = substream(seed)
        pool = rng.integers(1, 2 * n + 1)  # rows drawn from a pool of at most 2n, so exact duplicates occur
        x = rng.uniform(-1, 1, size=(pool, p))[rng.integers(pool, size=n)]
        labels = np.where(rng.uniform(size=n) < 0.5, 1.0, -1.0)
        weights = rng.choice([0.5, 1.0, 2.5], size=n)
        perm = np.array(data.draw(st.permutations(range(n))))
        np.testing.assert_array_equal(
            fit_owl_linear(x[perm], labels[perm], weights[perm]), fit_owl_linear(x, labels, weights)
        )


class TestFlippedOwlDataset:
    """owl_problem: the label-flip form of raw rewards."""

    def test_negative_rewards_flip_labels(self):
        x, labels, weights = owl_problem(
            np.array([[1.0], [2.0], [3.0]]),
            np.array([1.0, -1.0, 1.0]),
            np.array([2.0, -1.5, 0.0]),
            0.5,
        )
        # zero-reward row dropped, negative reward flips the action
        np.testing.assert_array_equal(x, [[1.0], [2.0]])
        np.testing.assert_allclose(labels, [1.0, 1.0])
        np.testing.assert_allclose(weights, [2.0 / 0.5, 1.5 / 0.5])

    def test_zero_one_loss_equivalence(self):
        # The flipped problem preserves the weighted zero-one loss up to a
        # beta-free constant: differences between rules match. Off rho = 0.5
        # this needs the received action's propensity in the flipped weights.
        for rho in (0.5, 0.3):
            rng = substream(12)
            x = rng.uniform(-1, 1, size=(60, 2))
            a = np.where(rng.uniform(size=60) < rho, 1.0, -1.0)
            r = rng.normal(size=60)
            flip_x, labels, weights = owl_problem(x, a, r, rho)

            def raw_loss(beta):
                pred = np.where(x @ beta >= 0, 1.0, -1.0)
                return float(np.sum((r / np.where(a == 1.0, rho, 1.0 - rho)) * (a != pred)))

            def flip_loss(beta):
                pred = np.where(flip_x @ beta >= 0, 1.0, -1.0)
                return float(np.sum(weights * (labels != pred)))

            b1, b2 = rng.normal(size=2), rng.normal(size=2)
            assert raw_loss(b1) - raw_loss(b2) == pytest.approx(flip_loss(b1) - flip_loss(b2), abs=1e-9)
