import numpy as np
import pytest

from bowl.owl import fit_owl_linear, flipped_owl_dataset
from bowl.pseudo_model import Dataset, owl_weights
from bowl.rng import substream
from tests.test_pseudo_model import owl_objective


def regularized_objective(beta, data, reg):
    """The fit's own objective: mean weighted hinge plus (reg/2)||beta||^2."""
    return owl_objective(beta, data) + 0.5 * reg * float(beta @ beta)


def random_dataset(seed, n=12, p=2, rho=0.5):
    rng = substream(seed)
    return Dataset(
        features=rng.uniform(-1, 1, size=(n, p)),
        actions=np.where(rng.uniform(size=n) < rho, 1.0, -1.0),
        rewards=rng.uniform(0.2, 4.0, size=n),
        rho=rho,
    )


def grid_min_objective(data, reg, lo=-2.0, hi=2.0, step=0.05):
    """Exhaustive search over the 2-d coefficient grid."""
    grid = np.arange(lo, hi + step / 2, step)
    w = owl_weights(data)
    best = np.inf
    for b1 in grid:
        for b2 in grid:
            beta = np.array([b1, b2])
            hinge = np.maximum(1.0 - data.actions * (data.features @ beta), 0.0)
            val = float(np.mean(w * hinge) + 0.5 * reg * (beta @ beta))
            best = min(best, val)
    return best


class TestFitOwlLinear:
    def test_separable_toy_data(self):
        data = Dataset(
            features=np.array([[1.0, 0.0], [-1.0, 0.0]]),
            actions=np.array([1.0, -1.0]),
            rewards=np.array([2.0, 2.0]),
            rho=0.5,
        )
        beta = fit_owl_linear(data, reg_strength=1e-3, epochs=200, seed=0)
        assert beta[0] > 0
        assert regularized_objective(beta, data, 1e-3) < 0.1

    def test_within_two_percent_of_grid_search(self):
        for seed in range(10):
            data = random_dataset(seed)
            beta = fit_owl_linear(data, reg_strength=1e-3, epochs=400, seed=seed)
            achieved = regularized_objective(beta, data, 1e-3)
            best = grid_min_objective(data, 1e-3)
            assert achieved <= 1.02 * best + 1e-9, f"seed {seed}: {achieved} vs grid {best}"

    def test_objective_no_worse_than_zero_vector(self):
        for seed in range(5):
            data = random_dataset(100 + seed, n=30, p=4)
            beta = fit_owl_linear(data, reg_strength=1e-3, epochs=100, seed=seed)
            w = owl_weights(data)
            at_zero = float(np.mean(w * np.ones(data.n)))
            assert regularized_objective(beta, data, 1e-3) <= at_zero

    def test_deterministic(self):
        data = random_dataset(8)
        a = fit_owl_linear(data, epochs=20, seed=3)
        b = fit_owl_linear(data, epochs=20, seed=3)
        np.testing.assert_array_equal(a, b)

    def test_input_validation(self):
        data = random_dataset(9)
        with pytest.raises(ValueError):
            fit_owl_linear(data, epochs=0)
        with pytest.raises(ValueError):
            fit_owl_linear(data, reg_strength=-1.0)


class TestFlippedOwlDataset:
    def test_negative_rewards_flip_labels(self):
        data = flipped_owl_dataset(
            np.array([[1.0], [2.0], [3.0]]),
            np.array([1.0, -1.0, 1.0]),
            np.array([2.0, -1.5, 0.0]),
            0.5,
        )
        # zero-reward row dropped, negative reward flips the action
        assert data.n == 2
        np.testing.assert_allclose(data.actions, [1.0, 1.0])
        np.testing.assert_allclose(data.rewards, [2.0, 1.5])

    def test_zero_one_loss_equivalence(self):
        # The flipped representation preserves the weighted zero-one loss
        # up to a beta-free constant: differences between rules match.
        rng = substream(12)
        x = rng.uniform(-1, 1, size=(60, 2))
        a = np.where(rng.uniform(size=60) < 0.5, 1.0, -1.0)
        r = rng.normal(size=60)
        flipped = flipped_owl_dataset(x, a, r, 0.5)

        def raw_loss(beta):
            pred = np.where(x @ beta >= 0, 1.0, -1.0)
            return float(np.sum((r / 0.5) * (a != pred)))

        def flip_loss(beta):
            pred = np.where(flipped.features @ beta >= 0, 1.0, -1.0)
            return float(np.sum(owl_weights(flipped) * (flipped.actions != pred)))

        b1, b2 = rng.normal(size=2), rng.normal(size=2)
        assert raw_loss(b1) - raw_loss(b2) == pytest.approx(flip_loss(b1) - flip_loss(b2), abs=1e-9)
