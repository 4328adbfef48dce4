import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import ndtr

from bowl.gibbs import PosteriorDraws
from bowl.prediction import _BLOCK_CELLS, certainty_grid, coefficient_magnitudes, recommend
from bowl.rng import substream


def make_draws(beta_matrix, intercept=False):
    return PosteriorDraws(np.asarray(beta_matrix, dtype=float)[None, :, :], intercept=intercept)


def row_oracle(betas, x, intercept=False):
    """Per-row posterior-predictive P(+1): the mean over draws of Phi(b'd) for one design row d."""
    design = np.column_stack([np.ones(len(x)), x]) if intercept else x
    return np.array([np.mean(ndtr(betas @ d)) for d in design])


class TestPredictiveProb:
    def test_all_zero_draws_give_half(self):
        draws = make_draws(np.zeros((10, 3)))
        prob, _, _ = recommend(draws, np.array([[0.4, -0.2, 0.9], [-3.0, 1.0, 0.0]]))
        np.testing.assert_array_equal(prob, [0.5, 0.5])

    def test_saturated_probit(self):
        draws = make_draws([[10.0, 0.0]])
        prob, _, _ = recommend(draws, np.array([[1.0, 0.0], [-1.0, 0.0]]))
        np.testing.assert_allclose(prob, [1.0, 0.0], atol=1e-6)

    def test_matches_loop_oracle(self):
        betas = np.array([[0.5, -1.0], [1.5, 0.25], [-0.75, 2.0]])
        draws = make_draws(betas)
        x = np.array([[0.3, 0.8], [-1.2, 0.4]])
        expected = [np.mean([ndtr(float(xi @ b)) for b in betas]) for xi in x]
        np.testing.assert_allclose(recommend(draws, x)[0], expected, rtol=0, atol=1e-12)

    def test_intercept_applied_like_training(self):
        draws = make_draws([[0.7, 2.0]], intercept=True)
        prob, _, _ = recommend(draws, np.array([[0.5], [-1.0]]))
        np.testing.assert_allclose(prob, ndtr([0.7 + 1.0, 0.7 - 2.0]), rtol=0, atol=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            recommend(make_draws(np.zeros((4, 3))), np.array([[1.0, 2.0]]))
        # The intercept column is added here, so raw features have one column fewer.
        with pytest.raises(ValueError):
            recommend(make_draws(np.zeros((4, 3)), intercept=True), np.zeros((2, 3)))
        empty = PosteriorDraws(np.zeros((1, 0, 3)))
        with pytest.raises(ValueError, match="no retained draws"):
            recommend(empty, np.zeros((2, 3)))

    def test_negated_draws_flip_probability(self):
        rng = substream(80)
        betas = rng.normal(size=(50, 3))
        x = rng.normal(size=(20, 3))
        p, _, _ = recommend(make_draws(betas), x)
        p_neg, _, _ = recommend(make_draws(-betas), x)
        np.testing.assert_allclose(p + p_neg, 1.0, rtol=0, atol=1e-12)


class TestRecommend:
    def test_tie_goes_to_plus_one(self):
        draws = make_draws(np.zeros((5, 2)))
        prob, action, certainty = recommend(draws, np.array([[1.0, 1.0], [-2.0, 0.5]]))
        np.testing.assert_array_equal(prob, [0.5, 0.5])
        np.testing.assert_array_equal(action, [1, 1])
        np.testing.assert_array_equal(certainty, [0.5, 0.5])

    def test_high_probability_recommends_plus(self):
        draws = make_draws([[5.0, 0.0]])
        prob, action, certainty = recommend(draws, np.array([[0.3, 0.0]]))
        assert action[0] == 1
        assert certainty[0] == prob[0]
        assert certainty[0] > 0.9

    def test_low_probability_recommends_minus(self):
        draws = make_draws([[-5.0, 0.0]])
        prob, action, certainty = recommend(draws, np.array([[0.3, 0.0]]))
        assert action[0] == -1
        assert certainty[0] == 1.0 - prob[0]

    def test_certainty_at_least_half_and_relabel_invariant(self):
        rng = substream(81)
        betas = rng.normal(size=(40, 3))
        x = rng.normal(size=(25, 3))
        _, action, certainty = recommend(make_draws(betas), x)
        _, action_neg, certainty_neg = recommend(make_draws(-betas), x)
        assert np.all(certainty >= 0.5)
        np.testing.assert_allclose(certainty, certainty_neg, rtol=0, atol=1e-12)
        assert action.dtype.kind == "i" and set(action.tolist()) <= {-1, 1}


class TestCertaintyGrid:
    def test_all_zero_draws_give_uniform_half(self):
        draws = make_draws(np.zeros((5, 4)))
        coords, prob, action, certainty = certainty_grid(draws, (0, 1), 5)
        assert coords.shape == (25, 2) and certainty.shape == (25,)
        np.testing.assert_allclose(certainty, 0.5)
        np.testing.assert_array_equal(action, 1)

    def test_diagonal_monotonicity(self):
        # One draw aligned with (1, 1): certainty grows with |x1 + x2|.
        draws = make_draws([[1.0, 1.0, 0.0]])
        _, _, _, certainty = certainty_grid(draws, (0, 1), 9)
        diag = np.diag(certainty.reshape(9, 9))
        mid = len(diag) // 2
        assert np.all(np.diff(diag[mid:]) > 0)
        assert np.all(np.diff(diag[: mid + 1]) < 0)

    def test_matches_per_node_computation(self):
        betas = substream(82).normal(size=(3, 3))
        draws = make_draws(betas)
        coords, prob, action, certainty = certainty_grid(draws, (0, 2), 3)
        ticks = np.linspace(-1, 1, 3)
        k = 0
        for v1 in ticks:
            for v2 in ticks:
                expected = np.mean(ndtr(betas @ np.array([v1, 0.0, v2])))
                assert prob[k] == pytest.approx(expected, abs=1e-12)
                assert action[k] == (1 if expected >= 0.5 else -1)
                assert certainty[k] == pytest.approx(max(expected, 1 - expected), abs=1e-12)
                np.testing.assert_array_equal(coords[k], [v1, v2])
                k += 1

    def test_row_major_second_dim_fastest(self):
        draws = make_draws(np.zeros((2, 2)))
        coords, _, _, _ = certainty_grid(draws, (0, 1), 3)
        # first block holds x_j1 fixed at -1 while x_j2 sweeps
        np.testing.assert_allclose(coords[:3, 0], [-1, -1, -1])
        np.testing.assert_allclose(coords[:3, 1], [-1, 0, 1])
        np.testing.assert_allclose(coords[3:6, 0], [0, 0, 0])

    def test_deterministic(self):
        betas = substream(83).normal(size=(20, 2))
        draws = make_draws(betas)
        a = certainty_grid(draws, (0, 1), 4)
        b = certainty_grid(draws, (0, 1), 4)
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x, y)

    def test_invalid_dims(self):
        draws = make_draws(np.zeros((2, 2)))
        with pytest.raises(ValueError):
            certainty_grid(draws, (0, 5), 3)
        with pytest.raises(ValueError):
            certainty_grid(draws, (1, 1), 3)
        with pytest.raises(ValueError):
            certainty_grid(draws, (0, 1), 1)
        # With an intercept, the raw features are one fewer than the coefficients.
        with pytest.raises(ValueError):
            certainty_grid(make_draws(np.zeros((2, 2)), intercept=True), (0, 1), 3)


class TestBlockedProduct:
    """recommend against the per-row oracle, across the block boundary."""

    @settings(max_examples=40, deadline=None)
    @given(
        # 100 to 400 draws keep the block, and so the per-row oracle, at 655 to 2621 rows.
        n_draws=st.integers(100, 400),
        p=st.integers(1, 5),
        intercept=st.booleans(),
        rows=st.sampled_from(["one", "block", "block+1"]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_row_oracle(self, n_draws, p, intercept, rows, seed):
        rng = np.random.default_rng(seed)
        block = max(1, _BLOCK_CELLS // n_draws)
        m = {"one": 1, "block": block, "block+1": block + 1}[rows]
        betas = rng.normal(scale=2.0, size=(n_draws, p + intercept))
        x = rng.uniform(-2.0, 2.0, size=(m, p))
        prob, action, certainty = recommend(make_draws(betas, intercept), x)
        expected = row_oracle(betas, x, intercept)
        assert prob.shape == action.shape == certainty.shape == (m,)
        np.testing.assert_allclose(prob, expected, rtol=0, atol=4 * np.spacing(1.0))
        np.testing.assert_array_equal(action, np.where(prob >= 0.5, 1, -1))
        np.testing.assert_array_equal(certainty, np.maximum(prob, 1.0 - prob))


class TestCoefficientMagnitudes:
    def test_constant_draws(self):
        draws = make_draws([[2.0, -1.0]])
        np.testing.assert_allclose(coefficient_magnitudes(draws), [2.0, 1.0])

    def test_symmetric_draws_cancel(self):
        draws = make_draws([[1.5, -0.5], [-1.5, 0.5]])
        np.testing.assert_allclose(coefficient_magnitudes(draws), [0.0, 0.0])

    def test_matches_mean_then_abs_oracle(self):
        betas = substream(84).normal(size=(30, 4))
        draws = make_draws(betas)
        np.testing.assert_allclose(
            coefficient_magnitudes(draws), np.abs(betas.mean(axis=0)), atol=1e-12
        )

    def test_intercept_excluded_by_default(self):
        draws = make_draws([[3.0, 1.0, -2.0]], intercept=True)
        np.testing.assert_allclose(coefficient_magnitudes(draws), [1.0, 2.0])
        no_intercept = make_draws([[3.0, 1.0, -2.0]])
        np.testing.assert_allclose(coefficient_magnitudes(no_intercept), [3.0, 1.0, 2.0])

    def test_empty_draws_rejected(self):
        draws = PosteriorDraws(np.zeros((1, 0, 2)))
        with pytest.raises(ValueError):
            coefficient_magnitudes(draws)
