import inspect

import numpy as np
import pytest

import bowl.simulate
from bowl.gibbs import GibbsConfig, PosteriorDraws
from bowl.pseudo_model import ExponentialPowerPrior, NormalPrior, SpikeSlabPrior
from bowl.rng import substream
from bowl.simulate import (
    METHODS,
    ScenarioSpec,
    _fit_seed,
    classify_with_method,
    generate_scenario,
    generate_scenario_raw,
    interaction_term,
    misclassification_rate,
    run_experiment,
    true_optimal_rule,
    uncertainty_study,
)


def cell(result, method):
    """The result's cell for `method`."""
    (found,) = [c for c in result.cells if c.method == method]
    return found


class TestGenerateScenario:
    def test_interaction_scenario_one(self):
        x = np.zeros((1, 10))
        x[0, 0], x[0, 1] = 0.5, 0.3
        assert interaction_term(1, x, np.array([1.0]))[0] == pytest.approx(0.8)

    def test_interaction_scenario_two(self):
        x = np.zeros((1, 10))
        assert interaction_term(2, x, np.array([-1.0]))[0] == pytest.approx(-0.442)

    def test_feature_moments(self):
        spec = ScenarioSpec(scenario_id=1, n_train=100_000, seed=5)
        data, _ = generate_scenario(spec, 0)
        assert np.all(np.abs(data.features.mean(axis=0)) < 0.01)
        assert np.all(np.abs(data.features.var(axis=0) - 1.0 / 3.0) < 0.01)
        assert abs(np.mean(data.actions == 1.0) - 0.5) < 0.01

    def test_reward_mean_structure(self):
        # Raw rewards average to the stated mean surface.
        spec = ScenarioSpec(scenario_id=1, n_train=200_000, seed=6, noise_sd=0.0)
        x, a, r, _ = generate_scenario_raw(spec, 0)
        expected = 1 + 2 * x[:, 0] + x[:, 1] + 0.5 * x[:, 2] + (x[:, 0] + x[:, 1]) * a
        np.testing.assert_allclose(r, expected, atol=1e-12)

    def test_rewards_positive_after_transform(self):
        data, _ = generate_scenario(ScenarioSpec(1, 500, seed=7), 0)
        assert np.all(data.rewards > 0)

    def test_labels_match_rule(self):
        spec = ScenarioSpec(scenario_id=2, n_train=500, seed=8)
        data, truth = generate_scenario(spec, 0)
        np.testing.assert_array_equal(truth, true_optimal_rule(2, data.features))

    def test_deterministic_per_rep(self):
        spec = ScenarioSpec(scenario_id=1, n_train=50, seed=9)
        a, _ = generate_scenario(spec, 3)
        b, _ = generate_scenario(spec, 3)
        np.testing.assert_array_equal(a.features, b.features)
        c, _ = generate_scenario(spec, 4)
        assert not np.array_equal(a.features, c.features)


class TestTrueOptimalRule:
    def test_scenario_one_positive(self):
        x = np.zeros((1, 10))
        x[0, 0], x[0, 1] = 0.5, -0.2
        np.testing.assert_array_equal(true_optimal_rule(1, x), [1])

    def test_scenario_two_negative(self):
        x = np.zeros((1, 10))
        x[0, 0], x[0, 1] = 0.9, 0.4
        np.testing.assert_array_equal(true_optimal_rule(2, x), [-1])

    def test_boundary_goes_to_minus_one(self):
        x = np.zeros((1, 10))
        x[0, 0], x[0, 1] = 0.5, -0.5
        np.testing.assert_array_equal(true_optimal_rule(1, x), [-1])

    def test_invalid_scenario(self):
        with pytest.raises(ValueError):
            true_optimal_rule(3, np.zeros((1, 10)))


class TestMisclassificationRate:
    def test_identical(self):
        v = np.array([1, -1, 1])
        assert misclassification_rate(v, v) == 0.0

    def test_fully_flipped(self):
        v = np.array([1, -1, 1])
        assert misclassification_rate(-v, v) == 1.0

    def test_half(self):
        assert misclassification_rate(
            np.array([1, 1, -1, -1]), np.array([1, -1, -1, 1])
        ) == pytest.approx(0.5)

    def test_validation(self):
        with pytest.raises(ValueError):
            misclassification_rate(np.array([1]), np.array([1, -1]))
        with pytest.raises(ValueError):
            misclassification_rate(np.array([]), np.array([]))


class TestRunExperiment:
    def test_strong_signal_all_methods_trivial(self):
        # Interaction scaled x100 with no reward noise and ample data: every
        # method should recover the rule nearly perfectly. The sample size is
        # generous because the positivity shift keeps the Bayesian variants'
        # weight noise proportional to the boosted signal.
        spec = ScenarioSpec(
            scenario_id=1, n_train=5000, n_test=500, n_reps=3, seed=11,
            signal_scale=100.0, noise_sd=0.0,
        )
        result = run_experiment(spec, ["owl", "bowl-normal", "bowl-ep", "bowl-ss"], jobs=2)
        for cell in result.cells:
            assert cell.mean_rate < 0.05, f"{cell.method}: {cell.mean_rate}"
            assert cell.n_reps_ok == 3

    def test_reproducible_and_jobs_invariant(self):
        spec = ScenarioSpec(scenario_id=1, n_train=60, n_test=100, n_reps=4, seed=12)
        a = run_experiment(spec, ["owl", "bowl-normal"], jobs=1)
        b = run_experiment(spec, ["owl", "bowl-normal"], jobs=2)
        c = run_experiment(spec, ["owl", "bowl-normal"], jobs=1)
        for x, y in zip(a.cells, b.cells):
            np.testing.assert_array_equal(x.rates, y.rates)
        for x, y in zip(a.cells, c.cells):
            np.testing.assert_array_equal(x.rates, y.rates)

    def test_methods_share_replication_data(self):
        # Adding a method, or listing the methods in another order, must not change a method's per-rep rates.
        spec = ScenarioSpec(scenario_id=2, n_train=60, n_test=100, n_reps=4, seed=13)
        alone = run_experiment(spec, ["owl"])
        paired = run_experiment(spec, ["owl", "bowl-ep"])
        swapped = run_experiment(spec, ["bowl-ep", "owl"])
        np.testing.assert_array_equal(cell(alone, "owl").rates, cell(paired, "owl").rates)
        for method in ("owl", "bowl-ep"):
            np.testing.assert_array_equal(cell(paired, method).rates, cell(swapped, method).rates)

    def test_rates_within_unit_interval_and_se_nonnegative(self):
        spec = ScenarioSpec(scenario_id=1, n_train=50, n_test=80, n_reps=5, seed=14)
        result = run_experiment(spec, ["bowl-normal"])
        normal = cell(result, "bowl-normal")
        assert np.all((normal.rates >= 0) & (normal.rates <= 1))
        assert normal.mc_se >= 0

    def test_unknown_method_rejected(self):
        spec = ScenarioSpec(scenario_id=1, n_train=50, n_reps=2, seed=15)
        message = "unknown method 'qlearning'; choose from owl, bowl-normal, bowl-ep, bowl-ss"
        with pytest.raises(ValueError, match=message):
            run_experiment(spec, ["qlearning"])
        with pytest.raises(ValueError):
            run_experiment(spec, [])
        with pytest.raises(ValueError, match="method 'owl' is listed twice"):
            run_experiment(spec, ["owl", "bowl-ep", "owl"])


@pytest.fixture(params=["owl", "bowl-ep"])
def classify_with(request, monkeypatch):
    """classify_with_method(method, ..., x) with the method's fit stubbed to return `beta`."""
    method = request.param

    def classify(beta, x):
        monkeypatch.setattr(bowl.simulate, "fit_owl_linear", lambda x, labels, weights: beta)
        monkeypatch.setattr(bowl.simulate, "fit_bowl", lambda *args: PosteriorDraws(beta[None, None]))
        return classify_with_method(method, np.zeros((2, len(beta) - 1)), [1.0, -1.0], [1.0, -1.0], x, 0)

    return classify


class TestClassifyWithMethod:
    # The test features get the intercept column first, so beta[0] is the intercept.
    def test_sign_rule(self, classify_with):
        xs = np.array([[0.3, -0.9], [-0.3, 0.9]])
        np.testing.assert_array_equal(classify_with(np.array([0.0, 1.0, 0.0]), xs), [1, -1])
        np.testing.assert_array_equal(classify_with(np.array([-0.5, 1.0, 0.0]), xs), [-1, -1])

    def test_tie_goes_to_plus_one(self, classify_with):
        xs = np.array([[0.5, -0.5], [0.0, 0.0]])
        np.testing.assert_array_equal(classify_with(np.array([0.0, 1.0, 1.0]), xs), [1, 1])

    def test_matches_loop_oracle(self, classify_with):
        rng = substream(10)
        beta = rng.normal(size=4)
        xs = rng.uniform(-1, 1, size=(100, 3))
        batch = classify_with(beta, xs)
        for i in range(100):
            assert batch[i] == (1 if float(np.concatenate([[1.0], xs[i]]) @ beta) >= 0.0 else -1)

    def test_scale_invariance_of_decision(self, classify_with):
        rng = substream(11)
        beta = rng.normal(size=4)
        xs = rng.uniform(-1, 1, size=(50, 3))
        base = classify_with(beta, xs)
        for c in (0.01, 3.0, 250.0):
            np.testing.assert_array_equal(base, classify_with(c * beta, xs))

    def test_dimension_mismatch(self, classify_with):
        with pytest.raises(ValueError):
            classify_with(np.array([0.0, 1.0, 0.0]), np.array([[1.0, 2.0, 3.0]]))


class TestStudySettings:
    def test_every_fit_runs_at_the_library_defaults_with_an_intercept(self, monkeypatch):
        calls = {"run_chain": [], "fit_owl_linear": []}
        for name, record in calls.items():
            original = getattr(bowl.simulate, name)

            def spy(*args, original=original, record=record, **kwargs):
                record.append(inspect.signature(original).bind(*args, **kwargs).arguments)
                return original(*args, **kwargs)

            monkeypatch.setattr(bowl.simulate, name, spy)
        spec = ScenarioSpec(scenario_id=1, n_train=40, n_test=20, n_reps=2, seed=3)
        run_experiment(spec, METHODS)
        uncertainty_study(n_train=40, seed=3, resolution=3)

        chains, owls = calls["run_chain"], calls["fit_owl_linear"]
        bayes = [(rep, m) for rep in range(2) for m in (1, 2, 3)] + [(0, 1)]
        assert [c["config"] for c in chains] == [GibbsConfig(seed=_fit_seed(3, rep, m)) for rep, m in bayes]
        defaults = [NormalPrior(), ExponentialPowerPrior(), SpikeSlabPrior()] * 2 + [ExponentialPowerPrior()]
        assert [c["prior"] for c in chains] == defaults
        assert all(c.keys() == {"data", "prior", "config", "intercept"} for c in chains)
        assert all(c["intercept"] is True for c in chains)
        # run_chain prepends the constant column itself; OWL is handed its design.
        assert all(c["data"].p == spec.p for c in chains)
        assert len(owls) == 2 and all(o.keys() == {"x", "labels", "weights"} for o in owls)
        for fit in owls:
            assert np.all(fit["x"][:, 0] == 1.0) and fit["x"].shape == (spec.n_train, spec.p + 1)
