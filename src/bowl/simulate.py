"""Scenario generators and the replicated misclassification experiment."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .gibbs import GibbsConfig, GibbsNumericalError, run_chain
from .owl import fit_owl_linear, owl_problem
from .pseudo_model import (
    Dataset,
    ExponentialPowerPrior,
    NormalPrior,
    SpikeSlabPrior,
    add_intercept,
    reward_transform,
)
from .rng import map_batches, substream

_BOWL_PRIORS = {"bowl-normal": NormalPrior, "bowl-ep": ExponentialPowerPrior, "bowl-ss": SpikeSlabPrior}
METHODS = ("owl", *_BOWL_PRIORS)
RHO = 0.5  # P(A = +1): every scenario assigns treatment by a fair coin

# Each scenario's interaction coefficient c and boundary score s(x1, x2): the reward
# mean holds c * s * a, and the optimal rule is sign(s), with s = 0 sent to -1.
SCENARIOS = {1: (1.0, lambda x1, x2: x1 + x2), 2: (0.442, lambda x1, x2: 1.0 - x1 - x2)}


@dataclass(frozen=True)
class ScenarioSpec:
    """One simulation setting: which boundary, sizes, replication count.

    signal_scale multiplies the treatment-feature interaction and noise_sd
    scales the reward noise; the defaults are the standard setting, the
    knobs exist for strong-signal sanity checks.
    """

    scenario_id: int
    n_train: int
    n_test: int = 1000
    n_reps: int = 200
    p: int = 10
    seed: int = 0
    signal_scale: float = 1.0
    noise_sd: float = 1.0

    def __post_init__(self):
        if self.scenario_id not in SCENARIOS:
            raise ValueError("scenario_id must be 1 or 2")
        if min(self.n_train, self.n_test, self.n_reps) < 1:
            raise ValueError("n_train, n_test and n_reps must be positive")


def interaction_term(scenario_id: int, features: np.ndarray, actions: np.ndarray) -> np.ndarray:
    """Treatment-feature interaction entering the reward mean."""
    coefficient, score = SCENARIOS[scenario_id]
    return coefficient * score(features[:, 0], features[:, 1]) * actions


def true_optimal_rule(scenario_id: int, x: np.ndarray) -> np.ndarray:
    """+1 for each row of x where the interaction favors treatment +1, else -1 (boundary to -1)."""
    if scenario_id not in SCENARIOS:
        raise ValueError("scenario_id must be 1 or 2")
    x = np.asarray(x, dtype=float)
    return np.where(SCENARIOS[scenario_id][1](x[:, 0], x[:, 1]) > 0, 1, -1)


def generate_scenario_raw(
    spec: ScenarioSpec,
    rep_index: int,
    rng: np.random.Generator | None = None,
    n_obs: int | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Simulate (features, actions, raw rewards, true labels) for one dataset.

    Features are Uniform[-1,1]^p, the action is a fair coin on {-1,+1}, and
    the raw reward is Normal(1 + 2 X1 + X2 + 0.5 X3 + interaction, noise_sd),
    which can be negative.
    """
    if rng is None:
        rng = substream(spec.seed, rep_index)
    n = spec.n_train if n_obs is None else n_obs
    features = rng.uniform(-1.0, 1.0, size=(n, spec.p))
    actions = np.where(rng.uniform(size=n) < RHO, 1.0, -1.0)
    mean_reward = (
        1.0
        + 2.0 * features[:, 0]
        + features[:, 1]
        + 0.5 * features[:, 2]
        + spec.signal_scale * interaction_term(spec.scenario_id, features, actions)
    )
    raw_rewards = mean_reward + spec.noise_sd * rng.standard_normal(n)
    return features, actions, raw_rewards, true_optimal_rule(spec.scenario_id, features)


def misclassification_rate(predicted: np.ndarray, truth: np.ndarray) -> float:
    """Fraction of subjects recommended counter to the true optimal rule."""
    predicted = np.asarray(predicted).ravel()
    truth = np.asarray(truth).ravel()
    if predicted.size == 0:
        raise ValueError("empty prediction vector")
    if predicted.shape != truth.shape:
        raise ValueError("predicted and truth lengths differ")
    return float(np.mean(predicted != truth))


def fit_bowl(train: list[tuple[np.ndarray, np.ndarray, np.ndarray]], method: str, seeds: list[int]) -> list:
    """Fit one Bayesian variant at the library defaults, with an intercept, to each training set's shifted raw rewards.

    train lists (features, actions, raw rewards) per replication, and seeds
    each fit's chain seed. All fits step in one lockstep batch (`run_chain`);
    the result lists each fit's PosteriorDraws or its GibbsNumericalError.
    """
    datasets = [Dataset(x, a, reward_transform(r)[0], RHO) for x, a, r in train]
    return run_chain(datasets, _BOWL_PRIORS[method](), [GibbsConfig(seed=seed) for seed in seeds], intercept=True)


def classify_with_method(method: str, train: list[tuple[np.ndarray, np.ndarray, np.ndarray]],
                         test_features: list[np.ndarray], seeds: list[int]) -> list:
    """Fit on each replication's raw training data with an intercept, and recommend actions for its test features.

    OWL fits the label-flip form of the raw rewards (`owl_problem`) one
    replication at a time, the Bayesian variants the positivity-shifted
    rewards (`fit_bowl`) in one batch. Every method gives a linear rule,
    classified by one sign rule with ties sent to +1: OWL's coefficients, or
    a Bayesian fit's posterior mean, matching how the point estimate is
    defined for the tables. Both weight by the scenarios' randomization
    probability, RHO. Only the Bayesian chains read `seeds`. The result
    lists, per replication, its recommended actions or the error that
    stopped its fit (OWL's LinAlgError or the chain's GibbsNumericalError).
    """
    if method == "owl":
        betas = []
        for x, a, r in train:
            try:
                betas.append(fit_owl_linear(*owl_problem(add_intercept(x), a, r, RHO)))
            except np.linalg.LinAlgError as exc:
                betas.append(exc)
    else:
        betas = [d if isinstance(d, GibbsNumericalError) else d.posterior_mean() for d in fit_bowl(train, method, seeds)]
    return [beta if isinstance(beta, Exception) else np.where(add_intercept(x) @ beta >= 0.0, 1, -1)
            for beta, x in zip(betas, test_features)]


@dataclass
class MethodCell:
    method: str
    mean_rate: float
    mc_se: float
    n_reps_ok: int
    rates: np.ndarray  # per replication; NaN marks an excluded failure


@dataclass
class ExperimentResult:
    cells: list[MethodCell] = field(default_factory=list)
    # (method, rep, message of the chain's GibbsNumericalError or OWL's LinAlgError) for every NaN rate.
    failures: list[tuple[str, int, str]] = field(default_factory=list)


def _one_batch(spec: ScenarioSpec, methods: list[str], reps) -> list[list[float | str]]:
    """Per replication of a batch, each method's rate, or the message of the error that stopped its fit."""
    # Per replication, the training (features, actions, raw rewards) and the test (features, truth).
    train = [generate_scenario_raw(spec, rep, substream(spec.seed, rep, 0), n_obs=spec.n_train)[:3] for rep in reps]
    test = [generate_scenario_raw(spec, rep, substream(spec.seed, rep, 1), n_obs=spec.n_test)[::3] for rep in reps]
    outcomes = [[] for _ in reps]
    for method in methods:
        seeds = [_fit_seed(spec.seed, rep, METHODS.index(method)) for rep in reps]  # the method, not its place
        predictions = classify_with_method(method, train, [x for x, _ in test], seeds)
        for outcome, (_, truth), predicted in zip(outcomes, test, predictions):
            outcome.append(str(predicted) if isinstance(predicted, Exception) else misclassification_rate(predicted, truth))
    return outcomes


def _fit_seed(seed: int, rep: int, method_index: int) -> int:
    # Distinct 63-bit fit seeds per (experiment seed, replication, method).
    return (seed * 1_000_003 + rep * 97 + method_index) % (2**63 - 1)


def check_methods(methods: tuple[str, ...] | list[str]) -> list[str]:
    """The methods as a list; ValueError if there are none, one is unknown or one is listed twice."""
    methods = list(methods)
    if not methods:
        raise ValueError("need at least one method")
    for i, m in enumerate(methods):
        if m not in METHODS:
            raise ValueError(f"unknown method {m!r}; choose from {', '.join(METHODS)}")
        if m in methods[:i]:
            raise ValueError(f"method {m!r} is listed twice")
    return methods


def run_experiment(
    spec: ScenarioSpec,
    methods: tuple[str, ...] | list[str],
    jobs: int = 1,
) -> ExperimentResult:
    """Replicate the paired train/fit/test cycle and aggregate rates.

    Within each replication every method sees the same train and test data;
    replications use seeds derived from (spec.seed, rep). Each Bayesian
    method is fitted once per `map_batches` batch of replications, and a
    replication's draws do not depend on its batch, so the result is
    independent of worker count and scheduling.
    """
    methods = check_methods(methods)
    outcomes = map_batches(partial(_one_batch, spec, methods), range(spec.n_reps), jobs)
    result = ExperimentResult(failures=[(method, rep, outcome) for rep, per_method in enumerate(outcomes)
                                        for method, outcome in zip(methods, per_method) if isinstance(outcome, str)])
    for i, method in enumerate(methods):
        rates = np.array([float("nan") if isinstance(o[i], str) else o[i] for o in outcomes])
        ok = rates[~np.isnan(rates)]
        mean = float(ok.mean()) if ok.size else float("nan")
        se = float(ok.std(ddof=1) / math.sqrt(ok.size)) if ok.size > 1 else float("nan")
        result.cells.append(MethodCell(method, mean, se, int(ok.size), rates))
    return result


def uncertainty_study(
    scenario_id: int = 1,
    n_train: int = 1000,
    seed: int = 0,
    resolution: int = 33,
    signal_scale: float = 1.0,
):
    """Fit the exponential-power variant once at the library defaults and map grid certainties.

    Returns (coords, prob_plus, action, certainty, magnitudes): the
    deterministic lattice on the first two features with all others at
    zero, as certainty_grid gives it, plus the per-feature absolute
    posterior means. signal_scale is the scenario's (0 gives a
    signal-free control).
    """
    from .prediction import certainty_grid, coefficient_magnitudes

    spec = ScenarioSpec(scenario_id=scenario_id, n_train=n_train, seed=seed, signal_scale=signal_scale)
    features, actions, raw_rewards, _ = generate_scenario_raw(spec, 0, substream(seed, 0, 0))
    # 1 is bowl-normal's place in METHODS, not bowl-ep's (2); moving it changes heatmap.csv and criteria 6-7's fits.
    (draws,) = fit_bowl([(features, actions, raw_rewards)], "bowl-ep", [_fit_seed(seed, 0, 1)])
    if isinstance(draws, GibbsNumericalError):
        raise draws
    return (*certainty_grid(draws, (0, 1), resolution), coefficient_magnitudes(draws))
