"""Bayesian outcome-weighted learning for individualized treatment rules."""

from .distributions import MvnParams, sample_mvn
from .pseudo_model import (
    Dataset,
    ExponentialPowerPrior,
    NormalPrior,
    SpikeSlabPrior,
    load_dataset_csv,
    owl_weights,
    reward_transform,
)
from .gibbs import (
    ChainState,
    GibbsConfig,
    GibbsNumericalError,
    PosteriorDraws,
    SuffStats,
    build_suffstats,
    draw_beta_ep,
    draw_beta_normal,
    draw_gamma_and_beta_ss,
    draw_lambda,
    draw_omega,
    run_chain,
)
from .prediction import certainty_grid, coefficient_magnitudes, recommend
from .owl import fit_owl_linear, owl_problem
from .simulate import (
    ExperimentResult,
    ScenarioSpec,
    generate_scenario,
    misclassification_rate,
    run_experiment,
    true_optimal_rule,
)

__version__ = "0.1.0"
