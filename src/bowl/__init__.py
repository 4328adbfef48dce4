"""Bayesian outcome-weighted learning for individualized treatment rules."""

from .pseudo_model import (
    Dataset,
    ExponentialPowerPrior,
    NormalPrior,
    SpikeSlabPrior,
    load_dataset_csv,
    owl_weights,
    reward_transform,
)
from .gibbs import GibbsConfig, GibbsNumericalError, PosteriorDraws, run_chain
from .prediction import certainty_grid, coefficient_magnitudes, recommend
from .owl import fit_owl_linear, owl_problem
from .simulate import (
    ExperimentResult,
    ScenarioSpec,
    misclassification_rate,
    run_experiment,
    true_optimal_rule,
)

__version__ = "0.1.0"
