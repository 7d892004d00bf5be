"""levylab: a numerical laboratory for heavy-tailed stochastic gradient dynamics.

The package covers the full loop from noise generation to measurement:
alpha-stable sampling, tail-index estimation, the alpha-stability condition
test, Levy-driven SDE simulation with exit-time and valley-occupancy
measurement, analytic metastability predictions, convergence-rate
benchmarking, and a small fully-connected network harness whose gradient
noise feeds the same estimators.
"""

from .convergence import (
    ConvergenceConfig,
    GradientNoise,
    a_gamma_bound,
    constant_step_bound,
    default_gamma,
    estimate_sigma_gamma,
    fitted_rate_slope,
    optimal_c_gamma,
    run_convergence,
)
from .datasets import DatasetSplit, IdxFormatError, load_mnist_idx, synthetic_blobs
from .errors import ConfigError, DegenerateInputError, ParameterError, ShapeError
from .metastability import (
    MarkovChainModel,
    expected_exit_time,
    generator_matrix,
    stationary_distribution,
)
from .mlp import MlpModel, forward_backward, init_mlp
from .objectives import ObjectiveSpec, double_well, quadratic
from .rng import RngStream
from .sde import (
    SdeConfig,
    first_exit_ensemble,
    first_transition_ensemble,
    occupancy_ensemble,
    simulate,
)
from .stability import StabilityReport, stability_condition
from .stable import StableParams, sample_sas, unit_jump_scale
from .studies import exit_time_study, occupancy_study, transition_study
from .tail_index import TailEstimate, choose_block_size, estimate_alpha
from .training import noise_scale_sweep, train_with_tail_logging

__all__ = [
    "ConfigError",
    "ConvergenceConfig",
    "DatasetSplit",
    "DegenerateInputError",
    "GradientNoise",
    "IdxFormatError",
    "MarkovChainModel",
    "MlpModel",
    "ObjectiveSpec",
    "ParameterError",
    "RngStream",
    "SdeConfig",
    "ShapeError",
    "StabilityReport",
    "StableParams",
    "TailEstimate",
    "a_gamma_bound",
    "choose_block_size",
    "constant_step_bound",
    "default_gamma",
    "double_well",
    "estimate_alpha",
    "estimate_sigma_gamma",
    "exit_time_study",
    "expected_exit_time",
    "first_exit_ensemble",
    "first_transition_ensemble",
    "fitted_rate_slope",
    "forward_backward",
    "generator_matrix",
    "init_mlp",
    "load_mnist_idx",
    "noise_scale_sweep",
    "occupancy_ensemble",
    "occupancy_study",
    "optimal_c_gamma",
    "quadratic",
    "run_convergence",
    "sample_sas",
    "simulate",
    "stability_condition",
    "stationary_distribution",
    "synthetic_blobs",
    "train_with_tail_logging",
    "transition_study",
    "unit_jump_scale",
]

__version__ = "0.1.0"
