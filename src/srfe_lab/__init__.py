"""Free-energy divergence toolkit: discrete core, Gaussian models,
Monte Carlo estimators, training and diagnostic checks."""

from srfe_lab.discrete import (
    AbsoluteContinuityError,
    DiscreteDist,
    DisjointSupportError,
    SurprisalStats,
    VariationalSolution,
    chernoff_coefficient,
    cr_associated,
    cr_expansion_prediction,
    cr_standard,
    escort,
    exact_tail_prob,
    expansion_prediction,
    kl_discrete,
    kl_upper_bound_gap,
    mixed_partial_probe,
    monotone_map,
    pythagorean_residual,
    srfe_discrete,
    surprisal_stats,
    tail_bound,
    variational_minimize,
    variational_objective,
)
from srfe_lab.estimators import (
    GradReport,
    LossReport,
    SecondMomentReport,
    estimator_second_moment,
    exact_second_moment,
    forward_kl_grad,
    forward_kl_loss,
    reverse_kl_grad,
    reverse_kl_loss,
    srfe_mc_step,
)
from srfe_lab.evaluation import EvalMetrics, evaluate
from srfe_lab.gaussians import (
    ContaminatedMixture,
    DiagonalGaussian,
    GaussianMixture,
    srfe_equal_covariance,
)
from srfe_lab.training import Adam, TauSchedule, TrainConfig, TrainResult, train

__version__ = "0.1.0"
