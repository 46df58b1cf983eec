"""The dataclasses that hold arrays compare and hash by identity: a
generated __eq__ would compare their arrays elementwise and raise, and a
generated __hash__ would hash the arrays and raise."""
import numpy as np
import pytest

from srfe_lab.checks import CheckReport
from srfe_lab.discrete import DiscreteDist, SurprisalStats
from srfe_lab.estimators import GradReport
from srfe_lab.experiments import ExperimentResult
from srfe_lab.gaussians import (ContaminatedMixture, DiagonalGaussian,
                                GaussianMixture)
from srfe_lab.training import TrainResult


def mixture():
    return GaussianMixture(means=np.array([[-3.0, 0.0], [3.0, 0.0]]),
                           variance=0.5, weights=np.array([0.4, 0.6]))


def model():
    return DiagonalGaussian(mu=np.array([0.5, 1.0]),
                            log_sigma=np.array([0.3, 0.2]))


MAKERS = {
    "DiscreteDist": lambda: DiscreteDist(np.array([0.5, 0.5])),
    "SurprisalStats": lambda: SurprisalStats(mean=np.array([0.1, 0.2]),
                                             variance=np.array([1.0, 2.0])),
    "DiagonalGaussian": model,
    "GaussianMixture": mixture,
    "ContaminatedMixture": lambda: ContaminatedMixture(base=mixture(),
                                                       outlier_weight=0.2),
    "TrainResult": lambda: TrainResult(model=model(),
                                       loss_history=np.array([2.0, 1.0]),
                                       clamp_count=0),
    "GradReport": lambda: GradReport(d_mu=np.array([0.1, 0.2]),
                                     d_log_sigma=np.array([0.3, 0.4]),
                                     second_moment=1.0),
    "CheckReport": lambda: CheckReport(name="check", passed=True,
                                       observed=np.array([0.1, 0.2]),
                                       threshold=np.array([1.0, 1.0]),
                                       details=""),
    "ExperimentResult": lambda: ExperimentResult(
        rows=[], aggregate=None, histories={"cell": np.array([2.0, 1.0])},
        failures={}),
}


@pytest.mark.parametrize("name", sorted(MAKERS))
def test_array_holders_compare_and_hash_by_identity(name):
    a, b = MAKERS[name](), MAKERS[name]()
    assert a == a
    assert a != b  # equal values, two objects
    assert hash(a) == hash(a)
    assert len({a, b, a}) == 2
