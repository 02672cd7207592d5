"""Approximating the causal responsibility of training-data subsets (§4.1).

Retraining a model for every candidate subset is the ground truth but is far
too slow for search.  This package provides the paper's three approximations
and the ground truth itself behind one interface:

* :class:`FirstOrderInfluence` — Eq. 9: sum of per-point influence functions.
* :class:`SecondOrderInfluence` — Eq. 10 (Basu et al.): adds the group
  curvature correction that captures correlations within the subset.
* :class:`OneStepGradientDescent` — Eq. 13: a single gradient step from the
  optimum, used mainly for update-based explanations.
* :class:`RetrainInfluence` — warm-started refitting, the ground truth.

All estimators report the *bias change* ΔF = F(θ_after) − F(θ_before) for
removing a subset, and the causal responsibility R = −ΔF / F(θ) of
Definition 3.2.
"""

from repro.influence.artifacts import ModelArtifacts
from repro.influence.estimators import InfluenceEstimator, list_estimators, make_estimator
from repro.influence.first_order import FirstOrderInfluence
from repro.influence.hessian import HessianSolver
from repro.influence.one_step_gd import OneStepGradientDescent, auto_learning_rate
from repro.influence.parallel import RetrainTask, retrain_thetas
from repro.influence.retrain import RetrainInfluence
from repro.influence.second_order import SecondOrderInfluence

__all__ = [
    "FirstOrderInfluence",
    "HessianSolver",
    "InfluenceEstimator",
    "ModelArtifacts",
    "OneStepGradientDescent",
    "RetrainInfluence",
    "RetrainTask",
    "SecondOrderInfluence",
    "auto_learning_rate",
    "list_estimators",
    "make_estimator",
    "retrain_thetas",
]
