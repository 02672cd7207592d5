"""Scalar-loop reference for batched influence queries.

:class:`ScalarLoopEstimator` wraps an influence estimator so that
``bias_change_batch`` loops the wrapped estimator's scalar
``bias_change`` over the batch, one subset at a time, and ``score_batch``
applies the base class's scoring rule to that loop; every other
attribute is the wrapped estimator's.  Handing the wrapper to
``compute_candidates`` runs Algorithm 1 with one influence query per
candidate — the per-candidate loop the batched search must reproduce.
"""

from __future__ import annotations

import numpy as np

from repro.influence.estimators import InfluenceEstimator
from repro.mining.bitset import as_extents


class ScalarLoopEstimator:
    # The searches score through score_batch; bound here, it reads this
    # wrapper's scalar-loop bias_change_batch instead of the wrapped batch.
    score_batch = InfluenceEstimator.score_batch

    def __init__(self, estimator) -> None:
        self.estimator = estimator

    def __getattr__(self, name: str):
        return getattr(self.estimator, name)

    def bias_change_batch(self, subsets) -> np.ndarray:
        extents = as_extents(subsets, self.estimator.num_train)
        return np.array(
            [self.estimator.bias_change(indices) for indices in extents.index_rows()],
            dtype=np.float64,
        )
