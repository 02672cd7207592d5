"""Fixtures for the closed-pattern mining subsystem.

The equivalence suite runs both candidate engines under the paper's
default estimator configuration (second-order, series variant, smooth
evaluation) — the setup whose engine equivalence is pinned — on the shared
German fixture and on a small synthetic dataset with a planted bias
mechanism.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.datasets._synth import bernoulli, categorical
from repro.datasets.encoding import TabularEncoder
from repro.fairness import FairnessContext, get_metric
from repro.influence import make_estimator
from repro.models import LogisticRegression
from repro.tabular import Table


@pytest.fixture(scope="session")
def german_series_estimator(lr_model, X_train, german_train, sp_metric, test_ctx):
    """The series second-order estimator (smooth evaluation) on the shared
    German pipeline — the configuration the engines agree on."""
    return make_estimator(
        "second_order", lr_model, X_train, german_train.labels, sp_metric, test_ctx,
        variant="series", evaluation="smooth",
    )


def _subset_table(table: Table, rows: np.ndarray) -> Table:
    return Table.from_dict(
        {name: table.column(name).values[rows] for name in table.column_names}
    )


@pytest.fixture(scope="session")
def synth_setup():
    """(train_table, estimator) for a synthetic set with planted bias.

    Group B members with low scores are systematically denied — the
    coherent biased subgroup both engines must surface identically.
    """
    rng = np.random.default_rng(5)
    n = 600
    group = categorical(rng, n, ["A", "B"], [0.6, 0.4])
    region = categorical(rng, n, ["North", "South", "East"], [0.4, 0.35, 0.25])
    score = rng.normal(50, 12, size=n).round(1)
    tenure = rng.integers(0, 6, size=n).astype(float)
    is_b = group == "B"
    planted = is_b & (score < 45)
    logits = 0.08 * (score - 50) + 0.4 * (tenure - 2) - 2.2 * planted - 0.4 * is_b
    y = bernoulli(logits, rng)
    table = Table.from_dict(
        {"group": group, "region": region, "score": score, "tenure": tenure}
    )
    order = np.random.default_rng(0).permutation(n)
    train_rows, test_rows = order[:450], order[450:]
    train_table = _subset_table(table, train_rows)
    test_table = _subset_table(table, test_rows)
    encoder = TabularEncoder().fit(train_table)
    X_train = encoder.transform(train_table)
    model = LogisticRegression(l2_reg=1e-3).fit(X_train, y[train_rows])
    ctx = FairnessContext(
        X=encoder.transform(test_table),
        y=y[test_rows],
        privileged=test_table.column("group").values == "A",
        favorable_label=1,
    )
    estimator = make_estimator(
        "second_order", model, X_train, y[train_rows],
        get_metric("statistical_parity"), ctx,
        variant="series", evaluation="smooth",
    )
    return train_table, estimator
