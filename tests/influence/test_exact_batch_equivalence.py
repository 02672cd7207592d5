"""Cross-estimator equivalence for the stacked batched ``exact`` variant.

The acceptance contract of the batched exact second-order path: for every
built-in model × fairness metric × damping ∈ {0, 1e-3}, the stacked
Cholesky batch must reproduce the per-subset dense-refactorization loop
to 1e-8 — including the edge batches (empty subset, singletons, a subset
duplicated within the batch, near-full subsets, sizes on both sides of
|S| = p) — for dense boolean-mask, packed uint8 and index-form inputs.
Any drift between the gathered-Gram algebra and the scalar Newton step
fails here first.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.fairness import FairnessContext, get_metric, list_metrics
from repro.influence import make_estimator
from repro.mining.bitset import Extents
from repro.models import LinearSVM, LogisticRegression, NeuralNetwork

ATOL = 1e-8

MODEL_BUILDERS = {
    "logistic_regression": lambda: LogisticRegression(l2_reg=1e-3),
    "linear_svm": lambda: LinearSVM(l2_reg=1e-2),
    "neural_network": lambda: NeuralNetwork(hidden_units=3, l2_reg=1e-3, seed=0, max_iter=150),
}
DAMPINGS = [0.0, 1e-3]


@pytest.fixture(scope="module")
def exact_data():
    """Small synthetic problem with a protected attribute and clear signal.

    Sized so that |S| = p is reachable by modest subsets for every model
    (p = 6 for the linear models, 22 for the 3-unit network).
    """
    rng = np.random.default_rng(42)
    n = 210
    X = rng.normal(size=(n, 5))
    protected = rng.random(n) < 0.45
    X[:, 0] += 0.8 * protected
    logits = 1.3 * X[:, 0] - 0.9 * X[:, 1] + 0.5 * X[:, 2] - 0.6 * protected
    y = (logits + rng.normal(scale=0.8, size=n) > 0).astype(np.int64)
    train, test = np.arange(150), np.arange(150, n)
    ctx = FairnessContext(
        X=X[test], y=y[test], privileged=~protected[test], favorable_label=1
    )
    return X[train], y[train], ctx


@pytest.fixture(scope="module")
def fitted_models(exact_data):
    X_train, y_train, _ = exact_data
    return {name: build().fit(X_train, y_train) for name, build in MODEL_BUILDERS.items()}


@pytest.fixture(scope="module")
def get_exact(exact_data, fitted_models):
    """Cached factory over (model, metric, damping) exact estimators."""
    X_train, y_train, ctx = exact_data
    cache: dict[tuple, object] = {}

    def build(model_name: str, metric_name: str, damping: float):
        key = (model_name, metric_name, damping)
        if key not in cache:
            cache[key] = make_estimator(
                "exact",
                fitted_models[model_name],
                X_train,
                y_train,
                get_metric(metric_name),
                ctx,
                evaluation="smooth",
                damping=damping,
            )
        return cache[key]

    return build


def edge_subsets(num_train: int, p: int) -> list[np.ndarray]:
    """Empty / singleton / duplicated / near-full / straddling |S| = p."""
    rng = np.random.default_rng(3)
    pick = lambda size: np.sort(rng.choice(num_train, size=size, replace=False))
    duplicated = pick(7)
    subsets = [
        np.array([], dtype=np.int64),  # empty
        np.array([int(rng.integers(num_train))]),  # singleton
        duplicated,
        duplicated.copy(),  # the same subset twice in one batch
        np.arange(num_train - 1),  # near-full (always |S| > p)
        pick(min(max(p - 1, 1), num_train - 2)),  # just below |S| = p
        pick(min(p, num_train - 2)),  # exactly |S| = p
        pick(min(p + 3, num_train - 2)),  # just above
    ]
    subsets += [pick(int(s)) for s in rng.integers(2, num_train // 3, size=6)]
    return subsets


def _mask_matrix(subsets, n):
    masks = np.zeros((len(subsets), n), dtype=bool)
    for j, idx in enumerate(subsets):
        masks[j, idx] = True
    return masks


@pytest.mark.parametrize("model_name", sorted(MODEL_BUILDERS))
@pytest.mark.parametrize("metric_name", list_metrics())
@pytest.mark.parametrize("damping", DAMPINGS, ids=["d0", "d1e-3"])
class TestStackedMatchesDenseLoop:
    def test_param_change(self, model_name, metric_name, damping, get_exact):
        est = get_exact(model_name, metric_name, damping)
        subsets = edge_subsets(est.num_train, est.model.num_params)
        loop = np.stack([est.param_change(s) for s in subsets])
        batch = est.param_change_batch(subsets)
        np.testing.assert_allclose(batch, loop, atol=ATOL, rtol=0.0)

    def test_bias_change(self, model_name, metric_name, damping, get_exact):
        est = get_exact(model_name, metric_name, damping)
        subsets = edge_subsets(est.num_train, est.model.num_params)
        loop = np.array([est.bias_change(s) for s in subsets])
        batch = est.bias_change_batch(subsets)
        np.testing.assert_allclose(batch, loop, atol=ATOL, rtol=0.0)

    def test_packed_input_matches_dense(self, model_name, metric_name, damping, get_exact):
        est = get_exact(model_name, metric_name, damping)
        subsets = edge_subsets(est.num_train, est.model.num_params)
        masks = _mask_matrix(subsets, est.num_train)
        packed = Extents(np.packbits(masks, axis=1), est.num_train)
        np.testing.assert_allclose(
            est.bias_change_batch(packed),
            est.bias_change_batch(masks),
            atol=1e-12,
            rtol=0.0,
        )
        np.testing.assert_allclose(
            est.param_change_batch(packed),
            est.param_change_batch(masks),
            atol=1e-12,
            rtol=0.0,
        )

    def test_index_form_matches_packed_and_loop(
        self, model_name, metric_name, damping, get_exact
    ):
        """Index-form extents gather their rows directly (no unpacking)."""
        est = get_exact(model_name, metric_name, damping)
        subsets = edge_subsets(est.num_train, est.model.num_params)
        sparse = Extents(tuple(np.asarray(s, dtype=np.int64) for s in subsets), est.num_train)
        packed = Extents.from_masks(_mask_matrix(subsets, est.num_train))
        loop = np.stack([est.param_change(s) for s in subsets])
        batch = est.param_change_batch(sparse)
        np.testing.assert_allclose(batch, loop, atol=ATOL, rtol=0.0)
        np.testing.assert_allclose(
            batch, est.param_change_batch(packed), atol=1e-12, rtol=0.0
        )


class TestRoutingAccounting:
    @pytest.mark.parametrize("model_name", sorted(MODEL_BUILDERS))
    def test_straddling_batch_routes_every_subset_stacked(self, model_name, get_exact):
        """Sizes on both sides of |S| = p share the one stacked path — for the
        SVM too, whose zero-weight inactive-margin rows sit inside the
        gathered Gram, and for the Gauss-Newton network."""
        est = get_exact(model_name, "statistical_parity", 0.0)
        if model_name == "linear_svm":
            assert (est.artifacts.hessian_factors()[1] == 0.0).any()
        p = est.model.num_params
        before = dict(est.exact_batch_stats)
        subsets = [np.arange(3), np.arange(p - 1), np.arange(p), np.arange(p + 10)]
        est.param_change_batch(subsets)
        after = est.exact_batch_stats
        assert after["stacked"] == before["stacked"] + len(subsets)
        assert after["fallback_not_pd"] == before["fallback_not_pd"]
        assert after["fallback_factors"] == before["fallback_factors"]

    def test_fd_hessian_routes_whole_batch_to_loop(self, exact_data):
        X_train, y_train, ctx = exact_data
        model = NeuralNetwork(
            hidden_units=2, l2_reg=1e-3, seed=0, max_iter=60, hessian_mode="exact_fd"
        ).fit(X_train, y_train)
        est = make_estimator(
            "exact", model, X_train, y_train,
            get_metric("statistical_parity"), ctx, evaluation="smooth",
        )
        subsets = [np.arange(4), np.arange(9)]
        loop = np.stack([est.param_change(s) for s in subsets])
        batch = est.param_change_batch(subsets)
        np.testing.assert_allclose(batch, loop, atol=ATOL, rtol=0.0)
        assert est.exact_batch_stats["fallback_factors"] == len(subsets)
        assert est.exact_batch_stats["stacked"] == 0


class TestExactAlias:
    def test_exact_alias_builds_exact_variant(self, get_exact):
        est = get_exact("logistic_regression", "statistical_parity", 0.0)
        assert type(est).__name__ == "SecondOrderInfluence"
        assert est.variant == "exact"

    def test_series_alias(self, exact_data, fitted_models):
        X_train, y_train, ctx = exact_data
        est = make_estimator(
            "series", fitted_models["logistic_regression"], X_train, y_train,
            get_metric("statistical_parity"), ctx,
        )
        assert est.variant == "series"

    def test_conflicting_variant_rejected(self, exact_data, fitted_models):
        X_train, y_train, ctx = exact_data
        with pytest.raises(ValueError, match="fixes variant"):
            make_estimator(
                "exact", fitted_models["logistic_regression"], X_train, y_train,
                get_metric("statistical_parity"), ctx, variant="series",
            )
