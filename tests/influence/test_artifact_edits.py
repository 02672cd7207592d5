"""ModelArtifacts.apply_edit: patched caches equal a from-scratch rebuild.

The edit path never refactorizes or rebuilds — it patches the training
matrix, the per-sample gradient matrix, the mean Hessian (subset-Hessian
identity) and every cached solver (rank-k eigenbasis update).  Each
patched cache is pinned against a ``ModelArtifacts`` built from scratch
on the edited data, and the stats counters prove nothing heavy ran.  Version stamping: estimators built
before an edit must refuse to score afterwards.
"""

import numpy as np
import pytest

from repro.influence import make_estimator
from repro.influence.artifacts import ModelArtifacts

DAMPING = 1e-3


def edited_arrays(X, y, remove=(), relabel=(), relabels=(), X_add=None, y_add=None):
    """Reference edit semantics: relabel → remove → append."""
    y2 = np.asarray(y).copy()
    if len(relabel):
        y2[list(relabel)] = relabels
    keep = np.ones(len(X), dtype=bool)
    if len(remove):
        keep[list(remove)] = False
    X2, y2 = X[keep], y2[keep]
    if X_add is not None:
        X2 = np.concatenate([X2, X_add])
        y2 = np.concatenate([y2, y_add])
    return X2, y2


@pytest.fixture()
def artifacts(lr_model, X_train, german_train):
    return ModelArtifacts(lr_model, X_train, german_train.labels)


class TestPatchedCachesMatchRebuild:
    @pytest.mark.parametrize(
        "kind", ["remove", "relabel", "add", "mixed"], ids=str
    )
    def test_all_caches(self, artifacts, lr_model, X_train, german_train, kind):
        y = german_train.labels
        rng = np.random.default_rng(0)
        remove, relabel, relabels, X_add, y_add = (), (), (), None, None
        if kind in ("remove", "mixed"):
            remove = rng.choice(len(X_train), size=9, replace=False)
        if kind in ("relabel", "mixed"):
            pool = np.setdiff1d(np.arange(len(X_train)), remove)
            relabel = rng.choice(pool, size=7, replace=False)
            relabels = 1 - y[relabel]
        if kind in ("add", "mixed"):
            picks = rng.integers(0, len(X_train), size=5)
            X_add, y_add = X_train[picks], y[picks]

        # Build every cache *before* the edit so each is patched, not lazily
        # rebuilt against the edited data.
        _ = artifacts.per_sample_grads
        _ = artifacts.hessian
        solver = artifacts.solver(DAMPING)
        artifacts.apply_edit(
            remove_indices=remove,
            relabel_indices=relabel,
            relabel_labels=relabels,
            X_add=X_add,
            y_add=y_add,
        )

        X2, y2 = edited_arrays(X_train, y, remove, relabel, relabels, X_add, y_add)
        fresh = ModelArtifacts(lr_model, X2, y2)
        np.testing.assert_array_equal(artifacts.X_train, X2)
        np.testing.assert_array_equal(artifacts.y_train, y2)
        assert artifacts.num_train == len(X2)
        np.testing.assert_allclose(
            artifacts.per_sample_grads, fresh.per_sample_grads, atol=1e-10
        )
        np.testing.assert_allclose(artifacts.hessian, fresh.hessian, atol=1e-10)
        b = rng.standard_normal(artifacts.hessian.shape[0])
        np.testing.assert_allclose(
            artifacts.solver(DAMPING).solve(b),
            fresh.solver(DAMPING).solve(b),
            atol=1e-8,
        )
        # The cached solver advanced through .updated() (a new object in the
        # updated eigenbasis) — hessian_factorizations pins that no Cholesky
        # ran; test_counters_prove_no_refactorization covers the accounting.
        assert artifacts.solver(DAMPING) is not solver

    def test_counters_prove_no_refactorization(self, artifacts, X_train):
        _ = artifacts.per_sample_grads
        _ = artifacts.hessian
        artifacts.solver(DAMPING)
        before = dict(artifacts.stats)
        assert before["hessian_factorizations"] == 1
        artifacts.apply_edit(remove_indices=[3, 11, 42])
        after = artifacts.stats
        assert after["hessian_factorizations"] == 1
        assert after["per_sample_grad_builds"] == before["per_sample_grad_builds"]
        assert after["hessian_builds"] == before["hessian_builds"]
        assert after["edits"] == before["edits"] + 1
        assert after["solver_updates"] == before["solver_updates"] + 1

    def test_unbuilt_caches_stay_lazy(self, artifacts, lr_model, X_train, german_train):
        """An edit before any cache is built leaves the laziness intact."""
        artifacts.apply_edit(remove_indices=[0, 1])
        assert artifacts.stats["per_sample_grad_builds"] == 0
        X2, y2 = edited_arrays(X_train, german_train.labels, remove=[0, 1])
        fresh = ModelArtifacts(lr_model, X2, y2)
        np.testing.assert_allclose(
            artifacts.per_sample_grads, fresh.per_sample_grads, atol=1e-10
        )
        assert artifacts.stats["per_sample_grad_builds"] == 1


class TestEstimatorResultsAfterEdit:
    @pytest.mark.parametrize("name", ["first_order", "series", "exact"])
    def test_fresh_estimator_on_patched_artifacts_matches_rebuild(
        self, artifacts, lr_model, X_train, german_train, sp_metric, test_ctx, name
    ):
        _ = artifacts.per_sample_grads
        _ = artifacts.hessian
        artifacts.solver(DAMPING)
        remove = [5, 17, 200, 433]
        artifacts.apply_edit(remove_indices=remove)
        X2, y2 = edited_arrays(X_train, german_train.labels, remove=remove)
        patched_est = make_estimator(
            name, lr_model, artifacts.X_train, artifacts.y_train, sp_metric, test_ctx,
            artifacts=artifacts,
        )
        fresh_est = make_estimator(name, lr_model, X2, y2, sp_metric, test_ctx)
        subset = np.arange(0, len(X2), 7)
        assert patched_est.bias_change(subset) == pytest.approx(
            fresh_est.bias_change(subset), abs=1e-8
        )

    def test_stale_estimator_refuses(
        self, artifacts, lr_model, X_train, german_train, sp_metric, test_ctx
    ):
        est = make_estimator(
            "first_order", lr_model, X_train, german_train.labels, sp_metric, test_ctx,
            artifacts=artifacts,
        )
        est.bias_change(np.array([0, 1, 2]))  # fine before the edit
        artifacts.apply_edit(remove_indices=[0])
        with pytest.raises(RuntimeError, match="edited after this estimator"):
            est.bias_change(np.array([0, 1, 2]))


class TestEditValidation:
    def test_rejects_out_of_range(self, artifacts):
        with pytest.raises(IndexError):
            artifacts.apply_edit(remove_indices=[artifacts.num_train])

    def test_rejects_duplicates(self, artifacts):
        with pytest.raises(ValueError, match="duplicate"):
            artifacts.apply_edit(remove_indices=[1, 1])

    def test_rejects_remove_relabel_overlap(self, artifacts):
        with pytest.raises(ValueError, match="both"):
            artifacts.apply_edit(
                remove_indices=[4], relabel_indices=[4], relabel_labels=[0]
            )

    def test_rejects_empty_edit(self, artifacts):
        with pytest.raises(ValueError, match="at least one"):
            artifacts.apply_edit()

    def test_rejects_refit_model(self, lr_model, X_train, german_train):
        artifacts = ModelArtifacts(lr_model, X_train, german_train.labels)
        artifacts.theta = artifacts.theta + 1.0  # simulate a refit elsewhere
        with pytest.raises(ValueError, match="rebuild"):
            artifacts.apply_edit(remove_indices=[0])
