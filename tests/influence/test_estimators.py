"""Tests for the estimator interface, factory, and shared plumbing."""

import copy

import numpy as np
import pytest

from repro.core import GopherConfig
from repro.influence import list_estimators, make_estimator
from repro.influence.estimators import InfluenceEstimator, resolve_estimator
from repro.models import LogisticRegression


class TestFactory:
    @pytest.mark.parametrize(
        "name", ["first_order", "second_order", "one_step_gd", "retrain"]
    )
    def test_builds_each_estimator(
        self, name, lr_model, X_train, german_train, sp_metric, test_ctx
    ):
        est = make_estimator(name, lr_model, X_train, german_train.labels, sp_metric, test_ctx)
        assert isinstance(est, InfluenceEstimator)

    def test_unknown_name(self, lr_model, X_train, german_train, sp_metric, test_ctx):
        with pytest.raises(ValueError, match="unknown estimator"):
            make_estimator("nope", lr_model, X_train, german_train.labels, sp_metric, test_ctx)

    def test_one_list_of_names(self):
        names = list_estimators()
        assert names == [
            "exact", "first_order", "one_step_gd", "retrain", "second_order", "series"
        ]
        for name in names:
            assert GopherConfig(estimator=name).estimator == name

    def test_aliases_resolve_to_second_order_variants(self):
        assert resolve_estimator("exact", {"damping": 0.1}) == (
            "second_order", {"damping": 0.1, "variant": "exact"}
        )
        assert resolve_estimator("series", {}) == ("second_order", {"variant": "series"})
        assert resolve_estimator("first_order", {"evaluation": "smooth"}) == (
            "first_order", {"evaluation": "smooth"}
        )

    def test_alias_rejects_conflicting_variant(self):
        with pytest.raises(ValueError, match="already fixes variant"):
            resolve_estimator("series", {"variant": "exact"})

    def test_unknown_name_lists_choices(self):
        with pytest.raises(ValueError, match="available: .*'series'"):
            resolve_estimator("nope", {})

    def test_unfitted_model_rejected(self, X_train, german_train, sp_metric, test_ctx):
        with pytest.raises(ValueError, match="fitted"):
            make_estimator(
                "first_order",
                LogisticRegression(),
                X_train,
                german_train.labels,
                sp_metric,
                test_ctx,
            )

    def test_invalid_evaluation_mode(self, lr_model, X_train, german_train, sp_metric, test_ctx):
        with pytest.raises(ValueError, match="evaluation"):
            make_estimator(
                "first_order",
                lr_model,
                X_train,
                german_train.labels,
                sp_metric,
                test_ctx,
                evaluation="bogus",
            )


class TestSharedPlumbing:
    def test_score_batch_is_responsibility_and_bias_change(self, fo_estimator):
        masks = [np.array([1, 4, 9]), np.arange(20, 60)]
        responsibilities, bias_changes = fo_estimator.score_batch(masks)
        np.testing.assert_array_equal(bias_changes, fo_estimator.bias_change_batch(masks))
        np.testing.assert_array_equal(
            responsibilities, fo_estimator.responsibility_batch(masks)
        )

    def test_score_batch_zero_baseline_scores_zero(self, fo_estimator):
        unbiased = copy.copy(fo_estimator)
        unbiased.original_bias = 0.0
        masks = [np.array([1, 4, 9])]
        responsibilities, bias_changes = unbiased.score_batch(masks)
        np.testing.assert_array_equal(responsibilities, [0.0])
        np.testing.assert_array_equal(bias_changes, fo_estimator.bias_change_batch(masks))
        with pytest.raises(ZeroDivisionError):
            unbiased.responsibility_batch(masks)

    def test_original_bias_matches_metric(self, fo_estimator, lr_model, sp_metric, test_ctx):
        assert fo_estimator.original_bias == pytest.approx(sp_metric.value(lr_model, test_ctx))

    def test_boolean_mask_equivalent_to_indices(self, fo_estimator):
        mask = np.zeros(fo_estimator.num_train, dtype=bool)
        mask[[3, 10, 42]] = True
        assert fo_estimator.bias_change(mask) == pytest.approx(
            fo_estimator.bias_change(np.array([3, 10, 42]))
        )

    def test_out_of_range_indices(self, fo_estimator):
        with pytest.raises(IndexError):
            fo_estimator.bias_change(np.array([fo_estimator.num_train + 5]))

    def test_wrong_mask_length(self, fo_estimator):
        with pytest.raises(ValueError, match="mask length"):
            fo_estimator.bias_change(np.zeros(3, dtype=bool))

    def test_cannot_remove_everything(self, fo_estimator):
        with pytest.raises(ValueError, match="entire"):
            fo_estimator.bias_change(np.arange(fo_estimator.num_train))

    def test_subset_grad_sum_matches_manual(self, fo_estimator):
        idx = np.array([0, 5, 9])
        manual = fo_estimator.per_sample_grads[idx].sum(axis=0)
        np.testing.assert_allclose(fo_estimator.subset_grad_sum(idx), manual)

    def test_responsibility_sign_convention(self, fo_estimator):
        """A subset whose removal reduces bias has positive responsibility."""
        infl = fo_estimator.point_influences()
        helping = np.argsort(infl)[:30]  # most bias-reducing points
        assert fo_estimator.responsibility(helping) > 0

    def test_grad_f_cached(self, fo_estimator):
        assert fo_estimator.grad_f is fo_estimator.grad_f

    def test_per_sample_grads_cached(self, fo_estimator):
        assert fo_estimator.per_sample_grads is fo_estimator.per_sample_grads
