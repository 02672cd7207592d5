"""End-to-end tests for repro.core.explainer (the Gopher pipeline)."""

import numpy as np
import pytest

from repro.core import GopherConfig, GopherExplainer
from repro.models import LogisticRegression
from repro.patterns import Pattern, Predicate


@pytest.fixture(scope="module")
def fitted_gopher(german_train, german_test):
    gopher = GopherExplainer(
        LogisticRegression(l2_reg=1e-3),
        metric="statistical_parity",
        estimator="second_order",
        max_predicates=2,
        support_threshold=0.05,
    )
    return gopher.fit(german_train, german_test)


@pytest.fixture(scope="module")
def result(fitted_gopher):
    return fitted_gopher.explain(k=3, verify=True)


class TestFit:
    def test_original_bias_positive(self, fitted_gopher):
        assert fitted_gopher.original_bias > 0.05

    def test_report(self, fitted_gopher):
        report = fitted_gopher.report()
        assert 0.5 < report.accuracy <= 1.0
        assert "statistical_parity" in report.metrics

    def test_unfitted_raises(self):
        gopher = GopherExplainer(LogisticRegression())
        with pytest.raises(RuntimeError, match="not fitted"):
            gopher.explain()

    def test_config_and_overrides_mutually_exclusive(self):
        with pytest.raises(ValueError, match="not both"):
            GopherExplainer(LogisticRegression(), GopherConfig(), metric="statistical_parity")

    def test_auto_split_path(self, german):
        gopher = GopherExplainer(LogisticRegression(l2_reg=1e-3), max_predicates=1)
        gopher.fit(german)  # no explicit test set
        session = gopher.session
        assert session.test_data is not None
        assert session.train_data.num_rows + session.test_data.num_rows == german.num_rows

    def test_prefitted_model_not_refit(self, german_train, german_test, encoder, X_train):
        model = LogisticRegression(l2_reg=1e-3).fit(X_train, german_train.labels)
        theta_before = model.theta.copy()
        GopherExplainer(model, max_predicates=1).fit(german_train, german_test)
        np.testing.assert_array_equal(model.theta, theta_before)


class TestExplain:
    def test_returns_k_explanations(self, result):
        assert 1 <= len(result) <= 3

    def test_explanations_verified(self, result):
        for explanation in result:
            assert explanation.gt_bias_change is not None
            assert explanation.gt_responsibility is not None

    def test_top_explanations_reduce_bias(self, result):
        """The paper's headline: the top pattern genuinely reduces bias when
        removed (ground truth by retraining)."""
        assert result[0].gt_responsibility > 0.1

    def test_top_pattern_mentions_planted_mechanism(self, result):
        """The search should recover the planted age/gender mechanism."""
        features = set()
        for explanation in result:
            features |= explanation.pattern.features()
        assert features & {"age", "gender", "credit_history"}

    def test_supports_are_small_subsets(self, result):
        for explanation in result:
            assert 0.05 <= explanation.support <= 0.6

    def test_render_contains_patterns(self, result):
        text = result.render()
        for explanation in result:
            assert str(explanation.pattern) in text

    def test_iteration_and_indexing(self, result):
        assert result[0].rank == 1
        assert [e.rank for e in result] == list(range(1, len(result) + 1))

    def test_lattice_attached(self, result):
        assert result.lattice.num_candidates > 0
        assert result.search_seconds > 0

    def test_no_protected_only_patterns_by_default(self, result, fitted_gopher):
        protected = fitted_gopher.session.train_data.protected.attribute
        for explanation in result:
            assert explanation.pattern.features() != {protected}


class TestResponsibilityOf:
    def test_matches_estimator(self, fitted_gopher):
        pattern = Pattern([Predicate("gender", "=", "Female")])
        est = fitted_gopher.responsibility_of(pattern)
        mask = pattern.mask(fitted_gopher.session.train_data.table)
        expected = fitted_gopher.estimator.responsibility(np.flatnonzero(mask))
        assert est == pytest.approx(expected)

    def test_ground_truth_mode(self, fitted_gopher):
        pattern = Pattern([Predicate("gender", "=", "Female")])
        gt = fitted_gopher.responsibility_of(pattern, ground_truth=True)
        assert isinstance(gt, float)

    def test_empty_pattern_rejected(self, fitted_gopher):
        pattern = Pattern([Predicate("gender", "=", "NoSuchValue")])
        with pytest.raises(ValueError, match="matches no"):
            fitted_gopher.responsibility_of(pattern)


class TestExplainUpdates:
    def test_updates_align_with_explanations(self, fitted_gopher, result):
        updates = fitted_gopher.explain_updates(result, verify=False, num_steps=25)
        assert len(updates) == len(result)
        for update, explanation in zip(updates, result):
            assert update.pattern == explanation.pattern

    def test_update_changes_only_pattern_features(self, fitted_gopher, result):
        updates = fitted_gopher.explain_updates(result, verify=False, num_steps=25)
        for update, explanation in zip(updates, result):
            assert set(update.changed_features) <= explanation.pattern.features()

    def test_verified_updates_have_ground_truth(self, fitted_gopher, result):
        updates = fitted_gopher.explain_updates(result, verify=True, num_steps=25)
        for update in updates:
            assert update.gt_bias_change is not None
            assert update.removal_bias_change is not None
            assert update.direction_vs_removal in ("less", "more")
