"""Regression tests for the batched lattice search.

Golden guarantee: ``compute_candidates`` returns *the identical candidate
set* — patterns, supports, responsibilities — and identical per-level
accounting as the per-candidate query loop (the estimator wrapped in
:class:`ScalarLoopEstimator`), on the seeded synthetic dataset.  Plus the
support-threshold boundary: a pattern covering exactly τ of the rows is
excluded at every lattice level, matching the "strictly more than τ"
contract.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.fairness import FairnessContext, get_metric
from repro.influence import make_estimator
from repro.models import LogisticRegression
from repro.patterns import compute_candidates, lattice
from repro.patterns.pattern import Pattern
from repro.patterns.predicate import Predicate
from repro.tabular import Table
from tests.oracles.scalar_loop import ScalarLoopEstimator


@pytest.fixture(scope="module", params=["first_order", "second_order"])
def lattice_pair(request, german_train, fo_estimator, so_estimator):
    estimator = {"first_order": fo_estimator, "second_order": so_estimator}[request.param]
    kwargs = dict(support_threshold=0.05, max_predicates=3)
    loop = compute_candidates(german_train.table, ScalarLoopEstimator(estimator), **kwargs)
    batched = compute_candidates(german_train.table, estimator, **kwargs)
    return loop, batched


class TestGoldenEquivalence:
    def test_identical_patterns(self, lattice_pair):
        loop, batched = lattice_pair
        assert [s.pattern for s in loop.candidates] == [s.pattern for s in batched.candidates]

    def test_identical_supports_and_sizes(self, lattice_pair):
        loop, batched = lattice_pair
        assert [s.support for s in loop.candidates] == [s.support for s in batched.candidates]
        assert [s.size for s in loop.candidates] == [s.size for s in batched.candidates]

    def test_identical_responsibilities(self, lattice_pair):
        loop, batched = lattice_pair
        np.testing.assert_allclose(
            [s.responsibility for s in batched.candidates],
            [s.responsibility for s in loop.candidates],
            atol=1e-10,
            rtol=0.0,
        )
        np.testing.assert_allclose(
            [s.bias_change for s in batched.candidates],
            [s.bias_change for s in loop.candidates],
            atol=1e-10,
            rtol=0.0,
        )

    def test_level_accounting_preserved(self, lattice_pair):
        loop, batched = lattice_pair
        assert [
            (lv.level, lv.num_candidates, lv.num_merges_tried) for lv in loop.levels
        ] == [(lv.level, lv.num_candidates, lv.num_merges_tried) for lv in batched.levels]

    def test_batched_search_is_deterministic(self, german_train, fo_estimator):
        runs = [
            compute_candidates(german_train.table, fo_estimator, 0.05, max_predicates=2)
            for _ in range(2)
        ]
        assert [s.pattern for s in runs[0].candidates] == [s.pattern for s in runs[1].candidates]
        assert [s.responsibility for s in runs[0].candidates] == [
            s.responsibility for s in runs[1].candidates
        ]

    def test_small_batch_size_chunks_identically(self, german_train, fo_estimator):
        whole = compute_candidates(german_train.table, fo_estimator, 0.05, max_predicates=2)
        chunked = compute_candidates(
            german_train.table, fo_estimator, 0.05, max_predicates=2, batch_size=7
        )
        assert [s.pattern for s in whole.candidates] == [s.pattern for s in chunked.candidates]
        np.testing.assert_allclose(
            [s.responsibility for s in whole.candidates],
            [s.responsibility for s in chunked.candidates],
            atol=1e-10,
            rtol=0.0,
        )

    def test_invalid_batch_size(self, german_train, fo_estimator):
        with pytest.raises(ValueError, match="batch_size"):
            compute_candidates(german_train.table, fo_estimator, 0.05, batch_size=0)


# ----------------------------------------------------------------------
# Support-threshold boundary: strictly-more-than τ at every level.
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def boundary_setup():
    """20-row table engineered so several patterns sit exactly at τ = 0.2.

    Level 1: ``b = w`` covers exactly 4/20 rows.  Level 2: ``a = x ∧ b = u``
    covers exactly 4/20, while ``a = x ∧ b = v`` (6/20) and ``a = y ∧ b = u``
    (6/20) clear the bar.
    """
    a = ["x"] * 10 + ["y"] * 10
    b = ["u"] * 4 + ["v"] * 6 + ["u"] * 6 + ["w"] * 4
    table = Table.from_dict({"a": a, "b": b})
    rng = np.random.default_rng(3)
    X = rng.normal(size=(20, 3))
    y = np.array([0, 1] * 10)
    model = LogisticRegression(l2_reg=1e-2).fit(X, y)
    ctx = FairnessContext(
        X=X, y=y, privileged=np.array([True] * 10 + [False] * 10), favorable_label=1
    )
    estimator = make_estimator(
        "first_order", model, X, y, get_metric("statistical_parity"), ctx
    )
    return table, estimator


@pytest.mark.parametrize("batch", [True, False])
class TestSupportBoundary:
    TAU = 0.2

    @pytest.fixture(autouse=True)
    def _keep_every_support_survivor(self, monkeypatch):
        # The boundary is about support alone: keep negative-responsibility
        # survivors in the result too.
        monkeypatch.setattr(lattice, "MIN_RESPONSIBILITY", -np.inf)

    def _candidates(self, boundary_setup, batch):
        table, estimator = boundary_setup
        result = compute_candidates(
            table,
            estimator if batch else ScalarLoopEstimator(estimator),
            support_threshold=self.TAU,
            max_predicates=2,
            prune_by_responsibility=False,
        )
        return result.candidates

    def test_no_candidate_at_exactly_tau(self, boundary_setup, batch):
        for stats in self._candidates(boundary_setup, batch):
            assert stats.support > self.TAU

    def test_level1_boundary_predicate_excluded(self, boundary_setup, batch):
        patterns = {s.pattern for s in self._candidates(boundary_setup, batch)}
        assert Pattern([Predicate("b", "=", "w")]) not in patterns

    def test_level2_boundary_merge_excluded(self, boundary_setup, batch):
        patterns = {s.pattern for s in self._candidates(boundary_setup, batch)}
        assert Pattern([Predicate("a", "=", "x"), Predicate("b", "=", "u")]) not in patterns

    def test_level2_above_boundary_kept(self, boundary_setup, batch):
        patterns = {s.pattern for s in self._candidates(boundary_setup, batch)}
        assert Pattern([Predicate("a", "=", "x"), Predicate("b", "=", "v")]) in patterns
        assert Pattern([Predicate("a", "=", "y"), Predicate("b", "=", "u")]) in patterns
