"""Tests for repro.patterns.topk (Algorithm 2)."""

import numpy as np
import pytest

from repro.patterns import Pattern, Predicate, containment, select_top_k
from repro.patterns.lattice import PatternStats


def make_stats(name, mask, responsibility):
    mask = np.asarray(mask, dtype=bool)
    return PatternStats(
        pattern=Pattern([Predicate(name, "=", "v")]),
        support=float(mask.mean()),
        size=int(mask.sum()),
        responsibility=responsibility,
        bias_change=-responsibility,
        _packed_mask=np.packbits(mask),
        _num_rows=len(mask),
    )


@pytest.fixture
def candidates():
    return [
        make_stats("a", [1, 1, 1, 1, 0, 0, 0, 0], 0.4),   # U = 0.8
        make_stats("b", [1, 1, 1, 0, 0, 0, 0, 0], 0.45),  # U = 1.2, inside a
        make_stats("c", [0, 0, 0, 0, 1, 1, 0, 0], 0.2),   # U = 0.8, disjoint
        make_stats("d", [0, 0, 0, 0, 0, 0, 1, 1], 0.1),   # U = 0.4, disjoint
        make_stats("e", [1, 0, 0, 0, 0, 0, 0, 0], -0.5),  # negative responsibility
    ]


class TestSelectTopK:
    def test_ranked_by_interestingness(self, candidates):
        selected, _ = select_top_k(candidates, k=1, containment_threshold=0.99)
        assert str(selected[0].pattern) == "b = v"

    def test_diversity_filter_drops_contained(self, candidates):
        # b is selected first (highest U); then a is skipped because
        # C(a, b) = |a ∧ b| / |a| = 3/4 exceeds the 0.5 threshold.
        selected, _ = select_top_k(candidates, k=3, containment_threshold=0.5)
        names = [str(s.pattern) for s in selected]
        assert "b = v" in names
        assert "a = v" not in names

    def test_high_threshold_keeps_overlapping(self, candidates):
        selected, _ = select_top_k(candidates, k=3, containment_threshold=0.99)
        names = [str(s.pattern) for s in selected]
        assert {"a = v", "b = v"} <= set(names)

    def test_negative_responsibility_excluded_by_default(self, candidates):
        selected, _ = select_top_k(candidates, k=5, containment_threshold=0.99)
        assert all(s.responsibility > 0 for s in selected)

    def test_k_respected(self, candidates):
        selected, _ = select_top_k(candidates, k=2, containment_threshold=0.99)
        assert len(selected) == 2

    def test_selected_pairwise_containment_below_threshold(self, candidates):
        threshold = 0.6
        selected, _ = select_top_k(candidates, k=4, containment_threshold=threshold)
        masks = [s.mask() for s in selected]
        for i, a in enumerate(masks):
            for j, b in enumerate(masks):
                if i < j:
                    assert containment(b, a) <= threshold

    def test_filter_seconds_reported(self, candidates):
        _, seconds = select_top_k(candidates, k=2)
        assert seconds >= 0.0

    def test_deterministic_tie_break(self):
        mask1 = [1, 1, 0, 0]
        mask2 = [0, 0, 1, 1]
        a = make_stats("z", mask1, 0.2)
        b = make_stats("a", mask2, 0.2)  # same interestingness
        selected, _ = select_top_k([a, b], k=1, containment_threshold=0.99)
        assert str(selected[0].pattern) == "a = v"  # canonical order wins

    def test_invalid_k(self, candidates):
        with pytest.raises(ValueError, match="k must be"):
            select_top_k(candidates, k=0)

    def test_invalid_threshold(self, candidates):
        with pytest.raises(ValueError, match="containment_threshold"):
            select_top_k(candidates, k=1, containment_threshold=0.0)

    def test_empty_candidates(self):
        selected, _ = select_top_k([], k=3)
        assert selected == []

    def test_exclude_features_only_drops_vacuous(self):
        pool = [
            make_stats("gender", [1, 1, 0, 0], 0.9),   # protected-only -> dropped
            make_stats("hours", [0, 0, 1, 1], 0.2),
        ]
        selected, _ = select_top_k(
            pool, k=2, containment_threshold=0.99, exclude_features_only={"gender"}
        )
        assert [str(s.pattern) for s in selected] == ["hours = v"]

    def test_exclude_features_only_keeps_combinations(self):
        from repro.patterns import Pattern, Predicate
        mask = np.array([1, 1, 0, 0], dtype=bool)
        combined = PatternStats(
            pattern=Pattern([Predicate("gender", "=", "F"), Predicate("age", ">=", 45.0)]),
            support=0.5,
            size=2,
            responsibility=0.3,
            bias_change=-0.06,
            _packed_mask=np.packbits(mask),
            _num_rows=4,
        )
        selected, _ = select_top_k(
            [combined], k=1, containment_threshold=0.99, exclude_features_only={"gender"}
        )
        assert len(selected) == 1
