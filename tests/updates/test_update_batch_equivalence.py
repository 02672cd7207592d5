"""Engine-vs-loop equivalence for the vectorized §5 update-search engine.

The batched engine must produce the same δ's, estimated bias changes, and
described updates as the per-coordinate reference loop
(``tests/oracles/update_loop.py``) — both through the analytic
``input_grads`` fast path and, for a model that does not override that
hook, through the stacked finite-difference path.
"""

import json

import numpy as np
import pytest

from repro.influence.artifacts import ModelArtifacts
from repro.influence.one_step_gd import auto_learning_rate
from repro.models import LogisticRegression, TwiceDifferentiableClassifier
from repro.patterns import Pattern, Predicate
from repro.updates import UpdateSearchContext, find_update_explanations
from tests.oracles.update_loop import loop_update_explanations

# Single-feature (numeric and categorical), multi-feature, and
# all-categorical patterns — the shapes the engine special-cases least.
PATTERNS = [
    Pattern([Predicate("age", ">=", 45.0), Predicate("gender", "=", "Female")]),
    Pattern([Predicate("gender", "=", "Female")]),
    Pattern([Predicate("age", ">=", 45.0)]),
    Pattern([Predicate("gender", "=", "Female"), Predicate("housing", "=", "Own")]),
]

DELTA_ATOL = 1e-6
CHANGE_ATOL = 1e-9


@pytest.fixture(scope="module")
def subsets(german_train):
    subsets = [np.flatnonzero(p.mask(german_train.table)) for p in PATTERNS]
    assert all(s.size > 0 for s in subsets)
    return subsets


@pytest.fixture(scope="module")
def context(lr_model, X_train, german_train, sp_metric, test_ctx):
    return UpdateSearchContext(
        lr_model, X_train, german_train.labels, sp_metric, test_ctx
    )


@pytest.fixture(scope="module")
def bind(lr_model, encoder, X_train, german_train, sp_metric, test_ctx, subsets, context):
    """Bind a search function to the German setup and the PATTERNS."""

    def bound(search):
        def run(**kwargs):
            kwargs.setdefault("num_steps", 40)
            kwargs.setdefault("context", context)
            return search(
                lr_model, encoder, X_train, german_train.labels, sp_metric, test_ctx,
                PATTERNS, subsets, **kwargs,
            )

        return run

    return bound


@pytest.fixture(scope="module")
def engine(bind):
    return bind(find_update_explanations)


@pytest.fixture(scope="module")
def loop(bind):
    return bind(loop_update_explanations)


@pytest.fixture(scope="module")
def loop_result(loop):
    return loop()


class FiniteDifferenceLogisticRegression(LogisticRegression):
    """Logistic regression without its analytic ``input_grads`` override, so
    the engine takes the stacked finite-difference path."""

    input_grads = TwiceDifferentiableClassifier.input_grads


def _assert_equivalent(batched, loop):
    assert len(batched) == len(loop)
    for b, l in zip(batched, loop):
        np.testing.assert_allclose(b.delta, l.delta, atol=DELTA_ATOL)
        assert b.est_bias_change == pytest.approx(l.est_bias_change, abs=CHANGE_ATOL)
        assert b.changed_features == l.changed_features
        assert b.support == l.support
        assert b.direction == l.direction


class TestBatchEquivalence:
    def test_analytic_fast_path_matches_loop(self, engine, loop_result):
        _assert_equivalent(engine(), loop_result)

    def test_stacked_fd_matches_loop(
        self, lr_model, encoder, X_train, german_train, sp_metric, test_ctx,
        subsets, loop_result,
    ):
        model = FiniteDifferenceLogisticRegression(l2_reg=lr_model.l2_reg).fit(
            X_train, german_train.labels
        )
        np.testing.assert_array_equal(model.theta, lr_model.theta)
        context = UpdateSearchContext(
            model, X_train, german_train.labels, sp_metric, test_ctx
        )
        stacked = find_update_explanations(
            model, encoder, X_train, german_train.labels, sp_metric, test_ctx,
            PATTERNS, subsets, num_steps=40, context=context,
        )
        _assert_equivalent(stacked, loop_result)

    def test_allowed_features_override(self, engine, loop):
        allowed = {"gender", "age", "housing", "amount"}
        _assert_equivalent(
            engine(allowed_features=allowed), loop(allowed_features=allowed)
        )

    def test_verified_changes_match(self, engine, loop):
        batched = engine(verify=True, num_steps=15)
        looped = loop(verify=True, num_steps=15)
        for b, l in zip(batched, looped):
            assert b.gt_bias_change is not None and l.gt_bias_change is not None
            assert b.gt_bias_change == pytest.approx(l.gt_bias_change, abs=1e-8)

    def test_context_reuse_matches_fresh(
        self, lr_model, encoder, X_train, german_train, sp_metric, test_ctx,
        subsets, engine,
    ):
        shared = engine()
        fresh = find_update_explanations(
            lr_model, encoder, X_train, german_train.labels, sp_metric, test_ctx,
            PATTERNS, subsets, num_steps=40,
        )
        _assert_equivalent(fresh, shared)


class TestSearchContext:
    def test_private_artifacts_match_direct_state(
        self, lr_model, X_train, german_train, context
    ):
        # Without a shared bundle the context builds a private one; its
        # Hessian, η and training gradients come from the same model calls
        # the standalone start-up used to make.
        y = german_train.labels
        hessian = lr_model.hessian(X_train, y)
        np.testing.assert_array_equal(context.hessian, hessian)
        assert context.learning_rate == auto_learning_rate(hessian)
        np.testing.assert_array_equal(
            context.train_grads, lr_model.per_sample_grads(X_train, y)
        )

    def test_shared_artifacts_match_private(
        self, lr_model, X_train, german_train, sp_metric, test_ctx, context
    ):
        artifacts = ModelArtifacts(lr_model, X_train, german_train.labels)
        views = [
            UpdateSearchContext(
                lr_model, X_train, german_train.labels, sp_metric, test_ctx,
                artifacts=artifacts,
            )
            for _ in range(2)
        ]
        # Every view on one bundle reads the same build.
        assert views[0].hessian is views[1].hessian
        assert views[0].train_grads is views[1].train_grads
        shared = views[0]
        np.testing.assert_array_equal(shared.hessian, context.hessian)
        np.testing.assert_array_equal(shared.train_grads, context.train_grads)
        np.testing.assert_array_equal(shared.grad_f, context.grad_f)
        assert shared.learning_rate == context.learning_rate
        assert shared.original_bias == context.original_bias

    def test_removed_knobs_rejected(
        self, lr_model, encoder, X_train, german_train, sp_metric, test_ctx,
        subsets, context,
    ):
        # One search path: the model's type picks the gradient path.
        for knob in ({"batch": False}, {"use_input_grads": False}):
            with pytest.raises(TypeError):
                find_update_explanations(
                    lr_model, encoder, X_train, german_train.labels, sp_metric,
                    test_ctx, PATTERNS, subsets, context=context, **knob,
                )


class TestEngineResult:
    def test_misaligned_inputs_rejected(self, engine, subsets,
                                        lr_model, encoder, X_train, german_train,
                                        sp_metric, test_ctx):
        with pytest.raises(ValueError, match="aligned"):
            find_update_explanations(
                lr_model, encoder, X_train, german_train.labels, sp_metric, test_ctx,
                PATTERNS, subsets[:-1],
            )
        with pytest.raises(ValueError, match="one entry per pattern"):
            find_update_explanations(
                lr_model, encoder, X_train, german_train.labels, sp_metric, test_ctx,
                PATTERNS, subsets, removal_bias_changes=[0.0],
            )

    def test_foreign_context_rejected(self, lr_model, encoder, X_train, german_train,
                                      sp_metric, test_ctx, subsets, context):
        other = lr_model.clone().fit(X_train, german_train.labels)
        with pytest.raises(ValueError, match="different model"):
            find_update_explanations(
                other, encoder, X_train, german_train.labels, sp_metric, test_ctx,
                PATTERNS, subsets, context=context,
            )

    def test_empty_pattern_list(self, lr_model, encoder, X_train, german_train,
                                sp_metric, test_ctx, context):
        # Zero surviving explanations (e.g. an over-tight support threshold)
        # must yield an empty set, not a concatenate crash.
        result = find_update_explanations(
            lr_model, encoder, X_train, german_train.labels, sp_metric, test_ctx,
            [], [], context=context,
        )
        assert len(result) == 0
        assert result.original_bias == pytest.approx(context.original_bias)

    def test_empty_subset_rejected(self, lr_model, encoder, X_train, german_train,
                                   sp_metric, test_ctx):
        with pytest.raises(ValueError, match="empty"):
            find_update_explanations(
                lr_model, encoder, X_train, german_train.labels, sp_metric, test_ctx,
                [PATTERNS[0]], [np.array([], dtype=np.int64)],
            )

    @pytest.mark.parametrize(
        "make_subset, error",
        [
            (lambda mask, idx: mask, None),
            (lambda mask, idx: idx.astype(np.float64) + 0.5, ValueError),
            (lambda mask, idx: -1 - np.arange(3), IndexError),
            (lambda mask, idx: np.array([mask.size]), IndexError),
            (lambda mask, idx: np.concatenate([idx, idx[:5]]), ValueError),
        ],
        ids=["bool_mask", "float", "negative", "out_of_range", "duplicates"],
    )
    def test_subset_forms(
        self, lr_model, encoder, X_train, german_train, sp_metric, test_ctx,
        subsets, context, engine, make_subset, error,
    ):
        # A bool mask is read as a mask; np.asarray(..., dtype=int64) used to
        # turn it into rows {0, 1}, truncate floats, wrap negatives to the
        # last rows and double-count duplicates.
        mask = PATTERNS[1].mask(german_train.table)
        subset = make_subset(mask, subsets[1])

        def run():
            return find_update_explanations(
                lr_model, encoder, X_train, german_train.labels, sp_metric, test_ctx,
                [PATTERNS[1]], [subset], num_steps=40, context=context,
            )

        if error is not None:
            with pytest.raises(error):
                run()
            return
        update = run()[0]
        assert update.support == pytest.approx(mask.mean())
        _assert_equivalent([update], [engine()[1]])

    def test_set_protocol_and_timings(self, engine):
        result = engine()
        assert len(result) == len(PATTERNS)
        assert [u.pattern for u in result] == PATTERNS
        assert result[0] is result.updates[0]
        assert result.search_seconds > 0
        assert result.verify_seconds == 0.0
        assert result.metric_name == "statistical_parity"

    def test_render_and_records(self, engine):
        result = engine(removal_bias_changes=[-0.05] * len(PATTERNS),
                        removal_sources=["estimated"] * len(PATTERNS))
        text = result.render()
        assert "Update-based explanations" in text
        assert "vs removal" in text
        records = result.to_records()
        json.dumps(records)
        assert all(r["removal_bias_source"] == "estimated" for r in records)

    def test_render_without_removal_reference(self, engine):
        assert "n/a" in engine().render()
