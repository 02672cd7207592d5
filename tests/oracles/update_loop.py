"""Per-coordinate reference for the §5 update search.

:func:`loop_update_explanations` runs the update search one pattern at a
time: each ascent step estimates ∇_δJ by 2·|active| separate central
differences of the objective, and each backoff scale is scored by its
own Eq. 14 evaluation.  It shares the domain, the backoff candidates, the
scale choice and the update description with
:func:`repro.updates.find_update_explanations`, and returns a result that
compares to the engine's field by field.
"""

from __future__ import annotations

import numpy as np

from repro.influence.parallel import RetrainTask, retrain_thetas
from repro.updates import UpdateDomain, UpdateSearchContext, describe_update
from repro.updates.projected_gd import (
    UpdateExplanation,
    UpdateExplanationSet,
    _backoff_candidates,
    _pick_scale,
)


def loop_update_explanations(
    model,
    encoder,
    X_train,
    y_train,
    metric,
    test_ctx,
    patterns,
    subset_indices,
    *,
    allowed_features=None,
    learning_rate: float = 0.25,
    num_steps: int = 120,
    verify: bool = False,
    context: UpdateSearchContext | None = None,
) -> UpdateExplanationSet:
    if context is None:
        context = UpdateSearchContext(model, X_train, y_train, metric, test_ctx)
    subsets = [np.asarray(indices, dtype=np.int64) for indices in subset_indices]
    domains = [
        UpdateDomain(
            encoder,
            context.X_train[indices],
            allowed_features if allowed_features is not None else pattern.features(),
        )
        for pattern, indices in zip(patterns, subsets)
    ]
    deltas = [
        _ascend_loop(
            model, context.X_train[indices], context.y_train[indices],
            context.ascent_grad_f, domain, learning_rate, num_steps,
        )
        for domain, indices in zip(domains, subsets)
    ]
    best_rows, best_changes = _score_backoff_loop(context, domains, subsets, deltas)

    gt_changes = [None] * len(patterns)
    if verify:
        tasks = [RetrainTask(indices, rows) for indices, rows in zip(subsets, best_rows)]
        thetas = retrain_thetas(
            model, context.X_train, context.y_train, tasks,
            warm_start=context.theta, n_jobs=1,
        )
        after = metric.value_batch(model, test_ctx, thetas)
        gt_changes = [float(a - context.original_bias) for a in after]

    updates = [
        UpdateExplanation(
            pattern=pattern,
            support=indices.size / context.num_train,
            delta=delta,
            changed_features=describe_update(encoder, context.X_train[indices], rows),
            est_bias_change=change,
            gt_bias_change=gt,
            original_bias=context.original_bias,
        )
        for pattern, indices, delta, rows, change, gt in zip(
            patterns, subsets, deltas, best_rows, best_changes, gt_changes
        )
    ]
    return UpdateExplanationSet(
        updates=updates,
        metric_name=metric.name,
        original_bias=context.original_bias,
        search_seconds=0.0,
    )


def _objective(model, subset_X, subset_y, grad_f, delta) -> float:
    grads = model.per_sample_grads(subset_X + delta, subset_y)
    return float(grad_f @ grads.sum(axis=0))


def _ascend_loop(model, subset_X, subset_y, grad_f, domain, learning_rate, num_steps):
    """Projected ascent with one pair of objective calls per coordinate."""
    dim = subset_X.shape[1]
    delta = np.zeros(dim)
    active = np.flatnonzero(domain.mask)
    eps = 1e-4
    for _ in range(num_steps):
        grad = np.zeros(dim)
        for j in active:
            step = np.zeros(dim)
            step[j] = eps
            plus = _objective(model, subset_X, subset_y, grad_f, delta + step)
            minus = _objective(model, subset_X, subset_y, grad_f, delta - step)
            grad[j] = (plus - minus) / (2.0 * eps)
        norm = np.linalg.norm(grad)
        if norm < 1e-12:
            break
        new_delta = domain.project_delta(delta + learning_rate * grad / norm)
        if np.allclose(new_delta, delta, atol=1e-10):
            break
        delta = new_delta
    return delta


def _one_step_bias_change(context, subset_indices, updated_rows) -> float:
    """Eq. 14 evaluated at one projected update, at the context's shared η."""
    new_sum = context.model.per_sample_grads(
        updated_rows, context.y_train[subset_indices]
    ).sum(axis=0)
    diff = new_sum - context.subset_grad_sum(subset_indices)
    theta_p = context.one_step_thetas(diff[None, :])[0]
    after = context.metric.value(context.model, context.test_ctx, theta_p)
    return float(after - context.original_bias)


def _score_backoff_loop(context, domains, subsets, deltas):
    best_rows, best_changes = [], []
    for indices, scaled_rows in zip(
        subsets, _backoff_candidates(context, domains, subsets, deltas)
    ):
        changes = np.array(
            [_one_step_bias_change(context, indices, rows) for rows in scaled_rows]
        )
        k = _pick_scale(context, changes)
        best_rows.append(scaled_rows[k])
        best_changes.append(float(changes[k]))
    return best_rows, best_changes
