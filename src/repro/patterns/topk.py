"""Algorithm 2 — top-k selection with containment-based diversity."""

from __future__ import annotations

import time

import numpy as np

from repro.patterns.containment import containment
from repro.patterns.lattice import PatternStats


def select_top_k(
    candidates: list[PatternStats],
    k: int,
    containment_threshold: float = 0.75,
    exclude_features_only: set[str] | None = None,
    max_responsibility: float = 1.25,
) -> tuple[list[PatternStats], float]:
    """Pick the k most interesting, mutually diverse candidates.

    ``candidates`` is the scored pool of Algorithm 1 — the ``candidates``
    list of a :class:`~repro.patterns.lattice.CandidateResult`.

    Candidates are visited in descending interestingness order (ties broken
    by the canonical pattern order, giving the deterministic tie-break
    Definition 3.7 requires); a candidate is skipped when its containment in
    any already-selected explanation exceeds the threshold.

    Definition 3.1 requires a *root cause* to satisfy
    ``0 <= F(after) < F(before)`` — removing it must reduce the bias, not
    overshoot past zero and flip its sign.  Candidates with R <= 0 are
    always dropped, and ``max_responsibility`` sets the upper bound; the
    default allows 25% slack above R = 1 because the lattice works with
    *estimated* responsibilities, and near-total fixes routinely estimate
    slightly above 1.  Set ``max_responsibility=float("inf")`` to disable.

    ``exclude_features_only`` drops candidates whose predicates mention
    *only* the given features.  The explainer passes the protected attribute
    here: a pattern like ``gender = Female`` alone is vacuous as a fairness
    explanation ("the protected group is responsible for the disparity") —
    the paper's result tables never contain one, while the attribute freely
    appears *combined* with other predicates.

    Returns ``(selected, filter_seconds)`` — the filtering time is reported
    separately because Table 7 tracks it independently of search time.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if not 0.0 < containment_threshold <= 1.0:
        raise ValueError(
            f"containment_threshold must be in (0, 1], got {containment_threshold}"
        )
    if max_responsibility <= 0:
        raise ValueError(f"max_responsibility must be positive, got {max_responsibility}")
    start = time.perf_counter()
    pool = [c for c in candidates if 0.0 < c.responsibility <= max_responsibility]
    if exclude_features_only:
        pool = [c for c in pool if not c.pattern.features() <= exclude_features_only]
    ordered = sorted(pool, key=lambda c: (-c.interestingness, c.pattern.sort_key()))
    selected: list[PatternStats] = []
    selected_masks: list[np.ndarray] = []
    for candidate in ordered:
        mask = candidate.mask()
        if any(
            containment(mask, other) > containment_threshold for other in selected_masks
        ):
            continue
        selected.append(candidate)
        selected_masks.append(mask)
        if len(selected) == k:
            break
    return selected, time.perf_counter() - start
