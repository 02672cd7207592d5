"""Second-order group influence (paper Eq. 10, after Basu et al. 2020).

First-order group influence assumes points are removed independently; for
coherent subsets — exactly what Gopher's patterns describe — the points are
correlated and the assumption breaks down.  The second-order correction
re-introduces the subset's own curvature H_S = (1/m) Σ_{z∈S} ∇²ℓ(z, θ*).

Two variants are provided:

* ``variant="exact"`` (default) — the Newton step on the reduced objective:

      Δθ = (n·H − m·H_S)⁻¹ g_S.

  This is the closed form the series below truncates; it is exact for
  quadratic losses.  Per-subset queries factorize the reduced matrix
  directly.  *Batched* queries form every subset's reduced matrix from
  the model's rank-one factors ``m·H_S = Σ_{i∈S} w_i φ_i φ_iᵀ + m·ridge·I``:

      n·H − m·H_S = n·H − Φ_Sᵀ diag(w_S) Φ_S − m·ridge·I,

  gathering the subsets' curvature rows into padded, size-bucketed
  blocks so one batched matmul forms a whole bucket's matrices and one
  stacked Cholesky factors and solves them
  (:func:`repro.influence.hessian.solve_stacked`).  The same path serves
  every subset size.  A bucket holding a matrix that is not positive
  definite reroutes each of its subsets through the scalar solver's
  damping escalation, and models without rank-one factors loop the
  scalar query (``exact_batch_stats`` counts every routing decision).

* ``variant="series"`` — the first-order Neumann expansion of that solve,
  matching the structure of the paper's Eq. 10:

      Δθ ≈ (1/(n−m)) H⁻¹ g_S − (m/(n−m)²)(I − H⁻¹H_S) H⁻¹ g_S.

  Note on the transcription in the paper: Eq. 10 is stated in terms of an
  ``I^{(1)}`` whose sign/scale mixes the up-weighting and removal
  conventions.  The form above is the one consistent with ε = −1/n removal
  (it reduces to the FO direction as m → 1) and is validated against
  retraining ground truth in the test suite — the property Figure 3 checks.
"""

from __future__ import annotations

from collections.abc import Iterator

import numpy as np

from repro.fairness.metrics import FairnessContext, FairnessMetric
from repro.influence.artifacts import ModelArtifacts
from repro.influence.estimators import InfluenceEstimator
from repro.influence.hessian import HessianSolver, solve_stacked
from repro.mining.bitset import Extents
from repro.models.base import TwiceDifferentiableClassifier
from repro.obs import trace
from repro.obs.metrics import StatsView

# Batched queries of either variant work on at most this many subsets at
# a time, so every per-block transient (mask blocks, row indices, g_S
# rows) stays bounded however large the batch is (mirrors
# estimators._PACKED_CHUNK).
_EXACT_BLOCK = 256

# A size bucket's padded (subsets, r_max, p) row block holds at most this
# many cells (a single subset wider than the budget gets a bucket of its
# own), so the gathered blocks stay small next to the model's own state:
# on the German exact audit, 2**21 cells raised peak RSS from 122 to
# 150 MB at no gain in speed, while 2**18 kept it at 124 MB.
_EXACT_CELLS = 2**18


class SecondOrderInfluence(InfluenceEstimator):
    """Eq. 10: group influence with the curvature correction.

    ``exact_batch_stats`` counts, cumulatively over all batched queries of
    the ``"exact"`` variant, how each subset was routed: ``"stacked"``
    (solved in a stacked Cholesky bucket; an empty subset's Δθ = 0 needs
    no solve), ``"fallback_not_pd"`` (its bucket held a reduced matrix
    that is not positive definite, so every subset of the bucket took the
    scalar solver's damping escalation), and ``"fallback_factors"`` (the
    model exposes no rank-one Hessian factors; the scalar
    :meth:`param_change` loop).
    """

    def __init__(
        self,
        model: TwiceDifferentiableClassifier,
        X_train: np.ndarray,
        y_train: np.ndarray,
        metric: FairnessMetric,
        test_ctx: FairnessContext,
        damping: float = 0.0,
        variant: str = "exact",
        evaluation: str = "smooth",
        artifacts: ModelArtifacts | None = None,
    ) -> None:
        if variant not in ("exact", "series"):
            raise ValueError(f"variant must be 'exact' or 'series', got {variant!r}")
        super().__init__(model, X_train, y_train, metric, test_ctx, evaluation, artifacts)
        self.variant = variant
        self.damping = damping
        # Hessian, factorization and rank-one factors live in the (possibly
        # shared) artifacts bundle: estimators of different metrics /
        # groups / variants with the same damping reuse one factorization.
        self.hessian = self.artifacts.hessian
        self.solver = self.artifacts.solver(damping)
        # Per-estimator registry: routing counts are asserted per instance
        # by the equivalence/fuzz suites, so the namespace is private, and
        # the lock inside StatsView.inc makes every bump exact under
        # concurrent batched queries (this retires the old lossy-increment
        # pragma on the fallback_factors site).
        self.exact_batch_stats = StatsView(
            {"stacked": 0, "fallback_not_pd": 0, "fallback_factors": 0},
            namespace="exact_batch",
        )

    def _extent_cache_spec(self) -> tuple:
        return ("second_order", self.variant, float(self.damping))

    def param_change(self, indices: np.ndarray) -> np.ndarray:
        # The whole per-subset preparation (validation, gradient sum, the
        # subset Hessian, the reduced matrix) is one leaf span so the
        # scalar path's cost attribution lands on a measurable name.
        with trace.span("influence.subset_hessian") as prep_span:
            indices = self._subset_size_ok(indices)
            if indices.size == 0:
                return np.zeros(self.model.num_params)
            m, n = indices.size, self.num_train
            prep_span.set(m=int(m))
            g_s = self.per_sample_grads[indices].sum(axis=0)
            subset_hessian = self.model.hessian(
                self.X_train[indices], self.y_train[indices]
            )
            reduced = (
                n * self.hessian - m * subset_hessian
                if self.variant == "exact"
                else None
            )
        if reduced is not None:
            return HessianSolver(reduced, damping=self.damping).solve(g_s)
        u = self.solver.solve(g_s)
        correction = u - self.solver.solve(subset_hessian @ u)
        return u / (n - m) - (m / (n - m) ** 2) * correction

    def _param_change_from_extents(self, extents: Extents) -> np.ndarray:
        """Batched Δθ's.

        The ``"series"`` variant only ever applies subset Hessians to
        vectors, so for models exposing rank-one Hessian factors the whole
        batch reduces to GEMMs against the cached factorization: one
        multi-RHS solve for ``u_S = H⁻¹ g_S``, three matrix products for
        every ``H_S u_S``, and one more multi-RHS solve for the correction.
        The ``"exact"`` variant solves a *different* reduced matrix
        ``n·H − m·H_S`` per subset: the batch forms those matrices from the
        gathered curvature rows and solves them stacked (see the module
        docstring and :meth:`_exact_param_change_from_extents`).  Models
        without factor structure loop the scalar query for both variants;
        so do sparse rows under ``"series"``, whose boolean-block kernel
        would have to unpack them.
        """
        factors = self._hessian_factors()
        if self.variant == "exact":
            if factors is None:
                self.exact_batch_stats.inc("fallback_factors", len(extents))
                return super()._param_change_from_extents(extents)
            return self._exact_param_change_from_extents(extents, factors)
        if factors is None or extents.sparse:
            return super()._param_change_from_extents(extents)
        phi, weights, ridge = factors
        n = self.num_train
        p = self.model.num_params
        num_subsets = len(extents)
        sizes = extents.sizes.astype(np.float64)
        grad_sums = self.artifacts.gradient_sums(extents)
        u = self.solver.solve_many(grad_sums)  # (m, p) rows = H⁻¹ g_S
        # H_S u_S = (1/|S|) φᵀ (1_S ⊙ w ⊙ (φ u_S)) + ridge·u_S, batched over
        # the subset axis by weighting the (n, block) projection with the
        # block's masks.
        hs_u = np.empty((p, num_subsets))
        with trace.span("influence.gemm", m=num_subsets, n=n, p=p, kind="curvature") as s:
            s.add("gemm_flops", 4.0 * num_subsets * n * p)
            for start, block in extents.bool_blocks(_EXACT_BLOCK):
                cols = slice(start, start + len(block))
                projections = phi @ u[cols].T  # (n, block)
                weighted = (block.T * weights[:, None]) * projections
                hs_u[:, cols] = phi.T @ weighted
            denom = np.where(sizes > 0, sizes, 1.0)
            hs_u = hs_u / denom[None, :] + ridge * u.T  # (p, m)
        correction = u - self.solver.solve_many(hs_u.T)
        rest = n - sizes
        deltas = u / rest[:, None] - (sizes / rest**2)[:, None] * correction
        deltas[sizes == 0] = 0.0  # matches the scalar empty-subset shortcut
        return deltas

    def _exact_param_change_from_extents(
        self, extents: Extents, factors: tuple[np.ndarray, np.ndarray, float]
    ) -> np.ndarray:
        """Stacked exact Δθ's (see the module docstring).

        Per block of _EXACT_BLOCK subsets: ``g_S`` for the whole block is
        one mask GEMM (sparse rows gather-sum only the rows they name).
        Each size bucket (:func:`_size_buckets`) gathers its subsets'
        curvature rows ``φ_i`` and weights ``w_i`` into a padded
        ``(subsets, r_max, p)`` block — padding slots weigh 0, so they add
        nothing to a Gram — forms every ``Φ_Sᵀ diag(w_S) Φ_S`` with one
        batched matmul, and hands the reduced matrices to
        :func:`~repro.influence.hessian.solve_stacked`.  Empty subsets keep
        Δθ = 0, the scalar shortcut.
        """
        phi, weights, ridge = factors
        n, p = self.num_train, self.model.num_params
        grads = self.per_sample_grads
        base = n * self.hessian
        diag = np.arange(p)
        stats = self.exact_batch_stats
        deltas = np.zeros((len(extents), p))
        for start in range(0, len(extents), _EXACT_BLOCK):
            block = extents.select(slice(start, start + _EXACT_BLOCK))
            sizes = block.sizes
            work = 2.0 * p * (int(sizes.sum()) if block.sparse else len(block) * n)
            with trace.span("influence.gemm", m=len(block), n=n, p=p, kind="gradient_sum") as sp:
                sp.add("gemm_flops", work)
                g_sums = block.row_sums(grads)
                # Every subset's rows back to back, subset j's from offsets[j].
                flat = np.concatenate([*block.index_rows()]).astype(np.int64, copy=False)
            offsets = np.cumsum(sizes) - sizes
            stats.inc("stacked", int((sizes == 0).sum()))  # Δθ = 0, no solve
            for picked in _size_buckets(sizes, p):
                ranks = sizes[picked]
                slots = np.arange(int(ranks.max()))
                with trace.span("influence.gemm", m=picked.size, n=slots.size, p=p, kind="gram") as sp:
                    sp.add("gemm_flops", 2.0 * picked.size * slots.size * p * p)
                    # A padding slot repeats some real row at weight 0.
                    pad = flat[np.minimum(offsets[picked][:, None] + slots, flat.size - 1)]
                    rows = phi[pad]
                    valid = slots < ranks[:, None]
                    weighted = rows * np.where(valid, weights[pad], 0.0)[:, :, None]
                    reduced = weighted.transpose(0, 2, 1) @ rows  # the Grams
                    np.subtract(base, reduced, out=reduced)
                    reduced[:, diag, diag] -= (ranks * ridge)[:, None]
                solved, rerouted = solve_stacked(reduced, g_sums[picked], self.damping)
                deltas[start + picked] = solved
                stats.inc("fallback_not_pd" if rerouted else "stacked", int(picked.size))
        return deltas

    def _hessian_factors(self) -> tuple[np.ndarray, np.ndarray, float] | None:
        return self.artifacts.hessian_factors()


def _size_buckets(sizes: np.ndarray, width: int) -> Iterator[np.ndarray]:
    """Indices of the nonempty subsets, in stacked-solve buckets.

    Subsets are sorted by size into power-of-two buckets, so padding to a
    bucket's widest subset at most doubles its rows, and a bucket is split
    so its padded ``(subsets, r_max, width)`` block stays within
    _EXACT_CELLS.
    """
    order = np.argsort(sizes, kind="stable")
    order = order[sizes[order] > 0]
    exponents = np.frexp(sizes[order])[1]
    for bucket in np.split(order, np.flatnonzero(np.diff(exponents)) + 1):
        if bucket.size:  # splitting an empty order yields one empty piece
            step = max(1, _EXACT_CELLS // (int(sizes[bucket[-1]]) * width))
            for lo in range(0, bucket.size, step):
                yield bucket[lo : lo + step]
