"""The estimator interface and shared per-model caches.

Every estimator answers the same questions about removing a training subset
S (given as row indices or a boolean row mask over the training matrix):

* ``param_change(S)``  — estimated Δθ = θ_{D∖S} − θ*;
* ``bias_change(S)``   — estimated ΔF = F(θ_{D∖S}) − F(θ*) on the test set;

plus ``responsibility(S)`` implementing Definition 3.2, and a *batched*
form of each — ``param_change_batch`` / ``bias_change_batch`` /
``responsibility_batch`` — that evaluates m subsets per call.

Cost model
----------
Construction performs the paper's "start-up" pre-computation once: the
per-sample gradient matrix (n, p), the Hessian and its Cholesky
factorization, and ∇_θF.  That is the fixed cost Figure 5 measures.  The
metric-independent part of it — everything except ∇_θF and the original
bias — lives in a :class:`repro.influence.artifacts.ModelArtifacts`
bundle; by default each estimator builds a private bundle, and passing a
shared one (``make_estimator(..., artifacts=...)``) lets estimators of
*different* metrics, protected groups, and second-order variants reuse
one gradient matrix, one Hessian factorization, and one set of rank-one
curvature factors — the per-model vs per-query split
:class:`repro.core.AuditSession` amortizes across a whole audit.  After
start-up the two query paths differ:

* **per-subset** — each call pays one gather-and-sum over the subset rows
  plus one triangular solve; issuing thousands of such calls from Python
  (one per lattice candidate) is dominated by interpreter and dispatch
  overhead, not floating-point work.
* **per-batch** — a batch of m subsets is one :class:`Extents` value.
  Subset gradient sums for the whole batch are a single
  ``M @ per_sample_grads`` GEMM over its packed rows, the Δθ's come from
  one multi-RHS solve against the cached factorization, and all three
  evaluation modes score the m perturbed θ's in one vectorized pass.
  Per-batch cost is therefore one BLAS level-3 call amortized over m
  subsets — the amortized batch influence queries the lattice search
  (``repro.patterns.lattice``) is built on.  The exact
  second-order variant is the one closed form whose per-subset matrix
  differs across the batch (``n·H − m·H_S``); its batch path gathers the
  subsets' curvature rows into size-bucketed blocks, forms a bucket's
  reduced matrices with one batched matmul and factors and solves them
  with one stacked Cholesky, for every subset size — the per-subset
  Python loop runs only for a bucket holding a matrix that is not
  positive definite (see ``repro.influence.second_order``).

Batches are given as a :class:`repro.mining.bitset.Extents` — m removal
extents held as packed rows or as sorted index arrays, always with the row
count n — or as an (m, n) boolean mask matrix or a sequence of per-subset
index arrays / boolean masks, which the one boundary coercion
(:func:`repro.mining.bitset.as_extents`) packs once per call.  Results are
aligned with the batch order.  The base-class Δθ hook loops over the
scalar queries so estimators without a closed form (retraining) keep the
same interface; the closed-form estimators override it with the GEMM
formulation, and the equivalence test suite pins batch == loop to 1e-10.

Extents
-------
Batches are scored ``_PACKED_CHUNK`` extents at a time.  Packed rows are
never unpacked into an (m, n) matrix: gradient sums run through
:meth:`Extents.row_sums`, a column-blocked unpack-and-GEMM, and the exact
second-order path unpacks one row at a time to gather its curvature rows.  Packed rows are keyed
by their bytes in the shared extent caches, so a lattice batch and a
mining chunk of the same extent share one Δθ.

Sparse rows (the miner's compressed tidlists) cost O(|S|) each to gather —
never O(n) to unpack — so a batch of small extents over a 10M-row table
touches only the rows it names.  The gradient-sum estimators gather-sum
them and the exact second-order path gathers their curvature rows
directly; the series second-order and base hooks loop the scalar closed
form.  Sparse
rows bypass the extent caches (packing each subset just to key a cache
would reintroduce the O(n/8) per-subset cost this form exists to avoid) —
deduplication is the caller's job, which the mining cache already
performs by extent digest.

Evaluation modes
----------------
How Δθ is turned into ΔF is itself a modelling choice, so each estimator
takes an ``evaluation`` argument:

* ``"linear"`` — ΔF = ∇_θF(θ*)ᵀ Δθ, the chain rule of paper Eq. 11 using the
  smooth surrogate gradient.
* ``"smooth"`` — ΔF = F̃(θ* + Δθ) − F̃(θ*) with the smooth surrogate F̃;
  captures the metric's curvature without indicator noise.
* ``"hard"``   — ΔF = F(θ* + Δθ) − F(θ*) with the thresholded metric, the
  quantity retraining ground truth reports.

Batched evaluation is ``deltas @ ∇F`` for ``"linear"`` and a single
``value_batch`` / ``surrogate_batch`` metric call over the stacked
``θ* + Δθ`` matrix for the other two.
"""

from __future__ import annotations

import threading
from abc import ABC, abstractmethod
from contextlib import contextmanager

import numpy as np

from repro.fairness.metrics import FairnessContext, FairnessMetric
from repro.influence.artifacts import ModelArtifacts
from repro.mining.bitset import Extents, as_extents, check_indices
from repro.models.base import TwiceDifferentiableClassifier
from repro.obs import trace
from repro.obs.lazy import Lazy

_EVALUATIONS = ("linear", "smooth", "hard")

# Batches are scored this many extents at a time, bounding every per-chunk
# transient (boolean blocks, Δθ rows, the evaluation pass) however large
# the batch is.
_PACKED_CHUNK = 256


class InfluenceEstimator(ABC):
    """Base class binding a fitted model, training data, and a bias metric."""

    def __init__(
        self,
        model: TwiceDifferentiableClassifier,
        X_train: np.ndarray,
        y_train: np.ndarray,
        metric: FairnessMetric,
        test_ctx: FairnessContext,
        evaluation: str = "linear",
        artifacts: ModelArtifacts | None = None,
    ) -> None:
        if model.theta is None:
            raise ValueError("model must be fitted before building an influence estimator")
        if evaluation not in _EVALUATIONS:
            raise ValueError(f"evaluation must be one of {_EVALUATIONS}, got {evaluation!r}")
        if artifacts is None:
            artifacts = ModelArtifacts(model, X_train, y_train)
        else:
            artifacts.check_compatible(model, X_train, y_train)
        self.artifacts = artifacts
        self.model = model
        self.X_train = artifacts.X_train
        self.y_train = artifacts.y_train
        self.metric = metric
        self.test_ctx = test_ctx
        self.evaluation = evaluation
        self.theta = artifacts.theta
        self.num_train = artifacts.num_train
        self._artifacts_version = artifacts.version
        self.original_bias = metric.value(model, test_ctx)
        self.original_surrogate = metric.surrogate(model, test_ctx)
        # Guards this estimator's per-query memos (∇F, and the subclasses'
        # own) so concurrent readers of one estimator build each once.
        self._lock = threading.RLock()
        self._grad_f = Lazy(self._lock)

    # -- cached heavy pieces -------------------------------------------
    @property
    def grad_f(self) -> np.ndarray:
        """∇_θF(θ*) of the smooth surrogate (cached)."""
        return self._grad_f.get(self._build_grad_f)

    def _build_grad_f(self) -> np.ndarray:
        with trace.span("influence.grad_f", metric=self.metric.name):
            return self.metric.grad_theta(self.model, self.test_ctx)

    def warm(self) -> "InfluenceEstimator":
        """Eagerly build every cache the query methods would build lazily.

        After ``warm()`` the batch query surface is a pure read of this
        estimator's state: no ``self`` attribute is assigned on any
        subsequent query, so one estimator instance can serve concurrent
        readers (and frozen-array sanitizer runs) without a lazy build
        racing mid-query.  Subclasses extend this with their own memos.
        Idempotent and cheap to re-call.
        """
        _ = self.grad_f
        _ = self.per_sample_grads
        return self

    @property
    def per_sample_grads(self) -> np.ndarray:
        """∇_θℓ(z_i, θ*) for all training rows, shape (n, p) (cached).

        Served from the (possibly shared) :class:`ModelArtifacts` bundle,
        so estimators riding one bundle build the matrix once between them.
        """
        return self.artifacts.per_sample_grads

    def subset_grad_sum(self, indices: np.ndarray) -> np.ndarray:
        """g_S = Σ_{i∈S} ∇ℓ(z_i, θ*)."""
        indices = self._check_indices(indices)
        return self.per_sample_grads[indices].sum(axis=0)

    # -- the estimator contract -----------------------------------------
    @abstractmethod
    def param_change(self, indices: np.ndarray) -> np.ndarray:
        """Estimated Δθ from removing the rows at ``indices``."""

    def bias_change(self, indices: np.ndarray) -> float:
        """Estimated ΔF = F(after removal) − F(before)."""
        delta = self.param_change(indices)
        if self.evaluation == "linear":
            return float(self.grad_f @ delta)
        theta_new = self.theta + delta
        if self.evaluation == "smooth":
            after = self.metric.surrogate(self.model, self.test_ctx, theta_new)
            return float(after - self.original_surrogate)
        after = self.metric.value(self.model, self.test_ctx, theta_new)
        return float(after - self.original_bias)

    @property
    def baseline(self) -> float:
        """F(θ*) under the evaluation mode's measuring stick.

        The smooth surrogate for ``"smooth"``, the thresholded metric
        otherwise: the denominator of responsibility, so responsibility is
        the *relative* bias reduction under the same stick as ΔF.
        """
        return self.original_surrogate if self.evaluation == "smooth" else self.original_bias

    def responsibility(self, indices: np.ndarray) -> float:
        """Causal responsibility R_F(S) of Definition 3.2 (estimated)."""
        baseline = self.baseline
        if baseline == 0.0:
            raise ZeroDivisionError("original bias is zero; responsibility is undefined")
        return -self.bias_change(indices) / baseline

    # -- the batched estimator contract -----------------------------------
    def param_change_batch(self, subsets) -> np.ndarray:
        """Estimated Δθ for every subset in the batch — shape (m, p).

        ``subsets`` is an :class:`Extents`, an (m, n) boolean mask matrix,
        or a sequence of index arrays / boolean masks.
        """
        extents = self._extents(subsets)
        return self._chunked(extents, self._param_changes, (self.model.num_params,))

    def bias_change_batch(self, subsets) -> np.ndarray:
        """Estimated ΔF for every subset in the batch — shape (m,).

        The Δθ's come from the estimator's Δθ hook; the evaluation mode is
        applied to each chunk's perturbed parameter vectors in one
        vectorized pass (see the module docstring).
        """
        extents = self._extents(subsets)
        with self._batch_span(extents):
            return self._chunked(
                extents, lambda chunk: self._apply_evaluation(self._param_changes(chunk)), ()
            )

    def responsibility_batch(self, subsets) -> np.ndarray:
        """Causal responsibility R_F(S) for every subset — shape (m,)."""
        baseline = self.baseline
        if baseline == 0.0:
            raise ZeroDivisionError("original bias is zero; responsibility is undefined")
        return -self.bias_change_batch(subsets) / baseline

    def score_batch(self, subsets) -> tuple[np.ndarray, np.ndarray]:
        """``(responsibilities, bias changes)`` of a batch: the search's scores.

        The one rule every candidate search ranks by.  Unlike
        :meth:`responsibility_batch` a zero baseline does not raise: every
        subset then scores responsibility 0, so a bias-free model yields
        no root cause instead of aborting the search.
        """
        bias_changes = self.bias_change_batch(subsets)
        baseline = self.baseline
        if baseline == 0.0:
            return np.zeros_like(bias_changes), bias_changes
        return -bias_changes / baseline, bias_changes

    def _extent_cache_spec(self) -> tuple | None:
        """Key identifying everything Δθ depends on besides the extent.

        Closed-form estimators return ``(family, *numeric knobs)`` so their
        per-row Δθ's can be cached on the shared artifacts by extent and
        reused across the metrics of one audit.  ``None`` (the base —
        retraining has no closed form worth caching) opts out.
        """
        return None

    def _param_changes(self, extents: Extents) -> np.ndarray:
        """Δθ's for one non-empty chunk, via the shared extent cache.

        When the artifacts bundle has extent caching enabled (audit
        sessions turn it on) and the estimator declares a cache spec,
        packed rows are served per-extent from the bundle and
        :meth:`_param_change_from_extents` runs only on novel extents.
        Sparse rows and the bare-estimator path go straight to the hook.
        """
        spec = self._extent_cache_spec()
        if spec is None or extents.sparse or not self.artifacts.extent_caching:
            return self._param_change_from_extents(extents)
        return self.artifacts.cached_param_changes(
            spec, extents, self._param_change_from_extents
        )

    def _param_change_from_extents(self, extents: Extents) -> np.ndarray:
        """The Δθ hook: Δθ's for a non-empty, validated chunk of extents.

        This base implementation loops over :meth:`param_change` (correct
        for any estimator, including retraining); closed-form estimators
        override it with a single GEMM + multi-RHS solve.
        """
        return np.stack([self.param_change(indices) for indices in extents.index_rows()])

    def _apply_evaluation(self, deltas: np.ndarray) -> np.ndarray:
        """Fold an (m, p) Δθ matrix into (m,) ΔF's under the evaluation mode."""
        if self.evaluation == "linear":
            return deltas @ self.grad_f
        thetas = self.theta[None, :] + deltas
        with trace.span("influence.evaluate", mode=self.evaluation, m=int(deltas.shape[0])):
            if self.evaluation == "smooth":
                after = self.metric.surrogate_batch(self.model, self.test_ctx, thetas)
                return after - self.original_surrogate
            after = self.metric.value_batch(self.model, self.test_ctx, thetas)
            return after - self.original_bias

    @staticmethod
    def _chunked(extents: Extents, score, tail: tuple) -> np.ndarray:
        """``score`` applied ``_PACKED_CHUNK`` extents at a time, stacked."""
        parts = [
            score(extents.select(slice(start, start + _PACKED_CHUNK)))
            for start in range(0, len(extents), _PACKED_CHUNK)
        ]
        return np.concatenate(parts) if parts else np.zeros((0, *tail))

    @contextmanager
    def _batch_span(self, extents: Extents):
        """The one ``influence.batch`` span of a ΔF batch query."""
        with trace.span(
            "influence.batch",
            estimator=type(self).__name__,
            m=len(extents),
            n=self.num_train,
            encoding="sparse" if extents.sparse else "packed",
        ) as s:
            s.add("evaluations", len(extents))
            yield s

    # -- helpers ----------------------------------------------------------
    def _check_fresh(self) -> None:
        """Raise if the shared artifacts were edited after this estimator.

        ``ModelArtifacts.apply_edit`` bumps the bundle's version; an
        estimator built before the edit still holds pre-edit references
        (training matrix shape, cached solvers, the original bias of the
        old data) and would silently score subsets of the wrong dataset.
        Query entry points call this before touching any cache.
        """
        if self._artifacts_version != self.artifacts.version:
            raise RuntimeError(
                "the shared ModelArtifacts were edited after this estimator was "
                "built (version "
                f"{self._artifacts_version} vs {self.artifacts.version}); "
                "construct a new estimator against the edited artifacts"
            )

    def _extents(self, subsets) -> Extents:
        """The batch boundary: any accepted batch form, as :class:`Extents`."""
        self._check_fresh()
        return as_extents(subsets, self.num_train)

    def _check_indices(self, indices: np.ndarray) -> np.ndarray:
        self._check_fresh()
        return check_indices(indices, self.num_train)

    def _subset_size_ok(self, indices: np.ndarray) -> np.ndarray:
        indices = self._check_indices(indices)
        if indices.size >= self.num_train:
            raise ValueError("cannot remove the entire training set")
        return indices


# "exact" and "series" name the two second-order variants directly.
_VARIANT_ALIASES = ("exact", "series")


def _registry() -> dict[str, type[InfluenceEstimator]]:
    """The estimator families by name (imported here: each subclasses the base)."""
    from repro.influence.first_order import FirstOrderInfluence
    from repro.influence.one_step_gd import OneStepGradientDescent
    from repro.influence.retrain import RetrainInfluence
    from repro.influence.second_order import SecondOrderInfluence

    return {
        "first_order": FirstOrderInfluence,
        "second_order": SecondOrderInfluence,
        "one_step_gd": OneStepGradientDescent,
        "retrain": RetrainInfluence,
    }


def list_estimators() -> list[str]:
    """Names accepted by :func:`make_estimator` (and ``GopherConfig.estimator``)."""
    return sorted([*_registry(), *_VARIANT_ALIASES])


def resolve_estimator(name: str, kwargs: dict) -> tuple[str, dict]:
    """The registry family and constructor kwargs an estimator name stands for.

    ``"exact"`` and ``"series"`` resolve to ``second_order`` with that
    ``variant`` fixed (a conflicting explicit ``variant`` is rejected);
    every other registered name is its own family.  Unknown names raise
    ``ValueError`` listing the available ones.
    """
    if name in _VARIANT_ALIASES:
        if kwargs.get("variant", name) != name:
            raise ValueError(
                f"estimator {name!r} already fixes variant={name!r}; "
                f"got conflicting variant={kwargs['variant']!r}"
            )
        return "second_order", {**kwargs, "variant": name}
    if name not in _registry():
        raise ValueError(f"unknown estimator {name!r}; available: {list_estimators()}")
    return name, kwargs


def make_estimator(
    name: str,
    model: TwiceDifferentiableClassifier,
    X_train: np.ndarray,
    y_train: np.ndarray,
    metric: FairnessMetric,
    test_ctx: FairnessContext,
    **kwargs: object,
) -> InfluenceEstimator:
    """Factory over the estimator families of :func:`list_estimators`.

    ``name`` is resolved by :func:`resolve_estimator`; extra keyword
    arguments are forwarded to the estimator constructor.

    Pass ``artifacts=ModelArtifacts(model, X_train, y_train)`` to share the
    metric-independent start-up caches (per-sample gradients, Hessian
    factorization, rank-one curvature factors) across many estimators of the
    same fitted model — the amortization a multi-metric, multi-group audit
    lives on.  Omitted, each estimator builds a private bundle.
    """
    family, kwargs = resolve_estimator(name, kwargs)
    return _registry()[family](model, X_train, y_train, metric, test_ctx, **kwargs)
