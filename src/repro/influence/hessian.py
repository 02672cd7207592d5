"""Hessian factorization and solves shared by the influence estimators.

The Hessian of a strictly convex L2-regularized loss is positive definite, so
a Cholesky factorization is the fast path.  Models whose Hessian is only
positive *semi*-definite in corner cases (squared hinge with no active
margins, Gauss-Newton at saturation) fall back to adaptive damping — the same
trick Koh & Liang apply — and, as a last resort, a conjugate-gradient solve.
"""

from __future__ import annotations

import threading

import numpy as np
from scipy import linalg
from scipy.sparse.linalg import LinearOperator, cg

from repro.obs import trace
from repro.obs.lazy import Lazy
from repro.obs.metrics import StatsView


class HessianSolver:
    """Solves H x = b repeatedly against one factorized Hessian.

    Parameters
    ----------
    hessian:
        Symmetric (p, p) matrix.
    damping:
        Initial ridge added when the raw matrix fails to factorize.  The
        damping grows ×10 until factorization succeeds (bounded attempts).
    """

    def __init__(self, hessian: np.ndarray, damping: float = 0.0) -> None:
        hessian = np.asarray(hessian, dtype=np.float64)
        if hessian.ndim != 2 or hessian.shape[0] != hessian.shape[1]:
            raise ValueError(f"hessian must be square, got shape {hessian.shape}")
        # Cheap max-abs check: np.allclose costs ~80µs of broadcasting
        # machinery per call, which would dominate the ctor of the small
        # per-subset solvers (scalar exact Δθ, the stacked-solve reroute).
        tolerance = 1e-8 + 1e-5 * np.abs(hessian).max(initial=0.0)
        if np.abs(hessian - hessian.T).max(initial=0.0) > tolerance:
            raise ValueError("hessian must be symmetric")
        self.dim = hessian.shape[0]
        self.hessian = hessian
        self.damping_used = 0.0
        self.stats = StatsView({"eigendecompositions": 0}, namespace="hessian")
        # Both lazy slots share the solver's one lock: one lock per solver
        # keeps the small per-subset solvers cheap to build.
        self._lock = threading.RLock()
        self._factor = Lazy(self._lock)
        self._eig = Lazy(self._lock, self.stats, counter="eigendecompositions")
        self._factor.set(self._factorize(hessian, damping))

    @classmethod
    def from_eigendecomposition(
        cls,
        hessian: np.ndarray,
        eigvals: np.ndarray,
        eigvecs: np.ndarray,
        damping: float = 0.0,
    ) -> "HessianSolver":
        """A solver over a known eigendecomposition — no factorization runs.

        ``eigvals`` / ``eigvecs`` must decompose ``hessian + damping·I``.
        This is the construction :meth:`updated` uses: a rank-k or
        congruence update of an existing solver lands directly in the new
        eigenbasis, and every solve can run there, so the Cholesky
        factorization is never recomputed (the :attr:`factor` property
        still materializes one lazily if some caller insists on it).

        The ridge escalation of :meth:`_factorize` is mirrored on the
        eigenvalues: the first ridge in the ×10 sequence starting at
        ``damping`` under which the spectrum is positive becomes
        ``damping_used``, and the stored eigenvalues are shifted to match.
        """
        self = cls.__new__(cls)
        hessian = np.asarray(hessian, dtype=np.float64)
        if hessian.ndim != 2 or hessian.shape[0] != hessian.shape[1]:
            raise ValueError(f"hessian must be square, got shape {hessian.shape}")
        self.dim = hessian.shape[0]
        self.hessian = hessian
        self.stats = StatsView({"eigendecompositions": 0}, namespace="hessian")
        self._lock = threading.RLock()
        self._factor = Lazy(self._lock)
        self._eig = Lazy(self._lock, self.stats, counter="eigendecompositions")
        eigvals = np.asarray(eigvals, dtype=np.float64)
        eigvecs = np.asarray(eigvecs, dtype=np.float64)
        if eigvals.shape != (self.dim,) or eigvecs.shape != (self.dim, self.dim):
            raise ValueError(
                f"eigendecomposition shapes {eigvals.shape} / {eigvecs.shape} do not "
                f"match dimension {self.dim}"
            )
        base = float(damping)
        ridge = base
        for _ in range(8):
            if eigvals.min() + (ridge - base) > 0.0:
                self.damping_used = ridge
                if ridge != base:
                    eigvals = eigvals + (ridge - base)
                self._eig.set((eigvals, eigvecs))
                return self
            ridge = max(ridge * 10.0, 1e-8)
        raise np.linalg.LinAlgError(
            f"hessian could not be made positive definite even with damping {ridge:.1e}"
        )

    def _damped(self) -> np.ndarray:
        """The matrix this solver inverts: the Hessian plus ``damping_used·I``."""
        if self.damping_used:
            return self.hessian + self.damping_used * np.eye(self.dim)
        return self.hessian

    @property
    def factor(self):
        """The ``scipy.linalg.cho_factor`` pair of the damped matrix.

        Exposed so callers can run their own ``cho_solve`` variants (e.g.
        triangular solves inside rank-k downdates) against the one cached
        factorization instead of refactorizing.  For an eigendecomposition-
        mode solver the factor is materialized lazily on first access —
        solves never need it there.
        """
        return self._factor.get(lambda: linalg.cho_factor(self._damped(), check_finite=False))

    def updated(
        self,
        new_hessian: np.ndarray,
        update_vectors: np.ndarray | None = None,
        update_weights: np.ndarray | None = None,
        scale: float = 1.0,
        shift: float = 0.0,
    ) -> "HessianSolver":
        """A solver for ``new_hessian`` derived from this solver's eigenbasis.

        With rank-k factors the caller certifies the identity

        ``new_hessian + damping_used·I
          = scale·M + shift·I + Uᵀ diag(c) U``

        where ``M`` is this solver's damped matrix, ``U`` the (k, p)
        ``update_vectors`` and ``c`` the ``update_weights``.  Rotating into
        the cached eigenbasis ``M = Q Λ Qᵀ`` turns the right-hand side into
        ``T = diag(scale·Λ + shift) + (UQ)ᵀ diag(c) (UQ)``; one small
        ``eigh(T) = (Λ', W)`` then gives the new eigendecomposition as
        ``(Λ', Q·W)`` without any Cholesky refactorization.  Without
        factors the dense congruence ``T = Qᵀ(new_hessian + d₀·I)Q`` is
        used instead — same rotation trick, O(p³) GEMMs but still no
        factorization.  This is how
        :meth:`repro.influence.artifacts.ModelArtifacts.apply_edit` advances
        every cached solver through a training-data edit.
        """
        rank = -1 if update_vectors is None else int(np.shape(update_vectors)[0])
        with trace.span("hessian.update", dim=self.dim, rank=rank):
            eigvals, eigvecs = self.eigendecomposition()
            new_hessian = np.asarray(new_hessian, dtype=np.float64)
            if update_vectors is not None:
                V = np.asarray(update_vectors, dtype=np.float64) @ eigvecs
                weights = np.asarray(update_weights, dtype=np.float64).reshape(-1)
                if V.shape[0] != weights.shape[0]:
                    raise ValueError(
                        f"{V.shape[0]} update vectors but {weights.shape[0]} weights"
                    )
                core = np.diag(scale * eigvals + shift)
                core += (V * weights[:, None]).T @ V
            else:
                matrix = new_hessian
                if self.damping_used:
                    matrix = matrix + self.damping_used * np.eye(self.dim)
                core = eigvecs.T @ matrix @ eigvecs
            new_eigvals, W = linalg.eigh(core, check_finite=False)
            return HessianSolver.from_eigendecomposition(
                new_hessian, new_eigvals, eigvecs @ W, damping=self.damping_used
            )

    def eigendecomposition(self) -> tuple[np.ndarray, np.ndarray]:
        """Eigendecomposition ``(eigvals, eigvecs)`` of the damped matrix.

        Computed lazily and cached.  :meth:`updated` starts from it: a
        training-data edit rotates the update into this eigenbasis and
        lands directly in the new one, so edits never refactorize.
        """
        return self._eig.get(self._eigendecompose)

    def _eigendecompose(self) -> tuple[np.ndarray, np.ndarray]:
        with trace.span("hessian.eigendecomposition", dim=self.dim):
            return linalg.eigh(self._damped(), check_finite=False)

    def _factorize(self, hessian: np.ndarray, damping: float):
        with trace.span("hessian.factorize", dim=self.dim) as s:
            ridge = damping
            for attempt in range(8):
                try:
                    matrix = hessian if ridge == 0.0 else hessian + ridge * np.eye(self.dim)
                    factor = linalg.cho_factor(matrix, check_finite=False)
                    self.damping_used = ridge
                    s.set(damping=ridge, attempts=attempt + 1)
                    return factor
                except linalg.LinAlgError:
                    ridge = max(ridge * 10.0, 1e-8)
            raise np.linalg.LinAlgError(
                f"hessian could not be factorized even with damping {ridge:.1e}"
            )

    def solve(self, b: np.ndarray) -> np.ndarray:
        """Return H⁻¹ b for a vector or a column-stack of vectors (p, k).

        The Cholesky factor is computed once at construction, so a k-column
        right-hand side costs one triangular multi-RHS solve — the primitive
        the batched influence estimators lean on.
        """
        b = np.asarray(b, dtype=np.float64)
        if b.shape[0] != self.dim:
            raise ValueError(f"right-hand side has leading dimension {b.shape[0]}, expected {self.dim}")
        rhs = 1 if b.ndim == 1 else b.shape[1]
        with trace.span("hessian.solve", n=self.dim, rhs=rhs) as s:
            s.add("solve_flops", 2.0 * self.dim * self.dim * rhs)
            factor = self._factor.peek()
            if factor is not None:
                return linalg.cho_solve(factor, b, check_finite=False)
            eigvals, eigvecs = self._eig.peek()
            proj = eigvecs.T @ b
            proj = proj / (eigvals if proj.ndim == 1 else eigvals[:, None])
            return eigvecs @ proj

    def solve_many(self, B: np.ndarray) -> np.ndarray:
        """Return H⁻¹ bᵢ for every *row* of a (k, p) matrix, as (k, p).

        Row-major orientation matches the (batch, params) layout used
        throughout the batch influence API; the transposes are free (views).
        """
        B = np.asarray(B, dtype=np.float64)
        if B.ndim != 2 or B.shape[1] != self.dim:
            raise ValueError(f"B must have shape (k, {self.dim}), got {B.shape}")
        if B.shape[0] == 0:
            return np.zeros_like(B)
        with trace.span("hessian.solve", n=self.dim, rhs=B.shape[0]) as s:
            factor = self._factor.peek()
            if factor is not None:
                s.add("solve_flops", 2.0 * self.dim * self.dim * B.shape[0])
                return linalg.cho_solve(factor, B.T, check_finite=False).T
            eigvals, eigvecs = self._eig.peek()
            s.add("solve_flops", 4.0 * self.dim * self.dim * B.shape[0])
            return ((B @ eigvecs) / eigvals[None, :]) @ eigvecs.T

    def apply(self, x: np.ndarray) -> np.ndarray:
        """Return H x (with the damping used, for consistency with solve)."""
        x = np.asarray(x, dtype=np.float64)
        out = self.hessian @ x
        if self.damping_used:
            out = out + self.damping_used * x
        return out


def solve_stacked(
    matrices: np.ndarray, rhs: np.ndarray, damping: float = 0.0
) -> tuple[np.ndarray, bool]:
    """Solve ``(M_k + damping·I) x_k = b_k`` for a ``(b, p, p)`` stack of M's.

    The stacked form of ``HessianSolver(M_k, damping).solve(b_k)``, the
    batched exact second-order influence's one factorization: a stacked
    Cholesky tests every matrix for positive definiteness, then one
    stacked solve answers the whole stack.  If any matrix fails the test,
    every matrix goes through its own :class:`HessianSolver` instead — the
    same ×10 damping escalation the per-matrix form applies — so stacked
    and per-matrix answers agree on singular and indefinite matrices too.

    ``rhs`` is ``(b, p)``.  Returns ``(solutions, rerouted)``: the
    solutions as rows aligned with ``rhs``, and whether the stack took the
    per-matrix route.
    """
    matrices = np.asarray(matrices, dtype=np.float64)
    rhs = np.asarray(rhs, dtype=np.float64)
    if rhs.ndim != 2 or matrices.shape != (rhs.shape[0], rhs.shape[1], rhs.shape[1]):
        raise ValueError(
            f"matrices must have shape (b, p, p) matching rhs (b, p); got "
            f"{matrices.shape} and {rhs.shape}"
        )
    num, dim = rhs.shape
    with trace.span("hessian.solve", n=dim, rhs=num, stacked=True) as s:
        damped = matrices + damping * np.eye(dim) if damping else matrices
        try:
            np.linalg.cholesky(damped)
        except np.linalg.LinAlgError:
            solutions = [HessianSolver(m, damping=damping).solve(b) for m, b in zip(matrices, rhs)]
            return np.stack(solutions), True
        # One Cholesky (p³/3) and one LU solve (2p³/3 + 2p²) per system.
        s.add("solve_flops", num * (dim**3 + 2.0 * dim * dim))
        return np.linalg.solve(damped, rhs[:, :, None])[:, :, 0], False


def largest_eigenvalue(hessian: np.ndarray) -> float:
    """λ_max of a symmetric matrix — the one place this spectral query lives.

    Curvature probes elsewhere in the tree (the one-step learning-rate rule,
    step-size diagnostics) route through this helper so every spectral
    factorization of Hessian-shaped state stays inside this module.
    """
    hessian = np.asarray(hessian, dtype=np.float64)
    return float(np.linalg.eigvalsh(hessian).max())


def conjugate_gradient_solve(
    hessian_vector_product,
    b: np.ndarray,
    dim: int,
    tol: float = 1e-8,
    max_iter: int | None = None,
) -> np.ndarray:
    """Matrix-free H⁻¹b via conjugate gradients.

    Useful when p is large enough that materializing H is wasteful; the
    library's models are small so this is an alternative path, exercised in
    tests and available for user-supplied models.
    """
    op = LinearOperator((dim, dim), matvec=hessian_vector_product)
    x, info = cg(op, np.asarray(b, dtype=np.float64), rtol=tol, maxiter=max_iter)
    if info > 0:
        raise RuntimeError(f"conjugate gradient did not converge within {info} iterations")
    return x
