"""Tests for repro.influence.hessian."""

import numpy as np
import pytest

from repro.influence.hessian import HessianSolver, conjugate_gradient_solve, solve_stacked


@pytest.fixture
def spd_matrix():
    rng = np.random.default_rng(0)
    A = rng.normal(size=(8, 8))
    return A @ A.T + 0.5 * np.eye(8)


class TestHessianSolver:
    def test_solves_exactly(self, spd_matrix):
        solver = HessianSolver(spd_matrix)
        b = np.arange(8.0)
        x = solver.solve(b)
        np.testing.assert_allclose(spd_matrix @ x, b, atol=1e-8)

    def test_solve_stacked_vectors(self, spd_matrix):
        solver = HessianSolver(spd_matrix)
        B = np.random.default_rng(1).normal(size=(8, 3))
        X = solver.solve(B)
        np.testing.assert_allclose(spd_matrix @ X, B, atol=1e-8)

    def test_no_damping_when_pd(self, spd_matrix):
        assert HessianSolver(spd_matrix).damping_used == 0.0

    def test_damping_applied_to_singular(self):
        singular = np.zeros((4, 4))
        solver = HessianSolver(singular)
        assert solver.damping_used > 0
        x = solver.solve(np.ones(4))
        assert np.isfinite(x).all()

    def test_apply_is_inverse_of_solve(self, spd_matrix):
        solver = HessianSolver(spd_matrix)
        b = np.random.default_rng(2).normal(size=8)
        np.testing.assert_allclose(solver.apply(solver.solve(b)), b, atol=1e-8)

    def test_apply_includes_damping(self):
        solver = HessianSolver(np.zeros((3, 3)))
        x = np.ones(3)
        np.testing.assert_allclose(solver.apply(solver.solve(x)), x, atol=1e-8)

    def test_rejects_nonsquare(self):
        with pytest.raises(ValueError, match="square"):
            HessianSolver(np.zeros((2, 3)))

    def test_rejects_asymmetric(self):
        M = np.array([[1.0, 2.0], [0.0, 1.0]])
        with pytest.raises(ValueError, match="symmetric"):
            HessianSolver(M)

    def test_factor_exposed_for_external_solves(self, spd_matrix):
        from scipy import linalg

        solver = HessianSolver(spd_matrix)
        b = np.arange(8.0)
        np.testing.assert_allclose(
            linalg.cho_solve(solver.factor, b), solver.solve(b), atol=1e-12
        )


class TestEigendecomposition:
    def test_reconstructs_damped_matrix(self, spd_matrix):
        solver = HessianSolver(spd_matrix)
        eigvals, eigvecs = solver.eigendecomposition()
        np.testing.assert_allclose(
            (eigvecs * eigvals) @ eigvecs.T, spd_matrix, atol=1e-8
        )

    def test_cached(self, spd_matrix):
        solver = HessianSolver(spd_matrix)
        assert solver.eigendecomposition()[1] is solver.eigendecomposition()[1]

    def test_covers_escalated_damping(self):
        solver = HessianSolver(np.zeros((4, 4)))
        eigvals, _ = solver.eigendecomposition()
        # The decomposition is of the *damped* matrix, consistent with solve().
        np.testing.assert_allclose(eigvals, solver.damping_used, atol=1e-15)


class TestSolveStacked:
    @staticmethod
    def _stack(spd_matrix):
        return np.stack([spd_matrix, spd_matrix + 2.0 * np.eye(8), 3.0 * spd_matrix])

    @pytest.mark.parametrize("damping", [0.0, 1e-2])
    def test_matches_per_matrix_solver(self, spd_matrix, damping):
        stack = self._stack(spd_matrix)
        rhs = np.random.default_rng(6).normal(size=(3, 8))
        out, rerouted = solve_stacked(stack, rhs, damping)
        assert not rerouted
        for matrix, b, x in zip(stack, rhs, out):
            np.testing.assert_allclose(
                x, HessianSolver(matrix, damping=damping).solve(b), atol=1e-10
            )

    def test_not_pd_stack_reroutes_through_damping_escalation(self, spd_matrix):
        singular = np.outer(np.arange(1.0, 9.0), np.arange(1.0, 9.0))  # rank one
        stack = np.stack([spd_matrix, singular])
        rhs = np.random.default_rng(7).normal(size=(2, 8))
        out, rerouted = solve_stacked(stack, rhs)
        assert rerouted
        for matrix, b, x in zip(stack, rhs, out):
            np.testing.assert_allclose(x, HessianSolver(matrix).solve(b), atol=1e-10)
        assert np.isfinite(out).all()

    def test_empty_stack(self):
        out, rerouted = solve_stacked(np.zeros((0, 4, 4)), np.zeros((0, 4)))
        assert out.shape == (0, 4) and not rerouted

    def test_rejects_mismatched_shapes(self, spd_matrix):
        with pytest.raises(ValueError, match="shape"):
            solve_stacked(spd_matrix[None], np.ones((1, 7)))


class TestConjugateGradient:
    def test_matches_direct_solve(self, spd_matrix):
        b = np.arange(8.0)
        direct = np.linalg.solve(spd_matrix, b)
        cg = conjugate_gradient_solve(lambda v: spd_matrix @ v, b, dim=8)
        np.testing.assert_allclose(cg, direct, atol=1e-6)

    def test_nonconvergence_raises(self, spd_matrix):
        with pytest.raises(RuntimeError, match="converge"):
            conjugate_gradient_solve(
                lambda v: spd_matrix @ v, np.ones(8), dim=8, tol=1e-14, max_iter=1
            )
