"""Tests for repro.models.optim."""

import numpy as np
import pytest

from repro.models.optim import minimize_loss


class TestMinimizeLoss:
    def test_quadratic_exact(self):
        target = np.array([1.0, -2.0, 3.0])
        loss = lambda t: 0.5 * float((t - target) @ (t - target))
        grad = lambda t: t - target
        solution = minimize_loss(loss, grad, np.zeros(3))
        np.testing.assert_allclose(solution, target, atol=1e-6)

    def test_respects_start_for_multimodal(self):
        # f(t) = (t^2 - 1)^2 has minima at ±1; L-BFGS finds the nearby one.
        loss = lambda t: float((t[0] ** 2 - 1) ** 2)
        grad = lambda t: np.array([4 * t[0] * (t[0] ** 2 - 1)])
        assert minimize_loss(loss, grad, np.array([0.8]))[0] == pytest.approx(1.0, abs=1e-4)
        assert minimize_loss(loss, grad, np.array([-0.8]))[0] == pytest.approx(-1.0, abs=1e-4)

