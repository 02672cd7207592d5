"""The optimizer used to fit the models.

``minimize_loss`` wraps scipy's L-BFGS-B: fast, deterministic, no
learning-rate tuning.
"""

from __future__ import annotations

from collections.abc import Callable

import numpy as np
from scipy import optimize


def minimize_loss(
    loss: Callable[[np.ndarray], float],
    grad: Callable[[np.ndarray], np.ndarray],
    x0: np.ndarray,
    max_iter: int = 500,
    tol: float = 1e-10,
) -> np.ndarray:
    """Minimize a smooth loss with L-BFGS-B; returns the optimal parameters.

    A tight gradient tolerance matters here: influence functions assume the
    fitted parameters are a stationary point (∇L(θ*) ≈ 0), and a sloppy fit
    shows up directly as estimation error in Figure 3.
    """
    result = optimize.minimize(
        loss,
        np.asarray(x0, dtype=np.float64),
        jac=grad,
        method="L-BFGS-B",
        options={"maxiter": max_iter, "gtol": tol, "ftol": 1e-14},
    )
    return np.asarray(result.x, dtype=np.float64)

