"""The one-step map of a plan as a matrix, built from the plan's own step."""

import numpy as np

from ugks1d.ugks import apply


def one_step_operator(plan):
    """(M, b) with ``apply(plan, f, rho)`` = M x + b, where x stacks
    ``f.ravel()`` and ``rho``.  A first-order step is affine in (f, rho), so
    b is the image of the zero state and column k of M the image of unit
    state k minus b: every entry comes from ``apply``, and there is no
    second copy of the step to drift from it."""
    cells, nodes = plan.shape
    split = cells * nodes

    def image(x):
        f_new, rho_new = apply(plan, x[:split].reshape(cells, nodes), x[split:])
        return np.concatenate((f_new.ravel(), rho_new))

    b = image(np.zeros(split + cells))
    M = np.column_stack([image(unit) for unit in np.eye(split + cells)]) - b[:, None]
    return M, b


def spectral_radius(M) -> float:
    return float(np.abs(np.linalg.eigvals(M)).max())
