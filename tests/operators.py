"""The one-step map of a plan as a matrix, built from the plan's own step."""

import numpy as np

from ugks1d.reference import DiffusionPlan, UpwindPlan, diffusion_run, upwind_step
from ugks1d.ugks import KineticState, StepPlan, step

KINETIC_STEPPERS = {StepPlan: step, UpwindPlan: upwind_step}


def one_step_operator(plan):
    """(M, b) with one step of ``plan`` = M x + b, where x is the state the
    plan steps: ``f.ravel()`` and ``rho`` stacked for a kinetic plan
    (``StepPlan``, or ``UpwindPlan``, whose step reads f alone, so its rho
    columns are zero), ``rho`` for a ``DiffusionPlan``.  A first-order step
    is affine in its state, so b is the image of the zero state and column
    k of M the image of unit state k minus b: every entry comes from the
    plan's own stepper, and there is no second copy of the step to drift
    from it."""
    if isinstance(plan, DiffusionPlan):
        size = plan.shape[0]

        def image(x):
            return diffusion_run(x, plan)
    else:
        cells, nodes = plan.shape
        split, size, stepper = cells * nodes, cells * nodes + cells, KINETIC_STEPPERS[type(plan)]

        def image(x):
            out = stepper(KineticState(x[:split].reshape(cells, nodes), x[split:], 0.0), plan)
            return np.concatenate((out.f.ravel(), out.rho))

    b = image(np.zeros(size))
    M = np.column_stack([image(unit) for unit in np.eye(size)]) - b[:, None]
    return M, b


def spectral_radius(M) -> float:
    return float(np.abs(np.linalg.eigvals(M)).max())
