"""Step plans as the tests build them: for a given dt, or else for the dt of
the CFL policy."""

from ugks1d.grid import sample_material
from ugks1d.ugks import StepPlan, cfl_timestep


def cfl_plan(cfg, mat, mesh, q, bc, dt=None) -> StepPlan:
    """The :class:`StepPlan` of ``cfg`` on ``mat`` for ``dt``, by default
    :func:`cfl_timestep` of ``cfg`` on ``mat``."""
    return StepPlan(cfl_timestep(cfg, mat, mesh) if dt is None else dt, cfg, mat, mesh, q, bc)


def penalized_plan(op, mesh, q, bc, cfg, dt=None) -> StepPlan:
    """The plan of a penalized step of ``op`` with no absorption or source:
    on ``op.material`` of a zero material, which relaxes at theta, for
    ``dt``, by default the CFL policy's dt at sigma = theta."""
    return cfl_plan(cfg, op.material(mesh, sample_material(0.0, 0.0, 0.0, mesh)), mesh, q, bc, dt)
