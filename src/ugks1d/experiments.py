"""Experiment registry, run dispatch, and CSV export.

The built-in cases ex1..ex7 carry the standard benchmark parameters:

    ex1  kinetic regime          sigma=1,           eps=1      f_L=0, f_R=1
    ex2  diffusion regime        sigma=1,           eps=1e-8   f_L=1, f_R=0
    ex3  intermediate, source    sigma=1+(10x)^2,   eps=1e-2   G=1
    ex4  discontinuous sigma     sigma in {1,10,100}, eps=1e-2 G=1
    ex5  boundary layer          sigma=1,           eps=1e-2   f_L(v)=v
    ex6  thin boundary layer     sigma=1,           eps=1e-4   f_L(v)=v
    ex7  free transport          sigma=0,           eps=1      f_L(v)=v

The interior initial distribution is zero unless overridden; transients are
driven by the inflow data.
"""

from __future__ import annotations

import importlib
import os
import time as _time
from collections import namedtuple
from dataclasses import dataclass
from itertools import chain, repeat
from typing import Callable, Optional

import numpy as np

from .coeffs import coefficient_arrays
from .errors import ConfigError, InvalidArgumentError, InvalidDataError, SolverFailureError
from .grid import SpatialMesh, average, build_double_gauss, build_gauss_legendre, sample_material
from .penalized import PenalizedOperator, ScatteringKernel, penalized_step
from .reference import (DiffusionPlan, UpwindPlan, diffusion_run, diffusion_timestep, leg_steps, upwind_step,
                        upwind_timestep)
from .ugks import (BC_MODES, RECONSTRUCTIONS, BoundarySpec, KineticState, SchemeConfig, StepPlan,
                   cfl_timestep, moment_defect, step)

__all__ = ["ExperimentSpec", "RunResult", "builtin_ids", "builtin_spec", "run",
           "write_csv", "read_csv"]

SCHEMES = ("ugks", "ugks_id", "upwind", "diffusion")
_QUADRATURES = {"gauss_legendre": build_gauss_legendre, "double_gauss": build_double_gauss}
_Density = namedtuple("_Density", "rho f", defaults=(None,))   # a diffusion state: no f to store


@dataclass(frozen=True)
class ExperimentSpec:
    """Complete description of one experiment."""

    id: str
    eps: float
    sigma: Callable[[float], float] | float
    alpha: Callable[[float], float] | float = 0.0
    source: Callable[[float], float] | float = 0.0
    f_left: Callable[[float], float] | float = 0.0
    f_right: Callable[[float], float] | float = 0.0
    initial: Callable[[float], float] | float = 0.0
    x_min: float = 0.0
    x_max: float = 1.0
    times: tuple = (0.4,)
    cells: tuple = (25, 200)
    scheme: str = "ugks"
    bc_mode: str = "stabilized"
    reconstruction: str = "first_order"
    quadrature: int = 16
    quad_kind: str = "gauss_legendre"
    cfl: float = 0.9
    dt_override: Optional[float] = None
    diffusion_solver: str = "explicit"
    collision: str = "isotropic"
    kernel_constant: Optional[float] = None
    kernel_table: Optional[np.ndarray] = None

    def __post_init__(self) -> None:
        # Every enumerated choice, whether or not the scheme reads it.
        for name, known in (("scheme", SCHEMES), ("bc_mode", BC_MODES), ("reconstruction", RECONSTRUCTIONS),
                            ("quad_kind", _QUADRATURES), ("diffusion_solver", ("explicit", "implicit")),
                            ("collision", ("isotropic", "penalized"))):
            if getattr(self, name) not in known:
                raise InvalidArgumentError(f"{name}: unknown value {getattr(self, name)!r}")
        try:
            _QUADRATURES[self.quad_kind](self.quadrature)   # built once per order and shared
        except InvalidArgumentError as exc:
            raise InvalidArgumentError(f"quadrature: {exc}") from None
        if len(self.times) == 0:
            raise InvalidArgumentError("times: at least one output time required")
        t = np.asarray(self.times, dtype=float)
        if np.any(t < 0) or np.any(np.diff(t) <= 0):
            raise InvalidArgumentError("times: must be nonnegative and strictly increasing")
        if any(int(c) < 2 for c in self.cells):
            raise InvalidArgumentError("cells: every resolution must be >= 2")
        if self.collision == "penalized" and self.kernel_constant is None and self.kernel_table is None:
            raise InvalidArgumentError("collision=penalized requires a kernel")


@dataclass(frozen=True)
class RunResult:
    """Density profiles at the requested output times plus run metadata.

    ``wall_time`` covers the legs of :func:`run`: the steps, the plans they
    build and the profile copies, not the set-up before them, which
    includes SciPy's one-time import for ``ugks_id`` and ``diffusion``."""

    id: str
    scheme: str
    times: tuple
    x: np.ndarray
    rho: list
    f: Optional[list]
    n_cells: int
    dt: float
    n_steps: int
    wall_time: float
    moment_defect: Optional[float] = None


def _piecewise_sigma_ex4(x):
    x = np.asarray(x, dtype=float)
    return np.where(x < 0.1, 1.0, np.where(x < 0.5, 10.0, 100.0))


_BUILTINS = {
    "ex1": dict(eps=1.0, sigma=1.0, f_left=0.0, f_right=1.0,
                times=(0.1, 0.4, 1.0, 1.6, 4.0), cells=(25, 200)),
    "ex2": dict(eps=1e-8, sigma=1.0, f_left=1.0, f_right=0.0,
                times=(0.01, 0.05, 0.15, 2.0), cells=(25, 200)),
    "ex3": dict(eps=1e-2, sigma=lambda x: 1.0 + (10.0 * x) ** 2, source=1.0,
                times=(0.4,), cells=(40, 200)),
    "ex4": dict(eps=1e-2, sigma=_piecewise_sigma_ex4, source=1.0,
                times=(0.4,), cells=(40, 200)),
    "ex5": dict(eps=1e-2, sigma=1.0, f_left=lambda v: v, f_right=0.0,
                times=(0.4,), cells=(25, 200)),
    "ex6": dict(eps=1e-4, sigma=1.0, f_left=lambda v: v, f_right=0.0,
                times=(0.4,), cells=(25, 200)),
    "ex7": dict(eps=1.0, sigma=0.0, f_left=lambda v: v, f_right=0.0,
                times=(0.4,), cells=(25, 200)),
}


def builtin_ids() -> tuple:
    return tuple(sorted(_BUILTINS))


def builtin_spec(example_id: str, **overrides) -> ExperimentSpec:
    """Expand a built-in example id into its full parameter set."""
    if example_id not in _BUILTINS:
        raise ConfigError(f"unknown example id {example_id!r}; known: {', '.join(builtin_ids())}")
    params = dict(_BUILTINS[example_id])
    params.update(overrides)
    return ExperimentSpec(id=example_id, **params)


def _build_quadrature(spec: ExperimentSpec):
    return _QUADRATURES[spec.quad_kind](spec.quadrature)


def _operator(spec: ExperimentSpec, q) -> PenalizedOperator:
    """The penalized operator of the spec's kernel on the quadrature ``q``."""
    kernel = (ScatteringKernel.from_table(spec.kernel_table, q) if spec.kernel_table is not None
              else ScatteringKernel.isotropic(spec.kernel_constant, q))
    return PenalizedOperator.build(kernel, q)


def _initial_profile(spec: ExperimentSpec, mesh: SpatialMesh) -> np.ndarray:
    """The initial density sampled at the cell centres, which must be finite."""
    init = spec.initial
    with np.errstate(all="ignore"):   # a bad sample raises below, so no warning precedes it
        rho = (np.array([float(init(x)) for x in mesh.centers]) if callable(init)
               else np.full(mesh.n_cells, float(init)))
    if not np.isfinite(rho).all():
        raise InvalidDataError("initial: not finite at every cell centre")
    return rho


def _scheme(spec: ExperimentSpec, mesh: SpatialMesh, q, mat, track_moments: bool):
    """The spec's scheme as ``(dt, leg)``: the ``dt_override`` or else the
    scheme's time-step policy, and ``leg(t, t_end) -> (state, steps,
    moment_defect)``, which advances the scheme's own state, from its
    initial one on, to the next output time by the steps of
    :func:`reference.leg_steps`.  Every scheme steps through plans, one per
    distinct step size, built when a leg first takes it: ``StepPlan``,
    ``UpwindPlan`` or ``DiffusionPlan``.  A leg is one stepper call of n
    steps of dt and one of the shortened step, or one call per step when a
    kinetic run tracks the moment defect, which is per step.
    Only the leg holds the state, so each call frees the one before it.
    Steppers are looked up by their module-level names at each call.
    ``ugks_id`` and ``diffusion`` import SciPy's linear algebra here, once
    per process (about 0.3 s), so that no leg pays for it."""
    if spec.scheme in ("ugks_id", "diffusion"):
        importlib.import_module("scipy.linalg")
    bc = BoundarySpec.from_functions(spec.f_left, spec.f_right, q, mode=spec.bc_mode)
    if spec.scheme == "diffusion":
        if np.any(mat.sigma_iface <= 0):
            raise InvalidArgumentError("diffusion scheme requires sigma > 0 everywhere")
        kappa_iface = 1.0 / (3.0 * mat.sigma_iface)
        dirichlet = tuple(rho for _, rho in bc.walls)   # the corrected densities
        explicit = spec.diffusion_solver == "explicit"
        policy = diffusion_timestep(kappa_iface, mesh.dx, spec.cfl) if explicit else spec.cfl * mesh.dx

        def new_plan(h, is_full):
            # the modal map takes the full steps; a leg's shortened step is stepped
            return DiffusionPlan(h, kappa_iface, mat.alpha_cell, mat.g_cell, mesh.dx, spec.diffusion_solver,
                                 dirichlet, modal=is_full)

        def advance(s, plan, n):
            return _Density(diffusion_run(s.rho, plan, n))
        state, track_moments = _Density(_initial_profile(spec, mesh)), False
    else:
        if spec.scheme == "upwind":
            policy = upwind_timestep(spec.eps, mat, mesh, cfl=spec.cfl)

            def new_plan(h, is_full):
                return UpwindPlan(h, spec.eps, mat, mesh, q, bc.f_left, bc.f_right, spec.reconstruction)

            def advance(s, plan, n):
                return upwind_step(s, plan, n)
        else:
            cfg = SchemeConfig(eps=spec.eps, cfl=spec.cfl, reconstruction=spec.reconstruction,
                               diffusion_mode="implicit_slopes" if spec.scheme == "ugks_id" else "explicit_slopes")
            # Penalized runs too: from the spec's sigma, not the theta their steps relax at.
            policy = cfl_timestep(cfg, mat, mesh)
            op, plan_mat, source = None, mat, None
            if spec.collision == "penalized":
                op = _operator(spec, q)
                plan_mat, source = op.material(mat), op.shifted

            def new_plan(h, is_full):
                coeffs = coefficient_arrays(h, cfg.eps, plan_mat.sigma_iface, plan_mat.alpha_iface)
                return StepPlan(h, cfg, plan_mat, mesh, q, bc, coeffs, source)

            def advance(s, plan, n):
                return step(s, plan, n) if op is None else penalized_step(s, op, plan, n)
        f0 = np.repeat(_initial_profile(spec, mesh)[None, :], q.n, axis=0).T   # node-major, as stepped
        state = KineticState(f=f0, rho=average(q, f0), t=0.0)
    dt = policy if spec.dt_override is None else spec.dt_override
    plans: dict = {}   # by (step size, full): dt's full steps and each shortened leg end
    taken, worst = 0, 0.0

    def leg(t, t_end):
        # one advance of (h, count) steps per call, its plan built on first
        # use and kept by h and whether the steps are full, as a shortened
        # step can round to dt; a failing step or plan is named by its number in the run,
        # through the number within its call that the error carries, and the
        # defect returned is the run's largest so far.  A diverging kinetic
        # step's overflow and NaN reach its output, whose finite guard
        # raises, so numpy's warnings would only precede that error.
        nonlocal state, taken, worst
        n, last = leg_steps(t, t_end, dt)
        full = repeat((dt, 1, True), n) if track_moments else [(dt, n, True)] if n else []
        steps = 0
        with np.errstate(over="ignore", invalid="ignore"):
            for h, count, is_full in chain(full, [(last, 1, False)] if last else []):
                try:
                    plan = plans.get((h, is_full))
                    if plan is None:
                        plan = plans[h, is_full] = new_plan(h, is_full)
                    state = advance(state, plan, count)
                except SolverFailureError as exc:
                    raise SolverFailureError(f"step {taken + steps + exc.step}, leg to t={t_end:.6g}: {exc}") from exc
                steps += count
                if track_moments:
                    worst = max(worst, moment_defect(state, q))
        taken += steps
        return state, steps, worst if track_moments else None
    return dt, leg


def run(spec: ExperimentSpec, cells: Optional[int] = None, store_f: bool = False,
        track_moments: bool = False) -> RunResult:
    """Integrate the experiment to each output time, one leg of the scheme
    (:func:`_scheme`) from each output time to the next, with the
    ``dt_override`` (0 and negative values raise) or else the scheme's policy
    dt.  Every leg takes the n full steps and the shortened last step of
    :func:`reference.leg_steps`, so it lands on its output time to rounding."""
    n_cells = int(cells) if cells is not None else int(spec.cells[0])
    mesh = SpatialMesh(spec.x_min, spec.x_max, n_cells)
    q = _build_quadrature(spec)
    mat = sample_material(spec.sigma, spec.alpha, spec.source, mesh)
    dt, leg = _scheme(spec, mesh, q, mat, track_moments)
    t_start = _time.perf_counter()

    profiles = []
    f_tables = [] if store_f else None
    n_steps = 0
    defect = None
    t = 0.0
    for t_end in spec.times:
        state, steps, defect = leg(t, t_end)
        n_steps += steps
        t = t_end
        profiles.append(np.array(state.rho))
        if f_tables is not None and state.f is not None:
            f_tables.append(np.array(state.f))
        del state   # the next leg frees each state it steps past

    return RunResult(
        id=spec.id, scheme=spec.scheme, times=tuple(spec.times), x=mesh.centers,
        rho=profiles, f=f_tables or None, n_cells=n_cells, dt=dt, n_steps=n_steps,
        wall_time=_time.perf_counter() - t_start, moment_defect=defect,
    )


def write_csv(path, x: np.ndarray, rho: np.ndarray, f: Optional[np.ndarray] = None) -> None:
    """One row per cell: ``x,rho[,f_0,...]``, each value as ``%.17g``.

    An existing file is rewritten in place and cut to length, not truncated
    first (on ext4 a truncate waits on the flush that its last close began),
    so a rewrite reaches the disk by periodic writeback, as a new file does.
    The write is not atomic: after a system crash a rewrite of several pages
    can hold pages of both versions, where a truncating writer could leave
    the file short or empty."""
    table = np.column_stack((x, rho) if f is None else (x, rho, f))
    names = ["x", "rho"] + [f"f_{k}" for k in range(table.shape[1] - 2)]
    rows = (",".join(["%.17g"] * table.shape[1]) + "\n") * table.shape[0]
    text = ",".join(names) + "\n" + rows % tuple(table.ravel().tolist())
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | getattr(os, "O_BINARY", 0), 0o666)
    with open(fd, "w", encoding="ascii") as fh:
        fh.write(text)
        # A FIFO cannot tell its position; it has no old text to cut.
        if fh.seekable() and fh.tell() < os.fstat(fh.fileno()).st_size:
            fh.truncate()


def result_filename(run_name: str, t: float) -> str:
    return f"{run_name}_t{t:g}.csv"


def read_csv(path):
    """Read a profile file written by :func:`write_csv`; returns (x, rho)."""
    with open(path, encoding="ascii") as fh:
        names = fh.readline().strip().split(",")
        if "x" not in names or "rho" not in names:
            raise ConfigError(f"{path}: expected a header with x,rho columns")
        try:
            data = np.loadtxt(fh, delimiter=",", ndmin=2,
                              usecols=(names.index("x"), names.index("rho")))
        except ValueError as exc:
            raise ConfigError(f"{path}: {exc}") from exc
    if data.shape[0] < 2:
        raise ConfigError(f"{path}: a profile needs at least 2 rows, found {data.shape[0]}")
    return data[:, 0], data[:, 1]
