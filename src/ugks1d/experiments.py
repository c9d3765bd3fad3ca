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
import time as _time
from collections import namedtuple
from dataclasses import dataclass
from itertools import chain, repeat
from typing import Callable, Optional

import numpy as np

from .coeffs import coefficient_arrays
from .errors import ConfigError, InvalidArgumentError, SolverFailureError
from .grid import (SpatialMesh, average, build_double_gauss, build_gauss_legendre, sample_material,
                   wall_density)
from .penalized import PenalizedOperator, ScatteringKernel, penalized_step
from .reference import diffusion_run, diffusion_timestep, leg_steps, upwind_step, upwind_timestep
from .ugks import (BoundarySpec, KineticState, SchemeConfig, StepPlan, cfl_timestep,
                   moment_defect, step)

__all__ = ["ExperimentSpec", "RunResult", "builtin_ids", "builtin_spec", "run",
           "write_csv", "read_csv"]

SCHEMES = ("ugks", "ugks_id", "upwind", "diffusion")
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
        if self.scheme not in SCHEMES:
            raise InvalidArgumentError(f"scheme: unknown value {self.scheme!r}")
        if len(self.times) == 0:
            raise InvalidArgumentError("times: at least one output time required")
        t = np.asarray(self.times, dtype=float)
        if np.any(t < 0) or np.any(np.diff(t) <= 0):
            raise InvalidArgumentError("times: must be nonnegative and strictly increasing")
        if any(int(c) < 2 for c in self.cells):
            raise InvalidArgumentError("cells: every resolution must be >= 2")
        if self.diffusion_solver not in ("explicit", "implicit"):
            raise InvalidArgumentError(f"diffusion_solver: unknown value {self.diffusion_solver!r}")
        if self.collision not in ("isotropic", "penalized"):
            raise InvalidArgumentError(f"collision: unknown value {self.collision!r}")
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
    if spec.quad_kind == "double_gauss":
        return build_double_gauss(spec.quadrature)
    if spec.quad_kind == "gauss_legendre":
        return build_gauss_legendre(spec.quadrature)
    raise InvalidArgumentError(f"quad_kind: unknown value {spec.quad_kind!r}")


def _initial_profile(spec: ExperimentSpec, mesh: SpatialMesh) -> np.ndarray:
    """The initial density sampled at the cell centres."""
    init = spec.initial
    if callable(init):
        return np.array([float(init(x)) for x in mesh.centers])
    return np.full(mesh.n_cells, float(init))


def _dirichlet_data(bc: BoundarySpec, q) -> tuple[float, float]:
    """Dirichlet data of the diffusion limit from the sampled inflow of
    ``bc``: the inflow value itself for isotropic inflow, which the weighted
    sum can miss by an ulp, otherwise the corrected boundary density
    :func:`grid.wall_density`."""
    def side(f_in, inc):
        vals = f_in[inc]
        if np.allclose(vals, vals[0], rtol=0.0, atol=1e-14):
            return float(vals[0])
        return wall_density(q, f_in, inc)

    return side(bc.f_left, slice(q.split, None)), side(bc.f_right, slice(0, q.split))


def _scheme(spec: ExperimentSpec, mesh: SpatialMesh, q, mat, track_moments: bool):
    """The spec's scheme as ``(policy, leg)``: its time-step policy and
    ``leg(t, t_end, dt) -> (state, steps, moment_defect)``, which advances the
    scheme's own state, from its initial one on, to the next output time by
    the steps of :func:`reference.leg_steps`.
    Only the leg holds the state, so each step frees the one before it.
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
        dirichlet = _dirichlet_data(bc, q)
        rho = _initial_profile(spec, mesh)

        def diffusion(t, t_end, dt):
            nonlocal rho
            rho, steps = diffusion_run(rho, kappa_iface, mat.alpha_cell, mat.g_cell, mesh.dx, t, t_end,
                                       spec.diffusion_solver, dirichlet, dt)
            return _Density(rho), steps, None
        explicit = spec.diffusion_solver == "explicit"
        policy = diffusion_timestep(kappa_iface, mesh.dx, spec.cfl) if explicit else spec.cfl * mesh.dx
        return policy, diffusion

    if spec.scheme == "upwind":
        policy = upwind_timestep(spec.eps, mat, mesh, cfl=spec.cfl)

        def advance(s, h):
            f_new = upwind_step(s.f, spec.eps, mat, mesh, q, bc.f_left, bc.f_right, h,
                                reconstruction=spec.reconstruction)
            return KineticState(f=f_new, rho=average(q, f_new), t=s.t + h)
    else:
        cfg = SchemeConfig(eps=spec.eps, cfl=spec.cfl, reconstruction=spec.reconstruction,
                           diffusion_mode="implicit_slopes" if spec.scheme == "ugks_id" else "explicit_slopes")
        # Penalized runs too: from the spec's sigma, not the theta their steps relax at.
        policy = cfl_timestep(cfg, mat, mesh)
        op, plan_mat = None, mat
        if spec.collision == "penalized":
            kernel = (ScatteringKernel.from_table(spec.kernel_table, q) if spec.kernel_table is not None
                      else ScatteringKernel.isotropic(spec.kernel_constant, q))
            op = PenalizedOperator.build(kernel, q)
            plan_mat = op.material(mesh, mat)
        plans: dict = {}   # one per distinct step size: the policy's and each shortened leg end

        def advance(s, h):
            plan = plans.get(h)
            if plan is None:
                coeffs = coefficient_arrays(h, cfg.eps, plan_mat.sigma_iface, plan_mat.alpha_iface)
                plan = plans[h] = StepPlan(h, cfg, plan_mat, mesh, q, bc, coeffs)
            if op is None:
                return step(s, plan)
            return penalized_step(s, op, plan)
    f0 = np.repeat(_initial_profile(spec, mesh)[None, :], q.n, axis=0).T   # node-major, as stepped
    state = KineticState(f=f0, rho=average(q, f0), t=0.0)
    taken, worst = 0, 0.0

    def leg(t, t_end, dt):
        # one advance per step of leg_steps; a failing step is named by its
        # number in the run, and the defect returned is the run's largest so far.
        # A diverging step's overflow and NaN reach its output, whose finite
        # guard raises, so numpy's warnings would only precede that error.
        nonlocal state, taken, worst
        n, last = leg_steps(t, t_end, dt)
        steps = 0
        with np.errstate(over="ignore", invalid="ignore"):
            for h in chain(repeat(dt, n), (last,) if last else ()):
                try:
                    state = advance(state, h)
                except SolverFailureError as exc:
                    raise SolverFailureError(f"step {taken + steps + 1}, leg to t={t_end:.6g}: {exc}") from exc
                steps += 1
                if track_moments:
                    worst = max(worst, moment_defect(state, q))
        taken += steps
        return state, steps, worst if track_moments else None
    return policy, leg


def run(spec: ExperimentSpec, cells: Optional[int] = None, store_f: bool = False,
        track_moments: bool = False) -> RunResult:
    """Integrate the experiment to each output time, one leg of the scheme
    (:func:`_scheme`) from each output time to the next, with the
    ``dt_override`` (0 and negative values raise) or else the scheme's policy
    dt.  Every leg takes the n full steps and the shortened last step of
    :func:`reference.leg_steps`, so it lands on its output time to rounding;
    ``diffusion`` legs are :func:`reference.diffusion_run` calls."""
    n_cells = int(cells) if cells is not None else int(spec.cells[0])
    mesh = SpatialMesh(spec.x_min, spec.x_max, n_cells)
    q = _build_quadrature(spec)
    mat = sample_material(spec.sigma, spec.alpha, spec.source, mesh)
    policy, leg = _scheme(spec, mesh, q, mat, track_moments)
    t_start = _time.perf_counter()
    dt = policy if spec.dt_override is None else spec.dt_override

    profiles = []
    f_tables = [] if store_f else None
    n_steps = 0
    defect = None
    t = 0.0
    for t_end in spec.times:
        state, steps, defect = leg(t, t_end, dt)
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
    """One row per cell: ``x,rho[,f_0,...]`` with full-precision formatting.

    Each row is one ``%``-format of its columns, each as ``%.17g``."""
    table = np.column_stack((x, rho) if f is None else (x, rho, f))
    names = ["x", "rho"] + [f"f_{k}" for k in range(table.shape[1] - 2)]
    row = ",".join(["%.17g"] * table.shape[1]) + "\n"
    with open(path, "w", encoding="ascii") as fh:
        fh.write(",".join(names) + "\n")
        fh.writelines(row % tuple(values) for values in table.tolist())


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
