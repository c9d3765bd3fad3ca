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

import time as _time
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .coeffs import coefficient_arrays
from .errors import ConfigError, InvalidArgumentError, SolverFailureError
from .grid import SpatialMesh, average, build_double_gauss, build_gauss_legendre, sample_material
from .penalized import PenalizedOperator, ScatteringKernel, penalized_step
from .reference import (ChandrasekharWeight, chandrasekhar_density, diffusion_run,
                        diffusion_timestep, upwind_step, upwind_timestep)
from .ugks import (BoundarySpec, KineticState, SchemeConfig, StepPlan, cfl_timestep,
                   moment_defect, step)

__all__ = ["ExperimentSpec", "RunResult", "builtin_ids", "builtin_spec", "run",
           "write_csv", "read_csv"]

SCHEMES = ("ugks", "ugks_id", "upwind", "diffusion")


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
    weight_variant: str = "polynomial"
    reconstruction: str = "first_order"
    theta_lim: float = 1.5
    quadrature: int = 16
    quad_kind: str = "gauss_legendre"
    cfl: float = 0.9
    cfl_form: str = "max"
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
    """Density profiles at the requested output times plus run metadata."""

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


def _initial_state(spec: ExperimentSpec, mesh: SpatialMesh, q) -> KineticState:
    # node-major, like every stepped state
    f0 = np.repeat(_initial_profile(spec, mesh)[None, :], q.n, axis=0).T
    return KineticState(f=f0, rho=average(q, f0), t=0.0)


def _dirichlet_data(spec: ExperimentSpec, q) -> tuple[float, float]:
    """Dirichlet data of the diffusion limit: the inflow value itself for
    isotropic inflow, the half-range weighted density otherwise."""
    w = ChandrasekharWeight.build(spec.weight_variant, q)

    def side(fn, incoming_mask, sign):
        if not callable(fn):
            return float(fn)
        vals = np.array([float(fn(vk)) for vk in q.nodes])
        inc = vals[incoming_mask]
        if np.allclose(inc, inc[0], rtol=0.0, atol=1e-14):
            return float(inc[0])
        mirrored = np.array([float(fn(sign * abs(vk))) for vk in q.nodes])
        return chandrasekhar_density(mirrored, w, q)

    return (side(spec.f_left, q.positive, 1.0),
            side(spec.f_right, ~q.positive, -1.0))


def run(spec: ExperimentSpec, cells: Optional[int] = None, store_f: bool = False,
        track_moments: bool = False) -> RunResult:
    """Integrate the experiment to each output time, shrinking the final step
    of each leg so states land exactly on the requested times."""
    n_cells = int(cells) if cells is not None else int(spec.cells[0])
    mesh = SpatialMesh(spec.x_min, spec.x_max, n_cells)
    q = _build_quadrature(spec)
    mat = sample_material(spec.sigma, spec.alpha, spec.source, mesh)
    t_start = _time.perf_counter()

    if spec.scheme == "diffusion":
        return _run_diffusion(spec, mesh, mat, q, t_start)

    bc = BoundarySpec.from_functions(spec.f_left, spec.f_right, q,
                                     mode=spec.bc_mode, weight_variant=spec.weight_variant)
    cfg = SchemeConfig(
        eps=spec.eps, cfl=spec.cfl, reconstruction=spec.reconstruction,
        theta_lim=spec.theta_lim,
        diffusion_mode="implicit_slopes" if spec.scheme == "ugks_id" else "explicit_slopes",
        cfl_form=spec.cfl_form,
    )
    state = _initial_state(spec, mesh, q)

    if spec.scheme == "upwind":
        dt_policy = spec.dt_override or upwind_timestep(spec.eps, mat, mesh, cfl=spec.cfl)
        recompute_rho = True

        def stepper(s, dt):
            f_new = upwind_step(s.f, spec.eps, mat, mesh, q, bc.f_left, bc.f_right, dt,
                                reconstruction=spec.reconstruction, theta_lim=spec.theta_lim)
            return KineticState(f=f_new, rho=s.rho, t=s.t + dt)
    else:
        dt_policy = spec.dt_override or cfl_timestep(cfg, mat, mesh)
        recompute_rho = False
        if spec.collision == "penalized":
            if spec.kernel_table is not None:
                kernel = ScatteringKernel.from_table(spec.kernel_table, q)
            else:
                kernel = ScatteringKernel.isotropic(spec.kernel_constant, q)
            op = PenalizedOperator.build(kernel, q)
            plan_mat = op.material(mesh, mat)

            def advance(s, plan):
                return penalized_step(s, spec.eps, op, mesh, q, bc, cfg=cfg, plan=plan)
        else:
            plan_mat = mat

            def advance(s, plan):
                return step(s, cfg, mat, mesh, q, bc, plan=plan)

        plans: dict = {}   # one per distinct dt: the policy's and each shortened leg end

        def stepper(s, dt):
            plan = plans.get(dt)
            if plan is None:
                coeffs = coefficient_arrays(dt, cfg.eps, plan_mat.sigma_iface, plan_mat.alpha_iface)
                plan = plans[dt] = StepPlan(dt, cfg, plan_mat, mesh, q, bc, coeffs)
            return advance(s, plan)

    profiles = []
    f_tables = [] if store_f else None
    n_steps = 0
    defect = 0.0
    t = 0.0
    for t_target in spec.times:
        while t < t_target - 1e-13 * max(1.0, t_target):
            dt = min(dt_policy, t_target - t)
            try:
                state = stepper(state, dt)
            except SolverFailureError as exc:
                raise SolverFailureError(f"step {n_steps + 1} at t={t:.6g}: {exc}") from exc
            n_steps += 1
            t += dt
            if track_moments:
                defect = max(defect, moment_defect(state, q))
        t = t_target
        if recompute_rho:
            state = KineticState.from_distribution(state.f, q, t=state.t)
        profiles.append(np.array(state.rho))
        if store_f:
            f_tables.append(np.array(state.f))

    return RunResult(
        id=spec.id, scheme=spec.scheme, times=tuple(spec.times), x=mesh.centers,
        rho=profiles, f=f_tables, n_cells=n_cells, dt=dt_policy, n_steps=n_steps,
        wall_time=_time.perf_counter() - t_start,
        moment_defect=defect if track_moments else None,
    )


def _run_diffusion(spec: ExperimentSpec, mesh: SpatialMesh, mat, q, t_start: float) -> RunResult:
    if np.any(mat.sigma_iface <= 0):
        raise InvalidArgumentError("diffusion scheme requires sigma > 0 everywhere")
    kappa_iface = 1.0 / (3.0 * mat.sigma_iface)
    dirichlet = _dirichlet_data(spec, q)
    rho = _initial_profile(spec, mesh)
    mode = spec.diffusion_solver
    if spec.dt_override is not None:
        dt_policy = spec.dt_override
    elif mode == "explicit":
        dt_policy = diffusion_timestep(kappa_iface, mesh.dx, spec.cfl)
    else:
        dt_policy = spec.cfl * mesh.dx
    profiles = []
    n_steps = 0
    t = 0.0
    for t_target in spec.times:
        span = t_target - t
        if span > 1e-13 * max(1.0, t_target):
            rho = diffusion_run(rho, kappa_iface, mat.alpha_cell, mat.g_cell, mesh.dx,
                                span, mode, dirichlet, cfl=spec.cfl, dt=dt_policy)
            n_steps += int(np.ceil(span / dt_policy - 1e-12))
        t = t_target
        profiles.append(np.array(rho))
    return RunResult(
        id=spec.id, scheme=spec.scheme, times=tuple(spec.times), x=mesh.centers,
        rho=profiles, f=None, n_cells=mesh.n_cells, dt=dt_policy, n_steps=n_steps,
        wall_time=_time.perf_counter() - t_start, moment_defect=None,
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
