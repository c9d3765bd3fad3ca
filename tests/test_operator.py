"""Stability of the time-step policy and the asymptotic limits, measured on
the exact one-step map of a plan (see ``operators.one_step_operator``)."""

import numpy as np
import pytest

from ugks1d.experiments import builtin_spec
from ugks1d.grid import SpatialMesh, average, build_gauss_legendre, sample_material
from ugks1d.reference import DiffusionPlan, UpwindPlan
from ugks1d.ugks import BoundarySpec, SchemeConfig, apply

from operators import one_step_operator, spectral_radius
from plans import cfl_plan

Q16 = build_gauss_legendre(16)
SIGMAS = {"1": 1.0, "1+(10x)^2": lambda x: 1.0 + (10.0 * x) ** 2, "ex4": builtin_spec("ex4").sigma}


@pytest.mark.parametrize("sigma", SIGMAS)
@pytest.mark.parametrize("eps", [1.0, 0.3, 0.1, 1e-2, 1e-4, 1e-8])
def test_explicit_ugks_is_stable_at_its_policy_dt(eps, sigma):
    mesh = SpatialMesh(0.0, 1.0, 25)
    mat = sample_material(SIGMAS[sigma], 0.0, 0.0, mesh)
    plan = cfl_plan(SchemeConfig(eps=eps), mat, mesh, Q16, BoundarySpec.from_functions(0.0, 0.0, Q16))
    M, b = one_step_operator(plan)
    assert not b.any()        # zero inflow and source: the map is linear
    assert spectral_radius(M) <= 1.0 + 1e-12


@pytest.mark.parametrize("mode", ["stabilized", "blended"])
def test_the_operator_reproduces_a_step_of_its_plan(mode):
    mesh = SpatialMesh(0.0, 1.0, 25)
    mat = sample_material(SIGMAS["1+(10x)^2"], 0.2, 0.5, mesh)
    bc = BoundarySpec.from_functions(lambda v: v, 0.3, Q16, mode=mode)
    plan = cfl_plan(SchemeConfig(eps=0.1), mat, mesh, Q16, bc)
    M, b = one_step_operator(plan)
    f = np.random.default_rng(3).random(plan.shape)
    rho = average(Q16, f)
    f_new, rho_new = apply(plan, f, rho)
    assert b.any()
    assert np.allclose(M @ np.concatenate((f.ravel(), rho)) + b, np.concatenate((f_new.ravel(), rho_new)),
                       rtol=1e-13, atol=1e-13)


@pytest.mark.parametrize("eps", [1.0, 1e-2])
def test_free_transport_ugks_is_the_upwind_map(eps):
    # criterion 2 at the operator level: with sigma = alpha = 0 explicit ugks
    # and the upwind oracle are one affine map on consistent states, rho = <f>,
    # stabilized walls included (the upwind step reads f alone)
    n = 25
    mesh = SpatialMesh(0.0, 1.0, n)
    mat = sample_material(0.0, 0.0, 0.0, mesh)
    bc = BoundarySpec.from_functions(lambda v: v, 0.3, Q16)
    plan = cfl_plan(SchemeConfig(eps=eps), mat, mesh, Q16, bc)
    M, b = one_step_operator(plan)
    M_up, b_up = one_step_operator(UpwindPlan(plan.dt, eps, mat, mesh, Q16, bc.f_left, bc.f_right))
    consistent = np.vstack((np.eye(n * Q16.n), np.kron(np.eye(n), 0.5 * Q16.weights)))
    assert np.abs((M - M_up) @ consistent).max() <= 1e-15
    assert np.abs(b - b_up).max() <= 1e-15


# The gap of criterion 3's maps over eps/dx, frozen from its first
# measurement: 0.484, 0.487 and 0.487 at eps = 1e-4, 1e-6 and 1e-8.
DIFFUSION_GAP = 0.49


@pytest.mark.parametrize("eps", [1e-4, 1e-6, 1e-8])
def test_ugks_density_map_on_equilibria_is_the_diffusion_map(eps):
    # criterion 3 at the operator level: on equilibrium states, f = rho at
    # every node, the density rows of explicit ugks's map are the explicit
    # 3-point scheme's map at the same dt, to O(eps/dx)
    n = 25
    mesh = SpatialMesh(0.0, 1.0, n)
    mat = sample_material(lambda x: 1.0 + x, 0.0, 0.0, mesh)
    plan = cfl_plan(SchemeConfig(eps=eps), mat, mesh, Q16, BoundarySpec.from_functions(0.0, 0.0, Q16))
    M, _ = one_step_operator(plan)
    M_diff, _ = one_step_operator(DiffusionPlan(plan.dt, 1.0 / (3.0 * mat.sigma_iface), 0.0, 0.0, mesh.dx,
                                                "explicit", (0.0, 0.0)))
    equilibria = np.vstack((np.kron(np.eye(n), np.ones((Q16.n, 1))), np.eye(n)))
    assert np.abs(M[n * Q16.n:] @ equilibria - M_diff).max() <= DIFFUSION_GAP * eps / mesh.dx
