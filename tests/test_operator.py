"""Stability of the time-step policy, measured on the exact one-step map of
a plan (see ``operators.one_step_operator``)."""

import numpy as np
import pytest

from ugks1d.experiments import builtin_spec
from ugks1d.grid import SpatialMesh, average, build_gauss_legendre, sample_material
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
