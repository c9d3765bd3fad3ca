"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
report.  Tolerances are frozen here; the profile-match thresholds for the
coarse diffusive run were validated once against the fine-mesh oracle before
freezing (the 25-cell discretization itself sits 20%/9%/5% from the
2000-cell reference at the three early output times, for any scheme sharing
the limit discretization; see the t=2 value for the resolved regime).
"""

import time

import numpy as np
import pytest

from ugks1d.analysis import compare, convergence_study, restrict_profile
from ugks1d.coeffs import coefficient_arrays
from ugks1d.experiments import ExperimentSpec, builtin_ids, builtin_spec, run
from ugks1d.grid import (SpatialMesh, build_double_gauss, build_gauss_legendre, sample_material,
                         wall_density)
from ugks1d.penalized import (PenalizedOperator, ScatteringKernel, penalization_theta,
                              assemble_operator, penalized_step)
from ugks1d.reference import diffusion_step
from ugks1d.ugks import BoundarySpec, KineticState, SchemeConfig, StepPlan, cfl_timestep, step

from oracles import dirichlet_series_profile, homogeneous_stability_margin

Q16 = build_gauss_legendre(16)


def report(num: int, ok: bool, detail: str) -> None:
    print(f"[criterion {num:2d}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_1_coefficient_asymptotics():
    t0 = time.perf_counter()
    dt, eps = 1e-2, 1.0
    gap_a, gap_c, gap_d = [], [], []
    for k in range(2, 13):
        s = 10.0**-k
        a, _, c, d, _, _ = coefficient_arrays(dt, eps, s, s)
        gap_a.append(abs(float(a) - 1.0 / eps))
        gap_c.append(abs(float(c)))
        gap_d.append(abs(float(d)))
    ok = all(x >= y - 1e-30 for x, y in zip(gap_a, gap_a[1:]))
    ok &= all(x >= y - 1e-30 for x, y in zip(gap_c, gap_c[1:]))
    ok &= all(x >= y - 1e-30 for x, y in zip(gap_d, gap_d[1:]))
    ok &= gap_a[-1] < 1e-13 and gap_c[-1] < 1e-13 and gap_d[-1] < 1e-15

    # eps sweep at sigma = 1, alpha = 0
    gaps_d, gaps_a = {}, {}
    for k in range(1, 11):
        eps_k = 10.0**-k
        a, _, _, d, _, _ = coefficient_arrays(dt, eps_k, 1.0, 0.0)
        gaps_d[eps_k] = abs(float(d) + 1.0)
        gaps_a[eps_k] = abs(float(a))
    ok &= all(gaps_d[e] <= 1e-8 for e in gaps_d if e <= 1e-6)
    vals_a = [gaps_a[10.0**-k] for k in range(1, 11)]
    ok &= all(x >= y - 1e-30 for x, y in zip(vals_a, vals_a[1:]))
    # A decays as eps/dt: the 1e-8 level is reached at the bottom of the sweep
    ok &= gaps_a[1e-10] <= 1.000001e-8
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 1.0
    report(1, ok, f"coefficient limits monotone; |D+1/sigma|<=1e-8 for eps<=1e-6, "
                  f"|A|={gaps_a[1e-10]:.2e} at eps=1e-10 ({elapsed:.2f}s)")


def test_criterion_2_free_transport_degeneration():
    t0 = time.perf_counter()
    worst = 0.0
    for cells in (25, 200):
        ref = run(builtin_spec("ex7", scheme="upwind"), cells=cells)
        for mode in ("stabilized", "blended"):
            out = run(builtin_spec("ex7", bc_mode=mode), cells=cells)
            worst = max(worst, compare(out, ref, "linf")[0][0])
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-11 and elapsed < 5.0
    report(2, ok, f"UGKS (stabilized, blended) vs upwind at t=0.4: Linf={worst:.2e} "
                  f"({elapsed:.2f}s)")


def test_criterion_3_diffusion_degeneration():
    t0 = time.perf_counter()
    # (a) one macro update against the explicit 3-point stepper
    mesh = SpatialMesh(0.0, 1.0, 25)
    mat = sample_material(1.0, 0.0, 0.0, mesh)
    cfg = SchemeConfig(eps=1e-8)
    bc = BoundarySpec.from_functions(1.0, 0.0, Q16)
    rho0 = 0.5 * (1.0 + np.cos(np.pi * mesh.centers))
    state = KineticState.from_distribution(np.repeat(rho0[:, None], 16, axis=1), Q16)
    dt = cfl_timestep(cfg, mat, mesh)
    one = step(state, cfg, mat, mesh, q=Q16, bc=bc, dt=dt)
    ref_step = diffusion_step(rho0, 1.0 / (3.0 * mat.sigma_iface), 0.0, 0.0,
                              mesh.dx, dt, "explicit", (1.0, 0.0))
    per_step = float(np.abs(one.rho - ref_step).max() / np.abs(ref_step).max())
    ok = per_step <= 1e-6

    # (b) same-mesh trajectory equivalence: the UGKS at eps=1e-8 follows its
    # own limit scheme through all output times
    ugks25 = run(builtin_spec("ex2"), cells=25)
    diff25 = run(builtin_spec("ex2", scheme="diffusion"), cells=25)
    same_mesh = max(d for d, _ in compare(ugks25, diff25, "linf"))
    ok &= same_mesh <= 1e-6

    # (c) against the 2000-cell reference; thresholds frozen from the oracle
    # validation (coarse-mesh resolution error dominates at early times)
    ref2000 = run(builtin_spec("ex2", scheme="diffusion"), cells=2000)
    exact = dirichlet_series_profile(ref2000.x, 2.0, 1.0 / 3.0, 1.0, 0.0)
    ref_check = float(np.abs(ref2000.rho[-1] - exact).max())
    ok &= ref_check < 2.5e-3
    frozen = {0.01: 0.21, 0.05: 0.10, 0.15: 0.06, 2.0: 0.02}
    dists = compare(ugks25, ref2000, "linf")
    details = []
    for (t_out, (d, _)) in zip(ugks25.times, dists):
        scale = float(np.abs(restrict_profile(ref2000.x, ref2000.rho[list(ugks25.times).index(t_out)],
                                              25, 0.0, 1.0)).max())
        rel = d / scale
        ok &= rel <= frozen[t_out]
        details.append(f"t={t_out:g}:{rel:.3f}<= {frozen[t_out]:g}")
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 30.0
    report(3, ok, f"per-step rel {per_step:.2e}<=1e-6; same-mesh {same_mesh:.2e}<=1e-6; "
                  f"vs 2000-cell ref {'; '.join(details)} ({elapsed:.2f}s)")


def test_criterion_4_boundary_density_scalar():
    qd = build_double_gauss(16)
    val = wall_density(qd, qd.nodes, slice(qd.split, None))
    ok = abs(val - 17.0 / 24.0) <= 1e-14
    # the corrected and blended boundary modes reproduce the same value
    mesh = SpatialMesh(0.0, 1.0, 25)
    mat = sample_material(1.0, 0.0, 0.0, mesh)
    cfg = SchemeConfig(eps=1e-6)  # nu dt huge at dt = 1 -> theta = 1
    for mode in ("corrected", "blended"):
        bc = BoundarySpec.from_functions(lambda v: v, 0.0, qd, mode=mode)
        rho_half = StepPlan(1.0, cfg, mat, mesh, qd, bc).rho_half[0]
        ok &= abs(rho_half - 17.0 / 24.0) <= 1e-14
    report(4, ok, f"anisotropic boundary density = {val!r} vs 17/24 "
                  f"(err {val - 17.0 / 24.0:.1e})")


def test_criterion_5_harmonic_average():
    spec = builtin_spec("ex4")
    mesh = SpatialMesh(0.0, 1.0, 40)
    mat = sample_material(spec.sigma, spec.alpha, spec.source, mesh)
    cfg = SchemeConfig(eps=1e-10, diffusion_mode="implicit_slopes")
    bc = BoundarySpec.from_functions(0.0, 0.0, Q16)
    lower, diag, upper = StepPlan(1e-3, cfg, mat, mesh, Q16, bc).bands
    kappa_cell = 1.0 / (3.0 * mat.sigma_cell)
    worst = 0.0
    for j in range(1, 40):  # interior interfaces
        kappa_eff = -(upper[j - 1] + lower[j]) * mesh.dx**2 / 2.0
        k1, k2 = kappa_cell[j - 1], kappa_cell[j]
        harmonic = 2.0 * k1 * k2 / (k1 + k2)
        worst = max(worst, abs(kappa_eff - harmonic))
    ok = worst <= 1e-12
    report(5, ok, f"assembled interface coefficients vs harmonic average: "
                  f"max |diff| = {worst:.2e}")


def test_criterion_6_implicit_diffusion_speedup():
    t0 = time.perf_counter()
    ed = run(builtin_spec("ex2", times=(2.0,)), cells=200)
    ident = run(builtin_spec("ex2", scheme="ugks_id", times=(2.0,)), cells=200)
    ratio = ed.n_steps / ident.n_steps
    dist = compare(ident, ed, "linf")[0][0]
    scale = float(np.abs(ed.rho[0]).max())
    ok = ratio >= 100.0 and dist <= 0.02 * scale
    ok &= ident.dt == pytest.approx(0.9 * (1.0 / 200.0))
    elapsed = time.perf_counter() - t0
    report(6, ok, f"step ratio {ratio:.1f} (>=100); final-time Linf diff "
                  f"{dist / scale:.2e} (<=2e-2) ({elapsed:.1f}s)")


def test_criterion_7_moment_consistency():
    worst = 0.0
    for ex in builtin_ids():
        spec = builtin_spec(ex)
        out = run(spec, cells=spec.cells[0], track_moments=True)
        worst = max(worst, out.moment_defect)
    # corrected/blended modes with isotropic inflow keep the identity everywhere
    for ex in ("ex1", "ex2", "ex3", "ex4"):
        for mode in ("corrected", "blended"):
            spec = builtin_spec(ex, bc_mode=mode)
            out = run(spec, cells=spec.cells[0], track_moments=True)
            worst = max(worst, out.moment_defect)
    ok = worst <= 1e-12

    # anisotropic inflow with the corrected mode decouples the macroscopic
    # boundary flux from the microscopic one at the left wall by construction;
    # every other cell keeps the identity
    mesh = SpatialMesh(0.0, 1.0, 50)
    mat = sample_material(1.0, 0.0, 0.0, mesh)
    cfg = SchemeConfig(eps=1e-4)
    bc = BoundarySpec.from_functions(lambda v: v, 0.0, Q16, mode="corrected")
    state = KineticState.from_distribution(np.zeros((50, 16)), Q16)
    interior_defect = 0.0
    for _ in range(100):
        state = step(state, cfg, mat, mesh, q=Q16, bc=bc)
        rho_f = state.f @ (0.5 * Q16.weights)
        gap = np.abs(state.rho - rho_f) / (1.0 + np.abs(state.rho))
        interior_defect = max(interior_defect, float(gap[1:].max()))
    ok &= interior_defect <= 1e-12
    report(7, ok, f"moment defect: built-ins {worst:.2e}; corrected-BC interior "
                  f"{interior_defect:.2e} (<=1e-12)")


def test_criterion_8_penalized_equivalence():
    c = 1.0
    kernel = ScatteringKernel.isotropic(c, Q16)
    op_matrix = assemble_operator(kernel, Q16)
    theta = penalization_theta(op_matrix, Q16)
    ok = abs(theta - c) <= 1e-12
    op = PenalizedOperator.build(kernel, Q16)
    for dt in (1e-3, 1.0, 1e3, 1e6):
        ok &= homogeneous_stability_margin(kernel.k_max, op.theta, dt, 1e-8) > 0

    mesh = SpatialMesh(0.0, 1.0, 25)
    mat = sample_material(1.0, 0.0, 0.0, mesh)
    cfg = SchemeConfig(eps=1.0)
    bc = BoundarySpec.from_functions(0.0, 1.0, Q16)
    dt = cfl_timestep(cfg, mat, mesh)
    s_iso = KineticState.from_distribution(np.zeros((25, 16)), Q16)
    s_pen = s_iso
    worst = 0.0
    for _ in range(100):
        s_iso = step(s_iso, cfg, mat, mesh, q=Q16, bc=bc, dt=dt)
        s_pen = penalized_step(s_pen, 1.0, op, mesh, Q16, bc, dt=dt)
        worst = max(worst, float(np.abs(s_pen.f - s_iso.f).max()))
    ok &= worst <= 1e-11
    report(8, ok, f"theta-c = {theta - c:.1e}; trajectory gap {worst:.2e} "
                  f"(<=1e-11); margin positive for all dt")


def test_criterion_9_boundary_mode_behavior():
    t0 = time.perf_counter()
    ref = run(builtin_spec("ex6", scheme="diffusion"), cells=2000)
    corr = run(builtin_spec("ex6", bc_mode="corrected"), cells=200)
    stab = run(builtin_spec("ex6", bc_mode="stabilized"), cells=200)
    blend = run(builtin_spec("ex6", bc_mode="blended"), cells=200)
    scale = float(np.abs(restrict_profile(ref.x, ref.rho[0], 200, 0.0, 1.0)).max())
    d_corr = compare(corr, ref, "linf")[0][0] / scale
    d_stab = compare(stab, ref, "linf")[0][0] / scale
    ok = d_corr <= 0.02
    ok &= d_stab > d_corr and d_stab > 0.02
    d_bc = compare(blend, corr, "linf")[0][0]
    ok &= d_bc <= 1e-11
    # free transport: blended collapses onto stabilized
    b7 = run(builtin_spec("ex7", bc_mode="blended"), cells=200)
    s7 = run(builtin_spec("ex7", bc_mode="stabilized"), cells=200)
    d_bs = compare(b7, s7, "linf")[0][0]
    ok &= d_bs <= 1e-11
    elapsed = time.perf_counter() - t0
    report(9, ok, f"corrected {d_corr:.4f}<=0.02 < stabilized {d_stab:.4f}; "
                  f"blended=corrected {d_bc:.1e}; blended=stabilized@sigma=0 {d_bs:.1e} "
                  f"({elapsed:.1f}s)")


def test_criterion_10_convergence_orders():
    t0 = time.perf_counter()
    bump = lambda x: np.exp(-((x - 0.5) / 0.12) ** 2)
    spec_diff = ExperimentSpec(
        id="order-diffusive", eps=1e-8, sigma=lambda x: 1.0 + x,
        f_left=0.0, f_right=0.0, initial=bump, times=(0.005,), cells=(50,))
    res_d = convergence_study(spec_diff, (25, 50, 100, 200), norm="linf",
                              reference_cells=800)
    spec_ft = ExperimentSpec(
        id="order-transport", eps=1.0, sigma=0.0,
        f_left=0.0, f_right=0.0, initial=bump, times=(0.25,), cells=(50,))
    res_t = convergence_study(spec_ft, (25, 50, 100, 200), norm="linf",
                              reference_cells=800)
    ok = abs(res_d.observed_order - 2.0) <= 0.2
    ok &= abs(res_t.observed_order - 1.0) <= 0.2
    elapsed = time.perf_counter() - t0
    report(10, ok, f"diffusive order {res_d.observed_order:.2f} (2.0 +/- 0.2); "
                   f"free-transport order {res_t.observed_order:.2f} (1.0 +/- 0.2) "
                   f"({elapsed:.1f}s)")
