import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from ugks1d import experiments, reference
from ugks1d.analysis import compare, convergence_study, restrict_profile
from ugks1d.config import compile_expression, load_config
from ugks1d.errors import (ComparisonError, ConfigError, InvalidArgumentError, InvalidDataError,
                           SolverFailureError)
from ugks1d.experiments import (builtin_ids, builtin_spec, read_csv,
                                result_filename, run, write_csv)


# ---------------------------------------------------------------- expressions

def test_expression_arithmetic_and_precedence():
    fn = compile_expression("2 + 3 * 4 ^ 2")
    assert fn(0.0) == pytest.approx(50.0)
    fn = compile_expression("1 + (10*x)^2")
    assert fn(0.0125) == pytest.approx(1.015625)
    fn = compile_expression("-v/2 + 1")
    assert fn(0.5) == pytest.approx(0.75)
    fn = compile_expression("2^3^1")  # right-associative power via unary chain
    assert fn(0.0) == pytest.approx(8.0)
    # ^ binds tighter than unary minus and groups to the right; / and - to the left
    for text, value in (("-2^2", -4.0), ("2^-1", 0.5), ("2^3^2", 512.0), ("8/4/2", 1.0),
                        ("2-3-4", -5.0)):
        assert compile_expression(text)(0.0) == value, text
    fn = compile_expression("piecewise(0.5; piecewise(0.2; 1, 2), 3)")
    assert [fn(t) for t in (0.1, 0.3, 0.7)] == [1.0, 2.0, 3.0]
    assert np.array_equal(fn(np.array([0.1, 0.3, 0.7])), [1.0, 2.0, 3.0])


def test_expression_piecewise():
    fn = compile_expression("piecewise(0.1, 0.5 ; 1, 10, 100)")
    assert fn(0.05) == 1.0
    assert fn(0.3) == 10.0
    assert fn(0.7) == 100.0
    # right-continuous at the breakpoints
    assert fn(0.1) == 10.0
    assert fn(0.5) == 100.0
    out = fn(np.array([0.05, 0.3, 0.7]))
    assert np.allclose(out, [1.0, 10.0, 100.0])


def test_expression_errors():
    with pytest.raises(ConfigError):
        compile_expression("sin(x)")
    with pytest.raises(ConfigError):
        compile_expression("1 +")
    with pytest.raises(ConfigError):
        compile_expression("piecewise(0.5 ; 1)")
    with pytest.raises(ConfigError):
        compile_expression("x $ 2")
    # Python's parser reads each of these, the grammar none of them
    for text in ("x**2", "1, 2", "(1, 2)", "piecewise(1, 2)", "piecewise + 1", "x ; 1", "0x10", "1_0"):
        with pytest.raises(ConfigError):
            compile_expression(text)
    # deep enough that Python's parser runs out of recursion
    for text in ("+".join(["x"] * 3000), "-" * 3000 + "x"):
        with pytest.raises(ConfigError, match="nested too deeply"):
            compile_expression(text)


# ---------------------------------------------------------------- config files

def test_builtin_expansion_values():
    ex2 = builtin_spec("ex2")
    assert ex2.eps == 1e-8
    assert ex2.f_left == 1.0 and ex2.f_right == 0.0
    assert ex2.sigma == 1.0
    assert ex2.times == (0.01, 0.05, 0.15, 2.0)
    assert ex2.cells == (25, 200)
    ex5 = builtin_spec("ex5")
    assert ex5.eps == 1e-2
    assert callable(ex5.f_left) and ex5.f_left(0.3) == pytest.approx(0.3)
    assert ex5.times == (0.4,)
    ex7 = builtin_spec("ex7")
    assert ex7.eps == 1.0
    assert ex7.sigma == 0.0
    assert ex7.quadrature == 16


def test_load_config_builtin_with_overrides(tmp_path):
    cfg = tmp_path / "c.txt"
    cfg.write_text("id = ex2\ncells = 25\nbc = blended\n")
    spec = load_config(str(cfg))
    assert spec.id == "ex2"
    assert spec.cells == (25,)
    assert spec.bc_mode == "blended"
    assert spec.eps == 1e-8


def test_load_config_custom(tmp_path):
    cfg = tmp_path / "c.txt"
    cfg.write_text(
        "# comment line\n"
        "id = custom\n"
        "eps = 0.01\n"
        "sigma = piecewise(0.1, 0.5 ; 1, 10, 100)\n"
        "source = 1\n"
        "f_left = 0\n"
        "f_right = 0\n"
        "times = 0.4\n"
        "cells = 40, 200\n"
        "scheme = ugks\n"
    )
    spec = load_config(str(cfg))
    assert spec.sigma(0.3) == pytest.approx(10.0)
    assert spec.cells == (40, 200)


def test_load_config_errors(tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("id = ex2\ncells 25\n")
    with pytest.raises(ConfigError, match="2"):
        load_config(str(bad))
    bad.write_text("id = ex2\nfrobnicate = 3\n")
    with pytest.raises(ConfigError, match="frobnicate"):
        load_config(str(bad))
    bad.write_text("eps = 0.1\nsigma = 0 - 1\n")
    with pytest.raises(ConfigError, match="sigma"):
        load_config(str(bad))
    bad.write_text("eps = 0.1\nsigma = 1\ntimes = 0\n")
    with pytest.raises(ConfigError, match="times"):
        load_config(str(bad))
    # the half-range weight has no variants, so this is an unknown key
    bad.write_text("id = ex2\nscheme = diffusion\nweight_variant = chebyshev\n")
    with pytest.raises(ConfigError, match="weight_variant"):
        load_config(str(bad))
    bad.write_text("sigma = 1\n")  # custom run without eps
    with pytest.raises(ConfigError):
        load_config(str(bad))
    with pytest.raises(ConfigError):
        builtin_spec("ex9")


@pytest.mark.parametrize("example, sigma", [("ex3", "1 + (10*x)^2"),
                                             ("ex4", "piecewise(0.1, 0.5 ; 1, 10, 100)")])
def test_a_config_expression_runs_byte_equal_to_the_builtin_it_spells(tmp_path, example, sigma):
    cfg = tmp_path / "c.txt"
    cfg.write_text(f"id = {example}\nsigma = {sigma}\n")
    paths = []
    for spec in (load_config(str(cfg)), builtin_spec(example)):
        out = run(spec, cells=40, store_f=True)
        paths.append(tmp_path / f"{len(paths)}.csv")
        write_csv(paths[-1], out.x, out.rho[0], out.f[0])
    assert paths[0].read_bytes() == paths[1].read_bytes()


# ---------------------------------------------------------------- run

def test_zero_time_request_returns_initial_state():
    spec = builtin_spec("ex1", times=(0.0, 0.1), initial=0.25)
    out = run(spec, cells=10)
    assert np.allclose(out.rho[0], 0.25)
    assert not np.allclose(out.rho[1], 0.25)


def test_run_metadata_consistent_with_policy():
    spec = builtin_spec("ex1", times=(0.1,))
    out = run(spec, cells=25)
    assert out.dt == pytest.approx(0.036)
    assert out.n_steps == math.ceil(0.1 / 0.036)
    assert out.x.size == 25
    assert len(out.rho) == 1


def test_diffusion_step_count_is_the_steps_taken(monkeypatch):
    # The output time lies 3e-12 dt past the 40th step: too close to take a
    # 41st, which an estimate from span/dt would count.
    dt = 0.9 * 0.04**2 / (2.0 / 3.0)
    diffusion_step, step_sizes = reference.diffusion_step, []

    def counted(rho, kappa_iface, alpha, source, dx, step_dt, *rest):
        step_sizes.append(step_dt)
        return diffusion_step(rho, kappa_iface, alpha, source, dx, step_dt, *rest)

    monkeypatch.setattr(reference, "diffusion_step", counted)
    spec = builtin_spec("ex5", scheme="diffusion", diffusion_solver="implicit", dt_override=dt,
                        times=(40 * dt * (1 + 3e-12 / 40),))
    out = run(spec, cells=25)
    assert out.n_steps == 40
    assert step_sizes == [dt] * out.n_steps


SCHEMES = {"ugks": dict(scheme="ugks"), "ugks_id": dict(scheme="ugks_id"), "upwind": dict(scheme="upwind"),
           "diffusion": dict(scheme="diffusion"),
           "implicit_diffusion": dict(scheme="diffusion", diffusion_solver="implicit")}


@pytest.mark.parametrize("past, steps", [(5e-14, 40), (2e-13, 41)])
@pytest.mark.parametrize("scheme", SCHEMES)
def test_every_scheme_ends_its_legs_by_one_rule(scheme, past, steps):
    # An output time within 1e-13 of the 40th step ends the leg there; one
    # 2e-13 past it takes a 41st, shortened step.
    dt = 0.9 * 0.04**2 / (2.0 / 3.0)
    spec = builtin_spec("ex5", eps=1.0, dt_override=dt, times=(40 * dt + past,), **SCHEMES[scheme])
    assert run(spec, cells=25).n_steps == steps


@pytest.mark.parametrize("scheme", SCHEMES)
def test_a_negative_dt_override_is_rejected(scheme):
    # a negative step moves a leg away from its output time and a zero one
    # stays put, so neither leg would ever end; zero is no "unset" either
    for dt in (-0.01, 0.0):
        spec = builtin_spec("ex5", eps=1.0, dt_override=dt, **SCHEMES[scheme])
        with pytest.raises(InvalidArgumentError, match="dt must be positive"):
            run(spec, cells=25)


@pytest.mark.filterwarnings("error")
def test_a_diverging_run_raises_before_any_numpy_warning():
    # ex3 ugks_id at 200 cells overflows in its 729th step; the overflow and
    # the NaN after it reach the step's finite guard, which names the step
    spec = builtin_spec("ex3", scheme="ugks_id", times=(4.0,))
    with pytest.raises(SolverFailureError, match="^step 729, leg to t=4: non-finite values after step$"):
        run(spec, cells=200)


def test_an_upwind_failure_is_named_by_its_step_in_the_run(monkeypatch):
    # an upwind leg takes its steps in one advance; the one that fails is
    # still named by its number in the run
    calls = []

    def failing(*args, **kwargs):
        calls.append(None)
        if len(calls) == 5:
            raise SolverFailureError("non-finite values in upwind step")
        return reference.upwind_step(*args, **kwargs)

    monkeypatch.setattr(experiments, "upwind_step", failing)
    with pytest.raises(SolverFailureError, match="^step 5, leg to t=0.4: non-finite values in upwind step$"):
        run(builtin_spec("ex5", scheme="upwind"), cells=25)


@pytest.mark.parametrize("track", [False, True], ids=["plain", "tracking_moments"])
def test_a_leg_is_one_call_for_its_full_steps_unless_it_tracks_moments(monkeypatch, track):
    # one stepper call for a leg's n full steps and one for its shortened
    # step; a run that tracks the moment defect, which is per step, calls
    # once per step
    counts = []

    def counted(state, plan, n=1, _step=experiments.step):
        counts.append(n)
        return _step(state, plan, n)

    monkeypatch.setattr(experiments, "step", counted)
    times = (0.01, 0.05, 0.15)
    out = run(builtin_spec("ex2", times=times), cells=25, track_moments=track)
    expected, t = [], 0.0
    for t_end in times:
        n, last = reference.leg_steps(t, t_end, out.dt)
        expected += ([1] * n if track else [n] * bool(n)) + [1] * bool(last)
        t = t_end
    assert counts == expected and sum(counts) == out.n_steps
    assert len(counts) == (out.n_steps if track else 2 * len(times))


def test_every_leg_lands_on_its_output_time(monkeypatch):
    # ex2 ugks at 200 cells: each leg ends in a shortened step, and a leg's
    # steps add up, exactly, to its span to within 2 ulps of its output time
    sizes = []

    def recorded(state, plan, n=1):
        sizes.extend([plan.dt] * n)
        return state   # the step sizes are all this test reads

    monkeypatch.setattr(experiments, "step", recorded)
    times = (0.01, 0.05, 0.15, 2.0)
    out = run(builtin_spec("ex2", times=times), cells=200)
    assert len(sizes) == out.n_steps
    ends = [k for k, h in enumerate(sizes) if h != out.dt]
    assert len(ends) == len(times) and ends[-1] == len(sizes) - 1
    t, start = 0.0, 0
    for t_end, end in zip(times, ends):
        leg = sizes[start:end + 1]
        assert abs(sum(map(Fraction, leg)) - (Fraction(t_end) - Fraction(t))) <= 2 * np.spacing(t_end)
        t, start = t_end, end + 1


def test_run_determinism(tmp_path):
    spec = builtin_spec("ex5", times=(0.05,))
    a = run(spec, cells=25, store_f=True)
    b = run(spec, cells=25, store_f=True)
    pa, pb = tmp_path / "a.csv", tmp_path / "b.csv"
    write_csv(pa, a.x, a.rho[0], a.f[0])
    write_csv(pb, b.x, b.rho[0], b.f[0])
    assert pa.read_bytes() == pb.read_bytes()


def test_every_builtin_runs_at_coarse_resolution():
    for ex in builtin_ids():
        spec = builtin_spec(ex)
        out = run(spec, cells=spec.cells[0], track_moments=True)
        assert all(np.all(np.isfinite(p)) for p in out.rho)
        assert out.wall_time < 60.0
        assert out.moment_defect < 1e-12
    for eps in (1.0, 0.3):
        out = run(builtin_spec("ex5", eps=eps, scheme="upwind"), cells=25, track_moments=True)
        assert out.moment_defect < 1e-12
    # ex2 with implicit diffusion at the fine resolution is cheap as well
    out = run(builtin_spec("ex2", scheme="ugks_id"), cells=200)
    assert out.wall_time < 60.0


def test_second_order_run_differs_from_first_order():
    first = run(builtin_spec("ex4"), cells=40, track_moments=True)
    second = run(builtin_spec("ex4", reconstruction="mc_limited"), cells=40,
                 track_moments=True)
    assert second.moment_defect < 1e-12
    gap = np.abs(first.rho[0] - second.rho[0]).max()
    assert 1e-6 < gap < 0.5


def test_diffusion_scheme_implicit_solver(tmp_path):
    spec = builtin_spec("ex2", scheme="diffusion", diffusion_solver="implicit",
                        times=(2.0,))
    imp = run(spec, cells=200)
    exp = run(builtin_spec("ex2", scheme="diffusion", times=(2.0,)), cells=200)
    assert np.abs(imp.rho[0] - exp.rho[0]).max() < 1e-3
    assert imp.n_steps < exp.n_steps / 100


def test_diffusion_rejects_inflow_the_kinetic_schemes_reject():
    # f_L(v) = -v is negative on the whole incoming half of the left wall
    with pytest.raises(InvalidDataError):
        run(builtin_spec("ex5", f_left=lambda v: -v, scheme="diffusion"), cells=25)


@pytest.mark.parametrize("scheme", ["ugks", "upwind", "diffusion"])
def test_a_non_finite_initial_profile_is_an_input_error(scheme):
    # bad input data, so an input error before any step, not a NaN profile or a solver failure
    for initial in (lambda x: float("nan"), math.inf, lambda x: 1.0 / (x - 0.5) if x < 0.5 else math.inf):
        with pytest.raises(InvalidDataError, match="initial"):
            run(builtin_spec("ex5", scheme=scheme, initial=initial), cells=25)


def test_penalized_run_via_kernel_config(tmp_path):
    cfg = tmp_path / "pen.txt"
    cfg.write_text(
        "id = ex1\nkernel = isotropic:1.0\ntimes = 0.4\ncells = 25\n")
    spec = load_config(str(cfg))
    assert spec.collision == "penalized" and spec.kernel_constant == 1.0
    pen = run(spec, cells=25, track_moments=True)
    iso = run(builtin_spec("ex1", times=(0.4,)), cells=25)
    assert np.abs(pen.rho[0] - iso.rho[0]).max() < 1e-11
    assert pen.moment_defect < 1e-12


def test_penalized_run_via_kernel_file(tmp_path):
    from ugks1d.grid import build_gauss_legendre

    q = build_gauss_legendre(16)
    table = 0.5 + 0.2 * np.outer(q.nodes, q.nodes)
    kpath = tmp_path / "kernel.csv"
    np.savetxt(kpath, table, delimiter=",")
    cfg = tmp_path / "pen.txt"
    cfg.write_text(
        f"id = ex1\nkernel_file = {kpath}\ntimes = 0.1\ncells = 25\n")
    spec = load_config(str(cfg))
    out = run(spec, cells=25, track_moments=True)
    assert np.all(np.isfinite(out.rho[0]))
    assert out.moment_defect < 1e-12


def test_csv_roundtrip(tmp_path):
    spec = builtin_spec("ex7", times=(0.1,))
    out = run(spec, cells=25)
    path = tmp_path / result_filename("ex7", 0.1)
    write_csv(path, out.x, out.rho[0])
    x, rho = read_csv(path)
    assert np.array_equal(x, out.x)
    assert np.array_equal(rho, out.rho[0])


def test_csv_roundtrip_with_distribution_columns(tmp_path):
    out = run(builtin_spec("ex7", times=(0.1,)), cells=25, store_f=True)
    path = tmp_path / result_filename("ex7", 0.1)
    write_csv(path, out.x, out.rho[0], out.f[0])
    x, rho = read_csv(path)
    assert np.array_equal(x, out.x)
    assert np.array_equal(rho, out.rho[0])


def reference_write_csv(path, x, rho, f=None):
    """The CSV writer with one f-string per value, kept as the byte
    reference for ``write_csv``."""
    with open(path, "w", encoding="ascii") as fh:
        if f is None:
            fh.write("x,rho\n")
            for xi, ri in zip(x, rho):
                fh.write(f"{xi:.17g},{ri:.17g}\n")
        else:
            fh.write("x,rho," + ",".join(f"f_{k}" for k in range(f.shape[1])) + "\n")
            for xi, ri, fi in zip(x, rho, f):
                fh.write(f"{xi:.17g},{ri:.17g}," + ",".join(f"{v:.17g}" for v in fi) + "\n")


@pytest.mark.parametrize("with_f", [False, True])
def test_write_csv_matches_the_reference_writer_byte_for_byte(tmp_path, with_f):
    out = run(builtin_spec("ex5", times=(0.1,)), cells=25, store_f=True)
    rho = out.rho[0].copy()
    # Values whose text is easy to get wrong: signed zero, subnormal and
    # huge magnitudes, integers, and the non-finite values.
    rho[:9] = [-0.0, 5e-324, -1.7976931348623157e308, 1.0, 0.1, 1e22, np.nan, np.inf, -np.inf]
    f = out.f[0] if with_f else None
    write_csv(tmp_path / "new.csv", out.x, rho, f)
    reference_write_csv(tmp_path / "ref.csv", out.x, rho, f)
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


@pytest.mark.parametrize("with_f", [False, True])
def test_a_rewrite_over_a_longer_file_leaves_the_bytes_of_a_fresh_file(tmp_path, with_f):
    path = tmp_path / "rewritten.csv"
    for cells in (40, 25):
        out = run(builtin_spec("ex5", times=(0.1,)), cells=cells, store_f=True)
        f = out.f[0] if with_f else None
        write_csv(path, out.x, out.rho[0], f)
    reference_write_csv(tmp_path / "ref.csv", out.x, out.rho[0], f)
    assert path.read_bytes() == (tmp_path / "ref.csv").read_bytes()


def test_a_write_through_a_symlink_updates_its_target_and_keeps_the_link(tmp_path):
    out = run(builtin_spec("ex5", times=(0.1,)), cells=25)
    target, link = tmp_path / "target.csv", tmp_path / "link.csv"
    target.write_text("x,rho\n" + "0,0\n" * 100)
    link.symlink_to(target)
    write_csv(link, out.x, out.rho[0])
    reference_write_csv(tmp_path / "ref.csv", out.x, out.rho[0])
    assert link.is_symlink() and os.readlink(link) == str(target)
    assert target.read_bytes() == (tmp_path / "ref.csv").read_bytes()


@pytest.mark.skipif(not os.path.exists("/dev/null"), reason="no /dev/null on this platform")
def test_a_write_to_dev_null_succeeds():
    out = run(builtin_spec("ex5", times=(0.1,)), cells=25)
    write_csv("/dev/null", out.x, out.rho[0])


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no FIFOs on this platform")
def test_a_write_to_a_fifo_delivers_the_bytes_of_a_file(tmp_path):
    out = run(builtin_spec("ex5", times=(0.1,)), cells=25)
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)   # so the writer's open does not block
    try:
        write_csv(fifo, out.x, out.rho[0])                # 25 rows fit in the pipe's buffer
        received = os.read(reader, 1 << 16)
    finally:
        os.close(reader)
    reference_write_csv(tmp_path / "ref.csv", out.x, out.rho[0])
    assert received == (tmp_path / "ref.csv").read_bytes()


def test_write_csv_opens_without_truncating(tmp_path, monkeypatch):
    flags, real_open = [], os.open

    def recording_open(path, flag, *args):
        flags.append(flag)
        return real_open(path, flag, *args)

    monkeypatch.setattr(experiments.os, "open", recording_open)
    write_csv(tmp_path / "a.csv", np.array([0.25, 0.75]), np.array([1.0, 0.5]))
    assert flags and not any(flag & os.O_TRUNC for flag in flags)


@pytest.mark.parametrize("text", ["", "a,b\n1,2\n", "x,rho\n0.5,zero\n"])
def test_read_csv_rejects_malformed_files(tmp_path, text):
    path = tmp_path / "bad.csv"
    path.write_text(text)
    with pytest.raises(ConfigError):
        read_csv(path)


# ---------------------------------------------------------------- compare

def test_compare_identical_runs():
    out = run(builtin_spec("ex7", times=(0.2,)), cells=25)
    dists = compare(out, out, "linf")
    assert dists[0] == (0.0, 0.0)


def test_compare_constant_profiles_l1():
    spec = builtin_spec("ex1", times=(0.0,), initial=0.3)
    a = run(spec, cells=20)
    b = run(builtin_spec("ex1", times=(0.0,), initial=0.8), cells=20)
    dists = compare(a, b, "l1")
    assert dists[0][0] == pytest.approx(0.5, abs=1e-14)


def test_compare_restricts_fine_onto_coarse():
    sa = run(builtin_spec("ex2", times=(0.05,)), cells=25)
    sb = run(builtin_spec("ex2", scheme="diffusion", times=(0.05,)), cells=200)
    d = compare(sa, sb, "linf")[0][0]
    assert 0 < d < 0.2


def test_kinetic_regime_tracks_fine_upwind_reference():
    # ex1 against the 1000-cell upwind reference; first-order fronts at early
    # times set the coarse-mesh Linf level (thresholds frozen from a
    # converged run)
    ref = run(builtin_spec("ex1", scheme="upwind", times=(0.1, 0.4)), cells=1000)
    out200 = run(builtin_spec("ex1", times=(0.1, 0.4)), cells=200)
    assert all(rel <= 0.03 for _, rel in compare(out200, ref, "linf"))
    out25 = run(builtin_spec("ex1", times=(0.1, 0.4)), cells=25)
    assert all(rel <= 0.13 for _, rel in compare(out25, ref, "linf"))


def test_compare_free_transport_against_upwind():
    a = run(builtin_spec("ex7", times=(0.4,)), cells=25)
    b = run(builtin_spec("ex7", scheme="upwind", times=(0.4,)), cells=25)
    assert compare(a, b, "linf")[0][0] <= 1e-12


def test_compare_time_mismatch():
    a = run(builtin_spec("ex7", times=(0.1,)), cells=25)
    b = run(builtin_spec("ex7", times=(0.2,)), cells=25)
    with pytest.raises(ComparisonError):
        compare(a, b)


def test_restrict_profile_nonnested():
    x_f = (np.arange(6) + 0.5) / 6
    rho_f = x_f.copy()
    out = restrict_profile(x_f, rho_f, 4, 0.0, 1.0)
    # mean over each coarse cell of the piecewise-constant fine profile
    assert out[0] == pytest.approx((x_f[0] + 0.5 * x_f[1]) / 1.5)


# ---------------------------------------------------------------- convergence

def test_convergence_study_validation():
    spec = builtin_spec("ex7", times=(0.1,))
    with pytest.raises(InvalidArgumentError):
        convergence_study(spec, (25, 50))
    with pytest.raises(InvalidArgumentError):
        convergence_study(spec, (25, 50, 75))


def test_convergence_study_degenerate():
    spec = builtin_spec("ex1", times=(0.0,), initial=0.5)
    res = convergence_study(spec, (8, 16, 32), reference_cells=64)
    assert res.degenerate
    assert math.isnan(res.observed_order)


# ---------------------------------------------------------------- wall time

@pytest.mark.parametrize("scheme", ["diffusion", "ugks_id"])
def test_first_run_in_a_process_reports_its_own_wall_time(scheme):
    # Both schemes load SciPy's linear algebra, about 0.3 s the first time
    # in a process; run() loads it before its clock starts, so the first
    # 25-cell run reports a wall time near the next one's, about 1 ms.
    script = ("from ugks1d.experiments import builtin_spec, run\n"
              f"print(run(builtin_spec('ex5', scheme={scheme!r}), cells=25).wall_time)\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(Path(experiments.__file__).parent.parent), *filter(None, [os.environ.get("PYTHONPATH")])]))
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert float(proc.stdout) < 0.1
