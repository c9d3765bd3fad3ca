import warnings

import numpy as np

from ugks1d.cli import main
from ugks1d.experiments import read_csv, write_csv


def test_example_subcommand_writes_profiles(tmp_path, capsys):
    out = tmp_path / "ex7run"
    code = main(["example", "ex7", "--cells", "25", "--out", str(out)])
    assert code == 0
    captured = capsys.readouterr().out
    assert f"{out}_t0.4.csv" in captured
    x, rho = read_csv(f"{out}_t0.4.csv")
    assert x.size == 25 and np.all(np.isfinite(rho))


def test_example_option_plumbing(tmp_path):
    out = tmp_path / "r"
    code = main(["example", "ex2", "--cells", "25", "--implicit-diffusion",
                 "--bc", "blended", "--quad", "8", "--cfl", "0.5",
                 "--out", str(out)])
    assert code == 0
    code = main(["example", "ex4", "--cells", "40", "--second-order",
                 "--out", str(tmp_path / "s")])
    assert code == 0


def test_two_cell_implicit_diffusion_example_exits_zero(tmp_path):
    out = tmp_path / "c2"
    assert main(["example", "ex2", "--cells", "2", "--implicit-diffusion", "--out", str(out)]) == 0
    x, rho = read_csv(f"{out}_t2.csv")
    assert x.size == 2 and np.all(np.isfinite(rho))


def test_run_subcommand_and_config_error(tmp_path, capsys):
    cfg = tmp_path / "run.txt"
    cfg.write_text("id = ex7\ntimes = 0.1\ncells = 25\n")
    code = main(["run", str(cfg), "--out", str(tmp_path / "w")])
    assert code == 0
    bad = tmp_path / "bad.txt"
    bad.write_text("id = ex7\nbogus_key = 1\n")
    assert main(["run", str(bad)]) == 2
    assert main(["run", str(tmp_path / "missing.txt")]) == 2


def test_run_with_a_value_that_is_not_a_finite_real_number_exits_two(tmp_path, capsys):
    # overflows, a zero division at the wall, and a negative base to a
    # fractional power; none may end in a traceback
    for key, text in (("sigma", "10^400"), ("f_left", "10^400"), ("sigma", "10^(400*x)"),
                      ("sigma", "1/x"), ("sigma", "piecewise(0.5; 1, (x-1)^0.5)")):
        cfg = tmp_path / "c.txt"
        cfg.write_text(f"id = ex5\ncells = 25\n{key} = {text}\n")
        assert main(["run", str(cfg), "--out", str(tmp_path / "w")]) == 2, text
        assert f"{key}: not a finite real number" in capsys.readouterr().err, text


def test_run_with_a_non_finite_inflow_or_a_too_deep_expression_exits_two(tmp_path, capsys):
    # an inflow that is NaN at some incoming node, and sums and unary minuses
    # deeper than Python's parser recurses; neither may warn or end in a traceback
    for key, text in (("f_left", "(v-0.4)^0.5"), ("sigma", "+".join(["x"] * 3000)),
                      ("sigma", "-" * 3000 + "x")):
        cfg = tmp_path / "c.txt"
        cfg.write_text(f"id = ex5\ncells = 25\n{key} = {text}\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["run", str(cfg), "--out", str(tmp_path / "w")]) == 2, key
        assert f"{key}: " in capsys.readouterr().err, key


def test_run_with_a_step_too_small_to_finish_exits_two(tmp_path, capsys):
    cfg = tmp_path / "tiny.txt"
    cfg.write_text("id = ex5\ntimes = 0.1\ncells = 25\ndt_override = 5e-324\n")
    assert main(["run", str(cfg), "--out", str(tmp_path / "w")]) == 2
    assert "needs more than" in capsys.readouterr().err


def test_run_with_a_bad_kernel_exits_two(tmp_path, capsys):
    # a negative isotropic constant, and a 4 x 4 table for 16 nodes: both
    # are input data, so configuration errors, not solver failures
    table = tmp_path / "k4.csv"
    np.savetxt(table, np.ones((4, 4)), delimiter=",")
    for line, message in (("kernel = isotropic:-1", "must be positive"),
                          (f"kernel_file = {table}", "does not match quadrature size 16")):
        cfg = tmp_path / "k.txt"
        cfg.write_text(f"id = ex5\ncells = 25\n{line}\n")
        assert main(["run", str(cfg), "--out", str(tmp_path / "w")]) == 2, line
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err, line


def test_a_bad_kernel_is_named_by_its_config_line_before_any_material_is_sampled(tmp_path, capsys,
                                                                                  monkeypatch):
    # like every other bad value, the message names the file, the line and
    # the key, and the check runs with the config's, before the run starts
    from ugks1d import experiments

    def no_sampling(*args, **kwargs):
        raise AssertionError("a material was sampled")
    monkeypatch.setattr(experiments, "sample_material", no_sampling)
    table = tmp_path / "k4.csv"
    np.savetxt(table, np.ones((4, 4)), delimiter=",")
    for key, lines in (("kernel", "kernel = isotropic:-1"), ("kernel_file", f"kernel_file = {table}"),
                       ("kernel_constant", "collision = penalized\nkernel_constant = 0")):
        cfg = tmp_path / "k.txt"
        cfg.write_text(f"id = ex5\ncells = 25\n{lines}\n")
        assert main(["run", str(cfg), "--out", str(tmp_path / "w")]) == 2, key
        line = 2 + lines.count("\n") + 1
        assert capsys.readouterr().err.startswith(f"error: {cfg}:{line}: {key}: "), key


def test_an_unknown_choice_is_named_by_its_file_and_key_whatever_the_scheme(tmp_path, capsys):
    # the diffusion scheme reads none of these, so only the spec's own check sees them
    for key in ("reconstruction", "bc", "quad_kind", "scheme"):
        cfg = tmp_path / "c.txt"
        cfg.write_text(f"id = ex5\ncells = 25\nscheme = diffusion\n{key} = foo\n")
        assert main(["run", str(cfg), "--out", str(tmp_path / "w")]) == 2, key
        name = "bc_mode" if key == "bc" else key
        assert capsys.readouterr().err == f"error: {cfg}: {name}: unknown value 'foo'\n", key
    assert not list(tmp_path.glob("w*"))


def test_a_bad_quadrature_order_is_named_by_its_file_and_key(tmp_path, capsys):
    for order, kind in ((3, "gauss_legendre"), (0, "gauss_legendre"), (514, "double_gauss")):
        cfg = tmp_path / "q.txt"
        cfg.write_text(f"id = ex5\ncells = 25\nquad = {order}\nquad_kind = {kind}\n")
        assert main(["run", str(cfg), "--out", str(tmp_path / "w")]) == 2, order
        assert capsys.readouterr().err.startswith(f"error: {cfg}: quadrature: "), order
    assert main(["example", "ex5", "--quad", "3", "--out", str(tmp_path / "w")]) == 2
    assert capsys.readouterr().err.startswith("error: quadrature: ")
    assert not list(tmp_path.glob("w*"))


def test_explicit_diffusion_example_past_its_bound_exits_two(tmp_path, capsys):
    # past the parabolic bound the explicit scheme diverges: the run must
    # stop before it writes a profile
    code = main(["example", "ex5", "--scheme", "diffusion", "--cfl", "1.5", "--cells", "25",
                 "--out", str(tmp_path / "d")])
    assert code == 2
    assert "parabolic bound" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_compare_subcommand_threshold(tmp_path):
    x = (np.arange(10) + 0.5) / 10
    write_csv(tmp_path / "a.csv", x, np.zeros(10))
    write_csv(tmp_path / "b.csv", x, np.full(10, 0.5))
    ok = main(["compare", str(tmp_path / "a.csv"), str(tmp_path / "b.csv"),
               "--norm", "linf"])
    assert ok == 0
    over = main(["compare", str(tmp_path / "a.csv"), str(tmp_path / "b.csv"),
                 "--norm", "linf", "--max", "0.2"])
    assert over == 4
    under = main(["compare", str(tmp_path / "a.csv"), str(tmp_path / "b.csv"),
                  "--norm", "linf", "--max", "0.6"])
    assert under == 0


def test_compare_subcommand_mixed_meshes(tmp_path, capsys):
    xa = (np.arange(8) + 0.5) / 8
    xb = (np.arange(24) + 0.5) / 24
    write_csv(tmp_path / "a.csv", xa, 1.0 - xa)
    write_csv(tmp_path / "b.csv", xb, 1.0 - xb)
    code = main(["compare", str(tmp_path / "a.csv"), str(tmp_path / "b.csv")])
    assert code == 0
    out = capsys.readouterr().out
    assert "distance" in out


def test_converge_subcommand(tmp_path, capsys):
    cfg = tmp_path / "conv.txt"
    cfg.write_text("id = ex7\ntimes = 0.2\n")
    code = main(["converge", str(cfg), "--cells", "10,20,40"])
    assert code == 0
    out = capsys.readouterr().out
    assert "observed order" in out


def test_converge_with_a_cell_count_that_is_not_an_integer_exits_two(tmp_path, capsys):
    cfg = tmp_path / "conv.txt"
    cfg.write_text("id = ex7\ntimes = 0.2\n")
    assert main(["converge", str(cfg), "--cells", "25,50,abc"]) == 2
    assert "--cells: " in capsys.readouterr().err


def test_compare_rejects_a_single_row_profile(tmp_path, capsys):
    # One row gives no cell width, so no distance is defined in either order.
    write_csv(tmp_path / "one.csv", np.array([0.5]), np.array([1.0]))
    write_csv(tmp_path / "two.csv", np.array([0.25, 0.75]), np.array([1.0, 0.0]))
    for pair in (("one.csv", "two.csv"), ("two.csv", "one.csv")):
        code = main(["compare", *(str(tmp_path / name) for name in pair), "--norm", "l1"])
        assert code == 2
    assert "distance" not in capsys.readouterr().out
