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


def test_run_with_a_step_too_small_to_finish_exits_two(tmp_path, capsys):
    cfg = tmp_path / "tiny.txt"
    cfg.write_text("id = ex5\ntimes = 0.1\ncells = 25\ndt_override = 5e-324\n")
    assert main(["run", str(cfg), "--out", str(tmp_path / "w")]) == 2
    assert "needs more than" in capsys.readouterr().err


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


def test_compare_rejects_a_single_row_profile(tmp_path, capsys):
    # One row gives no cell width, so no distance is defined in either order.
    write_csv(tmp_path / "one.csv", np.array([0.5]), np.array([1.0]))
    write_csv(tmp_path / "two.csv", np.array([0.25, 0.75]), np.array([1.0, 0.0]))
    for pair in (("one.csv", "two.csv"), ("two.csv", "one.csv")):
        code = main(["compare", *(str(tmp_path / name) for name in pair), "--norm", "l1"])
        assert code == 2
    assert "distance" not in capsys.readouterr().out
