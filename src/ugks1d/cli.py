"""Command-line front end.

Subcommands::

    ugks1d run <config> [--out PREFIX] [--cells N] [--store-f]
    ugks1d example <id> [--cells N] [--scheme S] [--bc MODE] [--quad N]
                        [--cfl X] [--implicit-diffusion] [--second-order]
                        [--out PREFIX]
    ugks1d compare <a.csv> <b.csv> [--norm linf] [--max X]
    ugks1d converge <config> --cells 25,50,100,200 [--norm linf]

Exit codes: 0 success, 2 configuration error, 3 solver failure, 4 comparison
threshold exceeded.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys

from .analysis import NORMS, compare_profiles, convergence_study
from .config import load_config
from .errors import (ConfigError, InvalidArgumentError, InvalidDataError, InvalidKernelError, SolverFailureError,
                     UGKSError)
from .experiments import SCHEMES, builtin_ids, builtin_spec, read_csv, result_filename, run, write_csv
from .ugks import BC_MODES

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_SOLVER = 3
EXIT_THRESHOLD = 4


def _run_and_write(spec, args) -> int:
    """Run ``spec``, write one CSV per output time and print the summary line."""
    result = run(spec, cells=args.cells, store_f=args.store_f)
    prefix = args.out or spec.id
    for i, t in enumerate(result.times):
        path = result_filename(prefix, t)
        write_csv(path, result.x, result.rho[i], result.f[i] if result.f is not None else None)
        print(path)
    print(f"# scheme={result.scheme} cells={result.n_cells} dt={result.dt:.6g} "
          f"steps={result.n_steps} wall={result.wall_time:.3f}s")
    return EXIT_OK


def _cmd_run(args) -> int:
    return _run_and_write(load_config(args.config), args)


def _cmd_example(args) -> int:
    overrides = {}
    if args.scheme:
        overrides["scheme"] = args.scheme
    if args.bc:
        overrides["bc_mode"] = args.bc
    if args.quad:
        overrides["quadrature"] = args.quad
    if args.cfl is not None:
        overrides["cfl"] = args.cfl
    if args.second_order:
        overrides["reconstruction"] = "mc_limited"
    spec = builtin_spec(args.id, **overrides)
    if args.implicit_diffusion:
        if spec.scheme == "diffusion":
            spec = dataclasses.replace(spec, diffusion_solver="implicit")
        else:
            spec = dataclasses.replace(spec, scheme="ugks_id")
    return _run_and_write(spec, args)


def _cmd_compare(args) -> int:
    dist, rel = compare_profiles(read_csv(args.a), read_csv(args.b), args.norm)
    print(f"{args.norm} distance: {dist:.12g} (relative {rel:.12g})")
    if args.max is not None and dist > args.max:
        print(f"threshold exceeded: {dist:.12g} > {args.max:.12g}", file=sys.stderr)
        return EXIT_THRESHOLD
    return EXIT_OK


def _cmd_converge(args) -> int:
    spec = load_config(args.config)
    try:
        counts = [int(c) for c in args.cells.split(",")]
    except ValueError:
        raise ConfigError(f"--cells: not a comma list of integers: {args.cells!r}") from None
    result = convergence_study(spec, counts, norm=args.norm)
    for c, dx, err in zip(result.cell_counts, result.dx, result.errors):
        print(f"cells={c:6d} dx={dx:.6g} error={err:.6g}")
    if result.degenerate:
        print("observed order: degenerate (errors at rounding level)")
    else:
        print(f"observed order: {result.observed_order:.3f}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="ugks1d",
                                     description="1D kinetic transport solver (UGKS) and references")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run an experiment described by a config file")
    p_run.add_argument("config")
    p_run.add_argument("--out", help="output file prefix (default: run id)")
    p_run.add_argument("--cells", type=int, help="override the cell count")
    p_run.add_argument("--store-f", action="store_true", help="write the full distribution table")
    p_run.set_defaults(fn=_cmd_run)

    p_ex = sub.add_parser("example", help="run a built-in example")
    p_ex.add_argument("id", choices=builtin_ids())
    p_ex.add_argument("--cells", type=int)
    p_ex.add_argument("--scheme", choices=SCHEMES)
    p_ex.add_argument("--bc", choices=BC_MODES)
    p_ex.add_argument("--quad", type=int)
    p_ex.add_argument("--cfl", type=float)
    p_ex.add_argument("--implicit-diffusion", action="store_true")
    p_ex.add_argument("--second-order", action="store_true")
    p_ex.add_argument("--store-f", action="store_true")
    p_ex.add_argument("--out")
    p_ex.set_defaults(fn=_cmd_example)

    p_cmp = sub.add_parser("compare", help="compare two profile CSV files")
    p_cmp.add_argument("a")
    p_cmp.add_argument("b")
    p_cmp.add_argument("--norm", default="linf", choices=NORMS)
    p_cmp.add_argument("--max", type=float, help="fail (exit 4) if the distance exceeds this")
    p_cmp.set_defaults(fn=_cmd_compare)

    p_cv = sub.add_parser("converge", help="mesh-convergence study for a config")
    p_cv.add_argument("config")
    p_cv.add_argument("--cells", required=True, help="comma list in geometric progression")
    p_cv.add_argument("--norm", default="linf", choices=NORMS)
    p_cv.set_defaults(fn=_cmd_converge)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ConfigError, InvalidArgumentError, InvalidDataError, InvalidKernelError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (SolverFailureError, UGKSError) as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return EXIT_SOLVER


if __name__ == "__main__":
    sys.exit(main())
