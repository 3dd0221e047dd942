"""Command line front end.

Subcommands: ``place`` selects sensors for one matrix and prints the result;
``sweep-mse``, ``sweep-time`` and ``audit`` run config-driven experiments
and write CSV outputs; ``matgen`` materializes a test matrix to disk.
Constraint violations (bad dimensions, unknown names, malformed files) and
the documented numeric failures (a ridge or a conditional variance that
overflows, an eigenvalue solver that does not converge) exit with status 2;
anything else nonzero is a bug.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace

# The harness, and the bounds and thread pool it pulls in, is imported only
# by the commands that run it, so a ``place`` process never loads them.
from .linalg import ConvergenceError, as_sensing_matrix, frame_potential, mse
from .matgen import FAMILIES, GeneratorSpec, generate
from .matio import FLOAT_FMT, load_matrix, save_matrix
from .placement import ALGORITHMS, CovarianceConditioningError, PlacementOptions, run_placement

__all__ = ["main"]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="framesense",
        description="Greedy sensor selection by frame potential minimization.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    place = sub.add_parser("place", help="select sensor rows for one matrix")
    source = place.add_mutually_exclusive_group(required=True)
    source.add_argument("--matrix", metavar="FILE", help="CSV matrix file, one row per line")
    source.add_argument("--gen", metavar="FAMILY", choices=FAMILIES, help="generate the matrix")
    place.add_argument("--n", type=int, help="rows for --gen")
    place.add_argument("--k", type=int, help="columns for --gen")
    place.add_argument("--scale", type=float, help="duplicate-block factor for stacked_scaled")
    place.add_argument("--sensors", type=int, required=True, metavar="L", help="rows to keep")
    place.add_argument("--algo", default="framesense", choices=ALGORITHMS)
    place.add_argument("--seed", type=int, default=0, help="generation and sampling seed")
    place.add_argument("--no-normalize", action="store_true", help="skip row normalization")
    place.add_argument("--sigma2", type=float, default=1.0, help="noise variance for MSE")

    for name, text in [
        ("sweep-mse", "MSE versus sensor count over trials"),
        ("sweep-time", "placement wall time versus matrix size"),
        ("audit", "greedy versus exhaustive optima with certificates"),
        ("matgen", "write a generated matrix to disk"),
    ]:
        cmd = sub.add_parser(name, help=text)
        cmd.add_argument("--config", required=True, metavar="FILE", help="JSON config")
        cmd.add_argument("--out", required=True, metavar="PREFIX", help="output path prefix")
        if name == "sweep-mse":
            cmd.add_argument(
                "--threads", type=int, metavar="W",
                help="worker threads, overrides the config value",
            )

    return parser


def _load_config(args):
    from .harness import ExperimentConfig

    cfg = ExperimentConfig.from_json(args.config)
    threads = getattr(args, "threads", None)
    # a new config, so --threads passes the config's own check
    return cfg if threads is None else replace(cfg, threads=threads)


def _cmd_place(args) -> int:
    if args.matrix is not None:
        ignored = [f"--{name}" for name in ("n", "k", "scale") if getattr(args, name) is not None]
        if ignored:
            raise ValueError(f"{' and '.join(ignored)} apply to --gen only, not to --matrix")
        matrix = as_sensing_matrix(load_matrix(args.matrix))
    else:
        if args.n is None or args.k is None:
            raise ValueError("--gen requires --n and --k")
        spec = GeneratorSpec(
            family=args.gen, n=args.n, k=args.k, seed=args.seed, scale=args.scale
        )
        matrix = generate(spec)
    opts = PlacementOptions(
        algorithm=args.algo,
        normalize_rows=not args.no_normalize,
        seed=args.seed,
        sigma2=args.sigma2,
    )
    selection = run_placement(matrix, args.sensors, opts)
    chosen = sorted(selection.chosen)
    print("chosen:", " ".join(str(i + 1) for i in chosen))
    print("fp:", FLOAT_FMT % frame_potential(matrix, chosen))
    print("mse:", FLOAT_FMT % mse(matrix, chosen, args.sigma2))
    return 0


_RUNS = {"sweep-mse": "sweep_mse", "sweep-time": "sweep_timing", "audit": "oracle_audit"}


def _cmd_run(args) -> int:
    from . import harness

    table = getattr(harness, _RUNS[args.command])(_load_config(args))
    for path in table.write(args.out):
        print("wrote", path)
    if args.command == "audit":
        info = table.summary()
        print(
            "audited %d/%d instances, fp pass %d, mse pass %d"
            % (info["audited"], info["instances"], info["fp_pass"], info["mse_pass"])
        )
    return 0


def _cmd_matgen(args) -> int:
    from .harness import ExperimentConfig, _checked_trials, _generator_spec

    cfg = ExperimentConfig.from_json(args.config)
    _checked_trials(cfg, "matgen")
    if len(cfg.family) != 1:
        raise ValueError("matgen needs exactly one family in the config")
    path = str(args.out) + ".csv"
    save_matrix(path, generate(_generator_spec(cfg, cfg.family[0], cfg.n, cfg.master_seed)))
    print("wrote", path)
    return 0


_COMMANDS = {
    "place": _cmd_place,
    "sweep-mse": _cmd_run,
    "sweep-time": _cmd_run,
    "audit": _cmd_run,
    "matgen": _cmd_matgen,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (ValueError, IndexError, OSError, CovarianceConditioningError, ConvergenceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
