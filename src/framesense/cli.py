"""Command line front end.

Subcommands: ``place`` selects sensors for one matrix and prints the result;
``sweep-mse``, ``sweep-time`` and ``audit`` run config-driven experiments
and write CSV outputs; ``matgen`` materializes a test matrix to disk.
Constraint violations (bad dimensions, unknown names, malformed files) exit
with status 2; anything else nonzero is a bug.
"""

from __future__ import annotations

import argparse
import sys

from .harness import ExperimentConfig, oracle_audit, sweep_mse, sweep_timing
from .linalg import as_sensing_matrix, frame_potential, mse
from .matgen import FAMILIES, GeneratorSpec, generate
from .matio import load_matrix, save_matrix
from .placement import ALGORITHMS, PlacementOptions, run_placement

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
        if name.startswith("sweep-"):
            cmd.add_argument(
                "--threads", type=int, metavar="W",
                help="worker threads, overrides the config value",
            )

    return parser


def _load_config(args) -> ExperimentConfig:
    cfg = ExperimentConfig.from_json(args.config)
    threads = getattr(args, "threads", None)
    if threads is not None:
        if threads < 1:
            raise ValueError(f"threads must be at least 1, got {threads}")
        cfg.threads = threads
    return cfg


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
    print("fp: %.17g" % frame_potential(matrix, chosen))
    print("mse: %.17g" % mse(matrix, chosen, args.sigma2))
    return 0


def _cmd_sweep_mse(args) -> int:
    table = sweep_mse(_load_config(args))
    for path in table.write(args.out):
        print("wrote", path)
    return 0


def _cmd_sweep_time(args) -> int:
    table = sweep_timing(_load_config(args))
    for path in table.write(args.out):
        print("wrote", path)
    return 0


def _cmd_audit(args) -> int:
    table = oracle_audit(ExperimentConfig.from_json(args.config))
    for path in table.write(args.out):
        print("wrote", path)
    info = table.summary()
    print(
        "audited %d/%d instances, fp pass %d, mse pass %d"
        % (info["audited"], info["instances"], info["fp_pass"], info["mse_pass"])
    )
    return 0


def _cmd_matgen(args) -> int:
    cfg = ExperimentConfig.from_json(args.config)
    if cfg.matrix_csv is not None:
        raise ValueError("matrix_csv applies to sweep-mse only; matgen generates its matrix")
    if len(cfg.family) != 1:
        raise ValueError("matgen needs exactly one family in the config")
    spec = GeneratorSpec(
        family=cfg.family[0],
        n=cfg.n,
        k=cfg.k,
        seed=cfg.master_seed,
        scale=cfg.scale,
        entry_scale=cfg.entry_scale,
    )
    path = str(args.out) + ".csv"
    save_matrix(path, generate(spec))
    print("wrote", path)
    return 0


_COMMANDS = {
    "place": _cmd_place,
    "sweep-mse": _cmd_sweep_mse,
    "sweep-time": _cmd_sweep_time,
    "audit": _cmd_audit,
    "matgen": _cmd_matgen,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (ValueError, IndexError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
