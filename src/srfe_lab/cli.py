"""Command-line front end.

Subcommands map one-to-one onto the experiment drivers plus the
verification battery and a density-grid dump for contour plotting.
Settings resolve in three layers: built-in defaults, then a JSON config
file, then explicit flags.
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import sys

import numpy as np

from .checks import run_all
from .discrete import _require_count
from .experiments import (
    RunConfig,
    _write_file,
    benchmark_target,
    density_grid,
    run_exp1,
    run_exp2,
    run_exp3,
    run_exp4,
    write_csv,
)
from .gaussians import ContaminatedMixture, DiagonalGaussian

_EXPERIMENTS = {"exp1": run_exp1, "exp2": run_exp2, "exp3": run_exp3,
                "exp4": run_exp4}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="srfe-lab",
        description="Train and evaluate the interpolated-divergence "
                    "benchmark suite, or verify its numerical claims.")
    sub = parser.add_subparsers(dest="command", required=True)

    for name, blurb in (
        ("exp1", "objective comparison on the three-mode target"),
        ("exp2", "interpolation-weight sweep with repeated trials"),
        ("exp3", "weight-schedule comparison"),
        ("exp4", "contamination robustness sweep"),
    ):
        sp = sub.add_parser(name, help=blurb)
        sp.add_argument("--seed", type=int, help="base seed (default 0)")
        sp.add_argument("--out", help="output directory (default 'results')")
        sp.add_argument("--config", help="JSON file with setting overrides")
        sp.add_argument("--dump-loss", action="store_true", default=None,
                        help="also write per-cell loss histories")

    vp = sub.add_parser("verify", help="run the numerical verification suite")
    vp.add_argument("--json", dest="json_path",
                    help="write the report array to this file")
    vp.add_argument("--seed", type=int, default=0)
    vp.add_argument("--inject-failure", action="store_true",
                    help="negative control: add a check that must fail")

    dp = sub.add_parser("density-grid",
                        help="dump exact log densities on a grid")
    dp.add_argument("--target", choices=("mixture", "model"), required=True)
    dp.add_argument("--bounds", required=True,
                    help="x_low,x_high,y_low,y_high")
    dp.add_argument("--res", type=int, required=True,
                    help="grid points per axis (>= 2)")
    dp.add_argument("--outlier-weight", type=float, default=0.0,
                    help="contaminate the mixture with this box mass")
    dp.add_argument("--mu", default="0,0",
                    help="model mean, comma separated (target=model)")
    dp.add_argument("--log-sigma", default="0,0",
                    help="model log scales, comma separated (target=model)")
    dp.add_argument("--out", default="-",
                    help="CSV path, '-' for stdout (default)")
    return parser


def _parse_floats(text: str, expect: int, what: str) -> tuple[float, ...]:
    parts = text.split(",")
    if len(parts) != expect:
        raise SystemExit(f"srfe-lab: {what} needs {expect} comma-separated "
                         f"values, got {text!r}")
    try:
        return tuple(float(p) for p in parts)
    except ValueError:
        raise SystemExit(f"srfe-lab: could not parse {what}: {text!r}")


def _merge_config(args: argparse.Namespace) -> RunConfig:
    """The run settings; ValueError names a bad file or value."""
    merged: dict = {}
    if args.config:
        with open(args.config, encoding="utf-8") as fh:
            loaded = json.load(fh)
        if not isinstance(loaded, dict):
            raise ValueError(f"config file {args.config} must hold a JSON "
                             f"object, got {type(loaded).__name__}")
        unknown = set(loaded) - {f.name for f in dataclasses.fields(RunConfig)}
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        merged.update(loaded)
    for key, flag in (("seed", args.seed), ("out_dir", args.out),
                      ("dump_loss", args.dump_loss)):
        if flag is not None:
            merged[key] = flag
    return RunConfig(**merged)


def _cmd_experiment(args: argparse.Namespace, cfg: RunConfig) -> int:
    try:  # OSError: an unwritable output; MemoryError: an impossible size
        result = _EXPERIMENTS[args.command](cfg)
    except (OSError, MemoryError) as exc:
        raise SystemExit(f"srfe-lab: {exc}")
    for label, reason in result.failures.items():
        print(f"warning: cell {label} {reason}", file=sys.stderr)
    print(f"{args.command}: wrote {len(result.rows)} rows to {cfg.out_dir}/")
    return 1 if result.failures else 0


def _cmd_verify(args: argparse.Namespace) -> int:
    try:  # the rule exp1-exp4 apply; numpy seeds are >= 0
        _require_count("seed", args.seed, 0)
    except ValueError as exc:
        raise SystemExit(f"srfe-lab: {exc}")
    reports = run_all(seed=args.seed, inject_failure=args.inject_failure)
    width = max(len(r.name) for r in reports)
    for r in reports:
        flag = "PASS" if r.passed else "FAIL"
        print(f"{flag}  {r.name:<{width}}  {r.details}")
    if args.json_path:
        try:
            with open(args.json_path, "w", encoding="utf-8") as fh:
                json.dump([r.to_dict() for r in reports], fh, indent=2)
        except OSError as exc:
            raise SystemExit(f"srfe-lab: {exc}")
        print(f"report written to {args.json_path}")
    n_bad = sum(not r.passed for r in reports)
    print(f"{len(reports) - n_bad}/{len(reports)} checks passed")
    return 0 if n_bad == 0 else 1


def _cmd_density_grid(args: argparse.Namespace) -> int:
    bounds = _parse_floats(args.bounds, 4, "--bounds")
    header = ("x", "y", "log_density")
    try:
        if args.target == "mixture":
            dist = benchmark_target()
            if args.outlier_weight != 0:  # the mixture rejects NaN and < 0
                dist = ContaminatedMixture(base=dist,
                                           outlier_weight=args.outlier_weight)
        else:
            dist = DiagonalGaussian(
                np.array(_parse_floats(args.mu, 2, "--mu")),
                np.array(_parse_floats(args.log_sigma, 2, "--log-sigma")))
            # a zero scale gives 0/0 at x = mu.  Checked here, not in
            # DiagonalGaussian: a fit whose last Adam step takes log_sigma
            # below about -745 would then raise ValueError from
            # training._Stack.step and end the whole sweep, where its cell
            # alone fails, in evaluate, with non-finite ess
            if np.any(dist.sigma == 0):
                raise ValueError(f"--log-sigma {args.log_sigma} gives a zero "
                                 "scale: exp(log_sigma) underflows to 0")
        grid = density_grid(dist, bounds, args.res)
        if args.out == "-":
            write_csv(sys.stdout, header, grid)
        else:
            _write_file(args.out, header, grid)
    except (OSError, ValueError, MemoryError) as exc:
        raise SystemExit(f"srfe-lab: {exc}")
    return 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "density-grid":
        return _cmd_density_grid(args)
    if args.command == "verify":
        return _cmd_verify(args)
    try:
        cfg = _merge_config(args)
    except (OSError, ValueError) as exc:
        raise SystemExit(f"srfe-lab: {exc}")
    return _cmd_experiment(args, cfg)


if __name__ == "__main__":
    sys.exit(main())
