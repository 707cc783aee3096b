"""Command-line interface.

Subcommands:

* ``theory``: closed-form threshold and overlap predictions.
* ``run``: execute a preset or a JSON config file, optionally writing
  CSV/JSON results and checking preset-specific thresholds.
* ``ingest-check``: validate matrix files without running anything.
* ``null-scale``: the 1/D no-recovery alignment reference.

Exit codes: 0 success, 1 configuration error, 2 runtime failure,
3 threshold failure in ``--check`` mode.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import __version__, blas
from .harness import NULL_FLOOR_MULTIPLE, run_sweep
from .matio import MatrixFormatError, emit_results, ingest_matrix
from .presets import ConfigError, ResolvedConfig, evaluate_check, parse_config, preset_config
from .theory import predict

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_RUNTIME = 2
EXIT_CHECK = 3


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="maskedpls",
        description="Recovery thresholds and Monte Carlo sweeps for "
                    "cross-covariance SVD under entrywise missingness")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    theory = sub.add_parser("theory", help="print closed-form predictions")
    theory.add_argument("--alpha-x", type=float, required=True,
                        help="samples per design feature, N/Dx")
    theory.add_argument("--alpha-y", type=float, required=True,
                        help="samples per response feature, N/Dy")
    theory.add_argument("--rho", type=float, default=1.0,
                        help="joint retention probability (1-m_x)(1-m_y)")
    theory.add_argument("--theta", type=float, default=None,
                        help="signal strength; adds overlap predictions")

    run = sub.add_parser("run", help="run a preset or config file")
    run.add_argument("--preset", help="preset name")
    run.add_argument("--scale", help="paper or desk, --preset only (default desk)")
    run.add_argument("--config", help="path to a JSON config document")
    run.add_argument("--out", help="output path; multi-variant runs get a "
                                   "-variant suffix before the extension")
    run.add_argument("--format", default="csv", choices=("csv", "json"),
                     help="output format (default csv)")
    run.add_argument("--seed", type=int, default=None, help="base seed override")
    run.add_argument("--threads", type=int, default=None,
                     help="worker threads for trials (default: OpenBLAS's "
                          "thread count); 1 runs two workers as 2 does, "
                          "and every count gives the same results")
    run.add_argument("--override", action="append", default=[],
                     metavar="KEY=VALUE", help="preset override, repeatable")
    run.add_argument("--check", action="store_true",
                     help="evaluate preset thresholds; exit 3 on failure")

    ingest = sub.add_parser("ingest-check", help="validate matrix files")
    ingest.add_argument("paths", nargs="+", help="matrix files to validate")

    null = sub.add_parser("null-scale", help="print the 1/D alignment reference")
    null.add_argument("--dx", type=int, required=True, help="design features")
    null.add_argument("--dy", type=int, default=None, help="response features")
    return parser


def _cmd_theory(args) -> int:
    pred = predict(args.alpha_x, args.alpha_y, args.rho,
                   args.theta if args.theta is not None else 0.0)
    print(f"alpha_x = {args.alpha_x:.12g}")
    print(f"alpha_y = {args.alpha_y:.12g}")
    print(f"rho = {args.rho:.12g}")
    print(f"theta_crit = {pred.theta_crit:.12g}")
    if args.theta is not None:
        print(f"theta = {args.theta:.12g}")
        print(f"theta_eff = {pred.theta_eff:.12g}")
        print(f"supercritical = {'true' if pred.supercritical else 'false'}")
        print(f"r2_x = {pred.r2_x:.12g}")
        print(f"r2_y = {pred.r2_y:.12g}")
    return EXIT_OK


def _parse_override_args(pairs: list[str]) -> dict:
    overrides: dict = {}
    for raw in pairs:
        key, sep, value = raw.partition("=")
        key = key.strip()
        if not sep or not key:
            raise ConfigError(f"override must look like key=value, got {raw!r}")
        if key in overrides:
            raise ConfigError(f"duplicate override {key!r}")
        try:
            overrides[key] = json.loads(value)
        except json.JSONDecodeError:
            overrides[key] = value
    return overrides


def _resolve_run_config(args) -> ResolvedConfig:
    if (args.preset is None) == (args.config is None):
        raise ConfigError("run needs exactly one of --preset or --config")
    if args.config is not None and args.scale is not None:
        raise ConfigError("--scale applies to --preset only; a --config "
                          "document sets its own scale")
    overrides = _parse_override_args(args.override)
    if args.config is not None:
        try:
            with open(args.config, encoding="utf-8") as fh:
                text = fh.read()
        except (OSError, UnicodeDecodeError) as err:
            raise ConfigError(f"cannot read --config {args.config!r}: {err}") from err
        return parse_config(text, overrides=overrides, seed=args.seed)
    if args.seed is not None:
        overrides["seed"] = args.seed
    return preset_config(args.preset, args.scale or "desk", overrides)


def _numeric_environment() -> dict:
    """The numpy build and BLAS library that result digests depend on.

    These fields go into the result metadata only, never into the
    digest, next to the BLAS thread count each sweep ran at.
    """
    return {"numpy": np.__version__, "blas_config": blas.config()}


def _variant_path(out: str, name: str, multi: bool) -> str:
    if not multi:
        return out
    root, ext = os.path.splitext(out)
    return f"{root}-{name}{ext}"


def _cmd_run(args) -> int:
    if args.threads is not None and args.threads < 1:
        raise ConfigError(f"--threads must be at least 1, got {args.threads}")
    resolved = _resolve_run_config(args)
    multi = len(resolved.items) > 1
    if args.out:
        out_dir = os.path.dirname(args.out) or "."
        if not os.path.isdir(out_dir):
            raise ConfigError(f"--out directory {out_dir!r} does not exist")
        # every file the run will write, checked before any sweep runs
        for item in resolved.items:
            path = _variant_path(args.out, item.name, multi)
            if os.path.isdir(path):
                raise ConfigError(f"--out path {path!r} is a directory")
    print(json.dumps(resolved.echo, indent=2, sort_keys=True))
    print()
    preset_name = resolved.echo.get("preset")
    environment = _numeric_environment()
    results = {}
    for item in resolved.items:
        result = run_sweep(item.spec, threads=args.threads,
                           pair_factory=item.pair_factory)
        results[item.name] = result
        print(f"variant={item.name} points={len(result.points)} "
              f"correlation={result.correlation:.6g} "
              f"runtime={result.total_runtime:.2f}s digest={result.digest}")
        if args.out:
            path = _variant_path(args.out, item.name, multi)
            metadata = {
                "preset": preset_name,
                "scale": resolved.echo.get("scale"),
                "variant": item.name,
                "seed": item.spec.base.seed,
                "version": __version__,
                **environment,
                "blas_threads": result.blas_threads,
            }
            emit_results(result, path, fmt=args.format, metadata=metadata)
            print(f"wrote {path}")
    if args.check:
        clauses = evaluate_check(preset_name, results)
        failed = False
        for name, ok, detail in clauses:
            marker = "PASS" if ok else "FAIL"
            failed = failed or not ok
            print(f"[{marker}] {name}: {detail}")
        if failed:
            return EXIT_CHECK
    return EXIT_OK


def _cmd_ingest_check(args) -> int:
    status = EXIT_OK
    for path in args.paths:
        try:
            matrix = ingest_matrix(path)
        except (MatrixFormatError, OSError, ValueError) as err:
            print(f"{path}: FAIL {err}")
            status = EXIT_RUNTIME
        else:
            rows, cols = matrix.shape
            print(f"{path}: OK {rows}x{cols}")
    return status


def _cmd_null_scale(args) -> int:
    if args.dx < 1 or (args.dy is not None and args.dy < 1):
        raise ConfigError("dimensions must be positive")
    print(f"null_scale_x = {1.0 / args.dx:.12g}")
    if args.dy is not None:
        print(f"null_scale_y = {1.0 / args.dy:.12g}")
    print(f"boundary_threshold = {NULL_FLOOR_MULTIPLE / args.dx:.12g}")
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "theory": _cmd_theory,
        "run": _cmd_run,
        "ingest-check": _cmd_ingest_check,
        "null-scale": _cmd_null_scale,
    }
    try:
        return handlers[args.command](args)
    except ConfigError as err:
        print(f"configuration error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    except FileNotFoundError as err:
        print(f"configuration error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    except Exception as err:  # noqa: BLE001 - CLI boundary
        print(f"error: {type(err).__name__}: {err}", file=sys.stderr)
        return EXIT_RUNTIME


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
