"""Command-line interface: test, simulate, power, contrast.

Artifacts (JSON or CSV) go to ``--out`` or stdout and are byte-identical for a
fixed ``--seed`` — worker count and any other execution detail never appear in
them.  Progress/echo lines go to stderr.  Exit codes: 0 on success, 2 for
input or configuration problems, 3 for numerical failures (singular designs,
aborted bootstraps).
"""
from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from dataclasses import asdict

import numpy as np

from ._rng import derive_seed, substream
from .bootstrap import BootstrapConfig, run_test
from .errors import BootstrapAbortError, MemoryLimitError, SingularDesignError
from .kernels import FIXED, MEDIAN, KernelSpec
from .linreg import Dataset, DesignSpec, coordinate, intercept, product, square
from .simulate import (
    LINEAR1D,
    MODEL1,
    MODEL2,
    ModelSpec,
    draw_model,
    null_distribution_contrast,
    power_study,
    study_kernels,
)

SCHEMA_VERSION = 1

_BUILTIN_MODELS = (MODEL1, MODEL2, LINEAR1D)


def load_csv(path: str, response_column: str, predictor_columns: list[str] | None = None) -> Dataset:
    """Read a header-ed, '.'-decimal, UTF-8 CSV into a dataset.

    Errors carry row/column coordinates; fewer than d+2 data rows for d
    predictors is rejected as insufficient.
    """
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = [h.strip() for h in next(reader)]
        except StopIteration:
            raise ValueError(f"{path}: file is empty; expected a header row") from None
        body = [(lineno, row) for lineno, row in enumerate(reader, start=2) if row]

    def column_of(name: str) -> int:
        hits = [i for i, h in enumerate(header) if h == name]
        if not hits:
            raise ValueError(f"{path}: no column named {name!r} (header: {', '.join(header)})")
        if len(hits) > 1:
            raise ValueError(f"{path}: column name {name!r} appears {len(hits)} times")
        return hits[0]

    y_col = column_of(response_column)
    if predictor_columns is None:
        predictor_columns = [h for h in header if h != response_column]
    if not predictor_columns:
        raise ValueError(f"{path}: no predictor columns")
    if response_column in predictor_columns:
        raise ValueError(f"{path}: response column {response_column!r} also listed as a predictor")
    x_cols = [column_of(name) for name in predictor_columns]

    if len(body) < len(predictor_columns) + 2:
        raise ValueError(
            f"{path}: insufficient data — {len(body)} rows for {len(predictor_columns)} "
            f"predictors (need at least {len(predictor_columns) + 2})"
        )

    def cell(lineno: int, row: list[str], col: int) -> float:
        if col >= len(row):
            raise ValueError(f"{path}: line {lineno} has {len(row)} fields, header has {len(header)}")
        text = row[col].strip()
        try:
            value = float(text)
        except ValueError:
            raise ValueError(
                f"{path}: non-numeric value {text!r} in column {header[col]!r}, line {lineno}"
            ) from None
        if not math.isfinite(value):
            raise ValueError(f"{path}: non-finite value {text!r} in column {header[col]!r}, line {lineno}")
        return value

    X = np.array([[cell(ln, row, c) for c in x_cols] for ln, row in body], dtype=float)
    y = np.array([cell(ln, row, y_col) for ln, row in body], dtype=float)
    return Dataset(X, y, tuple(predictor_columns))


def parse_design(text: str, names: tuple[str, ...]) -> DesignSpec:
    """Parse ``"1 + x1 + x1*x2 + x2^2"`` against the predictor column names."""
    index = {name: j for j, name in enumerate(names)}

    def lookup(token: str) -> int:
        if token not in index:
            raise ValueError(f"design references unknown predictor {token!r} (have: {', '.join(names)})")
        return index[token]

    terms = []
    for raw in text.split("+"):
        token = raw.strip()
        if not token:
            raise ValueError(f"empty term in design {text!r}")
        if token == "1":
            terms.append(intercept())
        elif "*" in token:
            left, _, right = token.partition("*")
            terms.append(product(lookup(left.strip()), lookup(right.strip()), label=token))
        elif token.endswith("^2"):
            terms.append(square(lookup(token[:-2].strip()), label=token))
        else:
            terms.append(coordinate(lookup(token), label=token))
    return DesignSpec(tuple(terms))


def _bandwidth(text: str):
    if text == MEDIAN:
        return MEDIAN
    try:
        return float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"bandwidth must be a positive number or {MEDIAN!r}, got {text!r}"
        ) from None


def _kernel_from_flag(bandwidth, default: KernelSpec) -> KernelSpec:
    if bandwidth is None:
        return default
    if bandwidth == MEDIAN:
        return KernelSpec(rule=MEDIAN)
    return KernelSpec(bandwidth=float(bandwidth), rule=FIXED)


def _kernels_from_args(args, dim: int) -> tuple[KernelSpec, KernelSpec]:
    """The (predictor, residual) kernels; an unset flag takes ``study_kernels(dim)``'s kernel."""
    default_x, default_e = study_kernels(dim)
    return _kernel_from_flag(args.bandwidth_x, default_x), _kernel_from_flag(args.bandwidth_e, default_e)


def _int_list(text: str) -> list[int]:
    return [int(tok) for tok in text.split(",") if tok.strip()]


def _float_list(text: str) -> list[float]:
    return [float(tok) for tok in text.split(",") if tok.strip()]


def _jsonable(value):
    """``value`` as plain JSON data; a non-finite float becomes ``None`` (JSON ``null``)."""
    if isinstance(value, (np.floating, np.integer)):
        value = value.item()
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, np.ndarray):
        return [_jsonable(v) for v in value.tolist()]
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    return value


def _emit(args, text: str) -> None:
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit_json(args, payload: dict) -> None:
    _emit(args, json.dumps(_jsonable(payload), indent=2, allow_nan=False) + "\n")


def _emit_csv_rows(args, header: list[str], rows: list[list]) -> None:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([_csv_cell(v) for v in row])
    _emit(args, buf.getvalue())


def _csv_cell(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (np.floating, float)):
        return repr(float(value))
    if isinstance(value, (np.integer, int)):
        return str(int(value))
    return str(value)


def _echo(message: str) -> None:
    print(message, file=sys.stderr)


def _model_spec(args, n: int, a: float, lam: float) -> ModelSpec:
    """The cell ``(n, a, lam)`` of ``args.model``; an unset ``--noise-sd`` takes the model's default."""
    noise_sd = args.noise_sd
    if noise_sd is None:
        noise_sd = math.sqrt(0.1) if args.model == LINEAR1D else 1.0
    return ModelSpec(model=args.model, n=n, a=a, lam=lam, noise_sd=noise_sd)


def _dataset_for_test(args) -> tuple[Dataset, str]:
    """The dataset named by --input or drawn from the built-in model."""
    if args.input and args.model:
        raise ValueError("--input and --model are mutually exclusive; pick one data source")
    if args.input:
        if not args.response:
            raise ValueError("--input requires --response NAME")
        predictors = args.predictors.split(",") if args.predictors else None
        data = load_csv(args.input, args.response, predictors)
        _echo(f"loaded {data.n} rows from {args.input}; predictors: {', '.join(data.names())}; "
              f"response: {args.response}")
        return data, args.input
    if not args.model:
        raise ValueError("provide either --input FILE --response NAME or --model NAME --n SIZE")
    if args.n is None:
        raise ValueError("--model requires --n SIZE")
    spec = _model_spec(args, args.n, args.a, args.lam)
    sim = draw_model(spec, substream(args.seed, 0))
    _echo(f"simulated {spec.model} with n={spec.n}, a={spec.a}, lambda={spec.lam}")
    return sim.data, spec.model


def cmd_test(args) -> int:
    data, source = _dataset_for_test(args)
    design = parse_design(args.design, data.names()) if args.design else DesignSpec.main_effects(data.d0)
    config = BootstrapConfig(replicates=args.B, seed=derive_seed(args.seed, 1), workers=args.workers)
    result = run_test(
        data,
        design,
        *_kernels_from_args(args, data.d0),
        config,
        alpha=args.alpha,
        standardize=not args.no_standardize,
    )
    payload = {
        "schema_version": SCHEMA_VERSION,
        "command": "test",
        "source": source,
        "statistic": result.statistic,
        "p_value": result.p_value,
        "alpha": result.alpha,
        "reject": result.reject,
        "n": result.n,
        "replicates": result.replicates,
        "seed": args.seed,
        "kernel_x": "gaussian",
        "bandwidth_x": result.kernel_x.bandwidth,
        "kernel_e": "gaussian",
        "bandwidth_e": result.kernel_e.bandwidth,
        "standardized": result.standardized,
        "design": list(result.design_labels),
        "beta_hat": result.beta_hat,
    }
    if args.format == "json":
        _emit_json(args, payload)
    else:
        scalar_keys = [k for k in payload if k not in ("design", "beta_hat")]
        header = scalar_keys + ["design", "beta_hat"]
        row = [payload[k] for k in scalar_keys]
        row.append(" + ".join(payload["design"]))
        row.append(";".join(repr(float(b)) for b in result.beta_hat))
        _emit_csv_rows(args, header, [row])
    return 0


def cmd_simulate(args) -> int:
    spec = _model_spec(args, args.n, args.a, args.lam)
    sim = draw_model(spec, substream(args.seed, 0))
    names = list(sim.data.names())
    columns = names + ["y", "error"]
    matrix = np.column_stack([sim.data.predictors, sim.data.response, sim.errors])
    if args.format == "json":
        payload = {
            "schema_version": SCHEMA_VERSION,
            "command": "simulate",
            "model": spec.model,
            "n": spec.n,
            "a": spec.a,
            "lambda": spec.lam,
            "noise_sd": spec.noise_sd,
            "seed": args.seed,
            "columns": columns,
            "rows": matrix,
        }
        _emit_json(args, payload)
    else:
        _emit_csv_rows(args, columns, [list(row) for row in matrix])
    return 0


def cmd_power(args) -> int:
    grid = [_model_spec(args, n, a, lam) for n in args.n for a in args.a for lam in args.lam]
    config = BootstrapConfig(replicates=args.B, seed=args.seed, workers=args.workers)
    table = power_study(grid, args.alpha, config, args.reps)
    cells = [{("lambda" if k == "lam" else k): v for k, v in asdict(c).items()} for c in table.cells]
    if args.format == "json":
        payload = {
            "schema_version": SCHEMA_VERSION,
            "command": "power",
            "alpha": table.alpha,
            "replicates": table.replicates,
            "reps": args.reps,
            "seed": args.seed,
            "cells": cells,
        }
        _emit_json(args, payload)
    else:
        header = list(cells[0])
        _emit_csv_rows(args, header, [list(c.values()) for c in cells])
    return 0


def cmd_contrast(args) -> int:
    spec = _model_spec(args, args.n, args.a, args.lam)
    kernel_x, kernel_e = _kernels_from_args(args, spec.dim)
    result = null_distribution_contrast(
        spec, kernel_x, kernel_e, args.reps,
        seed=args.seed, workers=args.workers, standardize=not args.no_standardize,
    )
    both = np.concatenate([result.residual_stats, result.error_stats])
    edges = np.histogram_bin_edges(both, bins=30)
    resid_counts, _ = np.histogram(result.residual_stats, bins=edges)
    error_counts, _ = np.histogram(result.error_stats, bins=edges)
    if args.format == "json":
        payload = {
            "schema_version": SCHEMA_VERSION,
            "command": "contrast",
            "model": spec.model,
            "n": result.n,
            "reps": result.reps,
            "seed": args.seed,
            "bandwidth_x": kernel_x.bandwidth,
            "bandwidth_e": kernel_e.bandwidth,
            "ks_distance": result.ks_distance,
            "ks_pvalue": result.ks_pvalue,
            "undersampled": result.undersampled,
            "histogram": {
                "edges": edges,
                "residual_counts": resid_counts,
                "error_counts": error_counts,
            },
            "residual_stats": result.residual_stats,
            "error_stats": result.error_stats,
        }
        _emit_json(args, payload)
    else:
        rows = [["ks_distance", "", 0, result.ks_distance], ["ks_pvalue", "", 0, result.ks_pvalue]]
        rows += [["stat", "residual", i, v] for i, v in enumerate(result.residual_stats)]
        rows += [["stat", "error", i, v] for i, v in enumerate(result.error_stats)]
        rows += [["hist_edge", "", i, v] for i, v in enumerate(edges)]
        rows += [["hist_count", "residual", i, int(v)] for i, v in enumerate(resid_counts)]
        rows += [["hist_count", "error", i, int(v)] for i, v in enumerate(error_counts)]
        _emit_csv_rows(args, ["record", "arm", "index", "value"], rows)
    return 0


def _add_output_flags(p: argparse.ArgumentParser, default_format: str) -> None:
    p.add_argument("--format", choices=("json", "csv"), default=default_format)
    p.add_argument("--out", default=None, help="artifact path (default: stdout)")


def _add_kernel_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--bandwidth-x", type=_bandwidth, default=None,
                   help="positive number or 'median' (default: 2*sqrt(d) for d predictors)")
    p.add_argument("--bandwidth-e", type=_bandwidth, default=None,
                   help="positive number or 'median' (default: sqrt(2))")
    p.add_argument("--no-standardize", action="store_true",
                   help="skip standardizing predictors and response before fitting")


def _add_model_flags(p: argparse.ArgumentParser, n_required: bool, model_required: bool = False) -> None:
    p.add_argument("--model", choices=_BUILTIN_MODELS, required=model_required, default=None)
    p.add_argument("--n", type=int, required=n_required, default=None)
    p.add_argument("--a", type=float, default=0.0, help="coefficient of the omitted nonlinear term")
    p.add_argument("--lambda", dest="lam", type=float, default=0.0,
                   help="scale-dependence strength of the noise on x1")
    p.add_argument("--noise-sd", type=float, default=None,
                   help="base noise sd (default: sqrt(0.1) for linear1d, else 1)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hsicreg",
        description="Kernel independence test for regression errors and predictors, "
        "with bootstrap calibration and a Monte Carlo study harness.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p_test = sub.add_parser("test", help="run the calibrated test on a CSV or a built-in model")
    p_test.add_argument("--input", default=None, help="CSV file with a header row")
    p_test.add_argument("--response", default=None, help="response column name")
    p_test.add_argument("--predictors", default=None, help="comma-separated predictor column names")
    p_test.add_argument("--design", default=None,
                        help="e.g. '1 + x1 + x2 + x1*x2 + x2^2' (default: intercept + all predictors)")
    _add_model_flags(p_test, n_required=False)
    _add_kernel_flags(p_test)
    p_test.add_argument("--B", type=int, default=1000, help="bootstrap replicates")
    p_test.add_argument("--alpha", type=float, default=0.05)
    p_test.add_argument("--seed", type=int, default=0)
    p_test.add_argument("--workers", type=int, default=1, help="0 = one per usable CPU")
    _add_output_flags(p_test, "json")
    p_test.set_defaults(handler=cmd_test)

    p_sim = sub.add_parser("simulate", help="write one simulated dataset")
    _add_model_flags(p_sim, n_required=True, model_required=True)
    p_sim.add_argument("--seed", type=int, default=0)
    _add_output_flags(p_sim, "csv")
    p_sim.set_defaults(handler=cmd_simulate)

    p_pow = sub.add_parser("power", help="Monte Carlo rejection rates over a parameter grid")
    p_pow.add_argument("--model", choices=_BUILTIN_MODELS, required=True)
    p_pow.add_argument("--n", type=_int_list, required=True, help="comma-separated sizes, e.g. 100,200")
    p_pow.add_argument("--a", type=_float_list, default=[0.0], help="comma-separated values")
    p_pow.add_argument("--lambda", dest="lam", type=_float_list, default=[0.0],
                       help="comma-separated values")
    p_pow.add_argument("--noise-sd", type=float, default=None,
                       help="base noise sd (default: sqrt(0.1) for linear1d, else 1)")
    p_pow.add_argument("--reps", type=int, default=300, help="Monte Carlo trials per cell")
    p_pow.add_argument("--B", type=int, default=500, help="bootstrap replicates per trial")
    p_pow.add_argument("--alpha", type=float, default=0.05)
    p_pow.add_argument("--seed", type=int, default=0)
    p_pow.add_argument("--workers", type=int, default=1, help="0 = one per usable CPU")
    _add_output_flags(p_pow, "json")
    p_pow.set_defaults(handler=cmd_power)

    p_con = sub.add_parser("contrast", help="residual-based vs true-error null statistics")
    _add_model_flags(p_con, n_required=True)
    p_con.set_defaults(model=LINEAR1D)
    _add_kernel_flags(p_con)
    p_con.add_argument("--reps", type=int, default=500, help="replications per arm")
    p_con.add_argument("--seed", type=int, default=0)
    p_con.add_argument("--workers", type=int, default=1, help="0 = one per usable CPU")
    _add_output_flags(p_con, "json")
    p_con.set_defaults(handler=cmd_contrast)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except (SingularDesignError, BootstrapAbortError, np.linalg.LinAlgError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, TypeError, KeyError, OSError, MemoryLimitError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
