"""Command-line interface: test, simulate, power, contrast.

Each subcommand's handler returns its artifact as a JSON payload and a CSV
table; :func:`main` writes the one ``--format`` names to ``--out`` or stdout.
The CLI owns no model decision: ``test --design`` is read by
:meth:`hsicreg.linreg.DesignSpec.parse`, and every subcommand that draws from
a built-in model takes the one flag group of :func:`_add_model_flags`
(``power`` takes its comma-separated grid form).
Artifacts are byte-identical for a fixed ``--seed`` — worker count and any
other execution detail never appear in them.  Progress lines go to stderr.
Exit codes: 0 on success, 2 for input or configuration problems (an
unwritable ``--out`` among them), 3 for numerical failures (singular designs,
aborted bootstraps).
"""
from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
import warnings
from collections.abc import Iterable
from dataclasses import asdict

import numpy as np

from ._rng import derive_seed, substream
from .bootstrap import BootstrapConfig, run_test
from .errors import BootstrapAbortError, MemoryLimitError, SingularDesignError
from .kernels import MEDIAN, KernelSpec, study_kernels
from .linreg import Dataset, DesignSpec
from .simulate import _MODELS, LINEAR1D, ModelSpec, draw_model, null_distribution_contrast, power_study

SCHEMA_VERSION = 1

#: What a subcommand's handler returns: the JSON payload, the CSV header and the CSV rows.
Artifact = tuple[dict, list[str], Iterable]


def load_csv(path: str, response_column: str, predictor_columns: list[str] | None = None) -> Dataset:
    """Read a header-ed, '.'-decimal, UTF-8 CSV, with or without a byte-order mark, into a dataset.

    Errors carry row/column coordinates; fewer than d+2 data rows for d
    predictors is rejected as insufficient.
    """
    with open(path, newline="", encoding="utf-8-sig") as fh:
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
    for i, name in enumerate(predictor_columns):
        if name in predictor_columns[:i]:
            raise ValueError(f"{path}: predictor column {name!r} listed more than once")

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


def _bandwidth(text: str):
    if text == MEDIAN:
        return MEDIAN
    try:
        return float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"bandwidth must be a positive number or {MEDIAN!r}, got {text!r}"
        ) from None


def _kernels_from_args(args, dim: int) -> tuple[KernelSpec, KernelSpec]:
    """The (predictor, residual) kernels; an unset flag takes ``study_kernels(dim)``'s kernel."""
    flags = (args.bandwidth_x, args.bandwidth_e)
    return tuple(default if flag is None else KernelSpec(flag)
                 for flag, default in zip(flags, study_kernels(dim)))


def _comma_list(kind: type):
    """An argparse type: a comma-separated list of ``kind`` values."""
    def comma_list(text: str) -> list:
        return [kind(tok) for tok in text.split(",") if tok.strip()]
    return comma_list


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


def _csv_cell(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (np.floating, float)):
        return repr(float(value))
    if isinstance(value, (np.integer, int)):
        return str(int(value))
    return str(value)


def _write_artifact(args, payload: dict, header: list[str], rows: Iterable) -> None:
    """Write ``payload`` as JSON, or ``header`` and ``rows`` as CSV, to ``--out`` or stdout."""
    if args.format == "json":
        text = json.dumps(_jsonable(payload), indent=2, allow_nan=False) + "\n"
    else:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(header)
        writer.writerows([_csv_cell(v) for v in row] for row in rows)
        text = buf.getvalue()
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _reject_unused(source: str, given: dict[str, bool]) -> None:
    """Raise ``ValueError`` naming each flag of ``given`` that is set; ``source`` reads none of them."""
    unused = [flag for flag, is_set in given.items() if is_set]
    if unused:
        raise ValueError(f"{', '.join(unused)} cannot be used with {source}")


def _dataset_for_test(args) -> tuple[Dataset, str]:
    """The dataset named by --input or drawn from the built-in model.

    A flag of the other data source is an error, not silently ignored; ``--a 0``
    and ``--lambda 0`` equal their defaults and pass.
    """
    if args.input and args.model:
        raise ValueError("--input and --model are mutually exclusive; pick one data source")
    if args.input:
        _reject_unused("--input", {"--n": args.n is not None, "--a": args.a != 0.0,
                                   "--lambda": args.lam != 0.0, "--noise-sd": args.noise_sd is not None})
        if not args.response:
            raise ValueError("--input requires --response NAME")
        predictors = args.predictors.split(",") if args.predictors else None
        data = load_csv(args.input, args.response, predictors)
        print(f"loaded {data.n} rows from {args.input}; predictors: {', '.join(data.names())}; "
              f"response: {args.response}", file=sys.stderr)
        return data, args.input
    if not args.model:
        raise ValueError("provide either --input FILE --response NAME or --model NAME --n SIZE")
    _reject_unused("--model", {"--response": args.response is not None,
                               "--predictors": args.predictors is not None})
    if args.n is None:
        raise ValueError("--model requires --n SIZE")
    spec = ModelSpec(args.model, args.n, args.a, args.lam, args.noise_sd)
    sim = draw_model(spec, substream(args.seed, 0))
    print(f"simulated {spec.model} with n={spec.n}, a={spec.a}, lambda={spec.lam}", file=sys.stderr)
    return sim.data, spec.model


def cmd_test(args) -> Artifact:
    data, source = _dataset_for_test(args)
    design = DesignSpec.parse(args.design, data.names()) if args.design else DesignSpec.main_effects(data.d0)
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
    # The last two keys, design and beta_hat, take one CSV cell each.
    row = [*list(payload.values())[:-2], " + ".join(payload["design"]),
           ";".join(repr(float(b)) for b in result.beta_hat)]
    return payload, list(payload), [row]


def cmd_simulate(args) -> Artifact:
    spec = ModelSpec(args.model, args.n, args.a, args.lam, args.noise_sd)
    sim = draw_model(spec, substream(args.seed, 0))
    columns = list(sim.data.names()) + ["y", "error"]
    matrix = np.column_stack([sim.data.predictors, sim.data.response, sim.errors])
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
    return payload, columns, matrix


def cmd_power(args) -> Artifact:
    grid = [ModelSpec(args.model, n, a, lam, args.noise_sd) for n in args.n for a in args.a for lam in args.lam]
    config = BootstrapConfig(replicates=args.B, seed=args.seed, workers=args.workers)
    table = power_study(grid, args.alpha, config, args.reps)
    cells = [{("lambda" if k == "lam" else k): v for k, v in asdict(c).items()} for c in table.cells]
    payload = {
        "schema_version": SCHEMA_VERSION,
        "command": "power",
        "alpha": table.alpha,
        "replicates": table.replicates,
        "reps": args.reps,
        "seed": args.seed,
        "cells": cells,
    }
    return payload, list(cells[0]), [list(c.values()) for c in cells]


def cmd_contrast(args) -> Artifact:
    spec = ModelSpec(args.model, args.n, args.a, args.lam, args.noise_sd)
    kernel_x, kernel_e = _kernels_from_args(args, spec.dim)
    # A warning, such as too few replications, becomes a plain stderr line, not a source location.
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = null_distribution_contrast(
            spec, kernel_x, kernel_e, args.reps,
            seed=args.seed, workers=args.workers, standardize=not args.no_standardize,
        )
    for warning in caught:
        print(f"warning: {warning.message}", file=sys.stderr)
    both = np.concatenate([result.residual_stats, result.error_stats])
    edges = np.histogram_bin_edges(both, bins=30)
    resid_counts, _ = np.histogram(result.residual_stats, bins=edges)
    error_counts, _ = np.histogram(result.error_stats, bins=edges)
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
    rows = [["ks_distance", "", 0, result.ks_distance], ["ks_pvalue", "", 0, result.ks_pvalue]]
    rows += [["stat", "residual", i, v] for i, v in enumerate(result.residual_stats)]
    rows += [["stat", "error", i, v] for i, v in enumerate(result.error_stats)]
    rows += [["hist_edge", "", i, v] for i, v in enumerate(edges)]
    rows += [["hist_count", "residual", i, int(v)] for i, v in enumerate(resid_counts)]
    rows += [["hist_count", "error", i, int(v)] for i, v in enumerate(error_counts)]
    return payload, ["record", "arm", "index", "value"], rows


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


def _add_model_flags(p: argparse.ArgumentParser, n_required: bool, model_required: bool = False,
                     grid: bool = False) -> None:
    """The flags of a model cell; with ``grid``, --n, --a and --lambda take comma-separated lists."""
    kind, many = (_comma_list, " (comma-separated list)") if grid else ((lambda k: k), "")
    p.add_argument("--model", choices=tuple(_MODELS), required=model_required, default=None)
    p.add_argument("--n", type=kind(int), required=n_required, default=None, help=f"sample size{many}")
    # A string default goes through the flag's type: 0.0, or [0.0] with grid.
    p.add_argument("--a", type=kind(float), default="0", help=f"coefficient of the omitted nonlinear term{many}")
    p.add_argument("--lambda", dest="lam", type=kind(float), default="0",
                   help=f"scale-dependence strength of the noise on x1{many}")
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
                        help="e.g. '1 + x1 + x2 + x1*x2 + x2^2 + x1^2*x2' (default: intercept + all predictors)")
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
    _add_model_flags(p_pow, n_required=True, model_required=True, grid=True)
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
        _write_artifact(args, *args.handler(args))
        return 0
    except (SingularDesignError, BootstrapAbortError, np.linalg.LinAlgError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, TypeError, KeyError, OSError, MemoryLimitError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
