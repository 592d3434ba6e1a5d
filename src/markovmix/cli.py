"""Command-line interface: estimate, simulate, transmat, discretize.

Exit codes: 0 success, 1 estimation non-convergence, 2 usage error,
3 data error.  The MARKOVMIX_SEED environment variable supplies the
default simulation seed.  Every input CSV is read by ``data``'s one
reader, so ``--time-col`` and ``--column`` both take a 0-based index
or a header name.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from contextlib import nullcontext

import numpy as np

from .data import (
    _check_quantiles,
    _column_index,
    _numeric,
    _read_table,
    discretize_quantiles,
    log_returns,
    read_covariates_csv,
    read_panel_csv,
)
from .exceptions import DataError, EstimationError
from .gmmc import estimate_gmmc, load_fit, save_fit, transition_edge_list
from .inference import format_report
from .mtd import estimate_mtd
from .probit import estimate_mtd_probit
from .simulation import SimConfig, run_study

EXIT_OK = 0
EXIT_ESTIMATION = 1
EXIT_USAGE = 2
EXIT_DATA = 3

# estimate options that only some models read: option -> those models
_MODEL_OPTIONS = {
    "--x": ("gmmc",),
    "--x-lag": ("gmmc",),
    "--save-fit": ("gmmc",),
    "--initial": ("gmmc", "mtd-probit"),
}


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (DataError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_DATA
    except EstimationError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_ESTIMATION
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="markovmix",
        description="Markov chain mixture models for categorical time series",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    est = sub.add_parser("estimate", help="fit a mixture model to panel CSVs")
    est.add_argument("--model", required=True, choices=["mtd", "mtd-probit", "gmmc"])
    est.add_argument("--y", required=True, help="panel CSV (one column per sequence)")
    est.add_argument("--y-header", action="store_true", help="panel CSV has a header row")
    est.add_argument("--time-col", default=None,
                     help="panel column holding the time index (0-based index or name)")
    est.add_argument("--x", default=None, help="covariate CSV (header required)")
    est.add_argument("--x-lag", type=int, default=None, help="covariate lag (default 1)")
    est.add_argument("--initial", default=None, help="comma-separated initial values")
    est.add_argument("--out-json", default=None, help="write the report as JSON here")
    est.add_argument("--save-fit", default=None, help="gmmc: serialize the fit here")
    est.set_defaults(func=_cmd_estimate)

    simp = sub.add_parser("simulate", help="run a Monte Carlo size/power study")
    simp.add_argument("--part", required=True, type=int, choices=[1, 2])
    simp.add_argument("--states", type=int, default=2, choices=[2, 3])
    simp.add_argument("--n", required=True, type=int, help="sample size per replication")
    simp.add_argument("--reps", type=int, default=1000)
    simp.add_argument("--seed", type=int, default=None,
                      help="default: MARKOVMIX_SEED or 7")
    simp.add_argument("--alpha", type=float, default=0.05)
    simp.add_argument("--lambda-true", default="0.8,0.2",
                      help="part 2: true weights, comma separated")
    simp.add_argument("--jobs", type=int, default=1, help="worker processes")
    simp.add_argument("--out-json", default=None)
    simp.add_argument("--out-csv", default=None)
    simp.set_defaults(func=_cmd_simulate)

    tm = sub.add_parser("transmat", help="conditional transition matrices from a saved fit")
    tm.add_argument("--fit", required=True, help="serialized gmmc fit (JSON)")
    tm.add_argument("--x", required=True, help="covariate value(s), comma separated")
    tm.add_argument("--equation", type=int, default=None,
                    help="1-based equation; default: all")
    tm.add_argument("--out", default=None,
                    help="edge-list CSV path (default: stdout)")
    tm.set_defaults(func=_cmd_transmat)

    disc = sub.add_parser("discretize", help="map a numeric series to 3 quantile states")
    disc.add_argument("--input", required=True, help="CSV with the numeric series")
    disc.add_argument("--column", default="0", help="column name or 0-based index")
    disc.add_argument("--no-header", action="store_true")
    disc.add_argument("--returns", action="store_true",
                      help="apply log returns (percent) before discretizing")
    disc.add_argument("--lower-q", type=float, default=0.25)
    disc.add_argument("--upper-q", type=float, default=0.75)
    disc.add_argument("--out", default=None, help="output CSV (default: stdout)")
    disc.set_defaults(func=_cmd_discretize)

    return parser


def _parse_floats(text: str, label: str) -> np.ndarray:
    try:
        return np.array([float(v) for v in text.split(",") if v.strip() != ""])
    except ValueError:
        raise ValueError(f"cannot parse {label} {text!r} as comma-separated numbers") from None


def _cmd_estimate(args) -> int:
    for option, models in _MODEL_OPTIONS.items():
        if getattr(args, option[2:].replace("-", "_")) is not None and args.model not in models:
            print(f"error: {option} applies only to --model {' or '.join(models)}",
                  file=sys.stderr)
            return EXIT_USAGE
    panel = read_panel_csv(args.y, has_header=args.y_header, time_col=args.time_col)
    initial = _parse_floats(args.initial, "--initial") if args.initial else None

    if args.model == "gmmc":
        if args.x is None:
            print("error: --model gmmc requires --x (covariate CSV)", file=sys.stderr)
            return EXIT_USAGE
        covariates = read_covariates_csv(args.x)
        x_lag = 1 if args.x_lag is None else args.x_lag
        model = estimate_gmmc(panel, covariates, initial=initial, x_lag=x_lag)
        if args.save_fit:
            save_fit(model, args.save_fit)
    elif args.model == "mtd":
        model = estimate_mtd(panel)
    else:  # mtd-probit
        model = estimate_mtd_probit(panel, initial=initial)

    print(format_report(model.fit_report), end="")
    if args.out_json:
        with open(args.out_json, "w", encoding="utf-8") as fh:
            json.dump(model.fit_report.to_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")
    if not all(model.converged):
        print("error: estimation did not converge; see report warnings", file=sys.stderr)
        return EXIT_ESTIMATION
    return EXIT_OK


def _cmd_simulate(args) -> int:
    seed = args.seed
    if seed is None:
        seed = int(os.environ.get("MARKOVMIX_SEED", "7"))
    lam = tuple(_parse_floats(args.lambda_true, "--lambda-true")) if args.part == 2 else ()
    config = SimConfig(
        n_obs=args.n,
        n_reps=args.reps,
        states=args.states,
        scenario=f"part{args.part}",
        lambda_true=lam,
        seed=seed,
        alpha=args.alpha,
    )
    report = run_study(config, n_jobs=args.jobs)
    for hyp, rate in zip(report.hypotheses, report.rejection_rates):
        print(f"{hyp:<28} rejection rate {rate:.3f}")
    print(f"{'dimension (size)':<28} {report.dimension:.3f}")
    print(f"{'power':<28} {report.power:.3f}")
    if report.lambda_mean_abs_error is not None:
        print(f"{'mean |weight error|':<28} {report.lambda_mean_abs_error:.4f}")
    print(f"failed replications: {report.n_failed} of {report.n_reps}")
    if args.out_json:
        with open(args.out_json, "w", encoding="utf-8") as fh:
            fh.write(report.to_json())
    if args.out_csv:
        with open(args.out_csv, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["hypothesis", "n_obs", "rejection_rate"])
            writer.writerows(report.to_csv_rows())
    return EXIT_OK


def _cmd_transmat(args) -> int:
    fit = load_fit(args.fit)
    x_value = _parse_floats(args.x, "--x")
    equations = range(fit.n_chains) if args.equation is None else [args.equation - 1]
    for j in equations:
        if not 0 <= j < fit.n_chains:
            print(f"error: equation {j + 1} out of range 1..{fit.n_chains}", file=sys.stderr)
            return EXIT_USAGE
    single = len(equations) == 1
    rows = []
    for j in equations:
        for src, dst, prob in transition_edge_list(fit, j, x_value):
            edge = (src, dst, f"{prob:.10f}")
            rows.append(edge if single else (j + 1, *edge))
    header = ["source_state", "dest_state", "probability"]
    if not single:
        header = ["equation", *header]
    out = open(args.out, "w", newline="", encoding="utf-8") if args.out else nullcontext(sys.stdout)
    with out as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
    return EXIT_OK


def _cmd_discretize(args) -> int:
    _check_quantiles(args.lower_q, args.upper_q)
    header, columns = _read_table(args.input, not args.no_header)
    column = _column_index(args.column, header, len(columns), args.input)
    series = _numeric(args.input, columns, [column])[:, 0]
    if args.returns:
        series = log_returns(series)
    values = np.unique(series)
    if len(values) <= 3:
        raise DataError(
            f"series takes only {len(values)} distinct values; it looks already "
            "discrete, refusing to quantile-code it"
        )
    states = discretize_quantiles(series, lower_q=args.lower_q, upper_q=args.upper_q)
    lines = ["state"] + [str(s) for s in states]
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
    else:
        print("\n".join(lines))
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
