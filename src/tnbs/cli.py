"""Command-line front end: fit, predict, simulate, synth, cv.

Data files are two-column CSVs with header ``u,y``. Every command echoes its
fully resolved configuration and can write a machine-readable JSON report
next to the human-readable output; report contents are deterministic for a
fixed seed and inputs (wall time is printed but kept out of the sidecar).
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import sys
import time
from pathlib import Path

import numpy as np

from .bspline import make_basis
from .model import LagSpec, Scaling, TnbsModel, rmse
from .solver import FitConfig, NumericalError, als_fit, cross_validate_lambda
from .synth import SynthSpec, make_dataset

EXIT_OK = 0
EXIT_WORKER = 1
EXIT_INPUT = 2
EXIT_NUMERIC = 3


def read_signal_csv(path) -> tuple[np.ndarray, np.ndarray]:
    # utf-8-sig also reads the byte-order mark of a spreadsheet's "CSV UTF-8".
    try:
        text = Path(path).read_bytes().decode("utf-8-sig")
    except UnicodeDecodeError as exc:
        # exc.object starts after a byte-order mark. The row counts the lines
        # before the bad byte, ended as csv ends them, plus its own.
        row = len((exc.object[:exc.start] + b"?").splitlines())
        raise ValueError(f"{path}: row {row}: not UTF-8 text") from None
    reader = csv.reader(io.StringIO(text, newline=""))
    header = next(reader, None)
    if header is None or [c.strip().lower() for c in header] != ["u", "y"]:
        raise ValueError(f"{path}: row 1: expected header 'u,y'")
    u, y = [], []
    for line_no, row in enumerate(reader, start=2):
        if not row:
            continue
        if len(row) != 2:
            raise ValueError(f"{path}: row {line_no}: expected 2 columns, got {len(row)}")
        try:
            a, b = float(row[0]), float(row[1])
        except ValueError:
            raise ValueError(f"{path}: row {line_no}: cannot parse {row!r} as numbers") from None
        if not (math.isfinite(a) and math.isfinite(b)):
            raise ValueError(f"{path}: row {line_no}: non-finite value")
        u.append(a)
        y.append(b)
    if not u:
        raise ValueError(f"{path}: no data rows")
    return np.asarray(u), np.asarray(y)


def write_signal_csv(path, *columns, header: str = "u,y") -> None:
    """Write columns under a CSV header, each value as its repr (a float's reads back exactly)."""
    line = ",".join(["%r"] * len(columns)) + "\n"
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(header + "\n")
        for row in zip(*(np.asarray(c).tolist() for c in columns)):
            fh.write(line % row)


def _write_report(path, payload: dict) -> None:
    if path:
        Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n",
                              encoding="utf-8")


def _echo_config(config: dict) -> None:
    print("resolved configuration:")
    for key in sorted(config):
        print(f"  {key} = {config[key]}")


def _comma_list(kind, noun: str):
    def parse(text: str) -> list:
        try:
            return [kind(part) for part in text.split(",") if part.strip() != ""]
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected comma-separated {noun}, got {text!r}")
    return parse


_int_list = _comma_list(int, "integers")
_float_list = _comma_list(float, "numbers")


def _scalar_or_tuple(values: list):
    return values[0] if len(values) == 1 else tuple(values)


def _fit_inputs(args):
    lags = LagSpec(tuple(args.lags_u), tuple(args.lags_y))
    basis = make_basis(args.degree, args.knots)
    cfg = FitConfig(
        ranks=_scalar_or_tuple(args.ranks),
        penalty_order=args.alpha,
        lambdas=_scalar_or_tuple(getattr(args, "lambda", [0.0])),
        max_sweeps=args.sweeps,
        epsilon=args.epsilon,
        seed=args.seed,
    )
    scaling = Scaling.identity() if args.scaling == "unit" else None
    return lags, basis, cfg, scaling


def _resolved_config(args) -> dict:
    """Parsed options as echoed and reported, defaults included.

    Left out are the report path and, for predict and simulate, the
    per-sample CSV path.
    """
    skip = {"command", "func", "report"}
    if args.command in ("predict", "simulate"):
        skip.add("out")
    return {key: value for key, value in vars(args).items() if key not in skip}


def cmd_fit(args) -> dict:
    u, y = read_signal_csv(args.data)
    lags, basis, cfg, scaling = _fit_inputs(args)

    start_time = time.perf_counter()
    model, trace = als_fit(u, y, lags, basis, cfg, scaling=scaling)
    wall = time.perf_counter() - start_time

    pred = model.predict(u, y)
    train_rmse = rmse(y[lags.start_index:], pred)
    model.save(args.out)

    print(f"training rmse: {train_rmse:.6g}")
    print(f"parameters: {model.parameter_count}")
    print(f"sweeps: {trace.sweeps_run} (stopped early: {trace.stopped_early})")
    print(f"wall time: {wall:.2f} s")
    print(f"model written to {args.out}")
    return {
        "train_rmse": train_rmse,
        "parameter_count": model.parameter_count,
        "sweeps_run": trace.sweeps_run,
        "stopped_early": trace.stopped_early,
        "first_core_objectives": trace.first_core_objectives,
        "clipped_regressors": trace.clipped_regressors,
    }


def cmd_evaluate(args) -> dict:
    """``predict`` (one-step prediction) or ``simulate`` (free run) with a saved model."""
    model = TnbsModel.load(args.model)
    u, y = read_signal_csv(args.data)
    start = model.lags.start_index
    if args.command == "predict":
        label, yhat = "prediction", model.predict(u, y)
    else:
        if len(y) <= start:
            raise ValueError(f"data of length {len(y)} is too short for maximum lag {start}")
        label, yhat = "simulation", model.simulate(u, y[:start])
    score = rmse(y[start:], yhat)
    print(f"{label} rmse: {score:.6g} over {len(yhat)} samples")
    if args.out:
        write_signal_csv(args.out, range(start, len(y)), y[start:], yhat, header="n,y,yhat")
        print(f"per-sample output written to {args.out}")
    return {"rmse": score, "samples": len(yhat), "start_index": start}


def cmd_synth(args) -> dict:
    spec = SynthSpec(
        input_lags=tuple(args.lags_u),
        output_lags=tuple(args.lags_y),
        degree=args.degree,
        knot_param=args.knots,
        ranks=_scalar_or_tuple(args.ranks),
        w_min=args.w_min,
        w_max=args.w_max,
        n_samples=args.n,
        smoothing_window=args.window,
        seed=args.seed,
    )
    data = make_dataset(spec, snr_db=args.snr_db, n_estimation=args.split)
    est_path = f"{args.out_prefix}_est.csv"
    test_path = f"{args.out_prefix}_test.csv"
    model_path = f"{args.out_prefix}_true_model.json"
    write_signal_csv(est_path, data.u_est, data.y_est)
    write_signal_csv(test_path, data.u_test, data.y_test)
    data.true_model.save(model_path)
    print(f"estimation set ({len(data.u_est)} rows) written to {est_path}")
    print(f"test set ({len(data.u_test)} rows) written to {test_path}")
    print(f"true model written to {model_path}")
    return {
        "estimation_rows": len(data.u_est),
        "test_rows": len(data.u_test),
        "files": [est_path, test_path, model_path],
    }


def cmd_cv(args) -> dict:
    u, y = read_signal_csv(args.data)
    lags, basis, cfg, scaling = _fit_inputs(args)
    best, scores = cross_validate_lambda(
        u, y, lags, basis, cfg, args.lambdas, args.folds, scaling=scaling
    )
    print(f"{'lambda':>12}  " + "  ".join(f"fold {f}" for f in range(args.folds)) + "    mean")
    for lam, row in zip(args.lambdas, scores):
        cells = "  ".join(f"{v:6.4g}" for v in row)
        print(f"{lam:>12g}  {cells}  {row.mean():6.4g}")
    print(f"chosen lambda: {best:g}")
    return {
        "lambda_grid": args.lambdas,
        "scores": [[float(v) for v in row] for row in scores],
        "mean_scores": [float(v) for v in scores.mean(axis=1)],
        "chosen_lambda": best,
    }


def _add_model_flags(p, ranks: list[int], lags: list[int]) -> None:
    """The flags that fit, cv and synth share; each command passes its own defaults."""
    p.add_argument("--degree", type=int, default=2, help="B-spline degree")
    p.add_argument("--knots", type=int, default=6,
                   help="knot parameter m (the sequence has m+1 knots)")
    p.add_argument("--ranks", type=_int_list, default=ranks,
                   help="interior train ranks: scalar or comma list; a rank above "
                        "its unfolding bound is fitted at the bound, stored zero-padded")
    p.add_argument("--lags-u", type=_int_list, default=lags, help="input lags, comma list")
    p.add_argument("--lags-y", type=_int_list, default=lags, help="output lags, comma list")
    p.add_argument("--seed", type=int, default=0, help="RNG seed")


def _add_fit_flags(p) -> None:
    """The flags that fit and cv share."""
    _add_model_flags(p, ranks=[4], lags=[1])
    p.add_argument("--alpha", type=int, default=1, help="difference penalty order")
    p.add_argument("--sweeps", type=int, default=16, help="maximum number of sweeps")
    p.add_argument("--epsilon", type=float, default=0.0,
                   help="stopping tolerance on the first-core objective")
    p.add_argument("--scaling", choices=("data", "unit"), default="data",
                   help="min-max scaling fitted from data, or identity for data in [0,1]")


# Built once per process: every ``add_argument`` leaves an argparse help
# formatter in a reference cycle, about 480 objects per build, which only a
# full garbage collection frees, so repeated in-process ``main`` calls would
# grow the resident set with the number of calls.
@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tnbs",
        description="NARX identification with tensor-train B-spline surfaces",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("fit", help="fit a model to a data CSV")
    p.add_argument("--data", required=True, help="estimation CSV (header u,y)")
    p.add_argument("--out", default="model.json", help="model output path")
    p.add_argument("--report", default=None, help="JSON report sidecar path")
    _add_fit_flags(p)
    p.add_argument("--lam", dest="lambda", type=_float_list, default=[0.0],
                   help="penalty weight: scalar or per-dimension comma list")
    p.set_defaults(func=cmd_fit)

    for name, text in (("predict", "one-step prediction with a saved model"),
                       ("simulate", "free-run simulation with a saved model")):
        p = sub.add_parser(name, help=text)
        p.add_argument("--model", required=True)
        p.add_argument("--data", required=True)
        p.add_argument("--out", default=None, help="per-sample CSV (n,y,yhat)")
        p.add_argument("--report", default=None)
        p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("synth", help="generate the synthetic benchmark dataset")
    _add_model_flags(p, ranks=[5], lags=[1, 2, 3, 4])
    p.add_argument("--out-prefix", default="synth", help="prefix for the emitted files")
    p.add_argument("--n", type=int, default=3000, help="total signal length")
    p.add_argument("--split", type=int, default=2000, help="estimation rows")
    p.add_argument("--snr", dest="snr_db", type=float, default=float("inf"),
                   help="SNR in dB for estimation noise ('inf' for none)")
    p.add_argument("--w-min", type=float, default=-4.0)
    p.add_argument("--w-max", type=float, default=5.0)
    p.add_argument("--window", type=int, default=5, help="Gaussian smoothing window")
    p.add_argument("--report", default=None)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser(
        "cv", help="choose the penalty weight by cross-validation",
        description="Choose the penalty weight by blocked cross-validation. The fits run in "
                    "up to one worker process per usable CPU, each at one BLAS thread, so "
                    "the scores do not depend on the caller's thread settings.")
    p.add_argument("--data", required=True)
    p.add_argument("--lambdas", type=_float_list, required=True,
                   help="comma-separated candidate penalty weights")
    p.add_argument("--folds", type=int, default=3)
    p.add_argument("--report", default=None)
    _add_fit_flags(p)
    p.set_defaults(func=cmd_cv)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        # The configuration is echoed before the command reads any input.
        # Each command returns its report payload; the JSON sidecar adds
        # the command name and the echoed configuration.
        config = _resolved_config(args)
        _echo_config(config)
        payload = args.func(args)
        _write_report(args.report, {"command": args.command, "config": config, **payload})
        return EXIT_OK
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (NumericalError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except RuntimeError as exc:
        # A cross-validation worker died without a result.
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_WORKER


if __name__ == "__main__":
    sys.exit(main())
