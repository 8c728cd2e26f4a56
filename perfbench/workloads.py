"""The benchmark's workloads.

Each workload has ``setup(seed, workdir)``, which builds its inputs from the
seed, and ``iterate(state, checks)``, which does one closed-loop pass of
sequential calls into tnbs and returns that pass's stage timings. A pass
repeats the same work with the same inputs, so the run reports means over
passes. Calls go through module attributes (``cli.main``, ``solver.als_fit``)
so that the tracer sees them.

Correctness thresholds below were fixed, with margin, from runs over seeds
0-4 and 100-109 to 500-509 (in steps of 100); they catch a broken fit or
evaluator, not a loss of accuracy.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import math
from time import perf_counter

import numpy as np

from tnbs import cli, solver
from tnbs.bspline import make_basis
from tnbs.model import LagSpec, rmse

import tanks


class Checks:
    """Correctness checks of one run; ``failed / attempted`` is its error rate."""

    def __init__(self):
        self.attempted = 0
        self.failures = []

    def add(self, name: str, ok: bool, detail=None) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(f"{name}: {detail}")

    def finite_below(self, name: str, value, limit: float) -> None:
        ok = math.isfinite(value) and value <= limit
        self.add(name, ok, f"{value} (limit {limit})")


def timed(fn, *args, **kwargs):
    start = perf_counter()
    result = fn(*args, **kwargs)
    return result, perf_counter() - start


# --- synth_cli ------------------------------------------------------------

class SynthCli:
    """The README's synthetic pipeline through ``tnbs.cli.main``, in-process.

    Why: this is the path users run. It is the only workload that exercises
    CSV/JSON I/O and ``synth`` (TT-SVD plus 3000-step recursive generation);
    its fit (d=8, N=2000 rows, 100-column solves) is dominated by design rows
    and solves, with cheap penalty accumulation.
    """

    name = "synth_cli"
    PARAMETERS = 640  # ranks 5, k=4, d=8: 4*5 + 6*(5*4*5) + 5*4
    PRED_RMSE_LIMIT = 0.05
    # Free-run simulation is unstable on some seeds (seed 509: 0.54 while its
    # one-step rmse is 0.018), so it is only held inside the unit box the
    # data lives in.
    SIM_RMSE_LIMIT = 1.0

    def setup(self, seed, workdir):
        def path(name):
            return str(workdir / name)

        return {
            "synth": ["synth", "--out-prefix", path("synth"), "--snr", "20",
                      "--seed", str(seed), "--report", path("synth_report.json")],
            "fit": ["fit", "--data", path("synth_est.csv"), "--degree", "2", "--knots", "6",
                    "--ranks", "5", "--lags-u", "1,2,3,4", "--lags-y", "1,2,3,4",
                    "--alpha", "2", "--lam", "0.001", "--sweeps", "16", "--scaling", "unit",
                    "--out", path("model.json"), "--report", path("fit_report.json")],
            "predict": ["predict", "--model", path("model.json"),
                        "--data", path("synth_test.csv"), "--report", path("predict_report.json")],
            "simulate": ["simulate", "--model", path("model.json"),
                         "--data", path("synth_test.csv"), "--out", path("sim.csv"),
                         "--report", path("simulate_report.json")],
            "reports": {cmd: path(f"{cmd}_report.json")
                        for cmd in ("synth", "fit", "predict", "simulate")},
        }

    def iterate(self, state, checks):
        stats, reports = {}, {}
        for cmd in ("synth", "fit", "predict", "simulate"):
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code, stats[f"{cmd}_s"] = timed(cli.main, state[cmd])
            checks.add(f"tnbs {cmd} exit code", code == 0, f"{code} {err.getvalue().strip()}")
            try:
                with open(state["reports"][cmd], encoding="utf-8") as fh:
                    reports[cmd] = json.load(fh)
            except (OSError, ValueError) as exc:
                reports[cmd] = {}
                checks.add(f"tnbs {cmd} report", False, exc)
        checks.add("fit parameter count", reports["fit"].get("parameter_count") == self.PARAMETERS,
                   reports["fit"].get("parameter_count"))
        stats["pred_rmse"] = reports["predict"].get("rmse", math.nan)
        stats["sim_rmse"] = reports["simulate"].get("rmse", math.nan)
        checks.finite_below("predict rmse", stats["pred_rmse"], self.PRED_RMSE_LIMIT)
        checks.finite_below("simulate rmse", stats["sim_rmse"], self.SIM_RMSE_LIMIT)
        stats["pred_rows"] = reports["predict"].get("samples", 0)
        stats["sim_steps"] = reports["simulate"].get("samples", 0)
        return stats


# --- tanks_cv -------------------------------------------------------------

TANKS_LAGS = LagSpec((1, 2, 3, 4, 8, 12, 16, 32), (1, 2, 3, 4, 8, 12, 16, 32))


class TanksCv:
    """Cross-validated fit of the 16-dimensional tanks model on surrogate data.

    Why: penalty accumulation is O(d^2) per sweep at d=16 and the 256-column
    solves are where the BLAS thread count sets the cost; both barely show in
    synth_cli. It also covers the cross-validation fold loop and batch scoring.
    """

    name = "tanks_cv"
    GRID = (1e-3, 1e-1)
    FOLDS = 3
    PARAMETERS = 3648
    # The surrogate's test output has a standard deviation of 0.4-1.0 and the
    # calibration seeds scored 0.45-3.0, no better than a constant: the d=16
    # fit from random cores stalls within 12 sweeps. The limit is therefore the
    # tank height: an error beyond it means the model left the physical range.
    PRED_RMSE_LIMIT = SIM_RMSE_LIMIT = tanks.LEVEL_MAX

    def setup(self, seed, workdir):
        u_est, y_est, u_test, y_test = tanks.make_tanks(seed)
        return {
            "u_est": u_est, "y_est": y_est, "u_test": u_test, "y_test": y_test,
            "basis": make_basis(3, 7),
            "cfg": solver.FitConfig(ranks=8, penalty_order=1, max_sweeps=12, seed=0),
        }

    def iterate(self, state, checks):
        u, y = state["u_est"], state["y_est"]
        u_test, y_test = state["u_test"], state["y_test"]
        (best, scores), cv_s = timed(solver.cross_validate_lambda, u, y, TANKS_LAGS,
                                      state["basis"], state["cfg"], self.GRID, self.FOLDS)
        checks.add("cv scores finite", bool(np.isfinite(scores).all()), scores)
        checks.add("cv choice on grid", best in self.GRID, best)
        cfg = dataclasses.replace(state["cfg"], lambdas=best)
        (model, _), fit_s = timed(solver.als_fit, u, y, TANKS_LAGS, state["basis"], cfg)
        checks.add("tanks parameter count", model.parameter_count == self.PARAMETERS,
                   model.parameter_count)

        start = TANKS_LAGS.start_index
        pred, predict_s = timed(model.predict, u_test, y_test)
        sim, simulate_s = timed(model.simulate, u_test, y_test[:start])
        stats = {
            "cv_s": cv_s, "fit_s": fit_s,
            "predict_s": predict_s, "pred_rows": len(pred),
            "simulate_s": simulate_s, "sim_steps": len(sim),
            "pred_rmse": rmse(y_test[start:], pred), "sim_rmse": rmse(y_test[start:], sim),
        }
        checks.finite_below("tanks predict rmse", stats["pred_rmse"], self.PRED_RMSE_LIMIT)
        checks.finite_below("tanks simulate rmse", stats["sim_rmse"], self.SIM_RMSE_LIMIT)
        return stats


WORKLOADS = {w.name: w for w in (SynthCli(), TanksCv())}
