"""TNBS surface evaluation and the NARX wrapper around it.

A model couples a B-spline basis, a lag structure, a tensor train of basis
weights (one core per regressor dimension) and min-max scaling. One-step
prediction builds regressors from measured outputs; free-run simulation feeds
its own outputs back.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .bspline import BasisConfig, _active_basis, _as_int, basis_rows, make_basis
from .tensor import TensorTrain, _fold_left

MODEL_FORMAT_VERSION = 1


@dataclass(frozen=True)
class LagSpec:
    """Which input and output lags feed the surface.

    Input lags may include 0 (the current input); output lags must be at
    least 1. Regressors are ordered input lags ascending, then output lags
    ascending — this ordering is part of the serialized model.
    """

    input_lags: tuple[int, ...]
    output_lags: tuple[int, ...]

    def __post_init__(self):
        in_lags = tuple(sorted({_as_int(l, "input lag") for l in self.input_lags}))
        out_lags = tuple(sorted({_as_int(l, "output lag") for l in self.output_lags}))
        if any(l < 0 for l in in_lags):
            raise ValueError("input lags must be non-negative")
        if any(l < 1 for l in out_lags):
            raise ValueError("output lags must be at least 1")
        if not in_lags and not out_lags:
            raise ValueError("at least one lag is required")
        object.__setattr__(self, "input_lags", in_lags)
        object.__setattr__(self, "output_lags", out_lags)

    @property
    def dimension(self) -> int:
        return len(self.input_lags) + len(self.output_lags)

    @property
    def max_input_lag(self) -> int:
        return max(self.input_lags, default=0)

    @property
    def max_output_lag(self) -> int:
        return max(self.output_lags, default=0)

    @property
    def start_index(self) -> int:
        """First sample index at which every lagged regressor exists."""
        return max(self.max_input_lag, self.max_output_lag)


@dataclass(frozen=True)
class Scaling:
    """Min-max parameters mapping raw signals onto [0, 1]."""

    u_min: float
    u_max: float
    y_min: float
    y_max: float

    def __post_init__(self):
        bounds = (self.u_min, self.u_max, self.y_min, self.y_max)
        if not np.isfinite(bounds).all():
            raise ValueError(f"scaling bounds must be finite, got {list(bounds)}")
        if not self.u_min < self.u_max:
            raise ValueError(f"degenerate input scaling: [{self.u_min}, {self.u_max}]")
        if not self.y_min < self.y_max:
            raise ValueError(f"degenerate output scaling: [{self.y_min}, {self.y_max}]")

    @classmethod
    def fit(cls, u, y) -> "Scaling":
        u = _as_signal(u, "u")
        y = _as_signal(y, "y")
        return cls(
            u_min=float(u.min()), u_max=float(u.max()),
            y_min=float(y.min()), y_max=float(y.max()),
        )

    @classmethod
    def identity(cls) -> "Scaling":
        """No-op scaling for data already living in [0, 1]."""
        return cls(0.0, 1.0, 0.0, 1.0)

    def scale_u(self, v):
        return (np.asarray(v, dtype=float) - self.u_min) / (self.u_max - self.u_min)

    def scale_y(self, v):
        return (np.asarray(v, dtype=float) - self.y_min) / (self.y_max - self.y_min)

    def unscale_y(self, v):
        return self.y_min + np.asarray(v, dtype=float) * (self.y_max - self.y_min)


def _as_1d(v, name: str) -> np.ndarray:
    v = np.asarray(v, dtype=float)
    if v.ndim != 1:
        raise ValueError(f"{name} must be a one-dimensional signal")
    return v


def _as_signal(v, name: str) -> np.ndarray:
    """A one-dimensional signal of finite samples; the first bad one is named."""
    v = _as_1d(v, name)
    bad = np.flatnonzero(~np.isfinite(v))
    if bad.size:
        raise ValueError(f"{name} sample {bad[0]} is not finite: {v[bad[0]]}")
    return v


def _lagged(v: np.ndarray, idx: np.ndarray, lags) -> np.ndarray:
    """Row i, column j holds v[idx[i] - lags[j]]."""
    return v[np.subtract.outer(idx, np.array(lags, dtype=int))]


def build_regressors(u, y, lags: LagSpec, scaling: Scaling):
    """Stack scaled lagged samples into rows; returns (X, targets, start).

    Row j (for sample index n = start + j) holds the scaled values
    u_{n-l} for each input lag l ascending, then y_{n-l} for each output lag
    ascending; targets are the scaled y_n.
    """
    u = _as_signal(u, "u")
    y = _as_signal(y, "y")
    if len(u) != len(y):
        raise ValueError(f"signals must have equal length: {len(u)} vs {len(y)}")
    n = len(u)
    start = lags.start_index
    if n <= start:
        raise ValueError(f"signals of length {n} are too short for maximum lag {start}")
    us = scaling.scale_u(u)
    ys = scaling.scale_y(y)
    idx = np.arange(start, n)
    x = np.concatenate([_lagged(us, idx, lags.input_lags), _lagged(ys, idx, lags.output_lags)],
                       axis=1)
    return x, ys[idx], start


def rmse(y, yhat) -> float:
    """Root mean squared error, in whatever units the arguments carry.

    Non-finite values are not rejected: they give a NaN or infinite error.
    """
    y = _as_1d(y, "y")
    yhat = _as_1d(yhat, "yhat")
    if len(y) != len(yhat):
        raise ValueError(f"length mismatch: {len(y)} vs {len(yhat)}")
    if len(y) == 0:
        raise ValueError("rmse of empty signals is undefined")
    return float(np.sqrt(np.mean((y - yhat) ** 2)))


@dataclass(frozen=True, eq=False)
class TnbsModel:
    """A fitted (or constructed) tensor network B-spline NARX model."""

    basis: BasisConfig
    lags: LagSpec
    weights: TensorTrain
    scaling: Scaling

    def __post_init__(self):
        d = self.lags.dimension
        if self.weights.order != d:
            raise ValueError(
                f"weight train has {self.weights.order} cores but the lag structure needs {d}"
            )
        k = self.basis.basis_count
        for p, core in enumerate(self.weights.cores):
            if core.shape[1] != k:
                raise ValueError(
                    f"core {p} has middle extent {core.shape[1]}, expected {k} basis functions"
                )

    @property
    def parameter_count(self) -> int:
        return self.weights.n_parameters

    def eval_surface(self, x) -> float:
        """Surface value at one point of the scaled regressor box [0, 1]^d."""
        x = np.asarray(x, dtype=float)
        if x.ndim != 1 or len(x) != self.lags.dimension:
            raise ValueError(
                f"expected {self.lags.dimension} coordinates, got shape {x.shape}"
            )
        return float(self._surface_rows(x[None, :])[0])

    def _surface_rows(self, xs: np.ndarray) -> np.ndarray:
        """Surface values for a batch of scaled regressor rows, shape (n, d)."""
        return self._fold_rows(xs, np.ones((len(xs), 1)))[:, 0]

    def _fold_rows(self, xs: np.ndarray, v: np.ndarray, first: int = 0) -> np.ndarray:
        """Carry chain products v through cores first, first + 1, ... of the columns of xs.

        ``xs`` (n, m) holds the scaled regressor columns first..first+m-1 and
        ``v`` (n, r_first) the chain already folded through the cores before
        them; returns the chain products (n, r_{first+m}).
        """
        n, m = xs.shape
        # One basis_rows call covers all columns (the basis is shared);
        # column-major flattening keeps each column's rows contiguous.
        bmats = basis_rows(self.basis, xs.reshape(-1, order="F"))
        bmats = bmats.reshape(m, n, self.basis.basis_count)
        for b, core in zip(bmats, self.weights.cores[first:first + m]):
            v = _fold_left(v, core, b)
        return v

    def predict(self, u, y) -> np.ndarray:
        """One-step predictions from measured lagged outputs.

        Returns predictions for sample indices start..N-1 in original units,
        where start is the largest lag.
        """
        x, _, _ = build_regressors(u, y, self.lags, self.scaling)
        return self.scaling.unscale_y(self._surface_rows(x))

    def simulate(self, u, y_warmup) -> np.ndarray:
        """Free-run simulation: lagged outputs come from the model itself.

        ``y_warmup`` is the prefix of true outputs aligned with u; simulation
        produces one value per remaining sample. The warmup must be a finite
        one-dimensional signal that reaches the largest lag, so every
        regressor exists at the first simulated step. Fed-back outputs are
        clipped onto the scaled [0, 1] box; the returned values are
        unclipped, in original units. A NaN output that a later step would
        read is an error naming its sample; one that no step reads is
        returned as is.

        The exogenous input-lag chain is folded once for all steps, so each
        step folds only the output-lag cores. Their basis rows come from one
        array for the scaled output history: the warmup's rows from one
        ``basis_rows`` call, and each fed-back output's row once, right
        after it is produced, from the per-point evaluator
        (``eval_basis``'s recursion over the rho + 1 non-zero functions).
        The rows and so the outputs are bitwise those of evaluating every
        step's regressor row afresh.
        """
        u = _as_signal(u, "u")
        y_warmup = _as_signal(y_warmup, "y_warmup")
        t0 = len(y_warmup)
        if t0 < self.lags.max_output_lag:
            raise ValueError(
                f"warmup of {t0} samples does not cover the largest output lag "
                f"{self.lags.max_output_lag}"
            )
        if t0 < self.lags.max_input_lag:
            raise ValueError(
                f"warmup of {t0} samples does not cover the largest input lag "
                f"{self.lags.max_input_lag}"
            )
        n = len(u)
        if t0 > n:
            raise ValueError("warmup longer than the input signal")
        us = self.scaling.scale_u(u)
        # Input lags lead the regressor row (LagSpec order) and do not depend
        # on fed-back outputs.
        head = self._fold_rows(_lagged(us, np.arange(t0, n), self.lags.input_lags),
                               np.ones((n - t0, 1)))
        out_lags = self.lags.output_lags
        cores = self.weights.cores[len(self.lags.input_lags):]
        # rows[t] is the basis row of the scaled output at sample t; only the
        # samples that some step reads get one.
        rows = np.zeros((n, self.basis.basis_count))
        first = t0 - self.lags.max_output_lag
        rows[first:t0] = basis_rows(self.basis, self.scaling.scale_y(y_warmup[first:]))
        read_until = n - min(out_lags, default=n)
        out = np.empty(n - t0)
        for t in range(t0, n):
            v = head[t - t0, None]
            for lag, core in zip(out_lags, cores):
                v = _fold_left(v, core, rows[t - lag, None])
            s = float(v[0, 0])
            out[t - t0] = s
            if t < read_until:
                if math.isnan(s):
                    raise ValueError(f"simulated output at sample {t} is NaN and would be "
                                     "fed back")
                # The evaluator clips s onto [0, 1], as every fed-back output is.
                j, values = _active_basis(self.basis, s)
                rows[t, j:j + len(values)] = values
        return self.scaling.unscale_y(out)

    def save(self, path) -> None:
        """Write the model as JSON; float values round-trip exactly."""
        doc = {
            "format_version": MODEL_FORMAT_VERSION,
            "degree": self.basis.degree,
            "knot_param": self.basis.knot_param,
            "input_lags": list(self.lags.input_lags),
            "output_lags": list(self.lags.output_lags),
            "scaling": {
                "u_min": self.scaling.u_min,
                "u_max": self.scaling.u_max,
                "y_min": self.scaling.y_min,
                "y_max": self.scaling.y_max,
            },
            "ranks": list(self.weights.ranks),
            "cores": [
                {
                    "shape": list(core.shape),
                    "values": [float(v) for v in core.reshape(-1, order="F")],
                }
                for core in self.weights.cores
            ],
        }
        Path(path).write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")

    @classmethod
    def load(cls, path) -> "TnbsModel":
        try:
            doc = json.loads(Path(path).read_text(encoding="utf-8"))
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise ValueError(f"{path}: not a valid model file: {exc}") from None
        if not isinstance(doc, dict) or doc.get("format_version") != MODEL_FORMAT_VERSION:
            raise ValueError(
                f"{path}: unsupported model format "
                f"(expected format_version {MODEL_FORMAT_VERSION})"
            )
        try:
            basis = make_basis(doc["degree"], doc["knot_param"])
            lags = LagSpec(tuple(doc["input_lags"]), tuple(doc["output_lags"]))
            sc = doc["scaling"]
            scaling = Scaling(sc["u_min"], sc["u_max"], sc["y_min"], sc["y_max"])
            cores = tuple(
                np.asarray(entry["values"], dtype=float).reshape(entry["shape"], order="F")
                for entry in doc["cores"]
            )
            for p, core in enumerate(cores):
                if not np.isfinite(core).all():
                    raise ValueError(f"core {p} holds non-finite values")
            weights = TensorTrain(cores)
            if doc["ranks"] != list(weights.ranks):
                raise ValueError(
                    f"ranks {doc['ranks']!r} do not match the cores' ranks {list(weights.ranks)}")
            return cls(basis=basis, lags=lags, weights=weights, scaling=scaling)
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"{path}: malformed model document: {exc}") from None
