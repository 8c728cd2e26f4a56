"""Synthetic benchmark: a random system that the model class can represent
exactly, plus excitation, recursive data generation and calibrated noise."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bspline import _as_int, make_basis
from .model import LagSpec, Scaling, TnbsModel
from .tensor import DENSE_CAP, TensorTrain, tt_svd


@dataclass(frozen=True)
class SynthSpec:
    """Parameters of the synthetic system and its excitation."""

    input_lags: tuple[int, ...] = (1, 2, 3, 4)
    output_lags: tuple[int, ...] = (1, 2, 3, 4)
    degree: int = 2
    knot_param: int = 6
    ranks: int | tuple[int, ...] = 5
    w_min: float = -4.0
    w_max: float = 5.0
    n_samples: int = 3000
    smoothing_window: int = 5
    seed: int = 0

    def __post_init__(self):
        for name in ("n_samples", "smoothing_window", "seed"):
            object.__setattr__(self, name, _as_int(getattr(self, name), name))
        if self.smoothing_window < 1 or self.smoothing_window % 2 == 0:
            raise ValueError("smoothing window must be odd and at least 1")
        if self.n_samples < 1:
            raise ValueError("need at least one sample")
        if not (np.isfinite(self.w_min) and np.isfinite(self.w_max)):
            raise ValueError(
                f"weight levels must be finite, got w_min={self.w_min}, w_max={self.w_max}"
            )

    @property
    def lags(self) -> LagSpec:
        return LagSpec(self.input_lags, self.output_lags)


def generate_true_weights(spec: SynthSpec, rng=None) -> TensorTrain:
    """Random two-valued dense weight tensor, compressed to the target ranks."""
    rng = np.random.default_rng(spec.seed if rng is None else rng)
    basis = make_basis(spec.degree, spec.knot_param)
    k = basis.basis_count
    d = spec.lags.dimension
    if k**d > DENSE_CAP:
        raise ValueError(
            f"dense weight tensor of {k}^{d} elements exceeds the cap of {DENSE_CAP}"
        )
    dense = np.where(rng.random((k,) * d) < 0.5, spec.w_min, spec.w_max)
    return tt_svd(dense, max_ranks=spec.ranks)


def _gaussian_window(size: int) -> np.ndarray:
    center = (size - 1) / 2.0
    w = np.exp(-0.5 * (np.arange(size) - center) ** 2)
    return w / w.sum()


def generate_input(n: int, window: int = 5, seed=0) -> np.ndarray:
    """Uniform noise in [0, 1], low-pass filtered by a unit-sum Gaussian window.

    The window has sigma 1 (in samples) with symmetric edge padding, and the
    smoothed signal is clipped back onto [0, 1]. ``window=1`` leaves the
    sequence unsmoothed.
    """
    n = _as_int(n, "signal length")
    window = _as_int(window, "window")
    if window < 1 or window % 2 == 0:
        raise ValueError("window must be odd and at least 1")
    if n < window:
        raise ValueError(f"signal of length {n} is shorter than the window {window}")
    rng = np.random.default_rng(seed)
    u = rng.random(n)
    pad = window // 2
    padded = np.pad(u, pad, mode="symmetric")
    return np.clip(np.convolve(padded, _gaussian_window(window), mode="valid"), 0.0, 1.0)


def generate_output(true_model: TnbsModel, u, warmup_zeros: int) -> np.ndarray:
    """Run the system recursively from a zero warmup; returns the full signal.

    The warmup must cover the largest lag, as ``TnbsModel.simulate`` checks.
    """
    head = np.zeros(_as_int(warmup_zeros, "warmup_zeros"))
    return np.concatenate([head, true_model.simulate(u, head)])


def add_noise(y, snr_db: float, seed=0) -> np.ndarray:
    """Gaussian noise scaled to the requested SNR on mean-removed power.

    An SNR of +inf adds no noise; NaN and -inf name no noise level and are
    rejected.
    """
    y = np.asarray(y, dtype=float)
    if y.size == 0:
        raise ValueError("cannot add noise to an empty signal")
    if np.isnan(snr_db) or snr_db == -np.inf:
        raise ValueError(f"SNR must be a number of dB or +inf, got {snr_db}")
    if snr_db == np.inf:
        return y.copy()
    rng = np.random.default_rng(seed)
    power = float(np.mean((y - y.mean()) ** 2))
    variance = power / 10.0 ** (snr_db / 10.0)
    return y + rng.normal(0.0, np.sqrt(variance), size=y.size)


@dataclass(frozen=True, eq=False)
class SynthDataset:
    u_est: np.ndarray
    y_est: np.ndarray
    u_test: np.ndarray
    y_test: np.ndarray
    true_model: TnbsModel


def make_dataset(spec: SynthSpec, snr_db: float = np.inf,
                 n_estimation: int = 2000) -> SynthDataset:
    """Generate signals, split them, and add noise to the estimation outputs.

    Data lives directly in [0, 1] units (the model carries identity scaling),
    and the test portion stays noiseless. All randomness flows from the spec
    seed.
    """
    n_estimation = _as_int(n_estimation, "n_estimation")
    if not 0 < n_estimation < spec.n_samples:
        raise ValueError(
            f"estimation split {n_estimation} must lie inside the {spec.n_samples} samples"
        )
    rng = np.random.default_rng(spec.seed)
    weights = generate_true_weights(spec, rng)
    u = generate_input(spec.n_samples, spec.smoothing_window, rng)
    model = TnbsModel(
        basis=make_basis(spec.degree, spec.knot_param),
        lags=spec.lags,
        weights=weights,
        scaling=Scaling.identity(),
    )
    y = generate_output(model, u, spec.lags.start_index)
    y_est = add_noise(y[:n_estimation], snr_db, rng)
    return SynthDataset(
        u_est=u[:n_estimation],
        y_est=y_est,
        u_test=u[n_estimation:],
        y_test=y[n_estimation:],
        true_model=model,
    )
