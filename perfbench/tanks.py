"""Tanks-shaped surrogate data for the benchmark.

The cascaded-tanks benchmark (two stacked water tanks, a pump voltage in and
the lower tank's water level out; 1024 estimation and 1024 validation samples
at 4 s) is the paper's real-data case. Its files are not in the repository and
cannot be downloaded where the benchmark runs, so this module simulates the
same physics instead: Torricelli (square-root) outflow from each tank, the
upper tank overflowing when full, a low-pass multisine pump signal, and
sensor noise. The fit then sees data of the same size, lag structure and
nonlinearity class as the real benchmark. Everything is drawn from one seed.
"""

from __future__ import annotations

import math

import numpy as np

SAMPLE_TIME_S = 4.0
SUBSTEPS = 20
LEVEL_MAX = 10.0
# Flow coefficients: upper outflow, lower inflow, lower outflow, pump gain.
# At u = 5 V the upper level settles near 6; a pump voltage above ~6.3 V
# fills the upper tank to LEVEL_MAX and it overflows, as in the real rig.
K_UP, K_IN, K_DOWN, K_PUMP = 0.045, 0.04, 0.05, 0.0225
# Overflow from the upper tank that still reaches the lower one.
OVERFLOW_SHARE = 0.3
INPUT_RANGE = (1.0, 9.0)
NOISE_STD = 0.02


def multisine(n: int, rng: np.random.Generator, components: int = 40) -> np.ndarray:
    """Random-phase multisine below 0.0144 Hz, scaled onto INPUT_RANGE."""
    t = np.arange(n) * SAMPLE_TIME_S
    freqs = np.linspace(0.0144 / components, 0.0144, components)
    phases = rng.uniform(0.0, 2.0 * np.pi, components)
    u = np.sin(2.0 * np.pi * freqs[:, None] * t[None, :] + phases[:, None]).sum(axis=0)
    lo, hi = INPUT_RANGE
    return lo + (hi - lo) * (u - u.min()) / (u.max() - u.min())


def simulate_tanks(u: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Measured lower-tank level, starting from the steady state of u[0]."""
    dt = SAMPLE_TIME_S / SUBSTEPS
    x1 = min((K_PUMP * u[0] / K_UP) ** 2, LEVEL_MAX)
    x2 = (K_IN * math.sqrt(x1) / K_DOWN) ** 2
    y = np.empty(len(u))
    for i, ui in enumerate(u):
        for _ in range(SUBSTEPS):
            x1 += dt * (K_PUMP * ui - K_UP * math.sqrt(x1))
            spill = max(x1 - LEVEL_MAX, 0.0)
            x1 -= spill
            x2 += dt * (K_IN * math.sqrt(x1) - K_DOWN * math.sqrt(x2)) + OVERFLOW_SHARE * spill
            x2 = min(max(x2, 0.0), LEVEL_MAX)
        y[i] = x2
    return y + rng.normal(0.0, NOISE_STD, len(u))


def make_tanks(seed: int, n_est: int = 600, n_test: int = 400):
    """Two independent experiments, as in the real benchmark.

    Returns (u_est, y_est, u_test, y_test); the same seed gives the same data.
    """
    rng = np.random.default_rng([seed, 0x7A4C])
    u_est = multisine(n_est, rng)
    y_est = simulate_tanks(u_est, rng)
    u_test = multisine(n_test, rng)
    y_test = simulate_tanks(u_test, rng)
    return u_est, y_est, u_test, y_test
