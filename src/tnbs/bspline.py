"""Uniform B-spline bases on the unit interval.

A basis of degree ``rho`` on the knot sequence t_0 <= ... <= t_m has
k = m - rho member functions. Knots are placed uniformly so that the natural
domain [t_rho, t_{m-rho}] — where the basis sums to one — is exactly [0, 1].
Evaluation uses the Cox-de Boor recursion.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True, eq=False)
class BasisConfig:
    """Degree, knot sequence t_0..t_m and derived basis size k = m - degree."""

    degree: int
    knot_param: int
    knots: np.ndarray

    @property
    def basis_count(self) -> int:
        return self.knot_param - self.degree


def _as_int(value, what: str) -> int:
    """``value`` as an int; a fractional, non-finite or non-numeric value is an error."""
    try:
        if int(value) == value:
            return int(value)
    except (TypeError, ValueError, OverflowError):
        pass
    raise ValueError(f"{what} must be an integer, got {value!r}")


def make_basis(degree: int, knot_param: int) -> BasisConfig:
    """Build the uniform basis whose natural domain is [0, 1].

    ``knot_param`` is m: the knot sequence has m + 1 knots, placed at
    t_i = (i - degree) / (m - 2*degree). Requires m > 2*degree so the natural
    domain does not collapse.
    """
    degree = _as_int(degree, "degree")
    knot_param = _as_int(knot_param, "knot parameter")
    if degree < 0:
        raise ValueError("degree must be non-negative")
    if knot_param <= 2 * degree:
        raise ValueError(
            f"knot parameter must exceed twice the degree: got m={knot_param}, degree={degree}"
        )
    i = np.arange(knot_param + 1, dtype=float)
    knots = (i - degree) / (knot_param - 2 * degree)
    return BasisConfig(degree=degree, knot_param=knot_param, knots=knots)


def basis_rows(cfg: BasisConfig, xs) -> np.ndarray:
    """Evaluate all k basis functions at each point; returns an (n, k) array.

    Points outside [0, 1] are clipped onto the natural domain. The value at
    x = 1 is the left limit: the final natural-domain interval is treated as
    closed so the partition of unity holds on the closed interval.
    """
    xs = np.asarray(xs, dtype=float)
    if xs.ndim != 1:
        raise ValueError("expected a one-dimensional array of evaluation points")
    if not np.all(np.isfinite(xs)):
        raise ValueError("evaluation points must be finite")
    k = cfg.basis_count
    if xs.size == 0:
        return np.zeros((0, k))
    t = cfg.knots
    m = cfg.knot_param
    rho = cfg.degree
    x = np.clip(xs, 0.0, 1.0)

    b = ((t[:-1] <= x[:, None]) & (x[:, None] < t[1:])).astype(float)
    at_end = x == 1.0
    if np.any(at_end):
        b[at_end] = 0.0
        b[at_end, m - rho - 1] = 1.0

    for q in range(1, rho + 1):
        span = t[q:] - t[:-q]  # t_{j+q} - t_j; positive for uniform knots
        with np.errstate(divide="ignore", invalid="ignore"):
            left = np.where(span[: m - q] > 0, (x[:, None] - t[: m - q]) / span[: m - q], 0.0)
            right = np.where(span[1 : m + 1 - q] > 0, (t[q + 1 :] - x[:, None]) / span[1 : m + 1 - q], 0.0)
        b = left * b[:, :-1] + right * b[:, 1:]
    return b


def eval_basis(cfg: BasisConfig, x: float) -> np.ndarray:
    """Basis vector [B_1(x), ..., B_k(x)] at a single point."""
    if not np.isfinite(x):
        raise ValueError("evaluation point must be finite")
    return basis_rows(cfg, np.asarray([x], dtype=float))[0]


def out_of_domain_count(xs) -> int:
    """How many points fall outside [0, 1] (and so get clipped on evaluation)."""
    xs = np.asarray(xs, dtype=float)
    return int(np.count_nonzero((xs < 0.0) | (xs > 1.0)))
