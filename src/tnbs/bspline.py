"""Uniform B-spline bases on the unit interval.

A basis of degree ``rho`` and knot parameter m > 2*rho has the m + 1 uniform
knots t_i = (i - rho) / (m - 2*rho) and k = m - rho member functions. The
natural domain [t_rho, t_{m-rho}], where the basis sums to one, is exactly
[0, 1]. Evaluation uses the Cox-de Boor recursion on one set of tables that
``BasisConfig`` builds once from its knots, as tuples of Python floats:
indicator bounds with the last natural interval closed, and per degree step
the knot and span slices. The knots are uniform, so no span is zero and the
recursion needs no zero-span guards.

The recursion has two evaluators on those tables. ``basis_rows`` broadcasts
them against whole arrays of points, which is what fitting and prediction
need. ``eval_basis`` indexes them at one point over the rho + 1 functions
that are non-zero there, in plain float arithmetic, which is what a free-run
step needs: there a numpy call per step would cost more than the arithmetic
it does. Both apply the same formulas to the same values and agree bit for
bit; every other entry of a row is +0.0.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True, eq=False)
class BasisConfig:
    """The uniform basis of a degree and knot parameter m, with k = m - degree functions.

    The degree and m are integers with 0 <= degree and m > 2*degree, so the
    natural domain does not collapse. Everything else is derived on
    construction: the knots t_i = (i - degree) / (m - 2*degree), i = 0..m,
    which put the natural domain [t_degree, t_{m-degree}] at [0, 1], the
    domain the evaluator clips to, and the evaluation tables, tuples of
    Python floats. ``lo``/``hi`` bound the degree-0 indicators, and ``steps``
    holds, per degree q, the slices (t_j, t_{j+q} - t_j, t_{j+q+1},
    t_{j+q+1} - t_{j+1}) that the Cox-de Boor step q uses.
    """

    degree: int
    knot_param: int
    knots: np.ndarray = field(init=False, repr=False)
    lo: tuple = field(init=False, repr=False)
    hi: tuple = field(init=False, repr=False)
    steps: tuple = field(init=False, repr=False)

    def __post_init__(self):
        rho = _as_int(self.degree, "degree")
        m = _as_int(self.knot_param, "knot parameter")
        if rho < 0:
            raise ValueError(f"degree must be non-negative, got {rho}")
        if m <= 2 * rho:
            raise ValueError(f"degree {rho} needs a knot parameter above {2 * rho}, got {m}")
        t = (np.arange(m + 1, dtype=float) - rho) / (m - 2 * rho)
        # The natural domain ends at t_{m-rho} = 1: its last interval is
        # closed on the right and no interval starts at or beyond it, so x = 1
        # falls in interval m - rho - 1 alone (the left limit).
        lo, hi = t[:-1].copy(), t[1:].copy()
        lo[m - rho:] = np.inf
        hi[m - rho - 1] = np.inf
        steps = []
        for q in range(1, rho + 1):
            span = t[q:] - t[:-q]
            steps.append(tuple(tuple(a.tolist()) for a in
                               (t[: m - q], span[: m - q], t[q + 1:], span[1: m + 1 - q])))
        object.__setattr__(self, "degree", rho)
        object.__setattr__(self, "knot_param", m)
        object.__setattr__(self, "knots", t)
        object.__setattr__(self, "lo", tuple(lo.tolist()))
        object.__setattr__(self, "hi", tuple(hi.tolist()))
        object.__setattr__(self, "steps", tuple(steps))

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
    """The uniform basis of this degree and knot parameter; see ``BasisConfig``."""
    return BasisConfig(degree, knot_param)


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
    x = np.clip(xs, 0.0, 1.0)[:, None]
    b = ((cfg.lo <= x) & (x < cfg.hi)).astype(float)
    for t_left, span_left, t_right, span_right in cfg.steps:
        b = (x - t_left) / span_left * b[:, :-1] + (t_right - x) / span_right * b[:, 1:]
    return b


def _active_basis(cfg: BasisConfig, x: float) -> tuple[int, list]:
    """The rho + 1 basis values that can be non-zero at a point x that is not NaN.

    Returns (j, values) with values[i] = B_{j+i}(x), bitwise as ``basis_rows``
    computes them. The point is clipped onto [0, 1] as ``np.clip`` clips it,
    signed zeros and infinities included. Its degree-0 interval i comes from
    the same closed-right bounds ``lo``. Step q then updates the functions
    i - q..i only; the ones outside that window stay +0.0 in ``basis_rows``
    and enter as 0.0 here.
    """
    x = min(max(x, 0.0), 1.0)
    i = bisect_right(cfg.lo, x) - 1
    b = [1.0]
    for q, (t_left, span_left, t_right, span_right) in enumerate(cfg.steps, 1):
        b = [0.0, *b, 0.0]
        j0 = i - q
        b = [(x - t_left[j]) / span_left[j] * b[j - j0]
             + (t_right[j] - x) / span_right[j] * b[j - j0 + 1] for j in range(j0, i + 1)]
    return i - cfg.degree, b


def eval_basis(cfg: BasisConfig, x: float) -> np.ndarray:
    """Basis vector [B_1(x), ..., B_k(x)] at a single point.

    The per-point form of ``basis_rows``: the recursion runs over the
    rho + 1 functions that are non-zero at x, and the row equals
    ``basis_rows(cfg, [x])[0]`` bit for bit. Free-run simulation evaluates
    each fed-back output this way.
    """
    x = float(x)
    if not math.isfinite(x):
        raise ValueError("evaluation point must be finite")
    j, values = _active_basis(cfg, x)
    row = np.zeros(cfg.basis_count)
    row[j:j + len(values)] = values
    return row


def out_of_domain_count(xs) -> int:
    """How many points fall outside [0, 1] (and so get clipped on evaluation)."""
    xs = np.asarray(xs, dtype=float)
    return int(np.count_nonzero((xs < 0.0) | (xs > 1.0)))
