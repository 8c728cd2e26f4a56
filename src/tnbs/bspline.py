"""Uniform B-spline bases on the unit interval.

A basis of degree ``rho`` on the knot sequence t_0 < ... < t_m has
k = m - rho member functions. Knots are placed uniformly so that the natural
domain [t_rho, t_{m-rho}] — where the basis sums to one — is exactly [0, 1].
Evaluation uses the Cox-de Boor recursion on tables that ``BasisConfig``
builds once from its knots: indicator bounds with the last natural interval
closed, and per degree step the knot and span slices. A config accepts only
finite, strictly increasing knots, so no span is zero and the recursion needs
no zero-span guards.

The recursion has two evaluators. ``basis_rows`` runs it on whole arrays of
points, which is what fitting and prediction need. ``eval_basis`` runs it at
one point over the rho + 1 functions that are non-zero there, in plain float
arithmetic, which is what a free-run step needs: there a numpy call per step
would cost more than the arithmetic it does. Both apply the same formulas to
the same tables and agree bit for bit; every other entry of a row is +0.0.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True, eq=False)
class BasisConfig:
    """Degree, knot sequence t_0..t_m and derived basis size k = m - degree.

    The knots must be m + 1 finite, strictly increasing values with
    t_degree = 0 and t_{m-degree} = 1, the domain the evaluator clips to. The
    evaluation tables are derived from them on construction: ``lo``/``hi``
    bound the degree-0 indicators, and ``steps`` holds, per degree q, the
    slices (t_j, t_{j+q} - t_j, t_{j+q+1}, t_{j+q+1} - t_{j+1}) that the
    Cox-de Boor step q uses. ``point_lo`` and ``point_steps`` hold the same
    tables as tuples of Python floats for the per-point evaluator.
    """

    degree: int
    knot_param: int
    knots: np.ndarray
    lo: np.ndarray = field(init=False, repr=False)
    hi: np.ndarray = field(init=False, repr=False)
    steps: tuple = field(init=False, repr=False)
    point_lo: tuple = field(init=False, repr=False)
    point_steps: tuple = field(init=False, repr=False)

    def __post_init__(self):
        t = np.asarray(self.knots, dtype=float)
        m, rho = self.knot_param, self.degree
        if not 0 <= rho < m - rho:
            raise ValueError(f"degree {rho} needs a knot parameter above {2 * rho}, got {m}")
        if t.shape != (m + 1,):
            raise ValueError(f"need {m + 1} knots for knot parameter {m}, got shape {t.shape}")
        bad = np.flatnonzero(~np.isfinite(t))
        if bad.size:
            raise ValueError(f"knot {bad[0]} is not finite: {t[bad[0]]:g}")
        bad = np.flatnonzero(np.diff(t) <= 0)
        if bad.size:
            j = bad[0] + 1
            raise ValueError(f"knots must be strictly increasing: knot {j} ({t[j]:g}) "
                             f"does not exceed knot {j - 1} ({t[j - 1]:g})")
        if t[rho] != 0.0 or t[m - rho] != 1.0:
            raise ValueError(f"knots {rho} and {m - rho} must bound the natural domain "
                             f"[0, 1], got [{t[rho]:g}, {t[m - rho]:g}]")
        # The natural domain ends at t_{m-rho} = 1: its last interval is
        # closed on the right and no interval starts at or beyond it, so x = 1
        # falls in interval m - rho - 1 alone (the left limit).
        lo, hi = t[:-1].copy(), t[1:].copy()
        lo[m - rho:] = np.inf
        hi[m - rho - 1] = np.inf
        steps = []
        for q in range(1, rho + 1):
            span = t[q:] - t[:-q]
            steps.append((t[: m - q], span[: m - q], t[q + 1:], span[1: m + 1 - q]))
        object.__setattr__(self, "knots", t)
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)
        object.__setattr__(self, "steps", tuple(steps))
        object.__setattr__(self, "point_lo", tuple(lo.tolist()))
        object.__setattr__(self, "point_steps",
                           tuple(tuple(tuple(a.tolist()) for a in step) for step in steps))

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
    i = bisect_right(cfg.point_lo, x) - 1
    b = [1.0]
    for q, (t_left, span_left, t_right, span_right) in enumerate(cfg.point_steps, 1):
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
