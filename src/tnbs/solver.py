"""Regularized alternating linear scheme for fitting the weight train.

Each core update is a penalized linear least-squares problem: the design
matrix rows are Kronecker triples of the partial chain products around the
updated core, and the smoothness penalties (squared differences of adjacent
weights along every dimension) reduce to quadratic forms with the same
Kronecker structure. Sweeping keeps the train mixed-canonical at the updated
core via QR steps, which makes the local objective equal the global one and
the iteration monotone.

Each step has one implementation, run by the sweep: ``_kron_rows`` builds the
design rows from the chain folds ``tensor._fold_left``/``_fold_right``, and
``_add_penalties`` collapses the penalties onto the updated core from the
penalty Grams ``_gram_left``/``_gram_right``. The sweep carries both folds and
both Grams and refolds them at each QR shift (``tensor._qr_shift``), so every
chain product is computed once per sweep. ``_solve_core`` solves (an LU solve
of the normal equations, escalating to the minimal-norm least squares on the
design stacked over a square root of the penalty matrix). The public
``build_design_matrix``, ``build_penalty_matrix`` and ``update_core`` are thin
views over these kernels, so the checks on them exercise the fit's own path.
"""

from __future__ import annotations

import dataclasses
import os
import pickle
import sys
import warnings
from dataclasses import dataclass, field

import numpy as np

from .bspline import BasisConfig, basis_rows, out_of_domain_count
from .model import LagSpec, Scaling, TnbsModel, build_regressors, rmse, _as_signal
from .tensor import (
    TensorTrain, orthogonalize_to_site, _fold_left, _fold_right, _normalize_rank_caps, _qr_shift,
)


class NumericalError(RuntimeError):
    """Raised when a solve encounters non-finite values."""


@dataclass(frozen=True)
class FitConfig:
    """Hyperparameters of one ALS fit.

    ``ranks`` are the interior train ranks (a scalar broadcasts to every
    bond); ``lambdas`` weight the difference penalty per dimension (a scalar
    broadcasts). ``penalty_order`` is the difference order: 0 is plain ridge,
    1 penalizes adjacent-weight jumps, 2 curvature. ``epsilon`` stops the
    sweeps once the first-core objective stalls; ``max_sweeps`` is the hard cap.
    """

    ranks: int | tuple[int, ...] = 4
    penalty_order: int = 1
    lambdas: float | tuple[float, ...] = 0.0
    max_sweeps: int = 16
    epsilon: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if self.penalty_order < 0:
            raise ValueError("penalty order must be non-negative")
        if self.max_sweeps < 1:
            raise ValueError("need at least one sweep")
        if not self.epsilon >= 0:
            raise ValueError("stopping tolerance must be non-negative")

    def resolved_ranks(self, d: int) -> tuple[int, ...]:
        return tuple(_normalize_rank_caps(self.ranks, d))

    def resolved_lambdas(self, d: int) -> tuple[float, ...]:
        if np.isscalar(self.lambdas):
            lams = (float(self.lambdas),) * d
        else:
            lams = tuple(float(l) for l in self.lambdas)
            if len(lams) != d:
                raise ValueError(f"need {d} penalty weights, got {len(lams)}")
        if not all(0 <= l < np.inf for l in lams):
            raise ValueError("penalty weights must be finite and non-negative")
        return lams


@dataclass
class SweepTrace:
    """Objective values and diagnostics recorded while fitting.

    ``fallback_solves`` counts the core updates solved by the stacked least
    squares instead of the normal equations.
    """

    first_core_objectives: list[float] = field(default_factory=list)
    update_objectives: list[float] = field(default_factory=list)
    clipped_regressors: int = 0
    fallback_solves: int = 0
    sweeps_run: int = 0
    stopped_early: bool = False


def difference_matrix(k: int, alpha: int) -> np.ndarray:
    """(k - alpha) x k matrix taking alpha-th order adjacent differences."""
    if alpha < 0:
        raise ValueError("difference order must be non-negative")
    if alpha >= k:
        raise ValueError(f"difference order {alpha} needs more than {alpha} weights, got {k}")
    d = np.eye(k)
    for _ in range(alpha):
        d = d[:-1, :] - d[1:, :]
    return d


def dense_penalty(w: np.ndarray, d_mat: np.ndarray, axis: int) -> float:
    """Squared norm of the difference matrix applied along one tensor axis.

    Oracle path: materializes the differenced tensor, so small inputs only.
    """
    w = np.asarray(w, dtype=float)
    d_mat = np.asarray(d_mat, dtype=float)
    if not 0 <= axis < w.ndim:
        raise ValueError(f"axis {axis} out of range for tensor of order {w.ndim}")
    if d_mat.shape[1] != w.shape[axis]:
        raise ValueError(
            f"difference matrix has {d_mat.shape[1]} columns but axis {axis} "
            f"has extent {w.shape[axis]}"
        )
    diffed = np.tensordot(d_mat, w, axes=(1, axis))
    return float(np.sum(diffed * diffed))


def _kron_rows(right: np.ndarray, mid: np.ndarray, left: np.ndarray) -> np.ndarray:
    # Row n is right_n (x) mid_n (x) left_n, matching the column-major
    # vectorization of a core (left index fastest). The product order
    # (right * mid) * left is the einsum's, which the tests hold bitwise.
    n, a = left.shape
    cols = right.shape[1] * mid.shape[1]
    rm = (right[:, :, None] * mid[:, None, :]).reshape(n, cols)
    return (rm[:, :, None] * left[:, None, :]).reshape(n, cols * a)


def build_design_matrix(tt: TensorTrain, basis_mats, p: int) -> np.ndarray:
    """Design matrix for updating core p: one Kronecker-product row per sample.

    ``basis_mats`` lists one (n, k) basis-row matrix per dimension. The train
    must be canonical at p (that is what keeps the subproblem conditioned);
    the product of the matrix with the vectorized core p reproduces the model
    output on every sample.
    """
    if tt.canonical_site != p:
        raise ValueError(
            f"train is canonical at {tt.canonical_site}, core {p} cannot be updated"
        )
    if len(basis_mats) != tt.order:
        raise ValueError(f"need {tt.order} basis matrices, got {len(basis_mats)}")
    n = basis_mats[0].shape[0]
    left = np.ones((n, 1))
    for j in range(p):
        left = _fold_left(left, tt.cores[j], basis_mats[j])
    right = np.ones((n, 1))
    for j in range(tt.order - 1, p, -1):
        right = _fold_right(tt.cores[j], basis_mats[j], right)
    return _kron_rows(right, basis_mats[p], left)


def _psd_sqrt(m: np.ndarray) -> np.ndarray:
    w, v = np.linalg.eigh(m)
    return (v * np.sqrt(np.clip(w, 0.0, None))) @ v.T


def _gram_left(acc, core, d_mat, lam):
    """Carry the weighted left penalty Gram (r_{p-1} square) through core p.

    ``acc`` sums lambda_j times the chain Gram for every j < p, None while all
    those weights vanish; core p adds its own difference Gram when ``lam`` is
    positive.
    """
    if acc is not None:
        acc = np.einsum("ab,aic,bid->cd", acc, core, core)
    if lam > 0.0:
        mod = np.tensordot(d_mat, core, axes=(1, 1)).transpose(1, 0, 2)
        gram = lam * np.einsum("aic,aid->cd", mod, mod)
        acc = gram if acc is None else acc + gram
    return acc


def _gram_right(core, d_mat, lam, acc):
    """Mirror of ``_gram_left``: carry the right penalty Gram (r_p square) through core p."""
    if acc is not None:
        acc = np.einsum("aic,bid,cd->ab", core, core, acc)
    if lam > 0.0:
        mod = np.tensordot(d_mat, core, axes=(1, 1)).transpose(1, 0, 2)
        gram = lam * np.einsum("aic,bic->ab", mod, mod)
        acc = gram if acc is None else acc + gram
    return acc


def _accumulated_penalties(cores, d_mat, lambdas, p):
    """Weighted penalty Grams for all dimensions, collapsed onto core p.

    Returns (left, middle, right): ``left`` sums lambda_j times the chain
    Gram for j < p (an r_{p-1} square matrix, None if all weights vanish),
    ``middle`` is lambda_p, and ``right`` mirrors ``left`` for j > p. The
    sweep carries the same two Grams site by site instead.
    """
    left = None
    for q in range(p):
        left = _gram_left(left, cores[q], d_mat, lambdas[q])
    right = None
    for q in range(len(cores) - 1, p, -1):
        right = _gram_right(cores[q], d_mat, lambdas[q], right)
    return left, lambdas[p], right


def _add_penalties(h, left, lam_mid, right, d_mat, shape):
    """Add the collapsed penalty quadratic forms onto the normal matrix.

    Each term is a Kronecker product with identities on two of the three
    factors, i.e. a block structure that can be written directly instead of
    materializing the full matrix.
    """
    r_prev, k, r_next = shape
    if left is not None:
        h4 = h.reshape(r_next * k, r_prev, r_next * k, r_prev)
        idx = np.arange(r_next * k)
        h4[idx, :, idx, :] += left
    if lam_mid > 0.0:
        mid = np.kron(lam_mid * (d_mat.T @ d_mat), np.eye(r_prev))
        h4 = h.reshape(r_next, k * r_prev, r_next, k * r_prev)
        idx = np.arange(r_next)
        h4[idx, :, idx, :] += mid
    if right is not None:
        h4 = h.reshape(r_next, k * r_prev, r_next, k * r_prev)
        idx = np.arange(k * r_prev)
        h4[:, idx, :, idx] += right


def _penalty_value(g, left, lam_mid, right, d_mat, shape) -> float:
    """Quadratic form of the collapsed penalties at a vectorized core."""
    r_prev, k, r_next = shape
    g3 = g.reshape(r_next, k, r_prev)
    value = 0.0
    if left is not None:
        value += float(np.einsum("cia,ab,cib->", g3, left, g3))
    if lam_mid > 0.0:
        diffs = np.einsum("ij,cja->cia", d_mat, g3)
        value += lam_mid * float(np.sum(diffs * diffs))
    if right is not None:
        value += float(np.einsum("cia,cb,bia->", g3, right, g3))
    return value


def _penalty_root_blocks(left, lam_mid, right, d_mat, shape):
    """Stackable matrices whose squared norms reproduce the penalties.

    The square roots are taken of the small chain Grams and kept in Kronecker
    form. Roots of the full-size penalty matrix were measured less accurate:
    on fits with a per-dimension lambda vector their stacked solves ended up
    to 5% above the objective this form reaches.
    """
    r_prev, k, r_next = shape
    blocks = []
    if left is not None:
        blocks.append(np.kron(np.eye(r_next * k), _psd_sqrt(left)))
    if lam_mid > 0.0:
        blocks.append(np.sqrt(lam_mid) * np.kron(np.eye(r_next), np.kron(d_mat, np.eye(r_prev))))
    if right is not None:
        blocks.append(np.kron(_psd_sqrt(right), np.eye(k * r_prev)))
    return blocks


def build_penalty_matrix(tt: TensorTrain, d_mat: np.ndarray, p: int, j: int) -> np.ndarray:
    """Quadratic form on core p equal to the difference penalty along dimension j.

    With the train canonical at p, the factors left and right of the penalized
    dimension collapse to identities except for the Gram of the chain segment
    between j and p, so only one of the three Kronecker factors is non-trivial.
    This is the fit's own accumulation with a unit weight on dimension j only,
    written into a zero matrix.
    """
    d_mat = np.asarray(d_mat, dtype=float)
    if tt.canonical_site != p:
        raise ValueError(
            f"train is canonical at {tt.canonical_site}, penalty at core {p} undefined"
        )
    if not 0 <= j < tt.order:
        raise ValueError(f"dimension {j} out of range for order {tt.order}")
    if d_mat.shape[1] != tt.cores[j].shape[1]:
        raise ValueError(
            f"difference matrix has {d_mat.shape[1]} columns but dimension {j} "
            f"has extent {tt.cores[j].shape[1]}"
        )
    lambdas = [0.0] * tt.order
    lambdas[j] = 1.0
    om = np.zeros((tt.cores[p].size, tt.cores[p].size))
    _add_penalties(om, *_accumulated_penalties(tt.cores, d_mat, lambdas, p), d_mat,
                   tt.cores[p].shape)
    return om


def _solve_core(design, targets, penalize, root_blocks, penalty_value=None, bound=None):
    """Minimize ||targets - A g||^2 + ||R g||^2 for one vectorized core.

    ``design()`` returns A, ``penalize(h)`` adds R'R to the normal matrix A'A
    in place and ``root_blocks()`` lists the row blocks of R, a square root of
    the penalty matrix (none for a zero penalty). The fast route solves the
    normal equations with numpy's LU. The minimal-norm least squares on A
    stacked over R, accurate where the normal equations lose digits, takes
    over when that solve fails or is not finite, or when the objective
    ||targets - A g||^2 + ``penalty_value(g)`` of its solution exceeds
    ``bound``, which the sweep sets to the running objective plus the
    rounding of its sum of squares. Returns (g, objective(g) or None, whether
    the stacked route was taken).

    The stack holds a copy of A and lstsq copies the stack once more, so the
    normal matrix is dropped after the LU solve and A once the stack is
    built: where nothing else holds A (the sweep builds it in ``design``),
    the stacked route peaks at two copies of the stack, not two plus A and
    A'A.
    """
    a_mat = design()
    if not np.isfinite(a_mat).all() or not np.isfinite(targets).all():
        raise NumericalError("non-finite values in the least-squares subproblem")
    h = a_mat.T @ a_mat
    penalize(h)
    try:
        g = np.linalg.solve(h, a_mat.T @ targets)
    except np.linalg.LinAlgError:
        g = None
    del h

    def objective(rows, g):
        if penalty_value is None:
            return None
        resid = targets - rows @ g
        return float(resid @ resid) + penalty_value(g)

    if g is not None and np.isfinite(g).all():
        obj = objective(a_mat, g)
        if bound is None or obj <= bound:
            return g, obj, False
    n = len(targets)
    stacked = np.vstack([a_mat] + root_blocks())
    del a_mat
    rhs = np.concatenate([targets, np.zeros(stacked.shape[0] - n)])
    g = np.linalg.lstsq(stacked, rhs, rcond=None)[0]
    return g, objective(stacked[:n], g), True


def update_core(a_mat, targets, penalty_mats, lambdas) -> np.ndarray:
    """Solve the penalized normal equations for one vectorized core.

    Minimizes ||targets - A g||^2 + sum_j lambda_j g' Omega_j g with the
    fit's core solve: an LU solve of the normal equations, falling back to
    the minimal-norm least squares on A stacked over a square root of the
    penalty matrix only when LU meets an exactly singular pivot or returns
    non-finite values. A system that is singular only in exact arithmetic
    can pass LU and get another minimizer, not the minimal-norm one.
    """
    a_mat = np.asarray(a_mat, dtype=float)
    targets = np.asarray(targets, dtype=float)
    if a_mat.ndim != 2 or a_mat.shape[0] != len(targets):
        raise ValueError(
            f"design matrix rows ({a_mat.shape[0]}) must match targets ({len(targets)})"
        )
    if len(penalty_mats) != len(lambdas):
        raise ValueError("one penalty weight per penalty matrix is required")
    pen = None
    for om, lam in zip(penalty_mats, lambdas):
        if lam != 0.0:
            term = lam * np.asarray(om, dtype=float)
            pen = term if pen is None else pen + term
    roots = (lambda: []) if pen is None else (lambda: [_psd_sqrt(pen)])
    return _solve_core(lambda: a_mat, targets,
                       lambda h: None if pen is None else np.add(h, pen, out=h), roots)[0]


def als_fit(u, y, lags: LagSpec, basis: BasisConfig, cfg: FitConfig,
            scaling: Scaling | None = None):
    """Identify a TNBS-NARX model from signals by alternating core updates.

    Scaling defaults to min-max parameters fitted on the given (estimation)
    data; pass ``Scaling.identity()`` for data already in [0, 1]. Returns the
    fitted model and the sweep trace.
    """
    u = _as_signal(u, "u")
    y = _as_signal(y, "y")
    if scaling is None:
        scaling = Scaling.fit(u, y)
    x_rows, targets, _ = build_regressors(u, y, lags, scaling)
    return _fit_rows(x_rows, targets, lags, basis, cfg, scaling)


def _fit_rows(x_rows, targets, lags, basis, cfg, scaling):
    """ALS on prebuilt regressor rows (shared by als_fit and cross-validation)."""
    n, d = x_rows.shape
    if d != lags.dimension:
        raise ValueError(f"regressors have {d} columns, lag structure needs {lags.dimension}")
    k = basis.basis_count
    if cfg.penalty_order >= k:
        raise ValueError(
            f"penalty order {cfg.penalty_order} requires more than {cfg.penalty_order} "
            f"basis functions, got {k}"
        )
    if n < 1:
        raise ValueError("no training samples left after lagging")
    ranks = (1,) + cfg.resolved_ranks(d) + (1,)
    lambdas = cfg.resolved_lambdas(d)
    dmat = difference_matrix(k, cfg.penalty_order)

    rng = np.random.default_rng(cfg.seed)
    cores = [
        rng.standard_normal((ranks[p], k, ranks[p + 1])) / np.sqrt(ranks[p] * k)
        for p in range(d)
    ]
    cores = list(orthogonalize_to_site(TensorTrain(tuple(cores)), 0).cores)

    basis_mats = [basis_rows(basis, x_rows[:, p]) for p in range(d)]
    trace = SweepTrace()
    trace.clipped_regressors = out_of_domain_count(x_rows)

    # Chain products around the updated core, per sample (data folds) and
    # for the penalties (Grams); refolded on the side each QR shift moves.
    left, right = [None] * d, [None] * d
    lgram, rgram = [None] * d, [None] * d
    left[0] = np.ones((n, 1))
    right[d - 1] = np.ones((n, 1))

    def refold(p, step):
        if step > 0:
            left[p + 1] = _fold_left(left[p], cores[p], basis_mats[p])
            lgram[p + 1] = _gram_left(lgram[p], cores[p], dmat, lambdas[p])
        else:
            right[p - 1] = _fold_right(cores[p], basis_mats[p], right[p])
            rgram[p - 1] = _gram_right(cores[p], dmat, lambdas[p], rgram[p])

    for p in range(d - 1, 0, -1):
        refold(p, -1)

    def update(p):
        shape = cores[p].shape
        pens = lgram[p], lambdas[p], rgram[p]
        # The exact minimizer cannot raise the objective, so a fast solve that
        # does by more than the rounding of n squares is redone by the stacked
        # least squares.
        prev = trace.update_objectives[-1] if trace.update_objectives else None
        bound = None if prev is None else prev * (1.0 + n * np.finfo(float).eps)
        g, obj, used_stack = _solve_core(
            lambda: _kron_rows(right[p], basis_mats[p], left[p]), targets,
            lambda h: _add_penalties(h, *pens, dmat, shape),
            lambda: _penalty_root_blocks(*pens, dmat, shape),
            lambda g: _penalty_value(g, *pens, dmat, shape), bound)
        trace.fallback_solves += used_stack
        if prev is not None and obj > prev:
            # Coordinate descent may always reject a non-improving step; the
            # current core already attains the previous objective.
            obj = prev
        else:
            r1, _, r2 = shape
            cores[p] = g.reshape(r1, k, r2, order="F")
        trace.update_objectives.append(obj)

    # One sweep: left to right, then back; a single core is updated alone.
    schedule = [(p, 1) for p in range(d - 1)] + [(p, -1) for p in range(d - 1, 0, -1)]
    schedule = schedule or [(0, 0)]
    for sweep in range(1, cfg.max_sweeps + 1):
        for p, step in schedule:
            update(p)
            if step:
                _qr_shift(cores, p, step)
                refold(p, step)
        trace.first_core_objectives.append(trace.update_objectives[-len(schedule)])
        trace.sweeps_run = sweep
        js = trace.first_core_objectives
        if sweep >= 2 and abs(js[-2] - js[-1]) <= cfg.epsilon:
            trace.stopped_early = True
            break

    weights = TensorTrain(tuple(cores), canonical_site=0)
    model = TnbsModel(basis=basis, lags=lags, weights=weights, scaling=scaling)
    return model, trace


def cross_validate_lambda(u, y, lags, basis, cfg, lambda_grid, folds: int,
                          scaling: Scaling | None = None):
    """Pick the penalty weight by blocked cross-validation.

    The lagged sample range is split into ``folds`` contiguous blocks
    (time-series aware). Every grid value is scored by one-step prediction
    RMSE (original units) on each held-out block; the winner minimizes the
    mean, with ties going to the larger value. Returns (best_lambda, scores)
    where scores has shape (len(grid), folds).

    Every grid value and the ranks and penalty order are checked before any
    fit starts. The (grid value, fold) fits run in up to one worker process
    per usable CPU, each at one BLAS thread, so the scores do not depend on
    the caller's thread settings. The workers' warnings are issued and the
    first failing fit's exception is raised here, in (grid value, fold) order.
    """
    grid = [float(l) for l in lambda_grid]
    if not grid:
        raise ValueError("the lambda grid is empty")
    if folds < 2:
        raise ValueError("cross-validation needs at least 2 folds")
    cfgs = _grid_configs(cfg, grid, lags.dimension, basis.basis_count)
    u = _as_signal(u, "u")
    y = _as_signal(y, "y")
    if scaling is None:
        scaling = Scaling.fit(u, y)
    x_rows, targets, _ = build_regressors(u, y, lags, scaling)
    n = len(targets)
    if folds > n:
        raise ValueError(f"{folds} folds exceed the {n} available samples")
    blocks = np.array_split(np.arange(n), folds)
    jobs = [(li, fi) for li in range(len(grid)) for fi in range(folds)]
    results = _run_cv_jobs((x_rows, targets, blocks, lags, basis, cfgs, scaling), jobs)
    scores = np.empty((len(grid), folds))
    issued = set()
    for (li, fi), outcome, caught in results:
        for w in caught:
            if w not in issued:
                issued.add(w)
                category, message, filename, lineno = w
                warnings.warn_explicit(message, category, filename, lineno)
        if isinstance(outcome, Exception):
            raise outcome
        scores[li, fi] = outcome
    means = scores.mean(axis=1)
    best = 0
    for i in range(1, len(grid)):
        if means[i] < means[best] or (means[i] == means[best] and grid[i] > grid[best]):
            best = i
    return grid[best], scores


def _grid_configs(cfg, grid, d, k):
    """One FitConfig per grid value, checked as the fits would check them."""
    cfg.resolved_ranks(d)
    difference_matrix(k, cfg.penalty_order)
    cfgs = []
    for i, lam in enumerate(grid):
        cfg_lam = dataclasses.replace(cfg, lambdas=lam)
        try:
            cfg_lam.resolved_lambdas(d)
        except ValueError as exc:
            raise ValueError(f"lambda grid value {lam!r} at position {i}: {exc}") from None
        cfgs.append(cfg_lam)
    return cfgs


# Workers start at one BLAS thread each, so W workers share W cores without
# oversubscribing them.
_WORKER_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def _run_cv_jobs(inputs, jobs):
    """Run (grid index, fold) jobs in worker interpreters; results in job order.

    The jobs are dealt round-robin to min(#jobs, usable CPUs) fresh
    ``python -c`` interpreters that import this copy of tnbs. Each reads its
    share of ``inputs`` pickled on stdin and answers as ``_cv_worker`` says.
    multiprocessing is not used: spawn and forkserver re-import the caller's
    ``__main__``, which breaks unguarded scripts, and fork inherits its BLAS
    threads. Every worker is killed and reaped before returning.
    """
    import subprocess

    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    n_workers = min(len(jobs), cpus or 1)
    src = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = {**os.environ, **_WORKER_THREADS,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    procs = []
    try:
        for _ in range(n_workers):
            procs.append(subprocess.Popen(
                [sys.executable, "-c", "from tnbs.solver import _cv_worker; _cv_worker()"],
                stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=env))
        # A worker reads all of its input before it writes any output, and its
        # stderr is the caller's, so feeding the workers one after the other
        # cannot deadlock on a full pipe.
        for w, proc in enumerate(procs):
            try:
                proc.stdin.write(pickle.dumps((*inputs, jobs[w::n_workers])))
                proc.stdin.close()
            except BrokenPipeError:
                pass  # the worker is gone; its exit code is reported below
        results = []
        for proc in procs:
            out = proc.stdout.read()
            code = proc.wait()
            if code != 0 or not out:
                raise RuntimeError(
                    f"a cross-validation worker exited with code {code} without a result")
            results += pickle.loads(out)
    finally:
        for proc in procs:
            proc.kill()
            proc.wait()
            proc.stdout.close()
            try:
                proc.stdin.close()
            except BrokenPipeError:
                pass
    return sorted(results, key=lambda r: r[0])


def _cv_worker():
    """Entry point of a cross-validation worker interpreter.

    Reads (rows, targets, blocks, lags, basis, per-grid configs, scaling,
    jobs) pickled on stdin. For each (grid index, fold) job in turn it fits
    on the other blocks and scores the held-out one, recording every warning.
    Writes one (job, RMSE or exception, warnings) triple per job, up to and
    including the first that fails, pickled on stdout.
    """
    out = sys.stdout.buffer
    sys.stdout = sys.stderr  # stray prints must not corrupt the result
    x_rows, targets, blocks, lags, basis, cfgs, scaling, jobs = pickle.load(sys.stdin.buffer)
    results = []
    for li, fi in jobs:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                train_idx = np.concatenate([b for bi, b in enumerate(blocks) if bi != fi])
                model, _ = _fit_rows(x_rows[train_idx], targets[train_idx], lags, basis,
                                     cfgs[li], scaling)
                pred = scaling.unscale_y(model._surface_rows(x_rows[blocks[fi]]))
                outcome = rmse(scaling.unscale_y(targets[blocks[fi]]), pred)
            except Exception as exc:
                outcome = exc
        seen = dict.fromkeys((w.category, str(w.message), w.filename, w.lineno)
                             for w in caught)
        results.append(((li, fi), outcome, list(seen)))
        if isinstance(outcome, Exception):
            break
    out.write(pickle.dumps(results))
    out.flush()
