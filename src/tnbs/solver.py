"""Regularized alternating linear scheme for fitting the weight train.

Each core update is a penalized linear least-squares problem: the design
matrix rows are Kronecker triples of the partial chain products around the
updated core, and the smoothness penalties (squared differences of adjacent
weights along every dimension) reduce to quadratic forms with the same
Kronecker structure. Sweeping keeps the train mixed-canonical at the updated
core via QR steps, which makes the local objective equal the global one and
the iteration monotone in exact arithmetic.

Each core update runs five steps in order: ``_kron_rows`` builds the design
rows A, A'A is formed, ``_add_penalties`` adds the collapsed penalty matrix P
onto it, ``_solve_core`` solves (A'A + P + tau I) g = A'y with the ridge
floor tau = ``_RIDGE``, and g replaces the core, its objective (misfit,
penalty and tau ||g||^2) recorded.
The design rows come from the chain fold ``tensor._fold_left`` and the
penalties from the penalty Gram ``_gram_left``. Both chains are walked by
``tensor._walk``, which runs a kernel on the cores left of the updated core
and on the flipped cores right of it, and refolds one product at each QR
shift (``tensor._qr_shift``), so every chain product is computed once per
sweep and dropped once a shift passes it: each walk holds the d + 1 products
around the updated core. The Gram walk starts from a 1 x 1 zero, so a
vanishing weight adds exact zeros and no term is ever absent. The design
rows are built with the sample index innermost, so every product broadcasts
over the n samples, and come out in Fortran order; ``update_core`` takes an
outside design in that order too, so the fit and it hand BLAS one layout.
The sweep writes every design and normal matrix into one workspace per fit,
sized for its widest core, since arrays of that size allocated per update
are handed back to the OS when freed and paged in again at the next update.
The public ``build_design_matrix``, ``build_penalty_matrix`` and
``update_core`` are thin views over these kernels, the first two over the
sweep's two walks started at the site asked for, so the checks on them
exercise the fit's own path.
"""

from __future__ import annotations

import dataclasses
import os
import pickle
import sys
import warnings
from dataclasses import dataclass, field

import numpy as np

from .bspline import BasisConfig, _as_int, basis_rows, out_of_domain_count
from .model import LagSpec, Scaling, TnbsModel, build_regressors, rmse
from .tensor import (
    TensorTrain, orthogonalize_to_site, _fold_left, _normalize_rank_caps, _qr_shift, _walk,
)


class NumericalError(RuntimeError):
    """Raised when a solve encounters non-finite values or a singular system."""


# Ridge floor on the diagonal of every core's normal matrix: tau in the term
# tau * ||g||^2, a weight like the penalty weights and absolute on the
# [0, 1]-scaled problem. It must clear the rounding of the normal matrix,
# about eps * n ~ 4e-13 at the README's 1996 rows, or that rounding decides
# unpenalized fits and their cores grow without limit (1e-14 lets a README fit
# diverge); 1e-6 already biases exact recovery past criterion 4's 1e-3.
_RIDGE = 1e-10


@dataclass(frozen=True)
class FitConfig:
    """Hyperparameters of one ALS fit.

    ``ranks`` are the interior train ranks (a scalar broadcasts to every
    bond; one above its unfolding bound min(k^p, k^(d-p)) is swept at the
    bound and returned zero-padded). ``lambdas`` weight the difference
    penalty per dimension (a scalar broadcasts) and per fibre: dimension j's
    term sums over the k^(d-1) fibres of the weight tensor along j, so the fit
    divides lambda_j by k^(d-1), the P-spline scale. The misfit sums over rows,
    so a cross-validation fold weights the same lambda against (F-1)/F of them,
    1.5 times as strongly at F = 3. ``penalty_order`` is the
    difference order: 0 is plain ridge, 1 penalizes adjacent-weight jumps, 2
    curvature. ``epsilon`` stops the sweeps once the first-core objective
    stalls; ``max_sweeps`` is the hard cap.
    """

    ranks: int | tuple[int, ...] = 4
    penalty_order: int = 1
    lambdas: float | tuple[float, ...] = 0.0
    max_sweeps: int = 16
    epsilon: float = 0.0
    seed: int = 0

    def __post_init__(self):
        for name in ("penalty_order", "max_sweeps", "seed"):
            object.__setattr__(self, name, _as_int(getattr(self, name), name))
        if self.penalty_order < 0:
            raise ValueError("penalty order must be non-negative")
        if self.max_sweeps < 1:
            raise ValueError("need at least one sweep")
        if not self.epsilon >= 0:
            raise ValueError("stopping tolerance must be non-negative")

    def resolved_ranks(self, d: int) -> tuple[int, ...]:
        return tuple(_normalize_rank_caps(self.ranks, d))

    def resolved_lambdas(self, d: int, k: int) -> tuple[float, ...]:
        if np.ndim(self.lambdas) == 0:
            lams = (float(self.lambdas),) * d
        else:
            lams = tuple(float(l) for l in self.lambdas)
            if len(lams) != d:
                raise ValueError(f"need {d} penalty weights, got {len(lams)}")
        if not all(0 <= l < np.inf for l in lams):
            raise ValueError("penalty weights must be finite and non-negative")
        return tuple(l / k ** (d - 1) for l in lams)


@dataclass
class SweepTrace:
    """Objective values and diagnostics recorded while fitting.

    Each objective counts the data misfit, the weighted penalties and the
    ridge floor ``_RIDGE`` times the train's squared norm. Every update keeps
    its exact solve, so the records never rise in exact arithmetic; computed,
    they may rise by rounding.
    """

    first_core_objectives: list[float] = field(default_factory=list)
    update_objectives: list[float] = field(default_factory=list)
    clipped_regressors: int = 0
    sweeps_run: int = 0
    stopped_early: bool = False


def difference_matrix(k: int, alpha: int) -> np.ndarray:
    """(k - alpha) x k matrix taking alpha-th order adjacent differences."""
    k = _as_int(k, "weight count k")
    alpha = _as_int(alpha, "difference order alpha")
    if alpha < 0:
        raise ValueError("difference order must be non-negative")
    if alpha >= k:
        raise ValueError(f"difference order {alpha} needs more than {alpha} weights, got {k}")
    return np.diff((-1.0) ** alpha * np.eye(k), alpha, axis=0)


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


def _kron_rows(right: np.ndarray, mid: np.ndarray, left: np.ndarray,
               out: np.ndarray | None = None) -> np.ndarray:
    """Design rows: row n is right_n (x) mid_n (x) left_n.

    The column order matches the column-major vectorization of a core (left
    index fastest), and the product order (right * mid) * left is the
    einsum's, which the tests hold bitwise. The products are formed on
    contiguous (factor, sample) copies with the sample index innermost, so
    each broadcast runs over n samples rather than over the r or k entries of
    one factor; the (n, C) result is the transpose view of the (C, n) array,
    and so Fortran-ordered. That (C, n) array is ``out`` when given (a
    C-contiguous buffer the caller reuses), else a fresh one.
    """
    n = left.shape[0]
    cols = right.shape[1] * mid.shape[1]
    rt, mt, lt = (np.ascontiguousarray(f.T) for f in (right, mid, left))
    rm = (rt[:, None, :] * mt[None, :, :]).reshape(cols, n)
    if out is None:
        out = np.empty((cols * left.shape[1], n))
    np.multiply(rm[:, None, :], lt[None, :, :], out=out.reshape(cols, left.shape[1], n))
    return out.T


def _fold_walk(cores, basis_mats, site):
    """Per-sample chain products (n, r) around ``site``: ``tensor._walk`` of ``_fold_left``."""
    return _walk(lambda v, core, p: _fold_left(v, core, basis_mats[p]),
                 np.ones((len(basis_mats[0]), 1)), cores, site)


def _gram_walk(cores, d_mat, lambdas, site):
    """Weighted penalty Grams (r x r) around ``site``: ``tensor._walk`` of ``_gram_left``."""
    return _walk(lambda acc, core, p: _gram_left(acc, core, d_mat, lambdas[p]),
                 np.zeros((1, 1)), cores, site)


def build_design_matrix(tt: TensorTrain, basis_mats, p: int) -> np.ndarray:
    """Design matrix for updating core p: one Kronecker-product row per sample.

    ``basis_mats`` lists one (n, k) basis-row matrix per dimension. The train
    must be canonical at p (that is what keeps the subproblem conditioned);
    the product of the matrix with the vectorized core p reproduces the model
    output on every sample. The rows are the sweep's, from its fold walk.
    """
    if tt.canonical_site != p:
        raise ValueError(
            f"train is canonical at {tt.canonical_site}, core {p} cannot be updated"
        )
    if len(basis_mats) != tt.order:
        raise ValueError(f"need {tt.order} basis matrices, got {len(basis_mats)}")
    left, right, _ = _fold_walk(tt.cores, basis_mats, p)
    return _kron_rows(right[p], basis_mats[p], left[p])


def _gram_left(acc, core, d_mat, lam):
    """Carry the weighted left penalty Gram (r_{p-1} square) through core p.

    ``acc`` sums lambda_j times the chain Gram for every j < p; the walk
    starts it as a 1 x 1 zero, so a vanishing weight adds exact zeros and
    needs no branch. Core p adds its own difference Gram weighted by ``lam``.
    On flipped cores it carries the right Gram (r_p square) instead.
    """
    acc = np.einsum("ab,aic,bid->cd", acc, core, core)
    mod = np.tensordot(d_mat, core, axes=(1, 1)).transpose(1, 0, 2)
    return acc + lam * np.einsum("aic,aid->cd", mod, mod)


def _add_penalties(h, left, lam_mid, right, d_mat, shape):
    """Add the collapsed penalty quadratic forms onto the normal matrix.

    Each term is a Kronecker product with identities on two of the three core
    axes, so it is added onto the matching diagonal view of the
    (r_p, k, r_{p-1}, r_p, k, r_{p-1}) reshape of ``h`` instead of
    materializing the full matrix.
    """
    mid = lam_mid * (d_mat.T @ d_mat)
    for spec, term in zip(("ciacib->ciab", "ciacja->caij", "ciadia->iacd"), (left, mid, right)):
        view = np.einsum(spec, h.reshape(shape[::-1] * 2))
        view += term


def _penalty_value(g, left, lam_mid, right, d_mat, shape) -> float:
    """Quadratic form of the collapsed penalties at a vectorized core."""
    r_prev, k, r_next = shape
    g3 = g.reshape(r_next, k, r_prev)
    diffs = np.einsum("ij,cja->cia", d_mat, g3)
    return (float(np.einsum("cia,ab,cib->", g3, left, g3))
            + lam_mid * float(np.sum(diffs * diffs))
            + float(np.einsum("cia,cb,bia->", g3, right, g3)))


def build_penalty_matrix(tt: TensorTrain, d_mat: np.ndarray, p: int, j: int) -> np.ndarray:
    """Quadratic form on core p equal to the difference penalty along dimension j.

    With the train canonical at p, the factors left and right of the penalized
    dimension collapse to identities except for the Gram of the chain segment
    between j and p, so only one of the three Kronecker factors is non-trivial.
    This is the sweep's Gram walk with a unit weight on dimension j only,
    added into a zero matrix by the sweep's ``_add_penalties``.
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
    left, right, _ = _gram_walk(tt.cores, d_mat, lambdas, p)
    om = np.zeros((tt.cores[p].size, tt.cores[p].size))
    _add_penalties(om, left[p], lambdas[p], right[p], d_mat, tt.cores[p].shape)
    return om


def _solve_core(h, rhs):
    """Solve (H + tau I) g = rhs for one vectorized core; tau goes onto H in place.

    H is the penalized normal matrix A'A + P and rhs is A'y. The ridge floor
    tau = ``_RIDGE`` on the diagonal makes the one LU solve meet a positive
    definite system even where P vanishes and A is rank deficient (lambda = 0,
    dead design columns). That is Tikhonov regularization: where A'A + P is
    singular, the solution tends to the minimal-norm minimizer as tau goes to
    0. A failed or non-finite solve raises ``NumericalError``; there is no
    second route.
    """
    h.flat[::len(h) + 1] += _RIDGE
    try:
        g = np.linalg.solve(h, rhs)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"core solve failed: {exc}") from None
    if not np.isfinite(g).all():
        raise NumericalError("non-finite core solve")
    return g


def update_core(a_mat, targets, penalty_mats, lambdas) -> np.ndarray:
    """Solve the penalized normal equations for one vectorized core.

    Minimizes ||targets - A g||^2 + sum_j lambda_j g' Omega_j g + tau ||g||^2
    with the fit's core solve: one LU solve of the normal equations with the
    ridge floor tau = ``_RIDGE`` on their diagonal. On a system that is
    singular without the floor this is close to the minimal-norm minimizer,
    the limit of the floored solution as the floor vanishes. The design is
    taken in Fortran order, the layout of the sweep's design rows, so its
    memory order cannot change the numbers.
    """
    a_mat = np.asfortranarray(a_mat, dtype=float)
    targets = np.asarray(targets, dtype=float)
    if a_mat.ndim != 2:
        raise ValueError(f"design matrix must be two-dimensional, got shape {a_mat.shape}")
    if targets.ndim != 1:
        raise ValueError(f"targets must be one-dimensional, got shape {targets.shape}")
    if a_mat.shape[0] != len(targets):
        raise ValueError(
            f"design matrix rows ({a_mat.shape[0]}) must match targets ({len(targets)})"
        )
    if len(penalty_mats) != len(lambdas):
        raise ValueError("one penalty weight per penalty matrix is required")
    if not np.isfinite(a_mat).all() or not np.isfinite(targets).all():
        raise NumericalError("non-finite values in the least-squares subproblem")
    h = a_mat.T @ a_mat
    for om, lam in zip(penalty_mats, lambdas):
        h += lam * np.asarray(om, dtype=float)
    return _solve_core(h, a_mat.T @ targets)


def als_fit(u, y, lags: LagSpec, basis: BasisConfig, cfg: FitConfig,
            scaling: Scaling | None = None):
    """Identify a TNBS-NARX model from signals by alternating core updates.

    Scaling defaults to min-max parameters fitted on the given (estimation)
    data; pass ``Scaling.identity()`` for data already in [0, 1]. Ranks the
    unfoldings cannot carry are swept at their bound and the returned weights
    zero-padded to them. Returns the fitted model and the sweep trace.
    """
    if scaling is None:
        scaling = Scaling.fit(u, y)
    x_rows, targets, _ = build_regressors(u, y, lags, scaling)
    return _fit_rows(x_rows, targets, lags, basis, cfg, scaling)


def _fit_rows(x_rows, targets, lags, basis, cfg, scaling):
    """ALS on prebuilt regressor rows (shared by als_fit and cross-validation)."""
    n, d = x_rows.shape
    k = basis.basis_count
    dmat = difference_matrix(k, cfg.penalty_order)
    ranks = (1,) + cfg.resolved_ranks(d) + (1,)
    lambdas = cfg.resolved_lambdas(d, k)

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
    # for the penalties (Grams); refolded on the side each QR shift moves,
    # and dropped on the side it leaves.
    left, right, refold_folds = _fold_walk(cores, basis_mats, 0)
    lgram, rgram, refold_grams = _gram_walk(cores, dmat, lambdas, 0)

    # Every update writes its design rows and normal matrix into views of one
    # workspace, sized for the widest core: bonds only shrink during the sweep.
    widest = max(c.size for c in cores)
    a_buf, h_buf = np.empty(widest * n), np.empty(widest * widest)

    def update(p):
        r1, _, r2 = shape = cores[p].shape
        size = cores[p].size
        pens = lgram[p], lambdas[p], rgram[p], dmat, shape
        a_mat = _kron_rows(right[p], basis_mats[p], left[p], a_buf[:size * n].reshape(size, n))
        h = np.matmul(a_mat.T, a_mat, out=h_buf[:size * size].reshape(size, size))
        _add_penalties(h, *pens)
        g = _solve_core(h, a_mat.T @ targets)
        resid = targets - a_mat @ g
        cores[p] = g.reshape(r1, k, r2, order="F")
        trace.update_objectives.append(
            float(resid @ resid) + _penalty_value(g, *pens) + _RIDGE * float(g @ g))

    # One sweep: left to right, then back; a single core is updated alone.
    schedule = [(p, 1) for p in range(d - 1)] + [(p, -1) for p in range(d - 1, 0, -1)]
    schedule = schedule or [(0, 0)]
    for sweep in range(1, cfg.max_sweeps + 1):
        for p, step in schedule:
            update(p)
            if step:
                _qr_shift(cores, p, step)
                refold_folds(p, step)
                refold_grams(p, step)
        trace.first_core_objectives.append(trace.update_objectives[-len(schedule)])
        trace.sweeps_run = sweep
        js = trace.first_core_objectives
        if sweep >= 2 and abs(js[-2] - js[-1]) <= cfg.epsilon:
            trace.stopped_early = sweep < cfg.max_sweeps
            break

    # Bonds swept at their unfolding bound are zero-padded to the requested ranks.
    pads = [((0, ranks[p] - c.shape[0]), (0, 0), (0, ranks[p + 1] - c.shape[2]))
            for p, c in enumerate(cores)]
    weights = TensorTrain(tuple(map(np.pad, cores, pads)), canonical_site=0)
    model = TnbsModel(basis=basis, lags=lags, weights=weights, scaling=scaling)
    return model, trace


def cross_validate_lambda(u, y, lags, basis, cfg, lambda_grid, folds: int,
                          scaling: Scaling | None = None):
    """Pick the penalty weight by blocked cross-validation.

    The lagged sample range is split into ``folds`` contiguous blocks
    (time-series aware). Every grid value is scored by one-step prediction
    RMSE (original units) on each held-out block; the winner minimizes the
    mean, with a NaN or infinite mean ranked as +inf and ties going to the
    larger value. Returns (best_lambda, scores) where scores has shape
    (len(grid), folds).

    Every grid value and the ranks and penalty order are checked before any
    fit starts. The (grid value, fold) fits run in up to one worker process
    per usable CPU, each at one BLAS thread, so the scores do not depend on
    the caller's thread settings. Each worker is sent the rows, the blocks,
    the one ``cfg`` and the whole grid once, and sets the lambdas of a job
    itself. The workers' warnings are issued and the first failing fit's
    exception is raised here, in (grid value, fold) order; a worker that dies
    without a result raises RuntimeError.
    """
    grid = [float(l) for l in lambda_grid]
    if not grid:
        raise ValueError("the lambda grid is empty")
    folds = _as_int(folds, "folds")
    if folds < 2:
        raise ValueError("cross-validation needs at least 2 folds")
    _check_grid(cfg, grid, lags.dimension, basis.basis_count)
    if scaling is None:
        scaling = Scaling.fit(u, y)
    x_rows, targets, _ = build_regressors(u, y, lags, scaling)
    n = len(targets)
    if folds > n:
        raise ValueError(f"{folds} folds exceed the {n} available samples")
    blocks = np.array_split(np.arange(n), folds)
    jobs = [(li, fi) for li in range(len(grid)) for fi in range(folds)]
    results = _run_cv_jobs((x_rows, targets, blocks, lags, basis, cfg, grid, scaling), jobs)
    failed = next((i for i, r in enumerate(results) if isinstance(r[1], Exception)), len(results))
    for category, message, filename, lineno in dict.fromkeys(
            w for _, _, caught in results[:failed + 1] for w in caught):
        warnings.warn_explicit(message, category, filename, lineno)
    if failed < len(results):
        raise results[failed][1]
    scores = np.array([outcome for _, outcome, _ in results]).reshape(len(grid), folds)
    means = np.nan_to_num(scores.mean(axis=1), nan=np.inf, posinf=np.inf)
    best = max(range(len(grid)), key=lambda i: (-means[i], grid[i]))
    return grid[best], scores


def _check_grid(cfg, grid, d, k):
    """Check the ranks, the penalty order and every grid value as the fits would."""
    cfg.resolved_ranks(d)
    difference_matrix(k, cfg.penalty_order)
    for i, lam in enumerate(grid):
        try:
            dataclasses.replace(cfg, lambdas=lam).resolved_lambdas(d, k)
        except ValueError as exc:
            raise ValueError(f"lambda grid value {lam!r} at position {i}: {exc}") from None


# Workers start at one BLAS thread each, so W workers share W cores without
# oversubscribing them.
_WORKER_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def _run_cv_jobs(inputs, jobs):
    """Run (grid index, fold) jobs in worker interpreters; results in job order.

    The jobs are dealt round-robin to min(#jobs, usable CPUs) fresh
    ``python -c`` interpreters that import this copy of tnbs. Each answers as
    ``_cv_worker`` says, reading its share of ``inputs`` pickled in an unlinked
    temporary file as stdin: unlike a pipe, a file needs no feeding order and
    cannot break when a worker dies first. multiprocessing is not used: spawn
    and forkserver re-import the caller's ``__main__``, which breaks unguarded
    scripts, and fork inherits its BLAS threads. Every worker is killed and
    reaped before returning.
    """
    import subprocess
    import tempfile

    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    n_workers = min(len(jobs), cpus or 1)
    src = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = {**os.environ, **_WORKER_THREADS,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    procs = []
    try:
        for w in range(n_workers):
            with tempfile.TemporaryFile() as share:
                pickle.dump((*inputs, jobs[w::n_workers], os.getpid()), share)
                share.seek(0)
                procs.append(subprocess.Popen(
                    [sys.executable, "-c", "from tnbs.solver import _cv_worker; _cv_worker()"],
                    stdin=share, stdout=subprocess.PIPE, env=env))
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
    return sorted(results, key=lambda r: r[0])


def _cv_worker():
    """Entry point of a cross-validation worker interpreter.

    Reads (rows, targets, blocks, lags, basis, the caller's one FitConfig,
    the whole lambda grid, scaling, jobs, caller pid) pickled on stdin. For
    each (grid index, fold) job in turn it fits the config with its lambdas
    set to that grid value on the other blocks and scores the held-out one,
    recording every warning. Writes one (job, RMSE or exception, warnings)
    triple per job, up to and including the first that fails, pickled on
    stdout. It exits without writing once the caller is no longer its
    parent, since a caller killed by a signal cannot stop its workers itself.
    """
    out = sys.stdout.buffer
    sys.stdout = sys.stderr  # stray prints must not corrupt the result
    (x_rows, targets, blocks, lags, basis, cfg, grid, scaling, jobs,
     caller) = pickle.load(sys.stdin.buffer)
    results = []
    for li, fi in jobs:
        if os.getppid() != caller:
            return
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                train_idx = np.concatenate([b for bi, b in enumerate(blocks) if bi != fi])
                model, _ = _fit_rows(x_rows[train_idx], targets[train_idx], lags, basis,
                                     dataclasses.replace(cfg, lambdas=grid[li]), scaling)
                pred = scaling.unscale_y(model._surface_rows(x_rows[blocks[fi]]))
                outcome = rmse(scaling.unscale_y(targets[blocks[fi]]), pred)
            except Exception as exc:
                outcome = exc
        results.append(((li, fi), outcome,
                        [(w.category, str(w.message), w.filename, w.lineno) for w in caught]))
        if isinstance(outcome, Exception):
            break
    out.write(pickle.dumps(results))
    out.flush()
