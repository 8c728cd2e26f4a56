import dataclasses
import itertools
import json
import os
import signal
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

import tnbs
from tnbs import (
    FitConfig,
    LagSpec,
    NumericalError,
    Scaling,
    TensorTrain,
    als_fit,
    build_design_matrix,
    build_penalty_matrix,
    cross_validate_lambda,
    dense_penalty,
    difference_matrix,
    make_basis,
    orthogonalize_to_site,
    rmse,
    tt_to_full,
    update_core,
)
from tnbs.bspline import basis_rows
from tnbs.model import TnbsModel, build_regressors
from tnbs.solver import (
    _RIDGE, _add_penalties, _gram_walk, _kron_rows, _penalty_value, _solve_core,
)
from tnbs.synth import SynthSpec, make_dataset
from tnbs.tensor import _flip, _fold_left


def random_tt(rng, d, k, ranks):
    full = (1,) + tuple(ranks) + (1,)
    return TensorTrain(tuple(
        rng.standard_normal((full[p], k, full[p + 1])) for p in range(d)
    ))


class TestDifferenceMatrix:
    def test_first_order_three_weights(self):
        assert np.array_equal(difference_matrix(3, 1), [[1, -1, 0], [0, 1, -1]])

    def test_order_zero_is_identity(self):
        assert np.array_equal(difference_matrix(4, 0), np.eye(4))

    def test_second_order(self):
        assert np.array_equal(
            difference_matrix(4, 2), [[1, -2, 1, 0], [0, 1, -2, 1]]
        )

    def test_order_too_large(self):
        with pytest.raises(ValueError):
            difference_matrix(3, 3)

    def test_negative_order(self):
        with pytest.raises(ValueError, match="difference order must be non-negative"):
            difference_matrix(4, -1)

    def test_bytes_match_a_differencing_loop(self):
        # Differencing adjacent rows of the identity alpha times is the
        # P-spline construction; the matrix must equal it byte for byte,
        # signed zeros included, so every penalty is rounded alike.
        for k in range(1, 13):
            for alpha in range(k):
                want = np.eye(k)
                for _ in range(alpha):
                    want = want[:-1, :] - want[1:, :]
                got = difference_matrix(k, alpha)
                assert got.dtype == want.dtype and got.shape == want.shape, (k, alpha)
                assert got.tobytes() == want.tobytes(), (k, alpha)

    def test_integral_float_arguments_accepted(self):
        assert np.array_equal(difference_matrix(4.0, 2.0), difference_matrix(4, 2))
        with pytest.raises(ValueError, match=r"order alpha must be an integer, got 1\.5"):
            difference_matrix(4, 1.5)
        with pytest.raises(ValueError, match=r"weight count k must be an integer, got 4\.5"):
            difference_matrix(4.5, 1)


class TestDensePenalty:
    def test_constant_tensor_is_smooth(self):
        w = np.full((3, 4, 3), 1.7)
        d1 = difference_matrix(4, 1)
        assert dense_penalty(w, d1, 1) == 0.0

    def test_univariate_first_difference(self):
        w = np.array([2.0, -1.0, 0.5])
        val = dense_penalty(w, difference_matrix(3, 1), 0)
        assert abs(val - ((2.0 + 1.0) ** 2 + (-1.0 - 0.5) ** 2)) < 1e-12

    def test_matches_slice_loop(self):
        rng = np.random.default_rng(0)
        w = rng.standard_normal((3, 4, 3))
        for j, k in [(0, 3), (1, 4), (2, 3)]:
            d1 = difference_matrix(k, 1)
            ref = 0.0
            for idx in np.ndindex(*[s for ax, s in enumerate(w.shape) if ax != j]):
                fiber = w[tuple(np.insert(np.array(idx, dtype=object), j, slice(None)))]
                ref += np.sum((d1 @ fiber) ** 2)
            assert abs(dense_penalty(w, d1, j) - ref) < 1e-10

    def test_extent_mismatch(self):
        with pytest.raises(ValueError):
            dense_penalty(np.zeros((3, 3)), difference_matrix(4, 1), 0)

    @pytest.mark.parametrize("axis", [-1, 2])
    def test_axis_out_of_range(self, axis):
        with pytest.raises(ValueError, match=f"axis {axis} out of range for tensor of order 2"):
            dense_penalty(np.zeros((3, 3)), difference_matrix(3, 1), axis)


class TestDesignMatrix:
    def test_d1_equals_basis_rows(self):
        rng = np.random.default_rng(1)
        basis = make_basis(2, 6)
        tt = orthogonalize_to_site(random_tt(rng, 1, 4, ()), 0)
        xs = rng.random(7)
        bmats = [basis_rows(basis, xs)]
        assert np.allclose(build_design_matrix(tt, bmats, 0), bmats[0], atol=1e-12)

    def test_reproduces_surface_linearly(self):
        rng = np.random.default_rng(2)
        basis = make_basis(2, 6)
        lags = LagSpec((0, 1), (1,))
        tt = random_tt(rng, 3, 4, (2, 2))
        xs = rng.random((10, 3))
        bmats = [basis_rows(basis, xs[:, q]) for q in range(3)]
        for p in range(3):
            ttp = orthogonalize_to_site(tt, p)
            model = TnbsModel(basis=basis, lags=lags, weights=ttp,
                              scaling=Scaling.identity())
            a = build_design_matrix(ttp, bmats, p)
            g = ttp.cores[p].reshape(-1, order="F")
            direct = np.array([model.eval_surface(x) for x in xs])
            assert np.allclose(a @ g, direct, atol=1e-10)

    def test_watertank_shape_column_count(self):
        rng = np.random.default_rng(3)
        # Bond 1 can carry only k = 4, so core 0 shrinks to (1, 4, 4); site 2
        # is the first with both bonds at the requested rank 8.
        tt = orthogonalize_to_site(random_tt(rng, 16, 4, (8,) * 15), 2)
        xs = rng.random((3, 16))
        basis = make_basis(3, 7)
        bmats = [basis_rows(basis, xs[:, q]) for q in range(16)]
        a = build_design_matrix(tt, bmats, 2)
        assert tt.cores[0].shape == (1, 4, 4)
        assert a.shape == (3, 8 * 4 * 8)

    def test_canonical_site_required(self):
        rng = np.random.default_rng(4)
        tt = orthogonalize_to_site(random_tt(rng, 3, 4, (2, 2)), 0)
        basis = make_basis(2, 6)
        xs = rng.random((4, 3))
        bmats = [basis_rows(basis, xs[:, q]) for q in range(3)]
        with pytest.raises(ValueError):
            build_design_matrix(tt, bmats, 1)

    def test_basis_matrix_count(self):
        rng = np.random.default_rng(4)
        tt = orthogonalize_to_site(random_tt(rng, 3, 4, (2, 2)), 0)
        bmats = [basis_rows(make_basis(2, 6), rng.random(4))] * 2
        with pytest.raises(ValueError, match="need 3 basis matrices, got 2"):
            build_design_matrix(tt, bmats, 0)

    @pytest.mark.parametrize("n, r_prev, r_next", [(0, 2, 3), (1, 1, 8), (7, 8, 1), (379, 8, 8)])
    def test_kron_rows_equal_einsum(self, n, r_prev, r_next):
        rng = np.random.default_rng(n)
        right = rng.standard_normal((n, r_next))
        mid = rng.random((n, 4))
        left = rng.standard_normal((n, r_prev))
        expected = np.einsum("nc,ni,na->ncia", right, mid, left).reshape(n, r_next * 4 * r_prev)
        assert np.array_equal(_kron_rows(right, mid, left), expected)

    @pytest.mark.parametrize("n, r_prev, r_next", [(0, 2, 3), (1, 1, 8), (7, 8, 1), (379, 8, 8)])
    def test_kron_rows_into_buffer(self, n, r_prev, r_next):
        # The sweep hands _kron_rows a view of its workspace: the rows written
        # there are the allocating call's, bit for bit, in the buffer itself.
        rng = np.random.default_rng(n)
        right = rng.standard_normal((n, r_next))
        mid = rng.random((n, 4))
        left = rng.standard_normal((n, r_prev))
        buf = np.full((r_next * 4 * r_prev, n), np.nan)
        rows = _kron_rows(right, mid, left, buf)
        expected = _kron_rows(right, mid, left)
        assert rows.shape == expected.shape and rows.tobytes() == expected.tobytes()
        assert rows.flags.f_contiguous
        assert rows.__array_interface__["data"][0] == buf.__array_interface__["data"][0]
        # An empty array shares no memory with anything, so n = 0 has only
        # the address check above.
        assert np.shares_memory(rows, buf) == (n > 0)


class TestPenaltyMatrix:
    def test_on_site_structure(self):
        rng = np.random.default_rng(5)
        tt = orthogonalize_to_site(random_tt(rng, 3, 4, (2, 3)), 1)
        d1 = difference_matrix(4, 1)
        om = build_penalty_matrix(tt, d1, 1, 1)
        ref = np.kron(np.eye(3), np.kron(d1.T @ d1, np.eye(2)))
        assert np.allclose(om, ref, atol=1e-12)

    def test_ridge_on_canonical_core(self):
        rng = np.random.default_rng(6)
        tt = orthogonalize_to_site(random_tt(rng, 3, 4, (2, 2)), 1)
        om = build_penalty_matrix(tt, difference_matrix(4, 0), 1, 1)
        g = tt.cores[1].reshape(-1, order="F")
        assert abs(g @ om @ g - g @ g) < 1e-12

    def test_matches_dense_penalty_all_pairs(self):
        rng = np.random.default_rng(7)
        tt = random_tt(rng, 3, 4, (2, 2))
        d1 = difference_matrix(4, 1)
        full = tt_to_full(tt)
        for p in range(3):
            ttp = orthogonalize_to_site(tt, p)
            g = ttp.cores[p].reshape(-1, order="F")
            for j in range(3):
                om = build_penalty_matrix(ttp, d1, p, j)
                ref = dense_penalty(full, d1, j)
                assert abs(g @ om @ g - ref) <= 1e-9 * max(1.0, abs(ref))

    @pytest.mark.parametrize("alpha", [1, 2])
    def test_value_form_matches_matrix_form(self, alpha):
        # The sweep scores a core with the sums of squares of _penalty_value
        # and solves with the matrix _add_penalties writes; both must be the
        # same weighted penalty, and equal the per-dimension public matrices.
        rng = np.random.default_rng(20 + alpha)
        tt = random_tt(rng, 4, 5, (2, 3, 2))
        dmat = difference_matrix(5, alpha)
        lams = (0.3, 0.0, 1.7, 0.05)
        for p in range(4):
            ttp = orthogonalize_to_site(tt, p)
            shape = ttp.cores[p].shape
            g = ttp.cores[p].reshape(-1, order="F")
            left, right, _ = _gram_walk(ttp.cores, dmat, lams, p)
            pens = left[p], lams[p], right[p]
            value = _penalty_value(g, *pens, dmat, shape)
            pen = np.zeros((g.size, g.size))
            _add_penalties(pen, *pens, dmat, shape)
            assert abs(value - g @ pen @ g) <= 1e-10 * value
            per_dim = sum(lams[j] * (g @ build_penalty_matrix(ttp, dmat, p, j) @ g)
                          for j in range(4))
            assert abs(value - per_dim) <= 1e-10 * value

    @pytest.mark.parametrize("alpha", [1, 2])
    @pytest.mark.parametrize("shape", [(1, 4, 5), (5, 4, 1), (4, 4, 8), (8, 4, 8)])
    def test_diagonal_views_reproduce_the_matrix(self, shape, alpha):
        # The core solve adds the penalties through the diagonal views of
        # _add_penalties; on every subset of the three axis terms they must
        # write exactly the Kronecker-product matrix.
        r_prev, k, r_next = shape
        rng = np.random.default_rng(sum(shape) + alpha)
        dmat = difference_matrix(k, alpha)
        a, b = rng.standard_normal((r_prev, r_prev)), rng.standard_normal((r_next, r_next))
        terms = (a @ a.T, 0.7, b @ b.T)
        refs = (np.kron(np.eye(r_next * k), terms[0]),
                np.kron(np.eye(r_next), np.kron(terms[1] * (dmat.T @ dmat), np.eye(r_prev))),
                np.kron(terms[2], np.eye(k * r_prev)))
        absent = (np.zeros((r_prev, r_prev)), 0.0, np.zeros((r_next, r_next)))
        for use in itertools.product([False, True], repeat=3):
            if not any(use):
                continue
            left, lam, right = (t if u else z for t, u, z in zip(terms, use, absent))
            ref = sum(r for r, u in zip(refs, use) if u)
            pen = np.zeros(ref.shape)
            _add_penalties(pen, left, lam, right, dmat, shape)
            assert np.array_equal(pen, ref), use

    def test_requires_canonical_site(self):
        rng = np.random.default_rng(8)
        tt = orthogonalize_to_site(random_tt(rng, 3, 4, (2, 2)), 0)
        with pytest.raises(ValueError):
            build_penalty_matrix(tt, difference_matrix(4, 1), 2, 0)

    @pytest.mark.parametrize("j, k, message", [
        (-1, 4, "dimension -1 out of range for order 3"),
        (3, 4, "dimension 3 out of range for order 3"),
        (1, 5, "difference matrix has 5 columns but dimension 1 has extent 4"),
    ], ids=["j-negative", "j-past-end", "width"])
    def test_bad_dimension_or_difference_width(self, j, k, message):
        rng = np.random.default_rng(8)
        tt = orthogonalize_to_site(random_tt(rng, 3, 4, (2, 2)), 0)
        with pytest.raises(ValueError, match=message):
            build_penalty_matrix(tt, difference_matrix(k, 1), 0, j)


def reference_design(tt, bmats, p):
    """Explicit chain loops for the design rows at core p."""
    n = bmats[0].shape[0]
    left = np.ones((n, 1))
    for q in range(p):
        left = _fold_left(left, tt.cores[q], bmats[q])
    right = np.ones((n, 1))
    for q in range(tt.order - 1, p, -1):
        right = _fold_left(right, _flip(tt.cores[q]), bmats[q])
    return _kron_rows(right, bmats[p], left)


def reference_penalty(tt, dmat, p, j):
    """Explicit chain loops for the unit penalty on dimension j, collapsed onto core p.

    Only dimension j is weighted, so exactly one Kronecker factor is not an
    identity: the chain Gram from j up to p (j < p), the difference Gram
    (j = p), or the chain Gram from j down to p (j > p).
    """
    r_prev, k, r_next = tt.cores[p].shape
    if j == p:
        return np.kron(np.eye(r_next), np.kron(dmat.T @ dmat, np.eye(r_prev)))
    cores = (list(tt.cores[j:p]) if j < p
             else [_flip(c) for c in tt.cores[j:p:-1]])
    mod = np.tensordot(dmat, cores[0], axes=(1, 1)).transpose(1, 0, 2)
    gram = 1.0 * np.einsum("aic,aid->cd", mod, mod)
    for core in cores[1:]:
        gram = np.einsum("ab,aic,bid->cd", gram, core, core)
    if j < p:
        return np.kron(np.eye(r_next * k), gram)
    return np.kron(gram, np.eye(k * r_prev))


class TestViewsBitwise:
    # The public views run the sweep's chain walk; they must equal the
    # explicit chain loops exactly, not just to a tolerance.

    @pytest.mark.parametrize("d, ranks", [(4, (2, 3, 2)), (1, ())])
    def test_design_matrix_equals_explicit_loops(self, d, ranks):
        rng = np.random.default_rng(40 + d)
        tt = random_tt(rng, d, 5, ranks)
        bmats = [rng.random((30, 5)) for _ in range(d)]
        for p in range(d):
            ttp = orthogonalize_to_site(tt, p)
            assert np.array_equal(build_design_matrix(ttp, bmats, p),
                                  reference_design(ttp, bmats, p)), p

    @pytest.mark.parametrize("alpha", [1, 2])
    @pytest.mark.parametrize("d, ranks", [(4, (2, 3, 2)), (1, ())])
    def test_penalty_matrix_equals_explicit_loops(self, d, ranks, alpha):
        rng = np.random.default_rng(50 + d + alpha)
        tt = random_tt(rng, d, 5, ranks)
        dmat = difference_matrix(5, alpha)
        for p in range(d):
            ttp = orthogonalize_to_site(tt, p)
            for j in range(d):
                assert np.array_equal(build_penalty_matrix(ttp, dmat, p, j),
                                      reference_penalty(ttp, dmat, p, j)), (p, j)


class TestSolveCore:
    def test_singular_normal_matrix_solves_through_ridge_floor(self):
        # A dead design column and no penalty leave A'A an exactly zero
        # pivot; the ridge floor, added onto h in place, alone makes the
        # system solvable, and the dead weight stays at zero.
        rng = np.random.default_rng(15)
        a = rng.standard_normal((20, 5))
        a[:, 3] = 0.0
        y = rng.standard_normal(20)
        h = a.T @ a
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.solve(h, a.T @ y)
        floored = h + _RIDGE * np.eye(5)
        g = _solve_core(h, a.T @ y)
        assert np.array_equal(h, floored)
        assert abs(g[3]) < 1e-10
        assert np.allclose(g, np.linalg.pinv(a) @ y, atol=1e-8)

    @pytest.mark.parametrize("where", ["h", "rhs"])
    def test_non_finite_system_raises(self, where):
        h, rhs = 2.0 * np.eye(3), np.ones(3)
        if where == "h":
            h[0, 1] = np.inf
        else:
            rhs[1] = np.inf
        with pytest.raises(NumericalError, match="core solve"):
            _solve_core(h, rhs)

    def test_singular_after_ridge_floor_raises(self):
        # tau = 1e-10 is lost in rounding against the 4e12 diagonal of A'A,
        # so the floored system stays exactly singular and the LU solve fails.
        with pytest.raises(NumericalError, match="core solve failed: Singular matrix"):
            update_core(np.full((4, 2), 1e6), np.zeros(4), [], [])


class TestUpdateCore:
    def test_unregularized_square_system(self):
        rng = np.random.default_rng(9)
        a = rng.standard_normal((8, 8)) + 4 * np.eye(8)
        y = rng.standard_normal(8)
        g = update_core(a, y, [], [])
        assert np.allclose(g, np.linalg.solve(a, y), atol=1e-8)

    def test_ridge_limit_shrinks_to_zero(self):
        rng = np.random.default_rng(10)
        a = rng.standard_normal((30, 6))
        y = rng.standard_normal(30)
        norms = []
        for lam in (0.0, 1.0, 1e3, 1e6, 1e9):
            g = update_core(a, y, [np.eye(6)], [lam])
            norms.append(np.linalg.norm(g))
        assert all(b <= a + 1e-12 for a, b in zip(norms, norms[1:]))
        assert norms[-1] < 1e-6

    def test_matches_dense_inversion_oracle(self):
        rng = np.random.default_rng(11)
        a = rng.standard_normal((50, 24))
        y = rng.standard_normal(50)
        d1 = difference_matrix(6, 1)
        om = np.kron(np.eye(2), np.kron(d1.T @ d1, np.eye(2)))
        g = update_core(a, y, [om], [0.1])
        h = a.T @ a + 0.1 * om
        ref = np.linalg.inv(h) @ (a.T @ y)
        assert np.allclose(g, ref, atol=1e-8)

    def test_singular_system_minimal_norm(self):
        rng = np.random.default_rng(12)
        a = rng.standard_normal((20, 5))
        a[:, 3] = 0.0  # dead column
        y = rng.standard_normal(20)
        g = update_core(a, y, [], [])
        assert abs(g[3]) < 1e-10
        ref = np.linalg.pinv(a) @ y
        assert np.allclose(g, ref, atol=1e-8)

    def test_penalized_singular_system_minimal_norm(self):
        # A dead column that the penalty does not reach either leaves the
        # normal matrix an exactly zero pivot; with the ridge floor the solve
        # must still succeed and land, up to the floor's tiny bias, on the
        # minimal-norm solution of [A; R] g = [y; 0] for any root R of the
        # penalty.
        rng = np.random.default_rng(13)
        a = rng.standard_normal((20, 5))
        a[:, 3] = 0.0
        y = rng.standard_normal(20)
        root = np.zeros((3, 5))
        root[:, [0, 1, 2, 4]] = difference_matrix(4, 1)
        lam = 0.1
        om = root.T @ root
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.solve(a.T @ a + lam * om, a.T @ y)
        g = update_core(a, y, [om], [lam])
        ref = np.linalg.pinv(np.vstack([a, np.sqrt(lam) * root])) @ np.concatenate(
            [y, np.zeros(3)])
        assert abs(g[3]) < 1e-10
        assert np.allclose(g, ref, atol=1e-8)

    @pytest.mark.parametrize("lam", [0.0, 0.1])
    def test_memory_layout_does_not_change_the_core(self, lam):
        # The sweep's design rows are Fortran-ordered; a C-ordered copy of the
        # same design must give the same core bitwise, penalized (lam > 0) and,
        # with a dead column that only the ridge floor reaches, at lam = 0.
        rng = np.random.default_rng(14)
        a = rng.standard_normal((300, 24))
        if lam == 0.0:
            a[:, 5] = 0.0
        y = rng.standard_normal(300)
        d1 = difference_matrix(6, 1)
        om = [np.kron(np.eye(4), d1.T @ d1)]
        g_c = update_core(np.ascontiguousarray(a), y, om, [lam])
        g_f = update_core(np.asfortranarray(a), y, om, [lam])
        assert g_c.tobytes() == g_f.tobytes()

    def test_non_finite_rejected(self):
        a = np.full((4, 2), np.nan)
        with pytest.raises(NumericalError):
            update_core(a, np.zeros(4), [], [])

    @pytest.mark.parametrize("design, targets, penalties, message", [
        (np.eye(3, 2), np.zeros(4), 1, r"design matrix rows \(3\) must match targets \(4\)"),
        (np.eye(4, 2), np.zeros(4), 2, "one penalty weight per penalty matrix"),
        (np.ones(3), np.zeros(3), 1,
         r"design matrix must be two-dimensional, got shape \(3,\)"),
        (np.eye(2), 0.0, 1, r"targets must be one-dimensional, got shape \(\)"),
        (np.eye(2), np.zeros((2, 1)), 1,
         r"targets must be one-dimensional, got shape \(2, 1\)"),
    ], ids=["rows", "penalties", "design-1d", "targets-scalar", "targets-column"])
    def test_shape_mismatch_rejected(self, design, targets, penalties, message):
        with pytest.raises(ValueError, match=message):
            update_core(design, targets, [np.eye(2)] * penalties, [0.1])


def small_problem(seed, n_samples=260, lam=0.0, alpha=1, sweeps=6, fit_seed=0,
                  epsilon=0.0):
    spec = SynthSpec(input_lags=(1, 2), output_lags=(1,), ranks=2, seed=seed,
                     n_samples=n_samples, smoothing_window=1)
    data = make_dataset(spec, snr_db=20.0, n_estimation=n_samples - 60)
    cfg = FitConfig(ranks=2, penalty_order=alpha, lambdas=lam, max_sweeps=sweeps,
                    seed=fit_seed, epsilon=epsilon)
    basis = make_basis(2, 6)
    return data, spec, basis, cfg


README_LAMBDAS = (0.001, 0.0, 0.01, 0.0, 0.001, 0.0, 0.1, 0.0)


@pytest.fixture(scope="module")
def readme_fit():
    """Fit the README layout (d=8, ranks 5, alpha=2, 16 sweeps) on seed 1, once per lambda."""
    fits = {}

    def fit(lam):
        if lam not in fits:
            data = make_dataset(SynthSpec(seed=1), snr_db=20.0)
            lags = LagSpec((1, 2, 3, 4), (1, 2, 3, 4))
            basis = make_basis(2, 6)
            cfg = FitConfig(ranks=5, penalty_order=2, lambdas=lam, max_sweeps=16, seed=0)
            model, trace = als_fit(data.u_est, data.y_est, lags, basis, cfg,
                                   scaling=Scaling.identity())
            fits[lam] = data, lags, basis, cfg, model, trace
        return fits[lam]

    return fit


def record_workspace(monkeypatch):
    """Record every design _kron_rows returns and every normal matrix _solve_core factors.

    Returns (designs, normals).
    """
    designs, normals = [], []
    kron_rows, solve_core = tnbs.solver._kron_rows, tnbs.solver._solve_core

    def recording_kron_rows(*args):
        designs.append(kron_rows(*args))
        return designs[-1]

    def recording_solve_core(h, rhs):
        normals.append(h)
        return solve_core(h, rhs)

    monkeypatch.setattr(tnbs.solver, "_kron_rows", recording_kron_rows)
    monkeypatch.setattr(tnbs.solver, "_solve_core", recording_solve_core)
    return designs, normals


def owning_array(a):
    """The array that owns a view's memory."""
    while isinstance(a.base, np.ndarray):
        a = a.base
    return a


def load_tanks():
    """The tanks-shaped surrogate data module of the benchmark, loaded read-only."""
    import importlib.util

    path = Path(__file__).resolve().parents[1] / "perfbench" / "tanks.py"
    spec = importlib.util.spec_from_file_location("tanks_surrogate", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TANKS_LAGS = LagSpec((1, 2, 3, 4, 8, 12, 16, 32), (1, 2, 3, 4, 8, 12, 16, 32))


class TestAlsFit:
    def test_exact_recovery_training_rmse(self):
        spec = SynthSpec(input_lags=(1, 2), output_lags=(1,), ranks=3, seed=7,
                         n_samples=2300, smoothing_window=1)
        data = make_dataset(spec, snr_db=np.inf, n_estimation=2000)
        cfg = FitConfig(ranks=data.true_model.weights.ranks[1:-1], penalty_order=2,
                        lambdas=0.0, max_sweeps=16, seed=0)
        model, trace = als_fit(data.u_est, data.y_est, spec.lags, make_basis(2, 6),
                               cfg, scaling=Scaling.identity())
        pred = model.predict(data.u_est, data.y_est)
        start = spec.lags.start_index
        assert rmse(data.y_est[start:], pred) < 1e-4

    def test_monotone_objective_and_canonical_end(self):
        data, spec, basis, cfg = small_problem(seed=1, lam=0.05)
        model, trace = als_fit(data.u_est, data.y_est, spec.lags, basis, cfg,
                               scaling=Scaling.identity())
        objs = trace.update_objectives
        assert all(b <= a + 1e-9 for a, b in zip(objs, objs[1:]))
        assert model.weights.canonical_site == 0
        g = model.weights.cores[1].reshape(model.weights.cores[1].shape[0], -1, order="F")
        assert np.allclose(g @ g.T, np.eye(g.shape[0]), atol=1e-10)

    def test_over_ranked_fit_has_no_dead_design_columns(self, monkeypatch):
        # The README layout asks for ranks 5 with k = 4, one more than the
        # end bonds can carry. Those bonds are swept at 4, so no update has
        # an identically zero design column; the model keeps ranks 5.
        zero_cols = []
        kron_rows = tnbs.solver._kron_rows

        def recording_kron_rows(*args):
            a_mat = kron_rows(*args)
            zero_cols.append(int(np.count_nonzero(~a_mat.any(axis=0))))
            return a_mat

        monkeypatch.setattr(tnbs.solver, "_kron_rows", recording_kron_rows)
        data = make_dataset(SynthSpec(seed=0), snr_db=20.0)
        cfg = FitConfig(ranks=5, penalty_order=2, lambdas=1e-3, max_sweeps=2, seed=0)
        model, trace = als_fit(data.u_est, data.y_est, LagSpec((1, 2, 3, 4), (1, 2, 3, 4)),
                               make_basis(2, 6), cfg, scaling=Scaling.identity())
        assert len(zero_cols) == len(trace.update_objectives) == 28
        assert zero_cols == [0] * 28
        assert model.weights.ranks == (1,) + (5,) * 7 + (1,)
        assert [c.shape for c in model.weights.cores] == (
            [(1, 4, 5)] + [(5, 4, 5)] * 6 + [(5, 4, 1)])

    def test_sweep_reuses_one_workspace(self, monkeypatch):
        # Every design and every normal matrix of a fit is a view of one
        # buffer per kind, whatever the core's width: an update that
        # allocates its own would page fresh memory in on every update.
        designs, normals = record_workspace(monkeypatch)
        data = make_dataset(SynthSpec(seed=0), snr_db=20.0)
        cfg = FitConfig(ranks=5, penalty_order=2, lambdas=1e-3, max_sweeps=2, seed=0)
        _, trace = als_fit(data.u_est, data.y_est, LagSpec((1, 2, 3, 4), (1, 2, 3, 4)),
                           make_basis(2, 6), cfg, scaling=Scaling.identity())
        assert len(designs) == len(normals) == len(trace.update_objectives) == 28
        assert {a.shape[1] for a in designs} >= {16, 80, 100}
        for kind in (designs, normals):
            assert len({id(owning_array(m)) for m in kind}) == 1
        assert owning_array(designs[0]) is not owning_array(normals[0])
        assert all(a.flags.f_contiguous for a in designs)

    def test_seeded_determinism_bitwise(self):
        data, spec, basis, cfg = small_problem(seed=2, lam=0.01)
        m1, t1 = als_fit(data.u_est, data.y_est, spec.lags, basis, cfg,
                         scaling=Scaling.identity())
        m2, t2 = als_fit(data.u_est, data.y_est, spec.lags, basis, cfg,
                         scaling=Scaling.identity())
        assert t1.first_core_objectives == t2.first_core_objectives
        assert t1.update_objectives == t2.update_objectives
        for a, b in zip(m1.weights.cores, m2.weights.cores):
            assert np.array_equal(a, b)

    @pytest.mark.parametrize("lam", [README_LAMBDAS, 0.0])
    def test_fit_is_monotone_on_all_rows(self, readme_fit, lam):
        # At README scale, with unpenalized dimensions in the lambda vector,
        # the recorded objective never rises and ends at the global objective
        # of the fitted model: data misfit plus every dimension's penalty on
        # the dense tensor (4^8 entries) plus the ridge floor on its norm.
        # The floor keeps the unpenalized fits usable: their cores stay
        # bounded and the model simulates as well as it predicts.
        data, lags, basis, cfg, model, trace = readme_fit(lam)
        objs = trace.update_objectives
        assert all(b <= a for a, b in zip(objs, objs[1:]))
        resid = data.y_est[lags.start_index:] - model.predict(data.u_est, data.y_est)
        full = tt_to_full(model.weights)
        dmat = difference_matrix(basis.basis_count, 2)
        lams = cfg.resolved_lambdas(model.weights.order, basis.basis_count)
        ref = float(resid @ resid) + sum(
            lams[j] * dense_penalty(full, dmat, j) for j in range(model.weights.order)
        ) + _RIDGE * float(np.sum(full * full))
        assert abs(objs[-1] - ref) <= 1e-9 * ref
        assert max(float(np.sum(c * c)) for c in model.weights.cores) < 1e9
        start = lags.start_index
        assert rmse(data.y_test[start:], model.simulate(data.u_test, data.y_test[:start])) < 0.05

    def test_site_views_match_dense_oracle(self, readme_fit):
        # At every site of the fitted README-vector model, the public views
        # (design matrix and per-dimension penalty matrices on the train made
        # canonical there) give the objective of the dense tensor: misfit of
        # the full 4^8 weight tensor plus every dimension's dense penalty.
        data, lags, basis, cfg, model, _ = readme_fit(README_LAMBDAS)
        x_rows, targets, _ = build_regressors(data.u_est, data.y_est, lags, Scaling.identity())
        d = model.weights.order
        bmats = [basis_rows(basis, x_rows[:, q]) for q in range(d)]
        dmat = difference_matrix(basis.basis_count, 2)
        lams = cfg.resolved_lambdas(d, basis.basis_count)
        full = tt_to_full(model.weights)
        half = [np.einsum("na,nb,nc,nd->nabcd", *bmats[h:h + 4]).reshape(len(targets), -1)
                for h in (0, 4)]
        dense_out = np.einsum("na,ab,nb->n", half[0], full.reshape(half[0].shape[1], -1), half[1])
        resid = targets - dense_out
        ref = float(resid @ resid) + sum(lams[j] * dense_penalty(full, dmat, j) for j in range(d))
        for p in range(d):
            tt = orthogonalize_to_site(model.weights, p)
            g = tt.cores[p].reshape(-1, order="F")
            resid = targets - build_design_matrix(tt, bmats, p) @ g
            pen = sum(lams[j] * build_penalty_matrix(tt, dmat, p, j) for j in range(d))
            view = float(resid @ resid) + float(g @ pen @ g)
            assert abs(view - ref) <= 1e-8 * ref, p

    def test_stopping_criterion_honored(self):
        data, spec, basis, cfg = small_problem(seed=5, lam=0.0, sweeps=12,
                                               epsilon=1e3)
        _, trace = als_fit(data.u_est, data.y_est, spec.lags, basis, cfg,
                           scaling=Scaling.identity())
        assert trace.stopped_early
        assert trace.sweeps_run == 2
        js = trace.first_core_objectives
        assert abs(js[-2] - js[-1]) <= 1e3

    def test_stall_at_sweep_cap_is_not_an_early_stop(self):
        data, spec, basis, cfg = small_problem(seed=5, lam=0.0, sweeps=2,
                                               epsilon=1e3)
        _, trace = als_fit(data.u_est, data.y_est, spec.lags, basis, cfg,
                           scaling=Scaling.identity())
        js = trace.first_core_objectives
        assert abs(js[-2] - js[-1]) <= 1e3
        assert trace.sweeps_run == 2
        assert trace.stopped_early is False

    def test_penalty_order_must_fit_basis(self):
        data, spec, basis, cfg = small_problem(seed=6, alpha=4)
        with pytest.raises(ValueError):
            als_fit(data.u_est, data.y_est, spec.lags, basis, cfg,
                    scaling=Scaling.identity())

    def test_insufficient_data(self):
        cfg = FitConfig(ranks=2, max_sweeps=1)
        with pytest.raises(ValueError):
            als_fit(np.zeros(3), np.zeros(3), LagSpec((1,), (1, 4)),
                    make_basis(2, 6), cfg, scaling=Scaling.identity())

    @pytest.mark.parametrize("name, index, value, scaling", [
        ("y", 5, np.nan, None),
        ("y", 5, np.nan, Scaling.identity()),
        ("u", 7, np.inf, Scaling.identity()),
        ("y", -1, np.nan, Scaling.identity()),
    ], ids=["data-scaling", "identity-scaling", "infinite-input", "last-target"])
    def test_non_finite_sample_named(self, name, index, value, scaling):
        # Named before scaling or fitting: not as non-finite scaling bounds or
        # evaluation points, and not as a numerical failure of the solve.
        data, spec, basis, cfg = small_problem(seed=17, sweeps=1)
        signals = {"u": data.u_est.copy(), "y": data.y_est.copy()}
        signals[name][index] = value
        at = range(len(signals[name]))[index]
        with pytest.raises(ValueError, match=rf"^{name} sample {at} is not finite: {value}$"):
            als_fit(signals["u"], signals["y"], spec.lags, basis, cfg, scaling=scaling)

    def test_degenerate_scaling(self):
        cfg = FitConfig(ranks=2, max_sweeps=1)
        u = np.random.default_rng(0).random(50)
        with pytest.raises(ValueError):
            als_fit(u, np.full(50, 2.0), LagSpec((1,), (1,)), make_basis(2, 6), cfg)

    def test_lambda_vector_per_dimension(self):
        data, spec, basis, cfg = small_problem(seed=8)
        cfg_v = dataclasses.replace(cfg, lambdas=(0.1, 0.0, 0.02))
        model, trace = als_fit(data.u_est, data.y_est, spec.lags, basis, cfg_v,
                               scaling=Scaling.identity())
        objs = trace.update_objectives
        assert all(b <= a + 1e-9 for a, b in zip(objs, objs[1:]))

    @pytest.mark.parametrize("lam", [0.05, (0.1, 0.0, 0.02)])
    @pytest.mark.parametrize("alpha", [1, 2])
    def test_final_objective_matches_dense_oracle(self, lam, alpha):
        # The objective the sweep records is the global one: data misfit of
        # the fitted model plus every dimension's penalty on the dense tensor
        # plus the ridge floor on its squared norm.
        data, spec, basis, cfg = small_problem(seed=14, lam=lam, alpha=alpha)
        model, trace = als_fit(data.u_est, data.y_est, spec.lags, basis, cfg,
                               scaling=Scaling.identity())
        resid = data.y_est[spec.lags.start_index:] - model.predict(data.u_est, data.y_est)
        full = tt_to_full(model.weights)
        dmat = difference_matrix(basis.basis_count, alpha)
        lams = cfg.resolved_lambdas(3, basis.basis_count)
        ref = float(resid @ resid) + sum(
            lams[j] * dense_penalty(full, dmat, j) for j in range(3)
        ) + _RIDGE * float(np.sum(full * full))
        assert abs(trace.update_objectives[-1] - ref) <= 1e-12 * ref

    @pytest.mark.parametrize("seed", [14, 3, 5])
    @pytest.mark.parametrize("lam", [0.05, (0.1, 0.0, 0.02)])
    @pytest.mark.parametrize("alpha", [1, 2])
    def test_carried_chain_state_is_fresh(self, seed, lam, alpha):
        # One more exact update at site 0 of the fitted model, built from
        # scratch by the public views, must land where the sweep ended: a
        # sweep on stale carried folds or Grams stalls short of it, which the
        # step rejection alone does not reveal.
        data, spec, basis, cfg = small_problem(seed=seed, lam=lam, alpha=alpha,
                                               sweeps=12)
        model, trace = als_fit(data.u_est, data.y_est, spec.lags, basis, cfg,
                               scaling=Scaling.identity())
        x_rows, targets, _ = build_regressors(data.u_est, data.y_est, spec.lags,
                                              Scaling.identity())
        tt = model.weights
        bmats = [basis_rows(basis, x_rows[:, q]) for q in range(tt.order)]
        a = build_design_matrix(tt, bmats, 0)
        dmat = difference_matrix(basis.basis_count, alpha)
        lams = cfg.resolved_lambdas(tt.order, basis.basis_count)
        pen = sum(lams[j] * build_penalty_matrix(tt, dmat, 0, j) for j in range(tt.order))
        g = update_core(a, targets, [pen], [1.0])
        resid = targets - a @ g
        obj = float(resid @ resid) + float(g @ pen @ g)
        last = trace.update_objectives[-1]
        assert abs(obj - last) <= 1e-3 * last

    def test_paper_layout_fit_shares_one_workspace(self, monkeypatch):
        # The paper's d = 16 layout (tanks lags, ranks 8, cubic splines with
        # k = 4): cores of 16, 128 and 256 columns share one workspace, and
        # one more site-0 update built from scratch by the public views lands
        # where the sweep ended. The ridge floor is a sizeable part of this
        # objective, so the check counts it.
        u, y, _, _ = load_tanks().make_tanks(1)
        basis = make_basis(3, 7)
        cfg = FitConfig(ranks=8, penalty_order=1, lambdas=1e-3, max_sweeps=3, seed=0)
        designs, normals = record_workspace(monkeypatch)
        model, trace = als_fit(u, y, TANKS_LAGS, basis, cfg)
        monkeypatch.undo()
        assert {a.shape[1] for a in designs} >= {16, 128, 256}
        assert len({id(owning_array(a)) for a in designs}) == 1
        assert len({id(owning_array(h)) for h in normals}) == 1
        objs = trace.update_objectives
        assert len(objs) == 3 * 30
        assert all(b <= a for a, b in zip(objs, objs[1:]))

        x_rows, targets, _ = build_regressors(u, y, TANKS_LAGS, model.scaling)
        tt = model.weights
        bmats = [basis_rows(basis, x_rows[:, q]) for q in range(tt.order)]
        a = build_design_matrix(tt, bmats, 0)
        dmat = difference_matrix(basis.basis_count, 1)
        lams = cfg.resolved_lambdas(tt.order, basis.basis_count)
        pen = sum(lams[j] * build_penalty_matrix(tt, dmat, 0, j) for j in range(tt.order))
        g = update_core(a, targets, [pen], [1.0])
        resid = targets - a @ g
        obj = float(resid @ resid) + float(g @ pen @ g) + _RIDGE * float(g @ g)
        assert abs(obj - objs[-1]) <= 1e-8 * objs[-1]

    def test_paper_layout_sweep_holds_only_live_products(self, monkeypatch):
        # The paper's d = 16 layout: at every core update p, the fold walk and
        # the Gram walk each hold the d + 1 products a walk started at p
        # holds, left[0..p] and right[p..d-1]; a product a shift has passed
        # is dropped.
        u, y, _, _ = load_tanks().make_tanks(1)
        d = TANKS_LAGS.dimension
        walks, held = [], []
        walk, kron_rows = tnbs.solver._walk, tnbs.solver._kron_rows

        def recording_walk(*args):
            walks.append(walk(*args))
            return walks[-1]

        def checking_kron_rows(right, mid, left, out=None):
            p = next(q for q, v in enumerate(walks[0][0]) if v is left)
            assert walks[0][1][p] is right
            held.append((p, [[q for q, v in enumerate(prods) if v is not None]
                             for lefts, rights, _ in walks for prods in (lefts, rights)]))
            return kron_rows(right, mid, left, out)

        monkeypatch.setattr(tnbs.solver, "_walk", recording_walk)
        monkeypatch.setattr(tnbs.solver, "_kron_rows", checking_kron_rows)
        cfg = FitConfig(ranks=8, penalty_order=1, lambdas=0.1, max_sweeps=2, seed=0)
        als_fit(u, y, TANKS_LAGS, make_basis(3, 7), cfg)
        monkeypatch.undo()
        assert len(walks) == 2
        assert [p for p, _ in held] == (list(range(d - 1)) + list(range(d - 1, 0, -1))) * 2
        for p, filled in held:
            assert filled == [list(range(p + 1)), list(range(p, d))] * 2, p

    @pytest.mark.parametrize("seed", [1, 2])
    def test_paper_layout_fit_beats_a_constant(self, seed):
        # At d = 16 each dimension's penalty sums over 4^15 fibres. Weighted
        # per fibre, lambda = 0.1 smooths the surface without flattening it:
        # the one-step prediction must beat the estimation mean by half.
        u, y, u_test, y_test = load_tanks().make_tanks(seed)
        cfg = FitConfig(ranks=8, penalty_order=1, lambdas=0.1, max_sweeps=12, seed=0)
        model, _ = als_fit(u, y, TANKS_LAGS, make_basis(3, 7), cfg)
        truth = y_test[TANKS_LAGS.start_index:]
        constant = rmse(truth, np.full(len(truth), np.mean(y)))
        assert rmse(truth, model.predict(u_test, y_test)) <= 0.5 * constant

    def test_single_core_schedule(self):
        # With d = 1 every sweep is the one exact update of the only core, so
        # the second sweep repeats the first and the fit stops there.
        rng = np.random.default_rng(31)
        u = rng.random(120)
        y = np.sin(3.0 * u) + 0.05 * rng.standard_normal(120)
        lags, basis = LagSpec((1,), ()), make_basis(2, 6)
        cfg = FitConfig(ranks=(), penalty_order=1, lambdas=0.1, max_sweeps=3)
        model, trace = als_fit(u, y, lags, basis, cfg, scaling=Scaling.identity())
        x_rows, targets, _ = build_regressors(u, y, lags, Scaling.identity())
        dmat = difference_matrix(basis.basis_count, 1)
        g = update_core(basis_rows(basis, x_rows[:, 0]), targets, [dmat.T @ dmat], [0.1])
        assert np.array_equal(model.weights.cores[0].reshape(-1), g)
        assert trace.stopped_early and trace.sweeps_run == 2
        assert trace.first_core_objectives == trace.update_objectives

    def test_lambda_vector_wrong_length(self):
        data, spec, basis, cfg = small_problem(seed=9)
        cfg_v = dataclasses.replace(cfg, lambdas=(0.1, 0.2))
        with pytest.raises(ValueError):
            als_fit(data.u_est, data.y_est, spec.lags, basis, cfg_v,
                    scaling=Scaling.identity())


class TestFitConfig:
    def test_invalid_values(self):
        with pytest.raises(ValueError):
            FitConfig(max_sweeps=0)
        with pytest.raises(ValueError):
            FitConfig(epsilon=-1.0)
        with pytest.raises(ValueError):
            FitConfig(penalty_order=-1)
        with pytest.raises(ValueError):
            FitConfig(ranks=0).resolved_ranks(3)
        with pytest.raises(ValueError):
            FitConfig(lambdas=-0.5).resolved_lambdas(3, 4)
        with pytest.raises(ValueError):
            FitConfig(epsilon=np.nan)
        for lam in (np.nan, np.inf, (0.1, np.nan, 0.2), (0.1, 0.2, np.inf)):
            with pytest.raises(ValueError):
                FitConfig(lambdas=lam).resolved_lambdas(3, 4)
        for field_name, value in (("max_sweeps", 2.5), ("max_sweeps", np.nan),
                                  ("max_sweeps", np.inf), ("penalty_order", 1.5),
                                  ("seed", 0.5), ("seed", "0")):
            with pytest.raises(ValueError, match=field_name):
                FitConfig(**{field_name: value})

    @pytest.mark.parametrize("ranks", [2.5, (2, 3.9), np.nan, np.inf, "2", None])
    def test_fractional_or_non_numeric_ranks_rejected(self, ranks):
        with pytest.raises(ValueError, match="rank must be an integer"):
            FitConfig(ranks=ranks).resolved_ranks(3)

    def test_lambdas_are_per_fibre(self):
        # Each of the d terms sums over k^(d-1) fibres, so the fit divides by it.
        assert FitConfig(lambdas=0.1).resolved_lambdas(3, 4) == (0.1 / 16,) * 3
        assert FitConfig(lambdas=(0.0, 0.2)).resolved_lambdas(2, 5) == (0.0, 0.2 / 5)

    def test_zero_dimensional_arrays_broadcast(self):
        cfg = FitConfig(ranks=np.array(3), lambdas=np.array(0.1))
        assert cfg.resolved_ranks(4) == (3, 3, 3)
        assert cfg.resolved_lambdas(4, k=1) == (0.1,) * 4

    def test_integral_values_become_ints(self):
        cfg = FitConfig(max_sweeps=3.0, penalty_order=np.int64(2), seed=np.float64(7))
        assert (cfg.max_sweeps, cfg.penalty_order, cfg.seed) == (3, 2, 7)
        assert all(type(v) is int for v in (cfg.max_sweeps, cfg.penalty_order, cfg.seed))


class TestCrossValidation:
    def test_single_candidate(self):
        data, spec, basis, cfg = small_problem(seed=10)
        best, scores = cross_validate_lambda(data.u_est, data.y_est, spec.lags,
                                             basis, cfg, [0.25], 3,
                                             scaling=Scaling.identity())
        assert best == 0.25
        assert scores.shape == (1, 3)

    def test_zero_wins_on_exact_data(self):
        spec = SynthSpec(input_lags=(1, 2), output_lags=(1,), ranks=2, seed=11,
                         n_samples=900, smoothing_window=1)
        data = make_dataset(spec, snr_db=np.inf, n_estimation=700)
        cfg = FitConfig(ranks=2, penalty_order=2, max_sweeps=8, seed=0)
        best, _ = cross_validate_lambda(data.u_est, data.y_est, spec.lags,
                                        make_basis(2, 6), cfg, [0.0, 1e6], 3,
                                        scaling=Scaling.identity())
        assert best == 0.0

    def test_tie_breaks_toward_larger(self):
        data, spec, basis, cfg = small_problem(seed=12, sweeps=2)
        best, scores = cross_validate_lambda(data.u_est, data.y_est, spec.lags,
                                             basis, cfg, [0.3, 0.3], 2,
                                             scaling=Scaling.identity())
        assert best == 0.3
        assert np.allclose(scores[0], scores[1])

    def test_errors(self):
        data, spec, basis, cfg = small_problem(seed=13)
        with pytest.raises(ValueError):
            cross_validate_lambda(data.u_est, data.y_est, spec.lags, basis, cfg,
                                  [], 3)
        with pytest.raises(ValueError):
            cross_validate_lambda(data.u_est, data.y_est, spec.lags, basis, cfg,
                                  [0.1], 1)
        with pytest.raises(ValueError):
            cross_validate_lambda(data.u_est[:20], data.y_est[:20], spec.lags,
                                  basis, cfg, [0.1], 50, scaling=Scaling.identity())

    @pytest.mark.parametrize("grid, means, chosen", [
        ([0.1, 0.3, 0.5], [2.0, 1.0, 1.5], 0.3),
        ([0.1, 0.3], [1.0, 1.0], 0.3),
        ([0.3, 0.1], [1.0, 1.0], 0.3),
        ([0.1, 0.3], [np.nan, 1.0], 0.3),
        ([0.1, 0.3], [1.0, np.nan], 0.1),
        ([0.1, 0.3, 0.5], [2.0, np.nan, 1.0], 0.5),
        ([0.1, 0.3], [np.inf, 1.0], 0.3),
        ([0.1, 0.3], [np.nan, np.inf], 0.3),
    ], ids=["later-lower-mean", "tie-ascending", "tie-descending", "nan-first", "nan-last",
            "nan-between", "inf-first", "nan-inf-tie"])
    def test_winner_rule(self, monkeypatch, grid, means, chosen):
        # Crafted worker results: the lowest mean wins, a NaN or infinite
        # mean ranks as +inf, and an exact tie goes to the larger value. The
        # returned scores keep the non-finite values.
        def crafted(inputs, jobs):
            return [((li, fi), means[li] + 0.25 * (2 * fi - 1), []) for li, fi in jobs]

        monkeypatch.setattr(tnbs.solver, "_run_cv_jobs", crafted)
        data, spec, basis, cfg = small_problem(seed=13)
        best, scores = cross_validate_lambda(data.u_est, data.y_est, spec.lags, basis, cfg,
                                             grid, 2)
        assert best == chosen
        assert np.array_equal(scores.mean(axis=1), means, equal_nan=True)

    def test_warnings_issued_once_up_to_first_failure(self, monkeypatch):
        here = (UserWarning, "here", "f.py", 1)
        later = (UserWarning, "later", "f.py", 2)

        def crafted(inputs, jobs):
            return [((0, 0), 1.0, [here, here]), ((0, 1), NumericalError("failed"), [here]),
                    ((1, 0), 1.0, [later]), ((1, 1), 1.0, [later])]

        monkeypatch.setattr(tnbs.solver, "_run_cv_jobs", crafted)
        data, spec, basis, cfg = small_problem(seed=13)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(NumericalError, match="failed"):
                cross_validate_lambda(data.u_est, data.y_est, spec.lags, basis, cfg,
                                      [0.0, 0.1], 2)
        assert [str(w.message) for w in caught] == ["here"]

    @pytest.mark.parametrize("change,grid,folds,match", [
        ({}, [0.1, -1.0], 3, r"-1\.0 at position 1"),
        ({}, [0.1, np.nan], 3, r"nan at position 1"),
        ({}, [np.inf, 0.1], 3, r"inf at position 0"),
        ({"penalty_order": 6}, [0.1], 3, r"difference order 6"),
        ({"ranks": (2, 2, 2)}, [0.1], 3, r"interior ranks"),
        ({}, [0.1], 2.5, r"folds must be an integer, got 2\.5"),
    ], ids=["negative", "nan", "inf", "penalty-order", "rank-vector", "fractional-folds"])
    def test_bad_grid_or_config_fails_before_any_worker(self, monkeypatch, change, grid, folds,
                                                        match):
        def no_launch(*args, **kwargs):
            raise AssertionError("a worker was launched")

        monkeypatch.setattr(subprocess, "Popen", no_launch)
        data, spec, basis, cfg = small_problem(seed=13)
        cfg = dataclasses.replace(cfg, **change)
        with pytest.raises(ValueError, match=match):
            cross_validate_lambda(data.u_est, data.y_est, spec.lags, basis, cfg, grid, folds)


def run_python(code, **env):
    """Run code in a fresh interpreter that imports this checkout's tnbs."""
    src = str(Path(tnbs.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                            env={**os.environ, "PYTHONPATH": path, **env})
    assert result.returncode == 0, result.stderr
    return result.stdout


def test_import_loads_no_scipy():
    out = run_python("import sys, tnbs; print([m for m in sys.modules "
                     "if m == 'scipy' or m.startswith('scipy.')])")
    assert out.strip() == "[]"


THREAD_FIT = """
import json
from tnbs import FitConfig, LagSpec, Scaling, als_fit, make_basis
from tnbs.synth import SynthSpec, make_dataset
data = make_dataset(SynthSpec(seed=1), snr_db=20.0)
lags = LagSpec((1, 2, 3, 4), (1, 2, 3, 4))
out = {}
for lam in (1e-3, 0.0):
    cfg = FitConfig(ranks=5, penalty_order=2, lambdas=lam, max_sweeps=2, seed=0)
    _, trace = als_fit(data.u_est, data.y_est, lags, make_basis(2, 6), cfg,
                       scaling=Scaling.identity())
    out[repr(lam)] = trace.update_objectives[-1]
print(json.dumps(out))
"""


def test_fit_agrees_across_blas_threads():
    # The BLAS thread count changes trailing digits of every product. With
    # the ridge floor no core solve is left to that rounding, so the fit
    # agrees across thread counts at lambda = 0 as well as when penalized.
    runs = [json.loads(run_python(THREAD_FIT, OPENBLAS_NUM_THREADS=t)) for t in ("1", "2")]
    for lam in ("0.001", "0.0"):
        one, two = runs[0][lam], runs[1][lam]
        assert abs(one - two) <= 1e-9 * one, lam


def test_import_loads_no_process_modules():
    out = run_python("import sys, tnbs; print([m for m in sys.modules "
                     "if m.split('.')[0] in ('subprocess', 'multiprocessing')])")
    assert out.strip() == "[]"


THREAD_CV = """
import json
import numpy as np
from tnbs import FitConfig, LagSpec, Scaling, cross_validate_lambda, make_basis, rmse
from tnbs.model import build_regressors
from tnbs.solver import _fit_rows
from tnbs.synth import SynthSpec, make_dataset
data = make_dataset(SynthSpec(seed=0), snr_db=20.0)
lags, basis, scaling = LagSpec((1, 2, 3, 4), (1, 2, 3, 4)), make_basis(2, 6), Scaling.identity()
cfg = FitConfig(ranks=5, penalty_order=2, max_sweeps=2, seed=0)
grid = (0.0, 1e-3)
best, scores = cross_validate_lambda(data.u_est, data.y_est, lags, basis, cfg, grid, 3,
                                     scaling=scaling)
x_rows, targets, _ = build_regressors(data.u_est, data.y_est, lags, scaling)
blocks = np.array_split(np.arange(len(targets)), 3)
serial = []
for lam in grid:
    for fi, val in enumerate(blocks):
        train = np.concatenate([b for bi, b in enumerate(blocks) if bi != fi])
        model, _ = _fit_rows(x_rows[train], targets[train], lags, basis,
                             FitConfig(ranks=5, penalty_order=2, lambdas=lam, max_sweeps=2,
                                       seed=0), scaling)
        serial.append(rmse(targets[val], model._surface_rows(x_rows[val])))
print(json.dumps({"best": best, "scores": [v.hex() for v in scores.ravel()],
                  "serial": [float(v).hex() for v in serial]}))
"""


def test_cv_scores_independent_of_caller_blas_threads():
    # At lambda = 0 rounding decides the fit: fitted in-process at two BLAS
    # threads instead of one, these folds score up to 2.2e-8 relative apart.
    # The workers always run at one thread, so the caller's setting cannot
    # matter.
    one, two = (json.loads(run_python(THREAD_CV, OPENBLAS_NUM_THREADS=t)) for t in ("1", "2"))
    assert one["scores"] == two["scores"]
    assert one["best"] == two["best"]
    assert one["scores"] == one["serial"]


def write_sitecustomize(monkeypatch, tmp_path, body):
    """Have every worker interpreter run ``body`` at start-up."""
    (tmp_path / "sitecustomize.py").write_text(body, encoding="utf-8")
    path = os.pathsep.join(filter(None, [str(tmp_path), os.environ.get("PYTHONPATH")]))
    monkeypatch.setenv("PYTHONPATH", path)


def record_launches(monkeypatch):
    launched = []

    class Recorded(subprocess.Popen):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            launched.append(self)

    monkeypatch.setattr(subprocess, "Popen", Recorded)
    return launched


UNGUARDED_SCRIPT = """
from tnbs import Scaling, cross_validate_lambda
from tnbs.synth import SynthSpec, make_dataset
from tnbs import FitConfig, make_basis
spec = SynthSpec(input_lags=(1, 2), output_lags=(1,), ranks=2, seed=3, n_samples=4200,
                 smoothing_window=1)
data = make_dataset(spec, snr_db=20.0, n_estimation=4000)
best, scores = cross_validate_lambda(data.u_est, data.y_est, spec.lags, make_basis(2, 6),
                                     FitConfig(ranks=2, max_sweeps=1), [0.0, 0.1], 3,
                                     scaling=Scaling.identity())
print("chosen", best, scores.shape)
"""


def test_unguarded_script_runs_cross_validation(tmp_path):
    # No __main__ guard: a worker that re-imported the caller's script, as
    # multiprocessing's spawn does, would run the CV again in every worker.
    # 4000 rows of inputs also exceed a 64 KiB pipe buffer, the size at which
    # feeding workers through pipes could block.
    script = tmp_path / "cv_script.py"
    script.write_text(UNGUARDED_SCRIPT, encoding="utf-8")
    src = str(Path(tnbs.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    result = subprocess.run([sys.executable, str(script)], capture_output=True, text=True,
                            env={**os.environ, "PYTHONPATH": path}, timeout=120)
    assert result.returncode == 0, result.stderr
    assert result.stdout.startswith("chosen") and result.stdout.strip().endswith("(2, 3)")


def test_worker_exception_reaches_caller_and_no_worker_outlives(monkeypatch, tmp_path):
    write_sitecustomize(monkeypatch, tmp_path, (
        "import tnbs.solver\n"
        "def _fit_rows(*args):\n"
        "    raise tnbs.solver.NumericalError('injected failure')\n"
        "tnbs.solver._fit_rows = _fit_rows\n"))
    launched = record_launches(monkeypatch)
    data, spec, basis, cfg = small_problem(seed=14)
    with pytest.raises(NumericalError, match="injected failure"):
        cross_validate_lambda(data.u_est, data.y_est, spec.lags, basis, cfg, [0.0, 0.1], 3)
    assert launched
    assert all(proc.returncode is not None for proc in launched)


def test_worker_death_names_exit_code(monkeypatch, tmp_path):
    # The worker dies before reading its input, which is larger than a pipe
    # buffer: were it fed through a pipe, writing to it would meet a broken
    # pipe.
    write_sitecustomize(monkeypatch, tmp_path, "import os\nos._exit(3)\n")
    launched = record_launches(monkeypatch)
    data, spec, basis, cfg = small_problem(seed=15, n_samples=4000)
    with pytest.raises(RuntimeError, match="exited with code 3"):
        cross_validate_lambda(data.u_est, data.y_est, spec.lags, basis, cfg, [0.0, 0.1], 3)
    assert launched
    assert all(proc.returncode is not None for proc in launched)


KILLED_CV = """
import os, subprocess, time
from tnbs import FitConfig, LagSpec, Scaling, cross_validate_lambda, make_basis
from tnbs.model import build_regressors
from tnbs.solver import _fit_rows
from tnbs.synth import SynthSpec, make_dataset

class Announced(subprocess.Popen):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        print(self.pid, flush=True)

os.sched_setaffinity(0, sorted(os.sched_getaffinity(0))[:2])
print(len(os.sched_getaffinity(0)), flush=True)
data = make_dataset(SynthSpec(seed=0), snr_db=20.0)
lags, basis, scaling = LagSpec((1, 2, 3, 4), (1, 2, 3, 4)), make_basis(2, 6), Scaling.identity()
# About 1 s per fit, so a worker that ran out its 12 jobs would outlive the
# caller by several times one fit plus the margin.
cfg = FitConfig(ranks=5, penalty_order=2, max_sweeps=64, seed=0)
x_rows, targets, _ = build_regressors(data.u_est, data.y_est, lags, scaling)
train = 2 * len(targets) // 3
start = time.perf_counter()
_fit_rows(x_rows[:train], targets[:train], lags, basis, cfg, scaling)
print(time.perf_counter() - start, flush=True)
subprocess.Popen = Announced
cross_validate_lambda(data.u_est, data.y_est, lags, basis, cfg, [1e-3] * 8, 3, scaling=scaling)
"""


def running(pid):
    """Whether pid is a live process (a zombie awaiting its reaper is not)."""
    try:
        with open(f"/proc/{pid}/stat", encoding="ascii") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False


@pytest.mark.skipif(not (hasattr(os, "sched_setaffinity") and os.path.isdir("/proc/self")),
                    reason="needs CPU affinity and /proc")
def test_workers_stop_when_caller_is_killed():
    # SIGTERM ends the caller without running the finally that kills its
    # workers; each worker must see at its next job that its caller is gone,
    # so none outlives the caller by more than one fit (timed in the caller
    # on a fold's rows) plus a margin for exit and scheduling. The caller
    # pins itself to at most two CPUs, so at most two workers run.
    margin_s = 2.0
    src = str(Path(tnbs.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    caller = subprocess.Popen([sys.executable, "-c", KILLED_CV], stdout=subprocess.PIPE,
                              text=True, env={**os.environ, "PYTHONPATH": path})
    workers = []
    try:
        cpus = int(caller.stdout.readline())
        fit_s = float(caller.stdout.readline())
        while len(workers) < cpus:
            workers.append(int(caller.stdout.readline()))
        assert len(workers) <= len(os.sched_getaffinity(0))
        time.sleep(0.5 + 0.5 * fit_s)  # every worker is inside its first fit
        assert all(running(pid) for pid in workers)
        caller.send_signal(signal.SIGTERM)
        caller.wait(timeout=10)
        deadline = time.perf_counter() + fit_s + margin_s
        while any(running(pid) for pid in workers) and time.perf_counter() < deadline:
            time.sleep(0.05)
        assert not any(running(pid) for pid in workers), (fit_s, margin_s)
    finally:
        caller.kill()
        caller.wait()
        caller.stdout.close()
        for pid in workers:
            if running(pid):
                os.kill(pid, signal.SIGKILL)


def test_worker_warning_reaches_caller(monkeypatch, tmp_path):
    write_sitecustomize(monkeypatch, tmp_path, (
        "import warnings, tnbs.solver\n"
        "fit_rows = tnbs.solver._fit_rows\n"
        "def _fit_rows(*args):\n"
        "    warnings.warn('injected warning', RuntimeWarning)\n"
        "    return fit_rows(*args)\n"
        "tnbs.solver._fit_rows = _fit_rows\n"))
    data, spec, basis, cfg = small_problem(seed=16, sweeps=2)
    with pytest.warns(RuntimeWarning, match="injected warning"):
        _, scores = cross_validate_lambda(data.u_est, data.y_est, spec.lags, basis, cfg,
                                          [0.0, 0.1], 2)
    assert np.isfinite(scores).all()
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(RuntimeWarning, match="injected warning"):
            cross_validate_lambda(data.u_est, data.y_est, spec.lags, basis, cfg, [0.0, 0.1], 2)
