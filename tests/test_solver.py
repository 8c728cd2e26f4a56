import dataclasses
import json
import os
import subprocess
import sys
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
from tnbs.model import TnbsModel
from tnbs.synth import SynthSpec, make_dataset


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
        tt = orthogonalize_to_site(random_tt(rng, 16, 4, (8,) * 15), 1)
        xs = rng.random((3, 16))
        basis = make_basis(3, 7)
        bmats = [basis_rows(basis, xs[:, q]) for q in range(16)]
        a = build_design_matrix(tt, bmats, 1)
        assert a.shape == (3, 8 * 4 * 8)

    def test_canonical_site_required(self):
        rng = np.random.default_rng(4)
        tt = orthogonalize_to_site(random_tt(rng, 3, 4, (2, 2)), 0)
        basis = make_basis(2, 6)
        xs = rng.random((4, 3))
        bmats = [basis_rows(basis, xs[:, q]) for q in range(3)]
        with pytest.raises(ValueError):
            build_design_matrix(tt, bmats, 1)


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

    def test_requires_canonical_site(self):
        rng = np.random.default_rng(8)
        tt = orthogonalize_to_site(random_tt(rng, 3, 4, (2, 2)), 0)
        with pytest.raises(ValueError):
            build_penalty_matrix(tt, difference_matrix(4, 1), 2, 0)


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

    def test_non_finite_rejected(self):
        a = np.full((4, 2), np.nan)
        with pytest.raises(NumericalError):
            update_core(a, np.zeros(4), [], [])


def small_problem(seed, n_samples=260, lam=0.0, alpha=1, sweeps=6, fit_seed=0,
                  batch_size=None, epsilon=0.0):
    spec = SynthSpec(input_lags=(1, 2), output_lags=(1,), ranks=2, seed=seed,
                     n_samples=n_samples, smoothing_window=1)
    data = make_dataset(spec, snr_db=20.0, n_estimation=n_samples - 60)
    cfg = FitConfig(ranks=2, penalty_order=alpha, lambdas=lam, max_sweeps=sweeps,
                    seed=fit_seed, batch_size=batch_size, epsilon=epsilon)
    basis = make_basis(2, 6)
    return data, spec, basis, cfg


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

    def test_full_batch_equals_unbatched(self):
        data, spec, basis, cfg = small_problem(seed=3, lam=0.01)
        n_rows = len(data.u_est) - spec.lags.start_index
        cfg_b = dataclasses.replace(cfg, batch_size=n_rows)
        m1, t1 = als_fit(data.u_est, data.y_est, spec.lags, basis, cfg,
                         scaling=Scaling.identity())
        m2, t2 = als_fit(data.u_est, data.y_est, spec.lags, basis, cfg_b,
                         scaling=Scaling.identity())
        assert t1.update_objectives == t2.update_objectives
        for a, b in zip(m1.weights.cores, m2.weights.cores):
            assert np.array_equal(a, b)

    def test_mini_batch_runs_and_is_deterministic(self):
        data, spec, basis, cfg = small_problem(seed=4, lam=0.01, batch_size=64)
        m1, t1 = als_fit(data.u_est, data.y_est, spec.lags, basis, cfg,
                         scaling=Scaling.identity())
        m2, t2 = als_fit(data.u_est, data.y_est, spec.lags, basis, cfg,
                         scaling=Scaling.identity())
        assert np.isfinite(t1.update_objectives).all()
        assert t1.update_objectives == t2.update_objectives

    def test_stopping_criterion_honored(self):
        data, spec, basis, cfg = small_problem(seed=5, lam=0.0, sweeps=12,
                                               epsilon=1e3)
        _, trace = als_fit(data.u_est, data.y_est, spec.lags, basis, cfg,
                           scaling=Scaling.identity())
        assert trace.stopped_early
        assert trace.sweeps_run == 2
        js = trace.first_core_objectives
        assert abs(js[-2] - js[-1]) <= 1e3

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
        # the fitted model plus every dimension's penalty on the dense tensor.
        data, spec, basis, cfg = small_problem(seed=14, lam=lam, alpha=alpha)
        model, trace = als_fit(data.u_est, data.y_est, spec.lags, basis, cfg,
                               scaling=Scaling.identity())
        resid = data.y_est[spec.lags.start_index:] - model.predict(data.u_est, data.y_est)
        full = tt_to_full(model.weights)
        dmat = difference_matrix(basis.basis_count, alpha)
        lams = cfg.resolved_lambdas(3)
        ref = float(resid @ resid) + sum(
            lams[j] * dense_penalty(full, dmat, j) for j in range(3)
        )
        assert abs(trace.update_objectives[-1] - ref) <= 1e-12 * ref

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
            FitConfig(batch_size=0)
        with pytest.raises(ValueError):
            FitConfig(ranks=0).resolved_ranks(3)
        with pytest.raises(ValueError):
            FitConfig(lambdas=-0.5).resolved_lambdas(3)
        with pytest.raises(ValueError):
            FitConfig(epsilon=np.nan)
        for lam in (np.nan, np.inf, (0.1, np.nan, 0.2), (0.1, 0.2, np.inf)):
            with pytest.raises(ValueError):
                FitConfig(lambdas=lam).resolved_lambdas(3)


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
data = make_dataset(SynthSpec(seed=0), snr_db=20.0)
lags = LagSpec((1, 2, 3, 4), (1, 2, 3, 4))
out = {}
for lam in (1e-3, 0.0):
    cfg = FitConfig(ranks=5, penalty_order=2, lambdas=lam, max_sweeps=2, seed=0)
    _, trace = als_fit(data.u_est, data.y_est, lags, make_basis(2, 6), cfg,
                       scaling=Scaling.identity())
    out[repr(lam)] = [trace.fallback_solves, trace.update_objectives[-1]]
print(json.dumps(out))
"""


def test_solve_route_agrees_across_blas_threads():
    # The BLAS thread count changes trailing digits, which must neither send a
    # regularized update to the stacked least squares nor move the objective
    # beyond rounding. At lambda = 0 the normal equations really lose digits
    # and the stacked route stays in use.
    runs = [json.loads(run_python(THREAD_FIT, OPENBLAS_NUM_THREADS=t)) for t in ("1", "2")]
    (fb1, obj1), (fb2, obj2) = runs[0]["0.001"], runs[1]["0.001"]
    assert fb1 == fb2 == 0
    assert abs(obj1 - obj2) <= 1e-12 * obj1
    assert all(run["0.0"][0] > 0 for run in runs)
