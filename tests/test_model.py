import json
import re
import time

import numpy as np
import pytest

from tnbs import (
    LagSpec,
    Scaling,
    TensorTrain,
    TnbsModel,
    build_regressors,
    eval_basis,
    inner,
    make_basis,
    rmse,
    tt_to_full,
)
from tnbs.model import _lagged
from tnbs.synth import SynthSpec, make_dataset


def constant_model(d, value, lags=None):
    """Rank-one train whose dense tensor is constant, so the surface is flat."""
    basis = make_basis(2, 6)
    k = basis.basis_count
    cores = [np.full((1, k, 1), value)] + [np.ones((1, k, 1)) for _ in range(d - 1)]
    if lags is None:
        lags = LagSpec(tuple(range(d - 1)), (1,)) if d > 1 else LagSpec((0,), ())
    return TnbsModel(basis=basis, lags=lags, weights=TensorTrain(tuple(cores)),
                     scaling=Scaling.identity())


def random_model(rng, d, ranks, lags, basis=(2, 6)):
    basis = make_basis(*basis)
    k = basis.basis_count
    full = (1,) + tuple(ranks) + (1,)
    cores = tuple(rng.standard_normal((full[p], k, full[p + 1])) for p in range(d))
    return TnbsModel(basis=basis, lags=lags, weights=TensorTrain(cores),
                     scaling=Scaling.identity())


FREE_RUN_LAYOUTS = [
    LagSpec((0, 2), (1, 3)),
    LagSpec((), (1, 2, 3)),
    LagSpec((0, 1, 2), ()),
    LagSpec((1, 2, 3, 4, 8, 12, 16, 32), (1, 2, 3, 4, 8, 12, 16, 32)),
]
FREE_RUN_LAYOUT_IDS = ["mixed", "output-only", "input-only", "tanks"]


class TestLagSpec:
    def test_sorted_and_deduplicated(self):
        lags = LagSpec((3, 1, 1), (2, 4))
        assert lags.input_lags == (1, 3)
        assert lags.output_lags == (2, 4)
        assert lags.dimension == 4
        assert lags.start_index == 4

    def test_output_lag_zero_rejected(self):
        with pytest.raises(ValueError):
            LagSpec((1,), (0,))

    def test_negative_input_lag_rejected(self):
        with pytest.raises(ValueError):
            LagSpec((-1,), (1,))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            LagSpec((), ())

    def test_fractional_lag_rejected(self):
        with pytest.raises(ValueError, match="4.6"):
            LagSpec((1, 4.6), (1,))
        assert LagSpec((2.0,), (1,)).input_lags == (2,)

    def test_input_only(self):
        lags = LagSpec((0, 2), ())
        assert lags.dimension == 2
        assert lags.max_output_lag == 0
        assert lags.start_index == 2


class TestScaling:
    def test_unit_interval_identity(self):
        sc = Scaling.fit([0.0, 1.0], [0.0, 1.0])
        assert sc == Scaling.identity()

    def test_midpoint(self):
        sc = Scaling.fit([0.0, 1.0], [2.0, 4.0])
        assert sc.scale_y(3.0) == 0.5

    def test_roundtrip(self):
        rng = np.random.default_rng(0)
        sc = Scaling.fit([-1.0, 2.0], [5.0, 9.0])
        xs = rng.uniform(4.0, 10.0, size=100)
        assert np.allclose(sc.unscale_y(sc.scale_y(xs)), xs, atol=1e-14)

    def test_constant_signal_rejected(self):
        with pytest.raises(ValueError):
            Scaling.fit([1.0, 1.0], [0.0, 1.0])
        with pytest.raises(ValueError):
            Scaling.fit([0.0, 1.0], [2.0, 2.0])

    @pytest.mark.parametrize("u,y,match", [
        ([0.0, np.nan], [0.0, 1.0], "u sample 1 is not finite: nan"),
        ([0.0, 1.0], [-np.inf, 1.0], "y sample 0 is not finite: -inf"),
    ], ids=["u-nan", "y-minus-inf"])
    def test_non_finite_sample_named(self, u, y, match):
        with pytest.raises(ValueError, match=f"^{match}$"):
            Scaling.fit(u, y)

    def test_non_finite_bounds_rejected(self):
        for bounds in ((0.0, np.inf, 0.0, 1.0), (-np.inf, 1.0, 0.0, 1.0),
                       (0.0, 1.0, np.nan, 1.0), (0.0, 1.0, 0.0, np.inf)):
            with pytest.raises(ValueError, match="finite"):
                Scaling(*bounds)


class TestEvalSurface:
    def test_d1_is_dot_product(self):
        basis = make_basis(2, 6)
        w = np.array([0.3, -1.0, 2.0, 0.5])
        model = TnbsModel(
            basis=basis,
            lags=LagSpec((0,), ()),
            weights=TensorTrain((w.reshape(1, 4, 1),)),
            scaling=Scaling.identity(),
        )
        for x in (0.0, 0.31, 0.77, 1.0):
            assert abs(model.eval_surface([x]) - eval_basis(basis, x) @ w) < 1e-14

    def test_constant_surface(self):
        model = constant_model(3, 2.5)
        rng = np.random.default_rng(1)
        for x in rng.random((20, 3)):
            assert abs(model.eval_surface(x) - 2.5) < 1e-12

    def test_matches_dense_inner_product(self):
        rng = np.random.default_rng(2)
        model = random_model(rng, 3, (2, 2), LagSpec((0, 1), (1,)))
        full = tt_to_full(model.weights)
        basis = model.basis
        for x in rng.random((20, 3)):
            b = [eval_basis(basis, xi) for xi in x]
            dense = inner(np.einsum("i,j,k->ijk", *b), full)
            assert abs(model.eval_surface(x) - dense) < 1e-10

    def test_dimension_mismatch(self):
        model = constant_model(3, 1.0)
        with pytest.raises(ValueError):
            model.eval_surface([0.1, 0.2])


class TestBuildRegressors:
    def test_three_sample_example(self):
        # y_n depends on (u_n, u_{n-1}, y_{n-1}); three samples give two rows.
        lags = LagSpec((0, 1), (1,))
        u = np.array([0.1, 0.2, 0.3])
        y = np.array([0.5, 0.6, 0.7])
        x, t, start = build_regressors(u, y, lags, Scaling.identity())
        assert start == 1
        assert x.shape == (2, 3)
        assert np.allclose(x[0], [0.2, 0.1, 0.5])
        assert np.allclose(x[1], [0.3, 0.2, 0.6])
        assert np.allclose(t, [0.6, 0.7])

    def test_constant_signals(self):
        lags = LagSpec((1,), (1,))
        u = np.full(6, 0.25)
        y = np.full(6, 0.75)
        x, t, _ = build_regressors(u, y, lags, Scaling.identity())
        assert np.allclose(x, np.tile([0.25, 0.75], (5, 1)))
        assert np.allclose(t, 0.75)

    def test_hand_indexed(self):
        lags = LagSpec((1,), (1, 2))
        u = np.arange(1.0, 11.0)
        y = np.arange(10.0, 0.0, -1.0)
        sc = Scaling.fit(u, y)
        x, t, start = build_regressors(u, y, lags, sc)
        assert start == 2
        for row, n in enumerate(range(start, 10)):
            assert x[row, 0] == sc.scale_u(u[n - 1])
            assert x[row, 1] == sc.scale_y(y[n - 1])
            assert x[row, 2] == sc.scale_y(y[n - 2])
            assert t[row] == sc.scale_y(y[n])

    def test_too_short(self):
        lags = LagSpec((1,), (1, 4))
        with pytest.raises(ValueError):
            build_regressors(np.zeros(4), np.zeros(4), lags, Scaling.identity())

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            build_regressors(np.zeros(5), np.zeros(4), LagSpec((1,), (1,)), Scaling.identity())


class TestPredictSimulate:
    def test_constant_model_predicts_constant(self):
        model = constant_model(3, 0.4, lags=LagSpec((0, 1), (1,)))
        u = np.linspace(0, 1, 20)
        y = np.linspace(0, 1, 20)
        pred = model.predict(u, y)
        assert pred.shape == (19,)
        assert np.allclose(pred, 0.4, atol=1e-12)

    def test_self_consistency_on_generated_data(self):
        # data generated by the model itself is predicted back exactly
        spec = SynthSpec(input_lags=(1, 2), output_lags=(1,), ranks=2, seed=8,
                         n_samples=300)
        data = make_dataset(spec, snr_db=np.inf, n_estimation=200)
        model = data.true_model
        pred = model.predict(data.u_est, data.y_est)
        start = model.lags.start_index
        assert rmse(data.y_est[start:], pred) < 1e-6

    def test_simulate_equals_predict_without_output_lags(self):
        rng = np.random.default_rng(3)
        lags = LagSpec((1, 2, 3), ())
        model = random_model(rng, 3, (2, 2), lags)
        u = rng.random(40)
        y = model.predict(u, np.zeros(40))
        sim = model.simulate(u, np.zeros(3))
        assert np.array_equal(sim, y)

    def test_simulate_length_and_finiteness(self):
        spec = SynthSpec(input_lags=(1, 2), output_lags=(1,), ranks=2, seed=9,
                         n_samples=120)
        data = make_dataset(spec, snr_db=np.inf, n_estimation=80)
        model = data.true_model
        start = model.lags.start_index
        sim = model.simulate(data.u_test, data.y_test[:start])
        assert sim.shape == (len(data.u_test) - start,)
        assert np.isfinite(sim).all()

    def test_simulate_reproduces_generated_output(self):
        spec = SynthSpec(seed=10, n_samples=400)
        data = make_dataset(spec, snr_db=np.inf, n_estimation=300)
        model = data.true_model
        start = model.lags.start_index
        sim = model.simulate(data.u_est, data.y_est[:start])
        assert rmse(data.y_est[start:], sim) < 1e-6

    def test_warmup_too_short(self):
        model = constant_model(3, 0.4, lags=LagSpec((1,), (1, 2)))
        with pytest.raises(ValueError):
            model.simulate(np.zeros(10), np.zeros(1))

    def test_warmup_must_cover_input_lags(self):
        model = constant_model(3, 0.4, lags=LagSpec((1, 3), (1,)))
        with pytest.raises(ValueError, match="2 samples does not cover the largest input lag 3"):
            model.simulate(np.zeros(10), np.zeros(2))

    def test_non_finite_input_named(self):
        model = constant_model(3, 0.4, lags=LagSpec((0, 1), (1,)))
        u = np.zeros(10)
        u[7] = np.inf
        with pytest.raises(ValueError, match=r"^u sample 7 is not finite: inf$"):
            model.predict(u, np.zeros(10))
        with pytest.raises(ValueError, match=r"^u sample 7 is not finite: inf$"):
            model.simulate(u, np.zeros(1))

    @pytest.mark.parametrize("lags", FREE_RUN_LAYOUTS, ids=FREE_RUN_LAYOUT_IDS)
    def test_simulate_matches_row_by_row_oracle(self, lags):
        rng = np.random.default_rng(3)
        d = lags.dimension
        model = random_model(rng, d, (2,) * (d - 1), lags)
        u = rng.random(120)
        y_warmup = rng.random(lags.start_index)
        expected = simulate_by_rows(model, u, y_warmup)
        sim = model.simulate(u, y_warmup)
        assert sim.shape == expected.shape
        assert np.linalg.norm(sim - expected) <= 1e-12 * np.linalg.norm(expected)

    @pytest.mark.parametrize("basis", [(0, 3), (2, 6), (3, 7)],
                             ids=["degree0", "degree2", "degree3"])
    @pytest.mark.parametrize("lags", FREE_RUN_LAYOUTS, ids=FREE_RUN_LAYOUT_IDS)
    def test_simulate_bitwise_equals_per_step_oracle(self, lags, basis):
        # Seed 33 gives every case a run through several values inside [0, 1].
        rng = np.random.default_rng(33)
        d = lags.dimension
        model = random_model(rng, d, (2,) * (d - 1), lags, basis)
        u = rng.random(120)
        y_warmup = rng.uniform(-0.5, 1.5, lags.start_index)
        y_warmup[0] = -0.25  # warmup outside [0, 1], clipped on evaluation
        expected = simulate_by_steps(model, u, y_warmup)
        sim = model.simulate(u, y_warmup)
        assert sim.tobytes() == expected.tobytes()

    def test_full_length_warmup_simulates_nothing(self):
        model = constant_model(3, 0.4, lags=LagSpec((0, 1), (1,)))
        sim = model.simulate(np.zeros(10), np.zeros(10))
        assert sim.shape == (0,)

    @pytest.mark.parametrize("y_warmup, message", [
        (np.zeros((1, 1)), "y_warmup must be a one-dimensional signal"),
        (np.zeros((2, 3)), "y_warmup must be a one-dimensional signal"),
        (0.5, "y_warmup must be a one-dimensional signal"),
        (np.array([0.2, np.nan]), "y_warmup sample 1 is not finite"),
        (np.zeros(11), "warmup longer than the input signal"),
    ], ids=["column", "matrix", "scalar", "nan", "longer-than-input"])
    def test_bad_warmup_rejected_by_name(self, y_warmup, message):
        model = constant_model(2, 0.4, lags=LagSpec((0,), (1,)))
        with pytest.raises(ValueError, match=message):
            model.simulate(np.zeros(10), y_warmup)

    @np.errstate(over="ignore", invalid="ignore")
    def test_non_finite_free_run(self):
        # At u_t = 1 the output overflows to inf, -inf or NaN (inf - inf).
        nan_model = overflow_model((1.0, -1.0))
        with pytest.raises(ValueError, match="output at sample 2 is NaN"):
            nan_model.simulate([0.0, 0.0, 1.0, 0.0], [0.3])
        # A NaN that no later step reads is returned as is.
        assert np.isnan(nan_model.simulate([0.0, 1.0], [0.3])).all()
        sim = nan_model.simulate([0.0, 0.0, 1.0], [0.3])
        assert sim[0] == 0.3 and np.isnan(sim[1])
        # Infinite outputs are returned and fed back clipped onto [0, 1].
        u = [0.0, 0.0, 1.0, 0.0, 0.0]
        assert list(overflow_model((1.0, 1.0)).simulate(u, [0.3])) == [0.3, np.inf, 1.0, 1.0]
        assert list(overflow_model((-1.0, -1.0)).simulate(u, [0.3])) == [0.3, -np.inf, 0.0, 0.0]


def overflow_model(signs):
    """Linear hats on u_t, u_{t-1}, y_{t-1}; inputs in {0, 1} keep every product exact.

    At u_t = 0 the output is the fed-back y_{t-1}. At u_t = 1 the input cores
    carry 1e300 * 1e300 = inf into the last fold, whose hat weights ``signs``
    turn it into +inf, -inf, or NaN (inf - inf) when the signs differ.
    """
    core0 = np.array([[[1.0, 0.0], [1.0, 1e300]]])
    core1 = np.zeros((2, 2, 2))
    core1[0, :, 0] = 1.0
    core1[1, :, 1] = 1e300
    core2 = np.array([[[0.0], [1.0]], [[signs[0]], [signs[1]]]])
    return TnbsModel(basis=make_basis(1, 3), lags=LagSpec((0, 1), (1,)),
                     weights=TensorTrain((core0, core1, core2)), scaling=Scaling.identity())


def simulate_by_steps(model, u, y_warmup):
    """Free run that evaluates each step's output-lag basis rows afresh.

    One ``basis_rows`` call and one fold per step over the scaled history;
    ``simulate`` keeps each fed-back output's row instead and must match this
    bitwise.
    """
    us = model.scaling.scale_u(u)
    t0, n = len(y_warmup), len(u)
    hist = np.empty(n)
    hist[:t0] = model.scaling.scale_y(y_warmup)
    head = model._fold_rows(_lagged(us, np.arange(t0, n), model.lags.input_lags),
                            np.ones((n - t0, 1)))
    out_lags = np.array(model.lags.output_lags, dtype=int)
    nu = len(model.lags.input_lags)
    out = np.empty(n - t0)
    for t in range(t0, n):
        s = float(model._fold_rows(hist[None, t - out_lags], head[t - t0, None], nu)[0, 0])
        out[t - t0] = s
        hist[t] = min(max(s, 0.0), 1.0)
    return model.scaling.unscale_y(out)


def simulate_by_rows(model, u, y_warmup):
    """Free run rebuilt one regressor row per step from u and the fed-back outputs."""
    us = model.scaling.scale_u(u)
    hist = list(model.scaling.scale_y(y_warmup))
    out = []
    for t in range(len(y_warmup), len(u)):
        x = ([us[t - l] for l in model.lags.input_lags]
             + [hist[t - l] for l in model.lags.output_lags])
        s = model.eval_surface(np.array(x))
        out.append(s)
        hist.append(min(max(s, 0.0), 1.0))
    return model.scaling.unscale_y(np.array(out))


class TestRmse:
    def test_zero_for_identical(self):
        y = np.array([1.0, 2.0, 3.0])
        assert rmse(y, y) == 0.0

    def test_unit_offset(self):
        assert rmse([0.0, 0.0], [1.0, 1.0]) == 1.0

    def test_formula(self):
        assert abs(rmse([0.0, 3.0], [0.0, 0.0]) - np.sqrt(9.0 / 2.0)) < 1e-15

    def test_errors(self):
        with pytest.raises(ValueError):
            rmse([1.0], [1.0, 2.0])
        with pytest.raises(ValueError):
            rmse([], [])


class TestSerialization:
    def test_roundtrip_is_value_exact(self, tmp_path):
        rng = np.random.default_rng(4)
        model = random_model(rng, 3, (2, 3), LagSpec((0, 2), (1,)))
        path = tmp_path / "model.json"
        model.save(path)
        loaded = TnbsModel.load(path)
        assert loaded.lags == model.lags
        assert loaded.scaling == model.scaling
        assert loaded.basis.degree == model.basis.degree
        assert loaded.basis.knot_param == model.basis.knot_param
        for a, b in zip(model.weights.cores, loaded.weights.cores):
            assert np.array_equal(a, b)

    def test_loaded_model_predicts_identically(self, tmp_path):
        rng = np.random.default_rng(5)
        model = random_model(rng, 3, (2, 2), LagSpec((0, 1), (1,)))
        u, y = rng.random(30), rng.random(30)
        path = tmp_path / "model.json"
        model.save(path)
        loaded = TnbsModel.load(path)
        assert np.array_equal(model.predict(u, y), loaded.predict(u, y))

    def test_model_with_byte_order_mark_loads(self, tmp_path):
        # An editor may save JSON as "UTF-8 with BOM"; the loader reads it as
        # read_signal_csv reads such CSVs.
        rng = np.random.default_rng(5)
        model = random_model(rng, 3, (2, 2), LagSpec((0, 1), (1,)))
        u, y = rng.random(30), rng.random(30)
        path, bom = tmp_path / "model.json", tmp_path / "bom.json"
        model.save(path)
        bom.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
        assert np.array_equal(model.predict(u, y), TnbsModel.load(bom).predict(u, y))

    def test_rejects_unknown_format(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"format_version": 99}')
        with pytest.raises(ValueError):
            TnbsModel.load(path)

    def test_rejects_garbage(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("not json at all")
        with pytest.raises(ValueError):
            TnbsModel.load(path)

    def test_rejects_text_that_is_not_utf8(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_bytes(b"\xff\xfe{}")
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: not a valid model file"):
            TnbsModel.load(path)

    @pytest.mark.parametrize("corrupt", [
        lambda doc: doc["cores"][1]["values"].__setitem__(3, float("nan")),
        lambda doc: doc["cores"][0]["values"].__setitem__(0, float("inf")),
        lambda doc: doc["cores"][2]["values"].__setitem__(1, float("-inf")),
        lambda doc: doc["scaling"].__setitem__("u_max", float("inf")),
        lambda doc: doc["scaling"].__setitem__("y_min", float("nan")),
        lambda doc: doc["cores"][0]["values"].pop(),
        lambda doc: doc["cores"][1].update(shape=[3, 4, 2], values=[0.0] * 24),
        lambda doc: doc.update(knot_param=4),
        lambda doc: doc.update(output_lags=[0]),
        lambda doc: doc.update(input_lags=[0, 1.6]),
        lambda doc: doc.update(degree=2.9),
        lambda doc: doc.update(knot_param=6.5),
        lambda doc: doc.update(ranks=[1, 99, 99, 1]),
        lambda doc: doc.update(ranks="garbage"),
    ], ids=["nan-core", "inf-core", "neg-inf-core", "inf-scaling", "nan-scaling",
            "value-count", "rank-mismatch", "knot-param", "output-lag-0",
            "fractional-lag", "fractional-degree", "fractional-knot-param",
            "stated-ranks-mismatch", "stated-ranks-garbage"])
    def test_invalid_document_names_the_file(self, tmp_path, corrupt):
        model = random_model(np.random.default_rng(7), 3, (2, 2), LagSpec((0, 1), (1,)))
        path = tmp_path / "model.json"
        model.save(path)
        doc = json.loads(path.read_text())
        corrupt(doc)
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError) as info:
            TnbsModel.load(path)
        assert str(path) in str(info.value)


def test_model_weight_shape_validation():
    basis = make_basis(2, 6)
    cores = (np.zeros((1, 3, 1)),)  # middle extent 3 != basis_count 4
    with pytest.raises(ValueError):
        TnbsModel(basis=basis, lags=LagSpec((0,), ()), weights=TensorTrain(cores),
                  scaling=Scaling.identity())


def test_model_core_count_must_match_lags():
    cores = (np.ones((1, 4, 1)),) * 2
    with pytest.raises(ValueError, match="has 2 cores but the lag structure needs 3"):
        TnbsModel(basis=make_basis(2, 6), lags=LagSpec((0, 1), (1,)),
                  weights=TensorTrain(cores), scaling=Scaling.identity())


def test_evaluation_cost_roughly_linear_in_dimension():
    rng = np.random.default_rng(6)
    times = {}
    for d in (4, 16):
        lags = LagSpec(tuple(range(1, d + 1)), ())
        model = random_model(rng, d, (3,) * (d - 1), lags)
        xs = rng.random((400, d))
        best = np.inf
        for _ in range(3):
            t0 = time.perf_counter()
            model._surface_rows(xs)
            best = min(best, time.perf_counter() - t0)
        times[d] = best
    # linear scaling predicts a factor of 4; allow generous slack for overhead
    assert times[16] < 12 * times[4] + 1e-3
