import numpy as np
import pytest

from tnbs import (
    FitConfig,
    Scaling,
    SynthSpec,
    add_noise,
    als_fit,
    generate_input,
    generate_output,
    generate_true_weights,
    make_basis,
    make_dataset,
    rmse,
    tt_to_full,
)
from tnbs.model import LagSpec, TnbsModel
from tnbs.tensor import TensorTrain


class TestTrueWeights:
    def test_default_spec_dense_size_and_ranks(self):
        spec = SynthSpec(seed=0)
        tt = generate_true_weights(spec)
        assert tt.shape == (4,) * 8
        assert all(r <= 5 for r in tt.ranks[1:-1])
        # the dense source holds 4^8 entries; spot check via reconstruction values
        full = tt_to_full(tt)
        assert full.size == 4**8

    def test_two_valued_source(self):
        spec = SynthSpec(input_lags=(1,), output_lags=(1,), ranks=16, seed=1)
        # unconstrained ranks reproduce the dense tensor exactly
        full = tt_to_full(generate_true_weights(spec))
        assert set(np.round(np.unique(full), 9)) <= {-4.0, 5.0}

    def test_deterministic(self):
        spec = SynthSpec(seed=2)
        a = generate_true_weights(spec)
        b = generate_true_weights(spec)
        for x, y in zip(a.cores, b.cores):
            assert np.array_equal(x, y)

    def test_dense_cap(self):
        spec = SynthSpec(input_lags=tuple(range(1, 14)), output_lags=(1,), seed=3)
        with pytest.raises(ValueError):
            generate_true_weights(spec)


class TestInputSignal:
    def test_window_one_is_raw_uniform(self):
        u = generate_input(100, window=1, seed=4)
        assert u.shape == (100,)
        assert np.array_equal(u, np.random.default_rng(4).random(100))

    def test_default_length_and_range(self):
        u = generate_input(3000, window=5, seed=5)
        assert u.shape == (3000,)
        assert u.min() >= 0.0 and u.max() <= 1.0

    def test_smoothing_reduces_first_differences(self):
        raw = generate_input(3000, window=1, seed=6)
        smooth = generate_input(3000, window=5, seed=6)
        assert np.abs(np.diff(smooth)).mean() < np.abs(np.diff(raw)).mean()

    def test_invalid_window(self):
        with pytest.raises(ValueError):
            generate_input(100, window=4, seed=0)
        with pytest.raises(ValueError):
            generate_input(3, window=5, seed=0)
        with pytest.raises(ValueError, match="window must be an integer"):
            generate_input(100, window=3.5, seed=0)
        with pytest.raises(ValueError, match="signal length must be an integer"):
            generate_input(100.5, window=3, seed=0)

    def test_integral_float_arguments_accepted(self):
        assert np.array_equal(generate_input(100.0, window=3.0, seed=0),
                              generate_input(100, window=3, seed=0))


class TestOutputSignal:
    def test_zero_weights_give_zero_output(self):
        basis = make_basis(2, 6)
        lags = LagSpec((1,), (1,))
        cores = (np.zeros((1, 4, 1)), np.zeros((1, 4, 1)))
        model = TnbsModel(basis=basis, lags=lags, weights=TensorTrain(cores),
                          scaling=Scaling.identity())
        y = generate_output(model, np.linspace(0, 1, 50), 1)
        assert np.array_equal(y, np.zeros(50))

    def test_default_protocol_length(self):
        spec = SynthSpec(seed=7)
        data = make_dataset(spec, snr_db=np.inf)
        assert len(data.u_est) + len(data.u_test) == 3000

    def test_deterministic(self):
        spec = SynthSpec(seed=8, n_samples=500)
        a = make_dataset(spec, snr_db=np.inf, n_estimation=400)
        b = make_dataset(spec, snr_db=np.inf, n_estimation=400)
        assert np.array_equal(a.y_est, b.y_est)
        assert np.array_equal(a.u_test, b.u_test)

    def test_warmup_must_cover_output_lags(self):
        spec = SynthSpec(seed=9, n_samples=200)
        data = make_dataset(spec, snr_db=np.inf, n_estimation=150)
        with pytest.raises(ValueError):
            generate_output(data.true_model, data.u_est, 2)


class TestNoise:
    def test_infinite_snr_identity(self):
        y = np.random.default_rng(10).random(200)
        out = add_noise(y, np.inf, seed=0)
        assert np.array_equal(out, y)
        assert out is not y

    def test_zero_db_matches_signal_power(self):
        rng = np.random.default_rng(11)
        y = rng.standard_normal(20000)
        noisy = add_noise(y, 0.0, seed=1)
        power = np.mean((y - y.mean()) ** 2)
        noise_var = np.mean((noisy - y) ** 2)
        assert abs(noise_var - power) / power < 0.05

    def test_twenty_db_variance(self):
        rng = np.random.default_rng(12)
        y = rng.standard_normal(3000)  # roughly unit power, zero mean
        noisy = add_noise(y, 20.0, seed=2)
        target = np.mean((y - y.mean()) ** 2) / 100.0
        achieved = np.mean((noisy - y) ** 2)
        assert abs(achieved - target) / target < 0.10

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            add_noise(np.array([]), 10.0, seed=0)

    @pytest.mark.parametrize("snr_db", [np.nan, -np.inf])
    def test_undefined_snr_rejected(self, snr_db):
        with pytest.raises(ValueError, match=str(snr_db)):
            add_noise(np.ones(5), snr_db, seed=0)


class TestDataset:
    def test_default_split(self):
        spec = SynthSpec(seed=13)
        data = make_dataset(spec, snr_db=10.0)
        assert len(data.u_est) == 2000
        assert len(data.u_test) == 1000

    def test_noise_only_on_estimation(self):
        spec = SynthSpec(seed=14, n_samples=600)
        clean = make_dataset(spec, snr_db=np.inf, n_estimation=400)
        noisy = make_dataset(spec, snr_db=10.0, n_estimation=400)
        assert np.array_equal(clean.y_test, noisy.y_test)
        assert not np.array_equal(clean.y_est, noisy.y_est)

    def test_invalid_split(self):
        with pytest.raises(ValueError):
            make_dataset(SynthSpec(seed=0, n_samples=100), n_estimation=100)

    def test_window_must_be_odd(self):
        with pytest.raises(ValueError):
            SynthSpec(smoothing_window=2)

    def test_no_samples_rejected(self):
        with pytest.raises(ValueError, match="need at least one sample"):
            SynthSpec(n_samples=0)

    @pytest.mark.parametrize("field_name,value", [
        ("n_samples", 2500.5), ("n_samples", np.nan), ("smoothing_window", 3.5),
        ("smoothing_window", np.inf), ("seed", 0.5), ("seed", "0"),
    ])
    def test_fractional_or_non_numeric_integers_rejected(self, field_name, value):
        with pytest.raises(ValueError, match=f"{field_name} must be an integer"):
            SynthSpec(**{field_name: value})

    def test_integral_values_become_ints(self):
        spec = SynthSpec(n_samples=600.0, smoothing_window=np.float64(3), seed=np.int64(4))
        assert (spec.n_samples, spec.smoothing_window, spec.seed) == (600, 3, 4)
        assert all(type(v) is int for v in (spec.n_samples, spec.smoothing_window, spec.seed))

    @pytest.mark.parametrize("w_min,w_max", [(np.nan, 5.0), (-4.0, np.inf), (-np.inf, 5.0)])
    def test_non_finite_weight_levels_rejected(self, w_min, w_max):
        with pytest.raises(ValueError) as info:
            SynthSpec(w_min=w_min, w_max=w_max)
        assert f"w_min={w_min}" in str(info.value)
        assert f"w_max={w_max}" in str(info.value)


def test_roundtrip_identifiability():
    # fitting with the true hyperparameters on noiseless data recovers the system
    spec = SynthSpec(input_lags=(1, 2), output_lags=(1,), ranks=3, seed=15,
                     n_samples=3000, smoothing_window=1)
    data = make_dataset(spec, snr_db=np.inf)
    cfg = FitConfig(ranks=data.true_model.weights.ranks[1:-1], penalty_order=2,
                    lambdas=0.0, max_sweeps=16, seed=0)
    model, _ = als_fit(data.u_est, data.y_est, spec.lags, make_basis(2, 6), cfg,
                       scaling=Scaling.identity())
    start = spec.lags.start_index
    pred = model.predict(data.u_test, data.y_test)
    assert rmse(data.y_test[start:], pred) < 1e-3
