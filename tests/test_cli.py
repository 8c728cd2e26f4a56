import json

import numpy as np
import pytest

from tnbs.cli import main, read_signal_csv, write_signal_csv

SYNTH_ARGS = [
    "synth", "--n", "700", "--split", "500", "--lags-u", "1,2", "--lags-y", "1",
    "--ranks", "2", "--snr", "inf", "--window", "1", "--seed", "5",
]
FIT_ARGS = [
    "--degree", "2", "--knots", "6", "--ranks", "2", "--lags-u", "1,2",
    "--lags-y", "1", "--alpha", "2", "--sweeps", "8", "--scaling", "unit",
]


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    root = tmp_path_factory.mktemp("data")
    prefix = str(root / "toy")
    assert main(SYNTH_ARGS + ["--out-prefix", prefix]) == 0
    return prefix


def test_synth_outputs(dataset):
    u, y = read_signal_csv(dataset + "_est.csv")
    assert len(u) == 500
    u2, y2 = read_signal_csv(dataset + "_test.csv")
    assert len(u2) == 200
    assert (u >= 0).all() and (u <= 1).all()


def test_synth_deterministic_bytes(tmp_path):
    a = str(tmp_path / "a")
    b = str(tmp_path / "b")
    assert main(SYNTH_ARGS + ["--out-prefix", a]) == 0
    assert main(SYNTH_ARGS + ["--out-prefix", b]) == 0
    for suffix in ("_est.csv", "_test.csv", "_true_model.json"):
        with open(a + suffix, "rb") as fa, open(b + suffix, "rb") as fb:
            assert fa.read() == fb.read()


def test_fit_predict_simulate_cycle(dataset, tmp_path):
    model_path = str(tmp_path / "model.json")
    report_path = str(tmp_path / "fit.json")
    code = main(["fit", "--data", dataset + "_est.csv", "--out", model_path,
                 "--report", report_path, "--lam", "0", "--seed", "0"] + FIT_ARGS)
    assert code == 0
    report = json.loads(open(report_path).read())
    assert report["command"] == "fit"
    assert report["parameter_count"] == 1 * 4 * 2 + 2 * 4 * 2 + 2 * 4 * 1
    assert report["train_rmse"] < 0.05
    objs = report["first_core_objectives"]
    assert all(b <= a + 1e-9 for a, b in zip(objs, objs[1:]))

    pred_report = str(tmp_path / "pred.json")
    out_csv = str(tmp_path / "pred.csv")
    code = main(["predict", "--model", model_path, "--data", dataset + "_test.csv",
                 "--report", pred_report, "--out", out_csv])
    assert code == 0
    pr = json.loads(open(pred_report).read())
    assert pr["samples"] == 200 - 2
    with open(out_csv) as fh:
        lines = fh.read().strip().splitlines()
    assert lines[0] == "n,y,yhat"
    assert len(lines) == 1 + pr["samples"]
    assert lines[1].split(",")[0] == "2"

    sim_report = str(tmp_path / "sim.json")
    code = main(["simulate", "--model", model_path, "--data", dataset + "_test.csv",
                 "--report", sim_report])
    assert code == 0
    sr = json.loads(open(sim_report).read())
    assert sr["samples"] == 200 - 2
    assert np.isfinite(sr["rmse"])
    # one-step prediction is at least as accurate as free-run simulation here
    assert pr["rmse"] <= sr["rmse"] * (1 + 1e-9)


def test_fit_report_bytes_deterministic(dataset, tmp_path):
    model_path = str(tmp_path / "model.json")
    report_path = str(tmp_path / "report.json")
    args = ["fit", "--data", dataset + "_est.csv", "--out", model_path,
            "--report", report_path, "--lam", "0.01", "--seed", "3"] + FIT_ARGS
    blobs = []
    for _ in range(2):
        assert main(args) == 0
        with open(report_path, "rb") as fr, open(model_path, "rb") as fm:
            blobs.append((fr.read(), fm.read()))
    assert blobs[0] == blobs[1]


def test_cv_table(dataset, tmp_path, capsys):
    report_path = str(tmp_path / "cv.json")
    code = main(["cv", "--data", dataset + "_est.csv", "--lambdas", "0,0.01",
                 "--folds", "2", "--report", report_path, "--sweeps", "4",
                 "--seed", "0"] + FIT_ARGS[:-4] + ["--scaling", "unit"])
    assert code == 0
    out = capsys.readouterr().out
    assert "chosen lambda" in out
    report = json.loads(open(report_path).read())
    assert len(report["scores"]) == 2
    assert all(len(row) == 2 for row in report["scores"])
    assert report["chosen_lambda"] in (0.0, 0.01)


def test_missing_data_file_exits_2_without_model(tmp_path, capsys):
    model_path = str(tmp_path / "never.json")
    code = main(["fit", "--data", str(tmp_path / "absent.csv"), "--out", model_path])
    assert code == 2
    assert not (tmp_path / "never.json").exists()


def test_invalid_hyperparameters_exit_2(dataset, tmp_path):
    code = main(["fit", "--data", dataset + "_est.csv", "--out",
                 str(tmp_path / "m.json"), "--degree", "2", "--knots", "6",
                 "--alpha", "4"])
    assert code == 2


@pytest.mark.parametrize("lam", ["nan", "inf"])
def test_non_finite_penalty_weight_exits_2(dataset, tmp_path, lam):
    code = main(["fit", "--data", dataset + "_est.csv", "--out",
                 str(tmp_path / "m.json"), "--lam", lam] + FIT_ARGS)
    assert code == 2
    assert not (tmp_path / "m.json").exists()


def test_malformed_csv_reports_row(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("u,y\n0.1,0.2\nnot,a number\n")
    code = main(["fit", "--data", str(bad), "--out", str(tmp_path / "m.json")])
    assert code == 2
    assert "row 3" in capsys.readouterr().err


def test_non_finite_csv_value_reports_file_and_row(tmp_path, capsys):
    bad = tmp_path / "nan.csv"
    bad.write_text("u,y\n0.1,0.2\n0.3,nan\n0.5,0.6\n")
    code = main(["fit", "--data", str(bad), "--out", str(tmp_path / "m.json")])
    assert code == 2
    err = capsys.readouterr().err
    assert str(bad) in err
    assert "row 3" in err
    assert not (tmp_path / "m.json").exists()


def test_wrong_header_rejected(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("a,b\n0.1,0.2\n")
    code = main(["predict", "--model", "x.json", "--data", str(bad)])
    assert code == 2


def test_csv_roundtrip(tmp_path):
    rng = np.random.default_rng(0)
    u, y = rng.random(17), rng.standard_normal(17)
    path = tmp_path / "sig.csv"
    write_signal_csv(path, u, y)
    u2, y2 = read_signal_csv(path)
    assert np.array_equal(u, u2)
    assert np.array_equal(y, y2)


def test_model_data_mismatch_exits_2(dataset, tmp_path):
    # model with lags longer than the data provided
    model_path = str(tmp_path / "model.json")
    assert main(["fit", "--data", dataset + "_est.csv", "--out", model_path,
                 "--lam", "0", "--seed", "0"] + FIT_ARGS) == 0
    short = tmp_path / "short.csv"
    short.write_text("u,y\n0.1,0.2\n0.3,0.4\n")
    assert main(["predict", "--model", model_path, "--data", str(short)]) == 2
