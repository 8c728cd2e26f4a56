import gc
import json
import re
import shlex
import subprocess
from pathlib import Path

import numpy as np
import pytest

from tnbs.cli import build_parser, main, read_signal_csv, write_signal_csv

README = Path(__file__).resolve().parents[1] / "README.md"

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
    report = json.loads(Path(report_path).read_text())
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
    pr = json.loads(Path(pred_report).read_text())
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
    sr = json.loads(Path(sim_report).read_text())
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
    report = json.loads(Path(report_path).read_text())
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


@pytest.mark.parametrize("lambdas,value", [("0.1,-1", "-1.0"), ("0.1,nan", "nan")])
def test_cv_bad_grid_value_exits_2_before_fitting(dataset, tmp_path, capsys, monkeypatch,
                                                  lambdas, value):
    def no_launch(*args, **kwargs):
        raise AssertionError("a worker was launched")

    monkeypatch.setattr(subprocess, "Popen", no_launch)
    code = main(["cv", "--data", dataset + "_est.csv", "--lambdas", lambdas,
                 "--report", str(tmp_path / "cv.json")] + FIT_ARGS)
    assert code == 2
    assert f"lambda grid value {value} at position 1" in capsys.readouterr().err
    assert not (tmp_path / "cv.json").exists()


@pytest.mark.parametrize("snr", ["nan", "-inf"])
def test_non_finite_snr_exits_2(tmp_path, capsys, snr):
    prefix = str(tmp_path / "noisy")
    assert main(SYNTH_ARGS + ["--out-prefix", prefix, f"--snr={snr}"]) == 2
    assert snr in capsys.readouterr().err
    assert not (tmp_path / "noisy_est.csv").exists()


@pytest.mark.parametrize("flag,value", [("--w-min", "nan"), ("--w-max", "inf")])
def test_non_finite_weight_level_exits_2(tmp_path, capsys, flag, value):
    prefix = str(tmp_path / "levels")
    assert main(SYNTH_ARGS + ["--out-prefix", prefix, flag, value]) == 2
    assert value in capsys.readouterr().err
    assert not (tmp_path / "levels_est.csv").exists()


def readme_commands() -> list[list[str]]:
    """Every ``tnbs`` command line in the README's ``sh`` blocks, as argv."""
    commands = []
    for block in re.findall(r"```sh\n(.*?)```", README.read_text(encoding="utf-8"), re.S):
        for line in block.replace("\\\n", " ").splitlines():
            if line.split()[:1] == ["tnbs"]:
                commands.append(shlex.split(line.replace("<chosen>", "0.01"))[1:])
    return commands


def test_readme_commands_parse():
    commands = readme_commands()
    assert {argv[0] for argv in commands} == {"synth", "fit", "predict", "simulate", "cv"}
    parser = build_parser()
    for argv in commands:
        try:
            parser.parse_args(argv)
        except SystemExit:
            pytest.fail(f"README command does not parse: tnbs {shlex.join(argv)}")


def test_repeated_main_leaves_no_parser_garbage(tmp_path):
    # In-process callers run main many times; a parser built per call leaves
    # its argparse objects in reference cycles until a full collection.
    argv = SYNTH_ARGS + ["--out-prefix", str(tmp_path / "s")]
    assert main(argv) == 0  # the first call builds the parser
    gc.collect()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        assert main(argv) == 0
        gc.collect()
        left = {type(o).__name__ for o in gc.garbage if type(o).__module__ == "argparse"}
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
    assert not left


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


def test_non_finite_model_value_exits_2(dataset, tmp_path, capsys):
    model_path = tmp_path / "nan_model.json"
    with open(dataset + "_true_model.json") as fh:
        doc = json.load(fh)
    doc["cores"][0]["values"][0] = float("nan")
    model_path.write_text(json.dumps(doc))
    code = main(["predict", "--model", str(model_path), "--data", dataset + "_test.csv"])
    assert code == 2
    assert str(model_path) in capsys.readouterr().err


def test_wrong_header_rejected(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("a,b\n0.1,0.2\n")
    code = main(["fit", "--data", str(bad), "--out", str(tmp_path / "m.json")])
    assert code == 2
    assert f"{bad}: row 1: expected header 'u,y'" in capsys.readouterr().err


@pytest.mark.parametrize("text, message", [
    ("u,y\n0.1,0.2\n0.3,0.4,0.5\n", "row 3: expected 2 columns, got 3"),
    ("u,y\n", "no data rows"),
], ids=["three-columns", "header-only"])
def test_bad_csv_layout_exits_2(tmp_path, capsys, text, message):
    bad = tmp_path / "bad.csv"
    bad.write_text(text)
    code = main(["fit", "--data", str(bad), "--out", str(tmp_path / "m.json")])
    assert code == 2
    assert f"{bad}: {message}" in capsys.readouterr().err
    assert not (tmp_path / "m.json").exists()


def test_blank_csv_line_skipped(tmp_path):
    path = tmp_path / "blank.csv"
    path.write_text("u,y\n0.1,0.2\n\n0.3,0.4\n")
    u, y = read_signal_csv(path)
    assert u.tolist() == [0.1, 0.3]
    assert y.tolist() == [0.2, 0.4]


@pytest.mark.parametrize("flag, value, message", [
    ("--lags-u", "1,x", "expected comma-separated integers, got '1,x'"),
    ("--lam", "0.1,x", "expected comma-separated numbers, got '0.1,x'"),
], ids=["lags", "lambda"])
def test_bad_list_option_exits_2(tmp_path, capsys, flag, value, message):
    with pytest.raises(SystemExit) as info:
        main(["fit", "--data", str(tmp_path / "unread.csv"), flag, value])
    assert info.value.code == 2
    assert f"argument {flag}: {message}" in capsys.readouterr().err


def test_simulate_on_data_within_largest_lag_exits_2(dataset, tmp_path, capsys):
    # The dataset's true model has largest lag 2, so two rows leave nothing to simulate.
    short = tmp_path / "short.csv"
    short.write_text("u,y\n0.1,0.2\n0.3,0.4\n")
    code = main(["simulate", "--model", dataset + "_true_model.json", "--data", str(short)])
    assert code == 2
    assert "data of length 2 is too short for maximum lag 2" in capsys.readouterr().err


@np.errstate(over="ignore", invalid="ignore")
def test_numerical_failure_exits_3_without_model(tmp_path, capsys):
    # Unscaled outputs of +-1e308 overflow the normal equations.
    path = tmp_path / "huge.csv"
    write_signal_csv(path, np.random.default_rng(0).random(60),
                     np.where(np.arange(60) % 2, 1e308, -1e308))
    code = main(["fit", "--data", str(path), "--out", str(tmp_path / "m.json"),
                 "--scaling", "unit"])
    assert code == 3
    assert "numerical failure: non-finite core solve" in capsys.readouterr().err
    assert not (tmp_path / "m.json").exists()


def test_csv_with_byte_order_mark(tmp_path):
    # Spreadsheets save "CSV UTF-8" with a byte-order mark before the header.
    path = tmp_path / "bom.csv"
    path.write_bytes("\ufeffu,y\n0.1,0.2\n0.3,0.4\n".encode("utf-8"))
    u, y = read_signal_csv(path)
    assert u.tolist() == [0.1, 0.3]
    assert y.tolist() == [0.2, 0.4]


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
