import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import NETWORK_PATH

NETWORK = str(NETWORK_PATH)
SRC = str(Path(__file__).resolve().parents[1] / "src")


def cli(*args, cwd=None):
    pythonpath = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "qnpflow.cli", *map(str, args)],
        capture_output=True, text=True, cwd=cwd,
        env={**os.environ, "PYTHONPATH": pythonpath},
    )


@pytest.fixture(scope="session")
def dataset_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("dataset")
    res = cli("dataset", NETWORK, "--n", 40, "--seed", 0, "--prefix", "data",
              "--out-dir", out)
    assert res.returncode == 0, res.stderr
    return out


@pytest.fixture(scope="session")
def trained_dir(tmp_path_factory, dataset_dir):
    out = tmp_path_factory.mktemp("model")
    res = cli("train", dataset_dir / "data", "--preset", "table3", "--epochs", 2,
              "--seed", 0, "--out-dir", out)
    assert res.returncode == 0, res.stderr
    return out


# ---------------------------------------------------------------------------
# solve


def test_solve_writes_artifacts(tmp_path):
    res = cli("solve", NETWORK, "--out-dir", tmp_path)
    assert res.returncode == 0, res.stderr
    assert "converged" in res.stdout
    doc = json.loads((tmp_path / "solution.json").read_text())
    assert doc["converged"] is True
    assert doc["iterations"] <= 5
    assert len(doc["buses"]) == 4
    rows = (tmp_path / "solution.csv").read_text().splitlines()
    assert rows[0] == "bus_id,kind,v_mag_pu,delta_deg,p_inj_mw,q_inj_mvar"
    assert len(rows) == 5
    snap = json.loads((tmp_path / "solve_config.json").read_text())
    assert snap["command"] == "solve" and snap["tol"] == 1e-8


def test_solve_missing_file_exits_3(tmp_path):
    res = cli("solve", tmp_path / "nope.json", "--out-dir", tmp_path)
    assert res.returncode == 3
    assert "error:" in res.stderr


def test_solve_not_converged_exits_5(tmp_path):
    res = cli("solve", NETWORK, "--max-iter", 1, "--tol", "1e-12",
              "--out-dir", tmp_path)
    assert res.returncode == 5


def test_solve_config_file_and_cli_precedence(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"tol": 1e-12, "max_iter": 1}))
    res = cli("solve", NETWORK, "--config", cfg, "--out-dir", tmp_path / "a")
    assert res.returncode == 5
    res = cli("solve", NETWORK, "--config", cfg, "--max-iter", 20,
              "--out-dir", tmp_path / "b")
    assert res.returncode == 0
    snap = json.loads((tmp_path / "b" / "solve_config.json").read_text())
    assert snap["max_iter"] == 20 and snap["tol"] == 1e-12


def test_solve_rejects_malformed_config(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text("{ not json")
    res = cli("solve", NETWORK, "--config", cfg, "--out-dir", tmp_path)
    assert res.returncode == 4


# ---------------------------------------------------------------------------
# dataset


def data_rows(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))[1:]


def test_dataset_split_sizes(dataset_dir):
    assert len(data_rows(dataset_dir / "data_train.csv")) == 32
    assert len(data_rows(dataset_dir / "data_test.csv")) == 8
    meta = json.loads((dataset_dir / "data_meta.json").read_text())
    assert meta["n_converged"] == 40 and meta["split_ratio"] == 0.8
    assert meta["feature_scaler"]["kind"] == "standard"


def test_dataset_rerun_is_byte_identical(dataset_dir):
    names = ["data_train.csv", "data_test.csv", "data_meta.json", "dataset_config.json"]
    before = {n: (dataset_dir / n).read_bytes() for n in names}
    res = cli("dataset", NETWORK, "--n", 40, "--seed", 0, "--prefix", "data",
              "--out-dir", dataset_dir)
    assert res.returncode == 0
    for n in names:
        assert (dataset_dir / n).read_bytes() == before[n], n


def test_dataset_unit_range_gives_identical_rows(tmp_path):
    res = cli("dataset", NETWORK, "--n", 10, "--range", 1.0, 1.0, "--seed", 1,
              "--prefix", "flat", "--out-dir", tmp_path)
    assert res.returncode == 0, res.stderr
    rows = data_rows(tmp_path / "flat_train.csv")
    # all-unity multipliers collapse every sample onto the base case
    bodies = {",".join(r[1:]) for r in rows}
    assert len(bodies) == 1


def test_dataset_too_few_converged_exits_7(tmp_path):
    res = cli("dataset", NETWORK, "--n", 5, "--range", 30.0, 40.0,
              "--prefix", "bad", "--out-dir", tmp_path)
    assert res.returncode == 7


# ---------------------------------------------------------------------------
# activation


@pytest.fixture(scope="session")
def curve_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("curve")
    res = cli("activation", "simulate", "--spin", "1/2", "--points", 5,
              "--collisions", 3000, "--out-dir", out)
    assert res.returncode == 0, res.stderr
    return out, res


@pytest.fixture(scope="session")
def curve_dir(curve_run):
    return curve_run[0]


def test_activation_simulate_artifacts(curve_dir):
    rows = (curve_dir / "curve_spin0.5.csv").read_text().splitlines()
    assert rows[0] == "u,sigma_z,collisions_used,converged"
    assert len(rows) == 6
    fit = json.loads((curve_dir / "fit_spin0.5.json").read_text())
    assert fit["beta"] > 0 and fit["n_points"] == 5
    assert fit["spin_j"] == 0.5


def test_activation_simulate_warns_on_capped_points(curve_run):
    out, res = curve_run
    with open(out / "curve_spin0.5.csv", newline="") as fh:
        capped = sum(row["converged"] == "0" for row in csv.DictReader(fh))
    assert capped > 0
    assert res.stderr == (
        f"warning: {capped} of 5 curve points hit the 3000-collision cap\n")


def test_activation_simulate_silent_when_converged(tmp_path):
    res = cli("activation", "simulate", "--spin", "5/2", "--points", 5,
              "--out-dir", tmp_path)
    assert res.returncode == 0, res.stderr
    with open(tmp_path / "curve_spin2.5.csv", newline="") as fh:
        assert all(row["converged"] == "1" for row in csv.DictReader(fh))
    assert res.stderr == ""


def test_activation_fit_round_trip(curve_dir, tmp_path):
    res = cli("activation", "fit", curve_dir / "curve_spin0.5.csv",
              "--out-dir", tmp_path)
    assert res.returncode == 0, res.stderr
    fit = json.loads((tmp_path / "fit.json").read_text())
    direct = json.loads((curve_dir / "fit_spin0.5.json").read_text())
    assert fit["beta"] == pytest.approx(direct["beta"], rel=1e-12)


def test_activation_even_points_exits_4(tmp_path):
    res = cli("activation", "simulate", "--points", 4, "--collisions", 100,
              "--out-dir", tmp_path)
    assert res.returncode == 4


def test_activation_invalid_spin_exits_8(tmp_path):
    res = cli("activation", "simulate", "--spin", "0.6", "--points", 5,
              "--collisions", 100, "--out-dir", tmp_path)
    assert res.returncode == 8


def test_activation_fit_rejects_bad_curve(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("a,b\n1,2\n")
    res = cli("activation", "fit", bad, "--out-dir", tmp_path)
    assert res.returncode == 4


# ---------------------------------------------------------------------------
# train / evaluate / sweep


def test_train_writes_model_and_epoch_log(trained_dir):
    model = json.loads((trained_dir / "model.json").read_text())
    assert model["topology"]["sizes"] == [10, 10, 10, 10, 10, 10, 10, 10, 5]
    assert model["scalers"]["inputs"]["kind"] == "minmax"
    assert model["scalers"]["targets"] is None
    rows = (trained_dir / "epochs.csv").read_text().splitlines()
    assert rows[0] == "epoch,train_mse,val_mse"
    assert len(rows) == 3
    snap = json.loads((trained_dir / "train_config.json").read_text())
    assert snap["beta"] == 2.22 and snap["epochs"] == 2
    assert snap["optimizer"] == "adam" and snap["learning_rate"] == 0.001


def test_evaluate_matches_epoch_log(trained_dir, dataset_dir, tmp_path):
    res = cli("evaluate", trained_dir / "model.json", dataset_dir / "data",
              "--split", "train", "--out-dir", tmp_path)
    assert res.returncode == 0, res.stderr
    report = json.loads((tmp_path / "eval_report.json").read_text())
    last = (trained_dir / "epochs.csv").read_text().splitlines()[-1]
    final_train_mse = float(last.split(",")[1])
    assert report["mse"] == pytest.approx(final_train_mse, rel=1e-12)
    assert len(report["mape_per_output"]) == 5


def test_evaluate_truncated_model_exits_4(trained_dir, dataset_dir, tmp_path):
    text = (trained_dir / "model.json").read_text()
    broken = tmp_path / "broken.json"
    broken.write_text(text[: len(text) // 2])
    res = cli("evaluate", broken, dataset_dir / "data", "--out-dir", tmp_path)
    assert res.returncode == 4


def test_train_beta_sources_are_exclusive(dataset_dir, tmp_path):
    res = cli("train", dataset_dir / "data", "--preset", "table3",
              "--beta", 2.22, "--spin", "1/2", "--out-dir", tmp_path)
    assert res.returncode == 2
    assert "usage error" in res.stderr


def test_train_unknown_spin_exits_8(dataset_dir, tmp_path):
    res = cli("train", dataset_dir / "data", "--preset", "table3",
              "--spin", "2", "--out-dir", tmp_path)
    assert res.returncode == 8


def test_train_without_preset_needs_explicit_sizes(dataset_dir, tmp_path):
    res = cli("train", dataset_dir / "data", "--epochs", 1, "--out-dir", tmp_path)
    assert res.returncode == 2


def test_train_beta_from_fit(dataset_dir, curve_dir, tmp_path):
    res = cli("train", dataset_dir / "data", "--preset", "table3", "--epochs", 1,
              "--beta-from-fit", curve_dir / "fit_spin0.5.json",
              "--out-dir", tmp_path)
    assert res.returncode == 0, res.stderr
    snap = json.loads((tmp_path / "train_config.json").read_text())
    fit = json.loads((curve_dir / "fit_spin0.5.json").read_text())
    assert snap["beta"] == fit["beta"]


def test_sweep_rows(dataset_dir, tmp_path):
    cfg = tmp_path / "sweep.json"
    cfg.write_text(json.dumps({
        "data": str(dataset_dir / "data"),
        "preset": "table3",
        "epochs": 1,
        "betas": [2.22, 4.1],
        "seeds": [0],
    }))
    res = cli("sweep", cfg, "--out-dir", tmp_path)
    assert res.returncode == 0, res.stderr
    rows = data_rows(tmp_path / "sweep.csv")
    assert len(rows) == 2
    assert [r[0] for r in rows] == ["2.22", "4.1"]
    assert all(float(r[3]) > 0 for r in rows)


def test_sweep_empty_betas_exits_2(dataset_dir, tmp_path):
    cfg = tmp_path / "sweep.json"
    cfg.write_text(json.dumps({"data": str(dataset_dir / "data"), "betas": []}))
    res = cli("sweep", cfg, "--out-dir", tmp_path)
    assert res.returncode == 2


def test_version_flag():
    res = cli("--version")
    assert res.returncode == 0
    assert res.stdout.startswith("qnpflow ")
