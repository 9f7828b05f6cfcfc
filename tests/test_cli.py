import contextlib
import csv
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import NETWORK_PATH, write_doc
from qnpflow.cli import COMMANDS, build_parser, main
from qnpflow.dataset import read_dataset_csv, read_meta_json

NETWORK = str(NETWORK_PATH)
SRC = str(Path(__file__).resolve().parents[1] / "src")


def cli(*args, cwd=None):
    """`qnpflow.cli.main(args)` in this interpreter, run in `cwd`, with the
    exit code, stdout and stderr of a `python -m qnpflow.cli` run."""
    argv = [str(a) for a in args]
    out, err = io.StringIO(), io.StringIO()
    here = os.getcwd()
    os.chdir(cwd or here)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    except SystemExit as exc:  # argparse: usage errors, --help, --version
        code = exc.code if isinstance(exc.code, int) else 0 if exc.code is None else 1
    finally:
        os.chdir(here)
    return subprocess.CompletedProcess(argv, code, out.getvalue(), err.getvalue())


def python_m(*args):
    """A real `python -m qnpflow.cli` run in its own process."""
    pythonpath = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "qnpflow.cli", *map(str, args)],
        capture_output=True, text=True,
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
    for row in rows[1:]:
        bus_id, _, *numbers = row.split(",")
        int(bus_id)
        for cell in numbers:
            float(cell)  # plain numbers, e.g. no np.float64(...) wrapper
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


def test_solve_has_no_seed_option(tmp_path):
    # --seed exists only where a run reads it: dataset, activation simulate, train
    res = python_m("solve", NETWORK, "--seed", 1, "--out-dir", tmp_path)
    assert res.returncode == 2
    assert "unrecognized arguments: --seed" in res.stderr


def test_solve_rejects_malformed_config(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text("{ not json")
    res = cli("solve", NETWORK, "--config", cfg, "--out-dir", tmp_path)
    assert res.returncode == 4


def nan_load(doc):
    doc["buses"][1]["p_load"] = float("nan")


def infinite_ybus_entry(doc):
    doc["ybus"][1][1][1] = float("inf")  # a diagonal entry, so YBUS stays symmetric


@pytest.mark.parametrize("spoil, text", [(nan_load, "NaN"), (infinite_ybus_entry, "Infinity")],
                         ids=["nan-load", "infinite-ybus"])
@pytest.mark.parametrize("command", [["solve"], ["dataset", "--n", 20]], ids=["solve", "dataset"])
def test_non_finite_network_number_exits_4(network_doc, tmp_path, spoil, text, command):
    spoil(network_doc)
    path = write_doc(network_doc, tmp_path)
    assert text in path.read_text()  # json writes and reads these tokens
    res = cli(command[0], path, *command[1:], "--out-dir", tmp_path / "out")
    assert res.returncode == 4, res.stderr
    assert res.stderr.startswith("error:") and "finite number" in res.stderr


def wrong_type_rows():
    """An empty object, which no flag can give, for every declared option of
    every subcommand; positionals name files that the check runs before."""
    for name, command in COMMANDS.items():
        argv = [*name.split(), *(f"missing-{arg}" for arg, _ in command.args)]
        for opt in command.options:
            yield pytest.param(argv, {opt.dest: {}}, id=f"{name.replace(' ', '-')}-{opt.dest}")


@pytest.mark.parametrize("command, config", [
    (["activation", "simulate"], {"spin": [1]}),
    (["dataset", NETWORK], {"n": "500"}),
    (["dataset", NETWORK], {"n": None}),  # null only where the default is None
    *wrong_type_rows(),
])
def test_config_value_of_wrong_type_exits_4(tmp_path, command, config):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    res = cli(*command, "--config", cfg, cwd=tmp_path)  # no --out-dir: it would beat out_dir
    assert res.returncode == 4, res.stderr
    (key,) = config
    assert res.stderr.startswith("error:") and repr(key) in res.stderr
    assert "Traceback" not in res.stderr


@pytest.mark.parametrize("command, key", [
    ("solve", "max_iterr"), ("train", "epoch"), ("sweep", "typo_key"),
])
def test_config_key_of_no_option_exits_4(dataset_dir, tmp_path, command, key):
    cfg = tmp_path / "cfg.json"
    prefix = str(dataset_dir / "data")
    if command == "sweep":  # a sweep file also holds its own keys
        cfg.write_text(json.dumps({"data": prefix, "preset": "table3", "epochs": 1,
                                   "betas": [2.22], "seeds": [0], key: 3}))
        argv = ["sweep", cfg]
    else:
        cfg.write_text(json.dumps({key: 3}))
        argv = {"solve": ["solve", NETWORK],
                "train": ["train", prefix, "--preset", "table3"]}[command]
        argv += ["--config", cfg]
    res = cli(*argv, "--out-dir", tmp_path / "out")
    assert res.returncode == 4, res.stderr
    assert res.stderr.startswith("error:") and repr(key) in res.stderr
    assert "Traceback" not in res.stderr
    assert not (tmp_path / "out").exists()


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
    assert meta["split_seed"] == 0
    # train fits the scalers; the dataset files hold none
    assert not {"scaler_kind", "feature_scaler", "target_scaler"} & meta.keys()


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


def test_dataset_empty_train_split_writes_only_the_header(tmp_path):
    # one sample cut at floor(1 * 0.5) = 0 leaves the train split empty
    res = cli("dataset", NETWORK, "--n", 1, "--split", 0.5, "--out-dir", tmp_path)
    assert res.returncode == 0, res.stderr
    header = (tmp_path / "dataset_test.csv").read_bytes().split(b"\r\n")[0]
    assert (tmp_path / "dataset_train.csv").read_bytes() == header + b"\r\n"
    assert len(data_rows(tmp_path / "dataset_test.csv")) == 1


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
    assert fit["table_beta"] == 2.22


def test_activation_simulate_untabulated_spin_has_null_table_beta(tmp_path):
    res = cli("activation", "simulate", "--spin", 2, "--points", 5,
              "--collisions", 100, "--out-dir", tmp_path)
    assert res.returncode == 0, res.stderr
    fit = json.loads((tmp_path / "fit_spin2.0.json").read_text())
    assert fit["spin_j"] == 2.0 and fit["table_beta"] is None


def test_activation_simulate_spin_flag_and_config_write_same_files(tmp_path):
    # the config's integer 1 and the flag's text "1" both resolve to spin 1.0
    config = write_doc({"spin": 1}, tmp_path, name="spin.json")
    written = {}
    for route, args in (("flag", ["--spin", "1"]), ("config", ["--config", config])):
        out = tmp_path / "out"
        res = cli("activation", "simulate", *args, "--points", 5, "--collisions", 100,
                  "--out-dir", out)
        assert res.returncode == 0, res.stderr
        written[route] = {p.name: p.read_bytes() for p in out.iterdir()}
        for p in out.iterdir():
            p.unlink()
    assert written["flag"] == written["config"]
    assert sorted(written["flag"]) == ["activation_simulate_config.json", "curve_spin1.0.csv",
                                       "fit_spin1.0.json"]
    assert json.loads(written["flag"]["activation_simulate_config.json"])["spin"] == 1.0


def test_activation_simulate_warns_on_capped_points(curve_run):
    out, res = curve_run
    with open(out / "curve_spin0.5.csv", newline="") as fh:
        capped = sum(row["converged"] == "0" for row in csv.DictReader(fh))
    assert capped > 0
    assert res.stderr == (
        f"note: {capped} of 5 curve points did not settle within the 3000-collision cap; "
        "sigma_z is exact, only collisions_used is capped\n")


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
    res = python_m("activation", "simulate", "--spin", "0.6", "--points", 5,
                   "--collisions", 100, "--out-dir", tmp_path)
    assert res.returncode == 8


@pytest.mark.parametrize("spin", ["abc", "1/0"])
def test_activation_unparseable_spin_exits_2(spin, tmp_path):
    res = cli("activation", "simulate", "--spin", spin, "--points", 5,
              "--collisions", 100, "--out-dir", tmp_path)
    assert res.returncode == 2
    assert "usage error" in res.stderr


def test_activation_fit_rejects_bad_curve(tmp_path):
    bad = tmp_path / "bad.csv"
    # wrong columns, a non-numeric sigma_z, a short row
    for text in ("a,b\n1,2\n", "u,sigma_z\n0.0,abc\n", "u,sigma_z\n-1.0,-0.5\n0.0\n"):
        bad.write_text(text)
        res = cli("activation", "fit", bad, "--out-dir", tmp_path)
        assert res.returncode == 4, (text, res.stderr)
        assert res.stderr.startswith("error:") and "Traceback" not in res.stderr


def test_activation_fit_non_finite_curve_exits_4(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("u,sigma_z\n-1,-0.5\n0,nan\n1,0.5\n")
    res = cli("activation", "fit", bad, "--out-dir", tmp_path / "out")
    assert res.returncode == 4, res.stderr
    assert res.stderr.startswith("error:") and "bad.csv" in res.stderr and "finite" in res.stderr
    assert not (tmp_path / "out" / "fit.json").exists()


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


def test_train_model_holds_scalers_fitted_on_train_rows(trained_dir, dataset_dir):
    model = json.loads((trained_dir / "model.json").read_text())
    prefix = dataset_dir / "data"
    meta = read_meta_json(f"{prefix}_meta.json")
    x = read_dataset_csv(f"{prefix}_train.csv", meta).inputs
    assert model["scalers"]["inputs"]["center"] == x.min(axis=0).tolist()
    assert model["scalers"]["inputs"]["scale"] == (x.max(axis=0) - x.min(axis=0)).tolist()


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


@pytest.mark.parametrize("command", ["train", "evaluate"])
def test_meta_file_not_an_object_exits_4(command, trained_dir, dataset_dir, tmp_path):
    for split in ("train", "test"):
        (tmp_path / f"data_{split}.csv").write_bytes((dataset_dir / f"data_{split}.csv").read_bytes())
    (tmp_path / "data_meta.json").write_text("[1]")
    args = {"train": ["train", tmp_path / "data", "--preset", "table3", "--epochs", 1],
            "evaluate": ["evaluate", trained_dir / "model.json", tmp_path / "data"]}[command]
    res = cli(*args, "--out-dir", tmp_path / "out")
    assert res.returncode == 4, res.stderr
    assert res.stderr.startswith("error:") and "Traceback" not in res.stderr


def copy_split(dataset_dir, dest, name="data"):
    """Copy the dataset files under `dest` with the prefix `name`."""
    for suffix in ("train.csv", "test.csv", "meta.json"):
        (dest / f"{name}_{suffix}").write_bytes((dataset_dir / f"data_{suffix}").read_bytes())
    return dest / name


def test_train_meta_labels_not_strings_exits_4(dataset_dir, tmp_path):
    prefix = copy_split(dataset_dir, tmp_path)
    meta = json.loads((tmp_path / "data_meta.json").read_text())
    meta["mult_labels"] = 5
    (tmp_path / "data_meta.json").write_text(json.dumps(meta))
    res = cli("train", prefix, "--preset", "table3", "--epochs", 1, "--out-dir", tmp_path / "out")
    assert res.returncode == 4, res.stderr
    assert res.stderr.startswith("error:") and "'mult_labels'" in res.stderr
    assert "Traceback" not in res.stderr


@pytest.mark.parametrize("cell, text, message", [
    (3, "abc", "could not convert string to float: 'abc'"),
    (-1, "2", "converged must be 0 or 1, got '2'"),
    (None, "", "row with 0 fields, expected 21"),
], ids=["value", "converged-2", "blank-line"])
def test_train_non_numeric_cell_exits_4(dataset_dir, tmp_path, cell, text, message):
    prefix = copy_split(dataset_dir, tmp_path)
    lines = (tmp_path / "data_train.csv").read_text().splitlines()
    cells = lines[2].split(",")
    if cell is None:  # the whole line
        cells = [text]
    else:
        cells[cell] = text
    lines[2] = ",".join(cells)
    (tmp_path / "data_train.csv").write_text("\n".join(lines) + "\n")
    res = cli("train", prefix, "--preset", "table3", "--epochs", 1, "--out-dir", tmp_path / "out")
    assert res.returncode == 4, res.stderr
    assert res.stderr.startswith(f"error: {tmp_path / 'data_train.csv'}: line 3: {message}")
    assert "Traceback" not in res.stderr


@pytest.mark.parametrize("command, split", [("train", "train"), ("evaluate", "test")])
def test_non_finite_dataset_cell_exits_4(command, split, trained_dir, dataset_dir, tmp_path):
    # a nan load in a converged row, once in each split that a command reads
    prefix = copy_split(dataset_dir, tmp_path)
    csv_path = tmp_path / f"data_{split}.csv"
    lines = csv_path.read_text().splitlines()
    col = lines[0].split(",").index("p_load_2")
    cells = lines[1].split(",")
    assert cells[-1] == "1"
    cells[col] = "nan"
    lines[1] = ",".join(cells)
    csv_path.write_text("\n".join(lines) + "\n")
    args = {"train": ["train", prefix, "--preset", "table3", "--epochs", 1],
            "evaluate": ["evaluate", trained_dir / "model.json", prefix]}[command]
    res = cli(*args, "--out-dir", tmp_path / "out")
    assert res.returncode == 4, res.stderr
    assert f"data_{split}.csv: line 2: non-finite" in res.stderr
    assert "Traceback" not in res.stderr


def nan_weight(doc):
    doc["weights"][0][0][0] = float("nan")


def infinite_scaler_center(doc):
    doc["scalers"]["inputs"]["center"][0] = float("inf")


@pytest.mark.parametrize("spoil", [nan_weight, infinite_scaler_center])
def test_evaluate_model_with_non_finite_number_exits_4(spoil, trained_dir, dataset_dir, tmp_path):
    doc = json.loads((trained_dir / "model.json").read_text())
    spoil(doc)
    model = tmp_path / "spoiled.json"
    model.write_text(json.dumps(doc))
    res = cli("evaluate", model, dataset_dir / "data", "--out-dir", tmp_path / "out")
    assert res.returncode == 4, res.stderr
    assert res.stderr.startswith("error:") and "spoiled.json" in res.stderr
    assert "finite" in res.stderr and "Traceback" not in res.stderr
    assert not (tmp_path / "out" / "eval_report.json").exists()


def non_numeric_sizes(doc):
    doc["topology"]["sizes"] = "ab"


def non_numeric_weight(doc):
    doc["weights"][0][0][0] = "x"


def scalers_not_an_object(doc):
    doc["scalers"] = "x"


def scaler_missing_keys(doc):
    doc["scalers"]["inputs"] = {"kind": "minmax"}


def scaler_short_center(doc):
    doc["scalers"]["inputs"]["center"] = [0.0]


def scaler_one_column(doc):
    doc["scalers"]["inputs"] = {"kind": "minmax", "center": [0.0], "scale": [1.0],
                                "passthrough": [False]}


def target_scaler_of_input_width(doc):
    doc["scalers"]["targets"] = doc["scalers"]["inputs"]


@pytest.mark.parametrize("spoil", [non_numeric_sizes, non_numeric_weight, scalers_not_an_object,
                                   scaler_missing_keys, scaler_short_center, scaler_one_column,
                                   target_scaler_of_input_width])
def test_evaluate_model_with_non_numeric_field_exits_4(spoil, trained_dir, dataset_dir, tmp_path):
    doc = json.loads((trained_dir / "model.json").read_text())
    spoil(doc)
    model = tmp_path / "model.json"
    model.write_text(json.dumps(doc))
    res = cli("evaluate", model, dataset_dir / "data", "--out-dir", tmp_path / "out")
    assert res.returncode == 4, res.stderr
    assert res.stderr.startswith("error:") and "Traceback" not in res.stderr
    assert str(model) in res.stderr


@pytest.mark.parametrize("lr", ["0", "-1"])
def test_train_non_positive_lr_exits_4(lr, dataset_dir, tmp_path):
    res = cli("train", dataset_dir / "data", "--preset", "table3", "--epochs", 1,
              "--lr", lr, "--out-dir", tmp_path)
    assert res.returncode == 4, res.stderr
    assert res.stderr.startswith("error:") and "learning rate" in res.stderr
    assert not (tmp_path / "model.json").exists()


@pytest.mark.parametrize("source", ["dataset --seed", "train --seed", "train --config",
                                    "sweep seeds"])
def test_negative_seed_exits_4(source, dataset_dir, tmp_path):
    prefix = dataset_dir / "data"
    table3 = ["--preset", "table3", "--epochs", 1]
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"seed": -3} if source == "train --config" else
                              {"data": str(prefix), "preset": "table3", "epochs": 1,
                               "betas": [2.22], "seeds": [-1]}))
    args = {"dataset --seed": ["dataset", NETWORK, "--n", 10, "--seed", -1],
            "train --seed": ["train", prefix, *table3, "--seed", -1],
            "train --config": ["train", prefix, *table3, "--config", cfg],
            "sweep seeds": ["sweep", cfg]}[source]
    res = cli(*args, "--out-dir", tmp_path / "out")
    assert res.returncode == 4, res.stderr
    assert res.stderr.startswith("error:") and "seed" in res.stderr
    assert not (tmp_path / "out").exists()


def test_train_beta_sources_are_exclusive(dataset_dir, tmp_path):
    res = cli("train", dataset_dir / "data", "--preset", "table3",
              "--beta", 2.22, "--spin", "1/2", "--out-dir", tmp_path)
    assert res.returncode == 2
    assert "usage error" in res.stderr


def test_train_unknown_spin_exits_8(dataset_dir, tmp_path):
    res = cli("train", dataset_dir / "data", "--preset", "table3",
              "--spin", "2", "--out-dir", tmp_path)
    assert res.returncode == 8


@pytest.mark.parametrize("spin", ["abc", "1/0"])
def test_train_unparseable_spin_exits_2(spin, dataset_dir, tmp_path):
    res = cli("train", dataset_dir / "data", "--preset", "table3",
              "--spin", spin, "--out-dir", tmp_path)
    assert res.returncode == 2
    assert "usage error" in res.stderr


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


@pytest.mark.parametrize("text", ["{not json", "3", '{"beta": "steep"}', '{"beta": NaN}',
                                  '{"beta": "3.0"}', '{"beta": true}', '{"beta": -1}'])
def test_train_beta_from_bad_fit_exits_4(text, dataset_dir, tmp_path):
    fit = tmp_path / "fit.json"
    fit.write_text(text)
    res = cli("train", dataset_dir / "data", "--preset", "table3", "--epochs", 1,
              "--beta-from-fit", fit, "--out-dir", tmp_path)
    assert res.returncode == 4
    assert res.stderr.startswith("error:")
    assert str(fit) in res.stderr


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


def test_sweep_matches_train_for_one_beta_and_seed(trained_dir, dataset_dir, tmp_path):
    # trained_dir is table3 at its default beta 2.22, 2 epochs, seed 0
    cfg = tmp_path / "sweep.json"
    cfg.write_text(json.dumps({
        "data": str(dataset_dir / "data"),
        "preset": "table3",
        "epochs": 2,
        "betas": [2.22],
        "seeds": [0],
    }))
    res = cli("sweep", cfg, "--out-dir", tmp_path)
    assert res.returncode == 0, res.stderr
    (row,) = data_rows(tmp_path / "sweep.csv")
    final_train_mse = (trained_dir / "epochs.csv").read_text().splitlines()[-1].split(",")[1]
    assert row[3] == final_train_mse


def test_sweep_non_object_config_exits_4(tmp_path):
    cfg = tmp_path / "sweep.json"
    cfg.write_text("[1, 2]")
    res = cli("sweep", cfg, "--out-dir", tmp_path)
    assert res.returncode == 4


def test_sweep_empty_betas_exits_2(dataset_dir, tmp_path):
    cfg = tmp_path / "sweep.json"
    cfg.write_text(json.dumps({"data": str(dataset_dir / "data"), "betas": []}))
    res = cli("sweep", cfg, "--out-dir", tmp_path)
    assert res.returncode == 2


@pytest.mark.parametrize("axis", [{"seeds": 3}, {"betas": 2.22}, {"optimizers": "adam"},
                                  {"data": 5}])
def test_sweep_axis_not_a_list_exits_2(dataset_dir, tmp_path, axis):
    cfg = tmp_path / "sweep.json"
    cfg.write_text(json.dumps({"data": str(dataset_dir / "data"), "betas": [2.22], **axis}))
    res = cli("sweep", cfg, "--out-dir", tmp_path)
    assert res.returncode == 2, res.stderr
    (key,) = axis
    assert res.stderr.startswith("usage error:") and repr(key) in res.stderr


@pytest.mark.parametrize("key, value", [("epochs", "2"), ("bias", "yes"),
                                        ("learning_rate", -1)])
def test_sweep_bad_train_key_exits_4(dataset_dir, tmp_path, key, value):
    cfg = tmp_path / "sweep.json"
    cfg.write_text(json.dumps({"data": str(dataset_dir / "data"), "preset": "table3",
                               "epochs": 1, "betas": [2.22], "seeds": [0], key: value}))
    res = cli("sweep", cfg, "--out-dir", tmp_path / "out")
    assert res.returncode == 4, res.stderr
    assert res.stderr.startswith("error:") and "Traceback" not in res.stderr
    if key != "learning_rate":
        assert repr(key) in res.stderr
    assert not (tmp_path / "out" / "sweep.csv").exists()


def test_sweep_snapshot_records_the_directory_it_wrote_to(dataset_dir, tmp_path):
    # out_dir is a train option, so a sweep file may hold one; --out-dir wins
    cfg = tmp_path / "sweep.json"
    cfg.write_text(json.dumps({"data": str(dataset_dir / "data"), "preset": "table3",
                               "epochs": 1, "betas": [2.22], "seeds": [0],
                               "out_dir": "elsewhere"}))
    res = cli("sweep", cfg, "--out-dir", "swout", cwd=tmp_path)
    assert res.returncode == 0, res.stderr
    snap = json.loads((tmp_path / "swout" / "sweep_config.json").read_text())
    assert snap["out_dir"] == "swout"
    assert snap["betas"] == [2.22] and snap["sweep_config"] == str(cfg)
    assert (tmp_path / "swout" / "sweep.csv").exists()
    assert not (tmp_path / "elsewhere").exists()


def test_sweep_prefix_starting_with_dash(dataset_dir, tmp_path):
    copy_split(dataset_dir, tmp_path, name="-d")
    cfg = tmp_path / "sweep.json"
    cfg.write_text(json.dumps({"data": "-d", "preset": "table3", "epochs": 1,
                               "betas": [2.22], "seeds": [0]}))
    res = cli("sweep", cfg, "--out-dir", tmp_path / "out", cwd=tmp_path)
    assert res.returncode == 0, res.stderr
    assert len(data_rows(tmp_path / "out" / "sweep.csv")) == 1


def test_version_flag():
    res = python_m("--version")
    assert res.returncode == 0
    assert res.stdout.startswith("qnpflow ")


def test_cached_parser_keeps_no_state_between_calls(tmp_path):
    parser = build_parser()
    assert cli("--version").stdout.startswith("qnpflow ")
    assert cli("solve", NETWORK, "--max-iter", "many").returncode == 2
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"tol": 1e-12, "max_iter": 1, "flat_start": False}))
    assert cli("solve", NETWORK, "--config", cfg, "--out-dir", tmp_path / "a").returncode == 5
    res = cli("solve", NETWORK, "--out-dir", tmp_path / "b")
    assert res.returncode == 0, res.stderr
    snap = json.loads((tmp_path / "b" / "solve_config.json").read_text())
    assert (snap["tol"], snap["max_iter"], snap["flat_start"]) == (1e-8, 20, True)
    assert build_parser() is parser
