import contextlib
import csv
import functools
import io
import json
import math
import os
import re
import statistics
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import NETWORK_PATH, RECIPE_KEYS, write_doc, write_parent_layout
from qnpflow import cli as cli_module
from qnpflow import errors
from qnpflow.cli import COMMANDS, build_parser, main
from qnpflow.dataset import read_dataset_csv, read_meta_json
from qnpflow.neuralnet import OPTIMIZER_NAMES, train
from qnpflow.qsim import ReservoirSpec, evolve_collisions, plus_state

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


def python_m(*args, module="qnpflow.cli"):
    """A real `python -m <module>` run in its own process."""
    pythonpath = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", module, *map(str, args)],
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


@pytest.fixture()
def inputs(dataset_dir, trained_dir):
    """The paths that the placeholders of an argv string stand for."""
    return {"NET": NETWORK, "DATA": dataset_dir / "data", "MODEL": trained_dir / "model.json"}


def run(argv, inputs, cwd=None):
    """`cli` on the words of `argv`, with NET, DATA and MODEL read from `inputs`."""
    return cli(*(inputs.get(word, word) for word in argv.split()), cwd=cwd)


# ---------------------------------------------------------------------------
# solve


def test_solve_writes_artifacts(tmp_path):
    res = cli("solve", NETWORK, "--out-dir", tmp_path)
    assert res.returncode == 0, res.stderr
    assert "converged" in res.stdout
    # the bus records are solution.json's alone; no CSV repeats them
    assert sorted(p.name for p in tmp_path.iterdir()) == ["solution.json", "solve_config.json"]
    doc = json.loads((tmp_path / "solution.json").read_text())
    assert doc["converged"] is True
    assert doc["iterations"] <= 5
    assert [list(bus) for bus in doc["buses"]] == [
        ["bus_id", "kind", "v_mag_pu", "delta_deg", "p_inj_mw", "q_inj_mvar"]] * 4
    snap = json.loads((tmp_path / "solve_config.json").read_text())
    assert snap["command"] == "solve" and snap["tol"] == 1e-8


@pytest.mark.parametrize("cap", [10**12, 10**20])
def test_solve_huge_step_cap_writes_the_default_solution(tmp_path, cap):
    # solve_batch keeps a norm for each step taken, not for each step the cap allows
    for name, args in (("default", []), ("huge", ["--max-iter", cap])):
        res = cli("solve", NETWORK, *args, "--out-dir", tmp_path / name)
        assert res.returncode == 0, res.stderr
    solution = (tmp_path / "huge" / "solution.json").read_bytes()
    assert json.loads(solution)["iterations"] == 3
    assert solution == (tmp_path / "default" / "solution.json").read_bytes()


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


SIMULATED = ["activation_simulate_config.json", "curve_spin{}.csv", "fit_spin{}.json"]
TRAINED = ["epochs.csv", "model.json", "train_config.json"]


@pytest.mark.parametrize("argv, flags, config, names, resolved", [
    ("activation simulate --points 5 --collisions 100", "--spin 1", {"spin": 1},
     [name.format(1.0) for name in SIMULATED], {"spin": 1.0}),
    ("activation simulate --points 5 --collisions 100", "--spin 3/2", {"spin": "3/2"},
     [name.format(1.5) for name in SIMULATED], {"spin": 1.5}),
    ("activation simulate --spin 5/2 --points 5", "--tau 3 --g 1 --gamma 0",
     {"tau": 3, "g": 1, "gamma": 0}, [name.format(2.5) for name in SIMULATED],
     {"tau": 3.0, "g": 1.0, "gamma": 0.0}),
    ("train DATA --preset table3 --epochs 1", "--beta 2 --l2 0 --output-beta 1",
     {"beta": 2, "l2": 0, "output_beta": 1}, TRAINED, {"beta": 2.0, "l2": 0.0, "output_beta": 1.0}),
    ("train DATA --preset table3 --epochs 1", "--spin 1", {"spin": 1}, TRAINED, {"spin": 1.0}),
    ("dataset NET --n 10", "--range 1 2", {"mult_range": [1, 2]},
     ["dataset_config.json", "dataset_meta.json", "dataset_test.csv", "dataset_train.csv"],
     {"mult_range": [1.0, 2.0]}),
], ids=["spin-1", "spin-3/2", "activation", "train", "train-spin", "dataset"])
def test_flag_and_config_write_same_files(inputs, tmp_path, argv, flags, config, names, resolved):
    # a config's integer resolves to the float that the flag's text gives
    cfg = write_doc(config, tmp_path, name="cfg.json")
    written = []
    for route in (flags, f"--config {cfg}"):
        run_dir = tmp_path / f"run{len(written)}"
        run_dir.mkdir()  # the snapshot records --out-dir, so both runs give "out"
        res = run(f"{argv} {route} --out-dir out", inputs, cwd=run_dir)
        assert res.returncode == 0, res.stderr
        written.append({p.name: p.read_bytes() for p in (run_dir / "out").iterdir()})
    assert written[0] == written[1] and sorted(written[0]) == names
    snapshot = json.loads(next(text for name, text in written[0].items()
                               if name.endswith("_config.json")))
    assert repr({key: snapshot[key] for key in resolved}) == repr(resolved)  # repr tells 1 from 1.0


# ---------------------------------------------------------------------------
# dataset


def data_rows(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))[1:]


def test_dataset_split_sizes(dataset_dir):
    assert len(data_rows(dataset_dir / "data_train.csv")) == 32
    assert len(data_rows(dataset_dir / "data_test.csv")) == 8
    meta = json.loads((dataset_dir / "data_meta.json").read_text())
    assert meta["n_converged"] == 40
    # the recipe, split included, is the snapshot's alone, and train fits the
    # scalers: the meta holds neither
    assert list(meta) == ["n_requested", "n_converged", "network_fingerprint", "input_labels",
                          "target_labels"]
    snap = json.loads((dataset_dir / "dataset_config.json").read_text())
    assert snap["split"] == 0.8 and snap["seed"] == 0


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
    # the header-only split reads as zero rows of each width, and train stops on it
    meta = read_meta_json(tmp_path / "dataset_meta.json")
    empty = read_dataset_csv(tmp_path / "dataset_train.csv", meta)
    assert len(empty) == 0
    assert empty.inputs.shape == (0, len(meta.input_labels))
    assert empty.targets.shape == (0, len(meta.target_labels))
    assert empty.sample_id.shape == empty.converged.shape == (0,)
    res = cli("train", tmp_path / "dataset", "--preset", "table3", "--epochs", 1,
              "--out-dir", tmp_path / "out")
    assert res.returncode == 4, res.stderr
    assert res.stderr == f"error: {tmp_path / 'dataset_train.csv'}: no converged rows\n"
    assert not (tmp_path / "out").exists()


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


def test_activation_simulate_ignores_seed(tmp_path):
    # the seed is recorded in the config snapshot, nowhere else
    written = {}
    for seed in (1, 3):
        out = tmp_path / f"seed{seed}"
        res = cli("activation", "simulate", "--spin", "5/2", "--points", 5,
                  "--seed", seed, "--out-dir", out)
        assert res.returncode == 0, res.stderr
        written[seed] = {name: (out / name).read_bytes()
                         for name in ("curve_spin2.5.csv", "fit_spin2.5.json")}
        assert json.loads((out / "activation_simulate_config.json").read_text())["seed"] == seed
    assert written[1] == written[3]
    assert "provenance" not in json.loads(written[1]["fit_spin2.5.json"])


def test_activation_simulate_notes_beta_at_the_lower_bound(tmp_path):
    # this truncated curve falls with u, so its least-squares beta lies below 0.001
    res = cli("activation", "simulate", "--spin", "1/2", "--points", 5, "--mode", "truncated",
              "--tau", 30, "--g", 0.3, "--out-dir", tmp_path)
    assert res.returncode == 0, res.stderr
    assert json.loads((tmp_path / "fit_spin0.5.json").read_text())["beta"] == 0.001
    assert res.stderr.count("note: fitted beta") == 1
    assert ("note: fitted beta is pinned at the bound 0.001; the least-squares minimum lies "
            "outside [0.001, 100]\n") in res.stderr


def test_activation_simulate_default_curve_has_no_beta_note(tmp_path):
    res = cli("activation", "simulate", "--out-dir", tmp_path)
    assert res.returncode == 0, res.stderr
    assert "fitted beta" not in res.stderr


def test_activation_fit_notes_beta_at_the_upper_bound(tmp_path):
    # a step at u = 0 is steeper than tanh(100 u)
    curve = tmp_path / "steep.csv"
    curve.write_text("u,sigma_z\n-1,-1\n-0.001,-0.5\n0,0\n0.001,0.5\n1,1\n")
    res = cli("activation", "fit", curve, "--out-dir", tmp_path / "out")
    assert res.returncode == 0, res.stderr
    assert json.loads((tmp_path / "out" / "fit.json").read_text())["beta"] == 100.0
    assert res.stderr == ("note: fitted beta is pinned at the bound 100; the least-squares "
                          "minimum lies outside [0.001, 100]\n")


def curve_variants(lines):
    """The curve CSV `lines` (header first) rewritten in the layouts that a
    reader by column name takes as the same curve."""
    rows = [line.split(",") for line in lines]
    return {
        "columns-swapped": [f"{r[1]},{r[0]}" for r in rows],
        "extra-text-column": [",".join([*r, "note" if i == 0 else "a b"]) for i, r in enumerate(rows)],
        "blank-line": [*lines[:3], "", *lines[3:]],
        # the last of two u columns holds u
        "repeated-u": [f"{lines[0]},u", *(",".join(["x", *r[1:], r[0]]) for r in rows[1:])],
    }


def dict_reader_curve(path):
    """u and sigma_z as csv.DictReader and float() read them."""
    with open(path, newline="") as fh:
        rows = [(float(r["u"]), float(r["sigma_z"])) for r in csv.DictReader(fh)]
    return np.array(rows).T


def test_activation_fit_round_trip(curve_dir, tmp_path):
    res = cli("activation", "fit", curve_dir / "curve_spin0.5.csv",
              "--out-dir", tmp_path)
    assert res.returncode == 0, res.stderr
    fit = json.loads((tmp_path / "fit.json").read_text())
    assert list(fit) == ["beta", "rss", "n_points"]  # a curve CSV holds no spin
    direct = json.loads((curve_dir / "fit_spin0.5.json").read_text())
    assert fit["beta"] == pytest.approx(direct["beta"], rel=1e-12)
    # the same curve in other layouts fits to the same bytes
    lines = (curve_dir / "curve_spin0.5.csv").read_text().splitlines()
    for name, variant in curve_variants(lines).items():
        path = tmp_path / name / "curve_spin0.5.csv"
        path.parent.mkdir()
        path.write_text("\n".join(variant) + "\n")
        curve = cli_module._read_curve_csv(path)
        assert np.stack([curve.inputs, curve.outputs]).tobytes() == \
            dict_reader_curve(path).tobytes(), name
        res = cli("activation", "fit", path, "--out-dir", tmp_path / name)
        assert res.returncode == 0, (name, res.stderr)
        fit_json = (tmp_path / name / "fit.json").read_bytes()
        assert fit_json == (tmp_path / "fit.json").read_bytes(), name


def test_activation_weak_coupling_writes_the_closed_form_curve(tmp_path):
    # at g tau ~ 1e-6 the flip probabilities a and b of the two units are
    # about 1e-12, and the curve is sigma_z = e + e1 - 1 with
    # e = a (1 - b) / (a + b - ab) and e1 = e + a (1 - e); the iterated
    # collisions settle on the first cycle
    res = cli("activation", "simulate", "--points", 5, "--g", "3e-7",
              "--out-dir", tmp_path)
    assert res.returncode == 0, res.stderr
    with open(tmp_path / "curve_spin0.5.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    for row in rows:
        u = float(row["u"])
        g1, g2 = (3e-7 * math.sqrt((1.0 + s * u) / 2.0) for s in (1.0, -1.0))
        a, b = math.sin(3.0 * g1) ** 2, math.sin(3.0 * g2) ** 2
        e = a * (1 - b) / (a + b - a * b)
        assert abs(float(row["sigma_z"]) - (e + (e + a * (1 - e)) - 1)) < 1e-13
        pair = [ReservoirSpec(theta=0.0, g=g1), ReservoirSpec(theta=math.pi, g=g2)]
        settled, _ = evolve_collisions(plus_state(), pair)
        assert (int(row["collisions_used"]), row["converged"]) == (
            settled.collisions_used, str(int(settled.converged)))


def per_row_curve_csv(curve, path):
    """The csv.writer loop that wrote curve_<tag>.csv."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["u", "sigma_z", "collisions_used", "converged"])
        for i in range(curve.n_points):
            writer.writerow([
                repr(float(curve.inputs[i])),
                repr(float(curve.outputs[i])),
                int(curve.collisions_used[i]),
                int(curve.converged[i]),
            ])


def test_curve_csv_matches_per_row_writer_at_the_largest_count(tmp_path, monkeypatch):
    # one point reports the largest count an int64 holds, as a capped point
    # at --collisions 2**63 - 1 would
    curves, simulate = [], cli_module.transfer_curve

    def capped_curve(*args, **kwargs):
        curve = simulate(*args, **kwargs)
        curve.collisions_used[1], curve.converged[1] = 2**63 - 1, False
        curves.append(curve)
        return curve

    monkeypatch.setattr(cli_module, "transfer_curve", capped_curve)
    res = cli("activation", "simulate", "--spin", "1/2", "--points", 5,
              "--collisions", 2**63 - 1, "--out-dir", tmp_path)
    assert res.returncode == 0, res.stderr
    (curve,) = curves
    per_row_curve_csv(curve, tmp_path / "rows.csv")
    written = (tmp_path / "curve_spin0.5.csv").read_bytes()
    assert written == (tmp_path / "rows.csv").read_bytes()
    assert b",9223372036854775807,0\r\n" in written


def test_activation_largest_collision_cap_settles_every_point(tmp_path):
    res = cli("activation", "simulate", "--spin", "1/2", "--points", 5,
              "--collisions", 2**63 - 1, "--out-dir", tmp_path)
    assert res.returncode == 0, res.stderr
    rows = (tmp_path / "curve_spin0.5.csv").read_text().splitlines()[1:]
    assert [row.rsplit(",", 1)[1] for row in rows] == ["1"] * 5


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


def copy_split(prefix, dest, name="data"):
    """Copy the dataset files of `prefix` under `dest` with the prefix `name`."""
    for suffix in ("train.csv", "test.csv", "meta.json"):
        (dest / f"{name}_{suffix}").write_bytes(Path(f"{prefix}_{suffix}").read_bytes())
    return dest / name


def test_train_and_evaluate_read_a_meta_with_the_recipe_keys(dataset_dir, tmp_path):
    # meta files written before the snapshot alone kept the recipe hold its
    # seven keys too; train and evaluate ignore them
    old = copy_split(dataset_dir / "data", tmp_path)
    meta = json.loads(Path(f"{old}_meta.json").read_text())
    write_doc({**RECIPE_KEYS, **meta}, tmp_path, name="data_meta.json")
    written = []
    for prefix in (dataset_dir / "data", old):
        out = tmp_path / f"out{len(written)}"
        for argv in (("train", prefix, "--preset", "table3", "--epochs", 2, "--out-dir", out),
                     ("evaluate", out / "model.json", prefix, "--out-dir", out)):
            res = cli(*argv)
            assert res.returncode == 0, res.stderr
        written.append({name: (out / name).read_bytes()
                        for name in ("model.json", "epochs.csv", "eval_report.json")})
    assert written[0] == written[1]


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


def per_row_sweep_csv(rows, path):
    """The csv.writer loop that wrote sweep.csv from its rows."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["beta", "optimizer", "n_seeds", "median_final_mse",
                         "mean_final_mse", "min_final_mse", "max_final_mse"])
        for r in rows:
            writer.writerow([repr(float(r["beta"])), r["optimizer"], r["n_seeds"],
                             *(repr(r[k]) for k in ("median_final_mse", "mean_final_mse",
                                                    "min_final_mse", "max_final_mse"))])


def test_sweep_csv_matches_per_row_writer(dataset_dir, tmp_path, monkeypatch):
    finals = []

    def recorded_train(*args, **kwargs):
        params, report = train(*args, **kwargs)
        finals.append(report.final_train_mse)
        return params, report

    monkeypatch.setattr(cli_module, "train", recorded_train)
    betas, optimizers, seeds = [2, 2.22], ["adam", "sgd"], [0, 1]
    cfg = write_doc({"data": str(dataset_dir / "data"), "preset": "table3", "epochs": 1,
                     "betas": betas, "optimizers": optimizers, "seeds": seeds},
                    tmp_path, name="sweep.json")
    res = cli("sweep", cfg, "--out-dir", tmp_path)
    assert res.returncode == 0, res.stderr
    runs = iter(finals)
    rows = []
    for beta in betas:
        for opt in optimizers:
            mse = [next(runs) for _ in seeds]
            rows.append({"beta": beta, "optimizer": opt, "n_seeds": len(seeds),
                         "median_final_mse": statistics.median(mse),
                         "mean_final_mse": statistics.fmean(mse),
                         "min_final_mse": min(mse), "max_final_mse": max(mse)})
    assert next(runs, None) is None
    per_row_sweep_csv(rows, tmp_path / "rows.csv")
    written = (tmp_path / "sweep.csv").read_bytes()
    assert written == (tmp_path / "rows.csv").read_bytes()
    assert written.split(b"\r\n")[1].startswith(b"2.0,adam,2,")
    assert res.stdout.splitlines() == [
        f"beta={r['beta']} optimizer={r['optimizer']} "
        f"median_final_mse={r['median_final_mse']:.6e} (n={r['n_seeds']})" for r in rows]


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
    copy_split(dataset_dir / "data", tmp_path, name="-d")
    cfg = tmp_path / "sweep.json"
    cfg.write_text(json.dumps({"data": "-d", "preset": "table3", "epochs": 1,
                               "betas": [2.22], "seeds": [0]}))
    res = cli("sweep", cfg, "--out-dir", tmp_path / "out", cwd=tmp_path)
    assert res.returncode == 0, res.stderr
    assert len(data_rows(tmp_path / "out" / "sweep.csv")) == 1


@pytest.mark.parametrize("module", ["qnpflow", "qnpflow.cli"])
def test_version_flag(module):
    res = python_m("--version", module=module)
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


# ---------------------------------------------------------------------------
# the pipeline end to end

# (argv, exit code, reason), run in order in one directory: later rows read
# what earlier rows wrote. pyproject.toml turns warnings into errors, so a row
# also fails on any overflow or lost digit that numpy warns of.
PIPELINE = [
    ("activation simulate --spin 5/2 --points 5 --out-dir act", 0, "every point settles"),
    ("activation fit act/curve_spin2.5.csv --out-dir act-fit", 0, "the curve the row above wrote"),
    ("activation simulate --spin 1/2 --points 5 --out-dir act-capped", 0,
     "spin 1/2: four points reach the collision cap"),
    ("activation simulate --spin 1/2 --points 41 --out-dir act-capped-41", 0,
     "the capped curve at 41 points"),
    ("activation simulate --spin 1/2 --points 5 --collisions 9223372036854775807"
     " --out-dir act-largest-cap", 0, "the capped points settle after about 30000 collisions"),
    ("activation simulate --spin 1 --points 5 --mode truncated --out-dir act-truncated", 0,
     "the mode reaches CollisionParams as its string value"),
    ("activation simulate --spin 50 --points 41 --out-dir act-spin50", 0, "a large spin"),
    ("activation simulate --spin 1/2 --points 5 --mode truncated --tau 30 --g 0.3"
     " --out-dir act-truncated-large", 0, "g tau = 9: the maps grow by about 10^6 per cycle"),
    ("activation simulate --spin 1/2 --points 5 --g 1e-4 --out-dir act-weak", 0,
     "g = 1e-4: flip probabilities below 1e-7"),
    ("dataset paper4bus --n 200 --seed 42 --prefix data --out-dir data", 0,
     "the dataset that train, sweep and evaluate read"),
    ("dataset paper4bus --n 500 --range 1.0 5.5 --seed 5 --out-dir data-stressed", 0,
     "near voltage collapse, cases retire at the step cap and the working rows shrink"),
    ("train data/data --preset table3 --epochs 2 --out-dir model", 0, "the training path"),
    ("sweep sweep.json --out-dir sweep", 0, "an integer and a float beta"),
    ("evaluate model/model.json data/data --out-dir eval", 0, "the model the train row wrote"),
]


def test_pipeline_runs_in_order(tmp_path):
    (tmp_path / "paper4bus").write_bytes(NETWORK_PATH.read_bytes())
    write_doc({"data": "data/data", "betas": [2, 2.22], "seeds": [0], "preset": "table3",
               "epochs": 2}, tmp_path, name="sweep.json")
    for argv, code, reason in PIPELINE:
        res = cli(*argv.split(), cwd=tmp_path)
        assert res.returncode == code, (argv, reason, res.stderr)


# ---------------------------------------------------------------------------
# exit codes

# The README's exit code of every error class; any other OSError exits 3 too.
EXIT_CODES = {
    errors.ParseError: 4, errors.ValidationError: 4, errors.DimensionMismatch: 4,
    errors.ShapeMismatch: 4, errors.VersionMismatch: 4,
    errors.NotConverged: 5,
    errors.SingularJacobian: 6,
    errors.TooFewConverged: 7,
    errors.InvalidSpin: 8, errors.UnknownSpin: 8, errors.DegenerateCurve: 8,
    errors.NoCoupling: 8, errors.InvalidDensityMatrix: 8, errors.MapeUndefined: 8,
    errors.NonFinite: 9,
}
OS_ERRORS = (FileNotFoundError, PermissionError, IsADirectoryError, NotADirectoryError, OSError)


def subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from subclasses(sub)


def test_every_error_class_exits_with_its_readme_code(monkeypatch, tmp_path):
    # a new error class fails here until it is given its code in the table
    assert set(subclasses(errors.QnpflowError)) == EXIT_CODES.keys()
    for cls, code in [*EXIT_CODES.items(), *((cls, 3) for cls in OS_ERRORS)]:
        message = f"{cls.__name__} while loading the network"

        def load_network(path, cls=cls, message=message):
            raise cls(message)

        monkeypatch.setattr(cli_module, "load_network", load_network)
        res = cli("solve", NETWORK, "--out-dir", tmp_path)
        assert (res.returncode, res.stderr) == (code, f"error: {message}\n"), cls
    # anything else is a fault of the program, and stays a traceback
    monkeypatch.setattr(cli_module, "load_network", lambda path: {}["buses"])
    with pytest.raises(KeyError):
        cli("solve", NETWORK, "--out-dir", tmp_path)


# ---------------------------------------------------------------------------
# failing runs

BIG = 10**400  # json reads this integer, and no float holds it


def file(name, content):
    """A maker that writes `content` to `name`: str or bytes as given, other
    values as JSON."""
    text = content if isinstance(content, (str, bytes)) else json.dumps(content)

    def make(run_dir, inputs):
        path = run_dir / name
        path.write_bytes(text) if isinstance(text, bytes) else path.write_text(text)
    return make


def sweep_file(**keys):
    """A maker that writes sweep.json: table3 for one epoch at beta 2.22 and
    seed 0 on the DATA prefix, with `keys` on top."""
    def make(run_dir, inputs):
        write_doc({"data": str(inputs["DATA"]), "preset": "table3", "epochs": 1, "betas": [2.22],
                   "seeds": [0], **keys}, run_dir, name="sweep.json")
    return make


def spoils(placeholder, name):
    """Turn `spoil(doc)` into a maker that writes the JSON file that
    `placeholder` stands for, spoiled, to `name`."""
    def wrap(spoil):
        @functools.wraps(spoil)
        def make(run_dir, inputs):
            doc = json.loads(Path(inputs[placeholder]).read_text())
            spoil(doc)
            write_doc(doc, run_dir, name=name)
        return make
    return wrap


spoiled_network, spoiled_model = spoils("NET", "net"), spoils("MODEL", "model.json")


@spoiled_network
def nan_load(doc):
    doc["buses"][1]["p_load"] = float("nan")


@spoiled_network
def infinite_ybus_entry(doc):
    doc["ybus"][1][1][1] = float("inf")  # a diagonal entry, so YBUS stays symmetric


@spoiled_network
def huge_loads(doc):
    for bus in doc["buses"]:
        bus["p_load"], bus["q_load"] = bus["p_load"] * 1e200, bus["q_load"] * 1e200


def network_with_5000_digit_integer(run_dir, inputs):
    doc = json.loads(NETWORK_PATH.read_text())
    doc["buses"][1]["p_load"] = "DIGITS"
    (run_dir / "net").write_text(json.dumps(doc).replace('"DIGITS"', "7" * 5000))


def truncated_model(run_dir, inputs):
    text = inputs["MODEL"].read_text()
    (run_dir / "model.json").write_text(text[: len(text) // 2])


@spoiled_model
def nan_weight(doc):
    doc["weights"][0][0][0] = float("nan")


@spoiled_model
def infinite_scaler_center(doc):
    doc["scalers"]["inputs"]["center"][0] = float("inf")


@spoiled_model
def huge_weights(doc):  # finite, so the model loads
    doc["weights"][-1] = np.full(np.shape(doc["weights"][-1]), 1e300).tolist()


@spoiled_model
def non_numeric_sizes(doc):
    doc["topology"]["sizes"] = "ab"


@spoiled_model
def non_numeric_weight(doc):
    doc["weights"][0][0][0] = "x"


@spoiled_model
def fractional_size(doc):
    doc["topology"]["sizes"][1] += 0.7


@spoiled_model
def string_use_bias(doc):
    doc["topology"]["use_bias"] = "no"


@spoiled_model
def bool_beta(doc):
    doc["topology"]["beta"] = True


@spoiled_model
def narrow_weight(doc):
    doc["weights"][0] = [row[:-1] for row in doc["weights"][0]]


@spoiled_model
def scalers_not_an_object(doc):
    doc["scalers"] = "x"


@spoiled_model
def scaler_missing_keys(doc):
    doc["scalers"]["inputs"] = {"kind": "minmax"}


@spoiled_model
def scaler_short_center(doc):
    doc["scalers"]["inputs"]["center"] = [0.0]


@spoiled_model
def scaler_one_column(doc):
    doc["scalers"]["inputs"] = {"kind": "minmax", "center": [0.0], "scale": [1.0],
                                "passthrough": [False]}


@spoiled_model
def target_scaler_of_input_width(doc):
    doc["scalers"]["targets"] = doc["scalers"]["inputs"]


@spoiled_model
def weight_beyond_float(doc):
    doc["weights"][0][0][0] = BIG


@spoiled_model
def beta_beyond_float(doc):
    doc["topology"]["beta"] = BIG


@spoiled_model
def output_beta_beyond_float(doc):
    doc["topology"]["output_beta"] = BIG


@spoiled_model
def scaler_center_beyond_float(doc):
    doc["scalers"]["inputs"]["center"][0] = BIG


def meta_not_an_object(run_dir, inputs):
    copy_split(inputs["DATA"], run_dir)
    (run_dir / "data_meta.json").write_text("[1]")


def meta_labels_not_strings(run_dir, inputs):
    copy_split(inputs["DATA"], run_dir)
    meta = json.loads((run_dir / "data_meta.json").read_text())
    write_doc({**meta, "input_labels": 5}, run_dir, name="data_meta.json")


def multiplier_columns(run_dir, inputs):
    """The dataset as the releases that wrote the load multipliers wrote it."""
    write_parent_layout(copy_split(inputs["DATA"], run_dir))


def undecodable_train_line(run_dir, inputs):
    copy_split(inputs["DATA"], run_dir)
    with open(run_dir / "data_train.csv", "ab") as fh:
        fh.write(b"\xff\xff\r\n")


def spoiled_cell(split, line, column, text):
    """A maker that copies the dataset as `data` and writes `text` into one
    cell of a converged row, at `line` (counted from 1) of `split`: the cell
    with index or label `column`, or the whole line for None."""
    def make(run_dir, inputs):
        copy_split(inputs["DATA"], run_dir)
        path = run_dir / f"data_{split}.csv"
        lines = path.read_text().splitlines()
        cells = lines[line - 1].split(",")
        assert cells[-1] == "1"
        if column is None:
            cells = [text]
        else:
            cells[lines[0].split(",").index(column) if isinstance(column, str) else column] = text
        lines[line - 1] = ",".join(cells)
        path.write_text("\n".join(lines) + "\n")
    return make


def row(argv, code, text, *makers, id=None, marks=()):
    """One failing run: its argv, with placeholders for `inputs`; its exit
    code; text that its stderr holds; and the makers that write its spoiled
    inputs into the run directory first. The argv is its id unless `id` is
    given, as it must be where the argv alone names no one row."""
    return pytest.param(argv, code, text, makers, marks=marks, id=id or argv)


def config_row(argv, key, value, shown=None):
    """A row for a config file that gives `key` a value that no flag could;
    its id shows the value, or `shown` in its place."""
    return row(f"{argv} --config cfg.json", 4,
               f"error: cfg.json: {value!r} is not a valid value for {key!r}\n",
               file("cfg.json", {key: value}), id=f"{argv} {key}={shown or repr(value)}")


def wrong_type_rows():
    """An empty object, which no flag can give, for every declared option of
    every subcommand; positionals name files that the check runs before."""
    for name, command in COMMANDS.items():
        argv = " ".join([name, *(f"missing-{arg}" for arg, _ in command.args)])
        for opt in command.options:
            yield config_row(argv, opt.dest, {})


TRAIN = "train DATA --preset table3 --epochs 1"
SIMULATE = "activation simulate --points 5"
# what train, evaluate and sweep say of a split that still holds the load multipliers
MULT_HEADER = ("header ['sample_id', 'mult_p2', 'mult_q2', 'mult_p3', 'mult_q3', 'p_load_1', "
               "'p_load_2', 'p_load_3', 'p_load_4', 'q_load_1', 'q_load_2', 'q_load_3', 'q_load_4', "
               "'v_slack_1', 'v_pv_4', 'v_mag_2', 'v_mag_3', 'delta_2_deg', 'delta_3_deg', "
               "'delta_4_deg', 'converged'] does not match dataset metadata\n")
FAILURES = [
    # solve
    row("solve nope.json", 3, "No such file or directory: 'nope.json'"),
    row("solve NET --max-iter 1 --tol 1e-12", 5, "after 1 iterations (tol 1.0e-12)"),
    *(row(f"solve NET --tol {tol}", 4, "tol must be finite and positive")
      for tol in ("inf", "nan", "0", "-1")),
    # --seed exists only where a run reads it: dataset, activation simulate, train
    row("solve NET --seed 1", 2, "unrecognized arguments: --seed 1"),
    row("solve NET --config cfg.json", 4, "error: cfg.json: Expecting property name",
        file("cfg.json", "{ not json"), id="solve NET --config cfg.json with no JSON"),
    row("solve NET --config cfg.json", 4, "error: cfg.json: ", file("cfg.json", b"\xff\xfe{}"),
        id="solve NET --config cfg.json with a UTF-16 mark"),
    row("solve NET --config cfg.json", 4, "error: cfg.json: no option named 'max_iterr'\n",
        file("cfg.json", {"max_iterr": 3}), id="solve NET max_iterr=3"),
    *(row(argv, 4, "expected a finite number", make, id=f"{argv} {make.__name__}")
      for argv in ("solve net", "dataset net --n 20") for make in (nan_load, infinite_ybus_entry)),
    row("solve net", 5, "after 20 iterations", huge_loads, id="solve net huge_loads"),
    row("solve net", 4, "error: net: ", file("net", b"\xff\xfe" + NETWORK_PATH.read_bytes()),
        id="solve net with a UTF-16 mark"),
    row("solve net", 4, "error: net: ", network_with_5000_digit_integer,
        id="solve net with a 5000-digit integer",
        marks=pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                                 reason="int() reads any number of digits")),
    row("solve net", 4, "error: net: ", file("net", "[" * 200000), id="solve net nested 200000 deep"),
    row(f"solve NET --out-dir {'o' * 300}", 3, "o" * 300, id="solve NET --out-dir o...o"),
    row("solve NET --out-dir afile", 3, "afile", file("afile", "")),
    config_row("solve NET", "tol", BIG, "BIG"),
    # dataset
    row("dataset NET --n 5 --range 30.0 40.0 --prefix bad", 7, "samples converged"),
    row("dataset NET --n 20 --range 1e200 1e200", 7, "samples converged"),
    row("dataset NET --n 20 --range 1e307 1e307", 7, "samples converged"),
    row("dataset NET --n 20 --range 0.8 inf", 4, "multiplier range must satisfy"),
    row("dataset NET --n 20 --range nan 1.2", 4, "multiplier range must satisfy"),
    row("dataset NET --n 10 --seed -1", 4, "seed must be non-negative"),
    # sizes beyond what numpy indexes fail before any array is made
    *(row(f"dataset NET --n {n}", 4, "error: n must be at most 18014398509481983, as numpy cannot "
          f"index the arrays of more samples, got {n}\n") for n in (4 * 10**18, 10**20)),
    config_row("dataset NET", "n", "500"),
    config_row("dataset NET", "n", None),  # null only where the default is None
    config_row("dataset NET", "mult_range", [BIG, 1], "[BIG, 1]"),
    # activation simulate
    *(row(f"{SIMULATE} {args}", 4, text) for args, text in [
        ("--gamma nan", "gamma must be finite"), ("--gamma inf", "gamma must be finite"),
        ("--tau inf", "tau must be finite"), ("--tau nan", "tau must be finite"),
        ("--g nan", "coupling g must be finite"), ("--g inf", "coupling g must be finite"),
        ("--g 1e308", "collision maps overflow"), ("--g 1e60 --mode truncated", "collision maps overflow"),
        ("--tau 1e306 --g 1e3", "collision maps overflow"),
        ("--seed -1", "seed must be non-negative"),
        ("--collisions 100000000000000000000", "n_collisions"),
    ]),
    row("activation simulate --points 4 --collisions 100", 4, "n_points must be odd"),
    *(row(f"activation simulate --points {n}", 4,
          f"error: n_points must be odd and in [5, 230584300921369395], got {n}\n")
      for n in (2**63 - 1, 10**20 + 1)),
    row("activation simulate --schedule round-robin", 2, "unrecognized arguments: --schedule"),
    row("activation simulate --config cfg.json", 4, "error: cfg.json: no option named 'schedule'\n",
        file("cfg.json", {"schedule": "round-robin"})),
    row(f"{SIMULATE} --spin 0.6 --collisions 100", 8, "spin must be a half-integer >= 1/2, got 0.6"),
    # 515 has binomials C(1030, k) beyond a float; 514.5 is the largest spin
    row(f"{SIMULATE} --spin 515", 8,
        "error: spin 515.0 is too large: the largest spin accepted is 514.5\n"),
    *(row(f"{SIMULATE} --spin {spin}", 8, "spin must be a half-integer") for spin in ("nan", "inf")),
    *(row(f"{SIMULATE} --spin {spin} --collisions 100", 2,
          f"usage error: spin must be a number such as 1.5 or a fraction such as 3/2, got {spin!r}\n")
      for spin in ("abc", "1/0")),
    # a list, text that --spin would reject, and an integer beyond the float range
    *(config_row("activation simulate", "spin", spin) for spin in ([1], "abc", "1/0")),
    *(config_row(argv, key, BIG, "BIG") for argv, key in [
        ("activation simulate", "spin"), (SIMULATE, "tau"), (SIMULATE, "g")]),
    # activation fit: wrong columns, a non-numeric sigma_z, a short row, a short
    # row in each layout of curve_variants, a header with no data rows
    *(row("activation fit bad.csv", 4, f"error: bad.csv: {text}", file("bad.csv", curve),
          id=f"activation fit bad.csv {what}")
      for what, curve, text in [
          ("columns a,b", "a,b\n1,2\n", "expected columns u and sigma_z\n"),
          ("sigma_z abc", "u,sigma_z\n0.0,abc\n", "line 2: could not convert string to float: 'abc'\n"),
          ("short row", "u,sigma_z\n-1.0,-0.5\n0.0\n", "line 3: u and sigma_z must be numbers\n"),
          ("short row, sigma_z first", "sigma_z,u\n-0.5,-1.0\n0.5\n",
           "line 3: u and sigma_z must be numbers\n"),
          ("short row, a note column", "u,sigma_z,note\n-1.0,-0.5,a b\n1.0\n",
           "line 3: u and sigma_z must be numbers\n"),
          ("short row after a blank one", "u,sigma_z\n-1.0,-0.5\n\n0.0\n",
           "line 4: u and sigma_z must be numbers\n"),
          ("short row, u twice", "u,sigma_z,u\n-1.0,-0.5,-1.0\n1.0,0.5\n",
           "line 3: u and sigma_z must be numbers\n"),
          ("header only", "u,sigma_z\n", "no data rows\n"),
          ("sigma_z nan", "u,sigma_z\n-1,-0.5\n0,nan\n1,0.5\n",
           "curve inputs and outputs must be finite numbers\n"),
      ]),
    row("activation fit curve.csv", 4, "error: curve.csv: line 2: field larger than field limit",
        file("curve.csv", "u,sigma_z\n-1," + "5" * 200000 + "\n1,0.5\n")),
    # train
    row("train DATA --preset table3 --beta 2.22 --spin 1/2", 2,
        "usage error: give at most one of --beta / --spin / --beta-from-fit"),
    row("train DATA --preset table3 --spin 2", 8, "error: no tabulated steepness for spin 2.0\n"),
    *(row(f"train DATA --preset table3 --spin {spin}", 2,
          f"usage error: spin must be a number such as 1.5 or a fraction such as 3/2, got {spin!r}\n")
      for spin in ("abc", "1/0")),
    row("train DATA --epochs 1", 2,
        "usage error: without --preset, set hidden_layers, hidden_size, batch_size\n"),
    *(row(f"{TRAIN} --lr {lr}", 4, "learning rate must be finite and positive") for lr in ("0", "-1")),
    # a NaN or infinite penalty used to train a full epoch, then exit 9
    *(row(f"{TRAIN} {flag} {value}", 4, "penalty strengths must be finite")
      for flag in ("--l1", "--l2") for value in ("nan", "inf")),
    row(f"{TRAIN} --config cfg.json", 4, "penalty strengths must be finite",
        file("cfg.json", '{"l2": Infinity}'), id=f"{TRAIN} l2=Infinity"),
    row(f"{TRAIN} --seed -1", 4, "seed must be non-negative"),
    row(f"{TRAIN} --config cfg.json", 4, "seed must be non-negative", file("cfg.json", {"seed": -3}),
        id=f"{TRAIN} seed=-3"),
    row("train DATA --preset table3 --config cfg.json", 4, "error: cfg.json: no option named 'epoch'\n",
        file("cfg.json", {"epoch": 3})),
    *(row(f"{TRAIN} --beta-from-fit fit.json", 4, f"error: fit.json: {text}", file("fit.json", fit),
          id=f"{TRAIN} --beta-from-fit {what}")
      for what, fit, text in [
          ("with no JSON", "{not json", "Expecting property name"),
          ("of a number", "3", "expected a JSON object\n"),
          *((f"beta={value!r}", {"beta": value},
             f"beta must be a finite positive number, got {value!r}\n")
            for value in ("steep", math.nan, "3.0", True, -1)),
          ("beta=BIG", {"beta": BIG}, f"beta must be a finite positive number, got {BIG!r}\n"),
      ]),
    *(config_row("train missing-data", "spin", spin) for spin in ("abc", "1/0")),
    *(config_row(TRAIN, key, BIG, "BIG")
      for key in ("beta", "l2", "learning_rate", "spin", "output_beta")),
    *(row(f"train DATA --preset table3 --epochs 3 --optimizer {name} --lr 1e200", 9,
          "training loss became") for name in OPTIMIZER_NAMES),
    *(row("train data --preset table3 --epochs 1", 4, f"error: {text}", make,
          id=f"train data {what}")
      for what, make, text in [
          ("meta_not_an_object", meta_not_an_object, "data_meta.json: expected a JSON object\n"),
          ("meta_labels_not_strings", meta_labels_not_strings,
           "data_meta.json: 'input_labels' must be a list of strings\n"),
          ("cell 3 abc", spoiled_cell("train", 3, 3, "abc"),
           "data_train.csv: line 3: could not convert string to float: 'abc'"),
          ("converged 2", spoiled_cell("train", 3, -1, "2"),
           "data_train.csv: line 3: converged must be 0 or 1, got '2'"),
          ("empty line", spoiled_cell("train", 3, None, ""),
           "data_train.csv: line 3: row with 0 fields, expected 17"),
          ("p_load_2 nan", spoiled_cell("train", 2, "p_load_2", "nan"),
           "data_train.csv: line 2: non-finite"),
          ("undecodable_train_line", undecodable_train_line, "data_train.csv: "),
          ("multiplier_columns", multiplier_columns, f"data_train.csv: {MULT_HEADER}"),
      ]),
    # evaluate
    *(row("evaluate MODEL data", 4, f"error: {text}", make, id=f"evaluate data {what}")
      for what, make, text in [
          ("meta_not_an_object", meta_not_an_object, "data_meta.json: expected a JSON object\n"),
          ("p_load_2 nan", spoiled_cell("test", 2, "p_load_2", "nan"),
           "data_test.csv: line 2: non-finite"),
          ("multiplier_columns", multiplier_columns, f"data_test.csv: {MULT_HEADER}"),
      ]),
    *(row("evaluate model.json DATA", code, text, make, id=f"evaluate {make.__name__}")
      for code, text, make in [
          (4, "error: model.json: weights and biases must be finite numbers\n", nan_weight),
          (4, "error: model.json: malformed scaler: center and scale must be finite numbers\n",
           infinite_scaler_center),
          *((4, "error: model.json: ", make) for make in (
              truncated_model, non_numeric_sizes, fractional_size, string_use_bias, bool_beta,
              non_numeric_weight, narrow_weight, scalers_not_an_object, scaler_missing_keys,
              scaler_short_center, scaler_one_column, target_scaler_of_input_width,
              weight_beyond_float, beta_beyond_float, output_beta_beyond_float,
              scaler_center_beyond_float)),
          (9, "evaluation error is not finite", huge_weights),
      ]),
    # sweep
    row("sweep sweep.json", 4, "error: sweep.json: expected a JSON object\n",
        file("sweep.json", "[1, 2]"), id="sweep of a list"),
    *(row("sweep sweep.json", code, text, sweep_file(**{key: value}), id=f"sweep {key}={value!r}")
      for key, value, code, text in [
          ("betas", [], 2, "usage error: empty sweep list"),
          *((key, value, 2, f"usage error: sweep.json: '{key}' must be a list")
            for key, value in [("seeds", 3), ("betas", 2.22), ("optimizers", "adam")]),
          ("data", 5, 2, "usage error: sweep.json: sweep config needs a 'data' prefix string"),
          *((key, value, 4, f"error: sweep.json: {value!r} is not a valid value for {key!r}\n")
            for key, value in [("epochs", "2"), ("bias", "yes"), ("spin", "abc")]),
          ("typo_key", 3, 4, "error: sweep.json: no option named 'typo_key'\n"),
          ("learning_rate", -1, 4, "learning rate must be finite and positive"),
          ("seeds", [-1], 4, "seed must be non-negative, got -1"),
      ]),
    row("sweep sweep.json", 2, "usage error: sweep.json: 'betas' must be a list",
        sweep_file(betas=[BIG]), id="sweep betas=[BIG]"),
    # a bad value anywhere in the grid stops the sweep before the first run trains
    *(row("sweep sweep.json", 4, text, sweep_file(**{"seeds": [0, 1, 2], key: value}),
          id=f"sweep seeds=[0, 1, 2] {key}={value!r}")
      for key, value, text in [
          ("betas", [2.22, -1.0], "beta must be finite and positive, got -1.0"),
          ("optimizers", ["adam", "adamw"], "unknown optimizer 'adamw'"),
          ("seeds", [0, 1, -2], "seed must be non-negative, got -2"),
      ]),
    row("sweep sweep.json", 4, f"error: data_train.csv: {MULT_HEADER}",
        multiplier_columns, sweep_file(data="data"), id="sweep multiplier_columns"),
    *wrong_type_rows(),
]
assert len({param.id for param in FAILURES}) == len(FAILURES)


def tree(root):
    return {path: path.is_file() and path.read_bytes() for path in root.rglob("*")}


@pytest.mark.parametrize("argv, code, text, makers", FAILURES)
def test_failing_run_exits_with_one_error_line(inputs, tmp_path, monkeypatch, argv, code, text,
                                               makers):
    # The run directory is the default --out-dir, so the tree check sees any
    # artifact, and the spy on _out_dir sees an output directory made.
    # pyproject.toml turns warnings into errors, so an overflow that numpy
    # warns of would end the run in an exception here.
    for make in makers:
        make(tmp_path, inputs)
    before = tree(tmp_path)
    made, trained = [], []

    def out_dir(cfg, make=cli_module._out_dir):
        made.append(make(cfg))
        return made[-1]

    monkeypatch.setattr(cli_module, "_out_dir", out_dir)
    monkeypatch.setattr(cli_module, "train", lambda *args: trained.append(args) or train(*args))
    res = run(argv, inputs, cwd=tmp_path)
    assert res.returncode == code, res.stderr
    *usage, line = res.stderr.splitlines(keepends=True)
    if usage:  # argparse's own exit: its usage, then one error line
        assert code == 2 and usage[0].startswith("usage: qnpflow ")
        assert all(u.startswith(" ") for u in usage[1:]) and re.match("qnpflow[a-z ]*: error: ", line)
    else:
        assert line.startswith("usage error: " if code == 2 else "error: ")
    assert line.endswith("\n") and text in res.stderr, res.stderr
    assert "Traceback" not in res.stderr and "Warning" not in res.stderr and res.stdout == ""
    assert tree(tmp_path) == before and made == []
    assert not trained or code == 9  # only a run whose training fails reaches train
