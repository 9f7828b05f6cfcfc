import contextlib
import csv
import io
import json
import math
import os
import statistics
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import NETWORK_PATH, write_doc, write_parent_layout
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
    # JSON keeps every float's repr, so its bus records rebuild the same rows
    per_row_solution_csv(doc["buses"], tmp_path / "rows.csv")
    assert (tmp_path / "solution.csv").read_bytes() == (tmp_path / "rows.csv").read_bytes()


def per_row_solution_csv(buses, path):
    """The csv.writer loop that wrote solution.csv from the bus records."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["bus_id", "kind", "v_mag_pu", "delta_deg", "p_inj_mw", "q_inj_mvar"])
        for r in buses:
            writer.writerow([r["bus_id"], r["kind"], *(repr(r[k]) for k in
                             ("v_mag_pu", "delta_deg", "p_inj_mw", "q_inj_mvar"))])


def test_solve_missing_file_exits_3(tmp_path):
    res = cli("solve", tmp_path / "nope.json", "--out-dir", tmp_path)
    assert res.returncode == 3
    assert "error:" in res.stderr


def test_solve_not_converged_exits_5(tmp_path):
    res = cli("solve", NETWORK, "--max-iter", 1, "--tol", "1e-12",
              "--out-dir", tmp_path)
    assert res.returncode == 5


@pytest.mark.parametrize("tol", ["inf", "nan", "0", "-1"])
def test_solve_tol_not_finite_and_positive_exits_4(tol, tmp_path):
    # with tol inf, a flat start reported convergence in 0 iterations
    res = cli("solve", NETWORK, "--tol", tol, "--out-dir", tmp_path)
    assert res.returncode == 4, res.stderr
    assert res.stderr.startswith("error:") and "tol" in res.stderr
    assert not (tmp_path / "solution.json").exists()


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
    (["activation", "simulate"], {"spin": "abc"}),  # text that --spin would reject
    (["activation", "simulate"], {"spin": "1/0"}),
    (["train", "missing-data"], {"spin": "abc"}),
    (["train", "missing-data"], {"spin": "1/0"}),
    *wrong_type_rows(),
])
def test_config_value_of_wrong_type_exits_4(tmp_path, command, config):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    res = cli(*command, "--config", cfg, cwd=tmp_path)  # no --out-dir: it would beat out_dir
    assert res.returncode == 4, res.stderr
    (key,) = config
    assert res.stderr.startswith(f"error: {cfg}: ") and repr(key) in res.stderr
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


def test_dataset_too_few_converged_exits_7(tmp_path):
    res = cli("dataset", NETWORK, "--n", 5, "--range", 30.0, 40.0,
              "--prefix", "bad", "--out-dir", tmp_path)
    assert res.returncode == 7


@pytest.mark.parametrize("args", [
    ("activation", "simulate", "--gamma", "nan"),
    ("activation", "simulate", "--gamma", "inf"),
    ("activation", "simulate", "--tau", "inf"),
    ("activation", "simulate", "--tau", "nan"),
    ("activation", "simulate", "--g", "nan"),
    ("activation", "simulate", "--g", "inf"),
    ("activation", "simulate", "--g", "1e308"),
    ("activation", "simulate", "--g", "1e60", "--mode", "truncated"),
    ("activation", "simulate", "--tau", "1e306", "--g", "1e3"),
    ("dataset", NETWORK, "--n", 20, "--range", "0.8", "inf"),
    ("dataset", NETWORK, "--n", 20, "--range", "nan", "1.2"),
], ids=["gamma-nan", "gamma-inf", "tau-inf", "tau-nan", "g-nan", "g-inf",
        "g-map-overflow", "truncated-prefix-overflow", "tau-map-overflow",
        "range-high-inf", "range-low-nan"])
def test_non_finite_collision_and_range_inputs_exit_4(args, tmp_path):
    points = ("--points", 5) if args[0] == "activation" else ()
    res = cli(*args, *points, "--out-dir", tmp_path / "out")
    assert res.returncode == 4, res.stderr
    assert res.stderr.startswith("error:") and "Traceback" not in res.stderr
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


@pytest.mark.parametrize("flag, value, spin", [("1", 1, 1.0), ("3/2", "3/2", 1.5)])
def test_activation_simulate_spin_flag_and_config_write_same_files(tmp_path, flag, value, spin):
    # the config's integer 1 and the flag's text "1" both resolve to spin 1.0,
    # and the text "3/2" reads the same from either
    config = write_doc({"spin": value}, tmp_path, name="spin.json")
    written = {}
    for route, args in (("flag", ["--spin", flag]), ("config", ["--config", config])):
        out = tmp_path / "out"
        res = cli("activation", "simulate", *args, "--points", 5, "--collisions", 100,
                  "--out-dir", out)
        assert res.returncode == 0, res.stderr
        written[route] = {p.name: p.read_bytes() for p in out.iterdir()}
        for p in out.iterdir():
            p.unlink()
    assert written["flag"] == written["config"]
    assert sorted(written["flag"]) == ["activation_simulate_config.json", f"curve_spin{spin}.csv",
                                       f"fit_spin{spin}.json"]
    assert json.loads(written["flag"]["activation_simulate_config.json"])["spin"] == spin


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
    # the seed is recorded in the config and the fit's provenance, nowhere else
    curves = {}
    for seed in (1, 2):
        out = tmp_path / f"seed{seed}"
        res = cli("activation", "simulate", "--spin", "5/2", "--points", 5,
                  "--seed", seed, "--out-dir", out)
        assert res.returncode == 0, res.stderr
        curves[seed] = (out / "curve_spin2.5.csv").read_bytes()
    assert curves[1] == curves[2]


def test_activation_simulate_has_no_schedule(tmp_path):
    # round-robin is the one schedule, so no flag or config key names one
    res = cli("activation", "simulate", "--schedule", "round-robin", "--out-dir", tmp_path)
    assert res.returncode == 2
    config = write_doc({"schedule": "round-robin"}, tmp_path, name="schedule.json")
    res = cli("activation", "simulate", "--config", config, "--out-dir", tmp_path / "out")
    assert res.returncode == 4
    assert res.stderr.startswith("error:") and "'schedule'" in res.stderr
    assert not (tmp_path / "out").exists()


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


def test_activation_even_points_exits_4(tmp_path):
    res = cli("activation", "simulate", "--points", 4, "--collisions", 100,
              "--out-dir", tmp_path)
    assert res.returncode == 4


def test_activation_collision_cap_beyond_int64_exits_4(tmp_path):
    res = cli("activation", "simulate", "--points", 5, "--collisions", 10**20,
              "--out-dir", tmp_path / "out")
    assert res.returncode == 4, res.stderr
    assert res.stderr.startswith("error:") and "n_collisions" in res.stderr
    assert not (tmp_path / "out").exists()


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


def test_activation_invalid_spin_exits_8(tmp_path):
    res = python_m("activation", "simulate", "--spin", "0.6", "--points", 5,
                   "--collisions", 100, "--out-dir", tmp_path)
    assert res.returncode == 8


def test_activation_spin_above_the_largest_exits_8(tmp_path):
    # 515 has binomials C(1030, k) beyond a float; 514.5 is the largest spin
    res = cli("activation", "simulate", "--spin", 515, "--points", 5,
              "--out-dir", tmp_path / "out")
    assert res.returncode == 8, res.stderr
    assert res.stderr == ("error: spin 515.0 is too large: the largest spin accepted "
                          "is 514.5\n")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("spin", ["nan", "inf"])
def test_activation_non_finite_spin_exits_8(spin, tmp_path):
    res = cli("activation", "simulate", "--spin", spin, "--points", 5,
              "--out-dir", tmp_path / "out")
    assert res.returncode == 8, res.stderr
    assert res.stderr.startswith("error:") and "spin" in res.stderr
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("spin", ["abc", "1/0"])
def test_activation_unparseable_spin_exits_2(spin, tmp_path):
    res = cli("activation", "simulate", "--spin", spin, "--points", 5,
              "--collisions", 100, "--out-dir", tmp_path)
    assert res.returncode == 2
    assert "usage error" in res.stderr


def test_activation_fit_rejects_bad_curve(tmp_path):
    bad = tmp_path / "bad.csv"
    # wrong columns, a non-numeric sigma_z, a short row, a short row in each
    # layout of curve_variants, and a header with no data rows
    texts = ["a,b\n1,2\n", "u,sigma_z\n0.0,abc\n", "u,sigma_z\n-1.0,-0.5\n0.0\n",
             "sigma_z,u\n-0.5,-1.0\n0.5\n", "u,sigma_z,note\n-1.0,-0.5,a b\n1.0\n",
             "u,sigma_z\n-1.0,-0.5\n\n0.0\n", "u,sigma_z,u\n-1.0,-0.5,-1.0\n1.0,0.5\n",
             "u,sigma_z\n"]
    for text in texts:
        bad.write_text(text)
        res = cli("activation", "fit", bad, "--out-dir", tmp_path / "out")
        assert res.returncode == 4, (text, res.stderr)
        assert res.stderr.startswith("error:") and res.stderr.count("\n") == 1, (text, res.stderr)
        assert not (tmp_path / "out").exists()
    assert res.stderr == f"error: {bad}: no data rows\n"


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
    meta["input_labels"] = 5
    (tmp_path / "data_meta.json").write_text(json.dumps(meta))
    res = cli("train", prefix, "--preset", "table3", "--epochs", 1, "--out-dir", tmp_path / "out")
    assert res.returncode == 4, res.stderr
    assert res.stderr.startswith("error:") and "'input_labels'" in res.stderr
    assert "Traceback" not in res.stderr


@pytest.mark.parametrize("cell, text, message", [
    (3, "abc", "could not convert string to float: 'abc'"),
    (-1, "2", "converged must be 0 or 1, got '2'"),
    (None, "", "row with 0 fields, expected 17"),
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


@pytest.mark.parametrize("command", ["train", "evaluate", "sweep"])
def test_split_with_multiplier_columns_exits_4(command, trained_dir, dataset_dir, tmp_path):
    # a dataset written before the multiplier columns were dropped
    prefix = copy_split(dataset_dir, tmp_path)
    write_parent_layout(prefix)
    sweep = tmp_path / "sweep.json"
    sweep.write_text(json.dumps({"data": str(prefix), "betas": [2.22], "seeds": [0],
                                 "preset": "table3", "epochs": 1}))
    args = {"train": ["train", prefix, "--preset", "table3", "--epochs", 1],
            "evaluate": ["evaluate", trained_dir / "model.json", prefix],
            "sweep": ["sweep", sweep]}[command]
    res = cli(*args, "--out-dir", tmp_path / "out")
    split = "test" if command == "evaluate" else "train"
    assert res.returncode == 4, res.stderr
    assert res.stderr.startswith(f"error: {tmp_path / f'data_{split}.csv'}: header ['sample_id', "
                                 "'mult_p2', 'mult_q2', 'mult_p3', 'mult_q3', 'p_load_1'")
    assert res.stderr.endswith(" does not match dataset metadata\n")
    assert res.stderr.count("\n") == 1 and "Traceback" not in res.stderr
    assert not (tmp_path / "out").exists()


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


def fractional_size(doc):
    doc["topology"]["sizes"][1] += 0.7


def string_use_bias(doc):
    doc["topology"]["use_bias"] = "no"


def bool_beta(doc):
    doc["topology"]["beta"] = True


def narrow_weight(doc):
    doc["weights"][0] = [row[:-1] for row in doc["weights"][0]]


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


@pytest.mark.parametrize("spoil", [non_numeric_sizes, fractional_size, string_use_bias, bool_beta,
                                   non_numeric_weight, narrow_weight, scalers_not_an_object,
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


@pytest.mark.parametrize("option, value", [
    ("--l1", "nan"), ("--l1", "inf"), ("--l2", "nan"), ("--l2", "inf"),
    ("--config", '{"l2": Infinity}'),
], ids=["l1-nan", "l1-inf", "l2-nan", "l2-inf", "config-l2-infinity"])
def test_train_non_finite_penalty_exits_4(option, value, dataset_dir, tmp_path):
    # a NaN or infinite penalty used to train a full epoch, then exit 9
    if option == "--config":
        cfg = tmp_path / "cfg.json"
        cfg.write_text(value)
        value = cfg
    res = cli("train", dataset_dir / "data", "--preset", "table3", "--epochs", 1,
              option, value, "--out-dir", tmp_path / "out")
    assert res.returncode == 4, res.stderr
    assert res.stderr.startswith("error:") and "penalty strengths" in res.stderr
    assert not (tmp_path / "out" / "model.json").exists()


@pytest.mark.parametrize("source", ["dataset --seed", "activation simulate --seed",
                                    "train --seed", "train --config", "sweep seeds"])
def test_negative_seed_exits_4(source, dataset_dir, tmp_path):
    prefix = dataset_dir / "data"
    table3 = ["--preset", "table3", "--epochs", 1]
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"seed": -3} if source == "train --config" else
                              {"data": str(prefix), "preset": "table3", "epochs": 1,
                               "betas": [2.22], "seeds": [-1]}))
    args = {"dataset --seed": ["dataset", NETWORK, "--n", 10, "--seed", -1],
            "activation simulate --seed": ["activation", "simulate", "--points", 5,
                                           "--seed", -1],
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


@pytest.mark.parametrize("key, value", [("epochs", "2"), ("bias", "yes"), ("spin", "abc"),
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


@pytest.mark.parametrize("axis", [{"betas": [2.22, -1.0]}, {"optimizers": ["adam", "adamw"]},
                                  {"seeds": [0, 1, -2]}])
def test_sweep_checks_every_run_before_training(dataset_dir, tmp_path, monkeypatch, axis):
    calls = []

    def counted_train(*args, **kwargs):
        calls.append(args)
        return train(*args, **kwargs)

    monkeypatch.setattr(cli_module, "train", counted_train)
    cfg = tmp_path / "sweep.json"
    cfg.write_text(json.dumps({"data": str(dataset_dir / "data"), "preset": "table3",
                               "epochs": 1, "betas": [2.22], "seeds": [0, 1, 2], **axis}))
    res = cli("sweep", cfg, "--out-dir", tmp_path / "out")
    assert res.returncode == 4, res.stderr
    assert res.stderr.startswith("error:")
    assert calls == []
    assert not (tmp_path / "out").exists()


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


@pytest.mark.parametrize("args, code", [
    (["solve", "huge-loads"], 5),
    (["dataset", NETWORK, "--n", 20, "--range", 1e200, 1e200], 7),
    (["dataset", NETWORK, "--n", 20, "--range", 1e307, 1e307], 7),
    *((["train", "DATA", "--preset", "table3", "--epochs", 3, "--optimizer", name, "--lr", 1e200], 9)
      for name in OPTIMIZER_NAMES),
    (["evaluate", "huge-weights.json", "DATA"], 9),
], ids=["solve", "dataset-1e200", "dataset-1e307", *(f"train-{name}" for name in OPTIMIZER_NAMES),
        "evaluate"])
def test_overflow_exits_with_one_error_line(args, code, tmp_path, dataset_dir, trained_dir):
    # pyproject.toml turns warnings into errors, so an overflow that numpy
    # warns of ends the run in an exception here
    doc = json.loads(NETWORK_PATH.read_text())
    for bus in doc["buses"]:
        bus["p_load"], bus["q_load"] = bus["p_load"] * 1e200, bus["q_load"] * 1e200
    write_doc(doc, tmp_path, name="huge-loads")
    model = json.loads((trained_dir / "model.json").read_text())  # finite, so it loads
    model["weights"][-1] = np.full(np.shape(model["weights"][-1]), 1e300).tolist()
    write_doc(model, tmp_path, name="huge-weights.json")
    argv = [dataset_dir / "data" if arg == "DATA" else arg for arg in args]
    res = cli(*argv, "--out-dir", "out", cwd=tmp_path)
    assert res.returncode == code, res.stderr
    assert res.stderr.startswith("error: ") and res.stderr.count("\n") == 1, res.stderr
    assert "Warning" not in res.stderr and not (tmp_path / "out").exists()


def too_long_out_dir(tmp_path, dataset_dir):
    out = tmp_path / ("o" * 300)
    return ["solve", NETWORK, "--out-dir", out], out


def out_dir_is_a_file(tmp_path, dataset_dir):
    out = tmp_path / "afile"
    out.write_text("")
    return ["solve", NETWORK, "--out-dir", out], out


def network_with_utf16_mark(tmp_path, dataset_dir):
    net = tmp_path / "net"
    net.write_bytes(b"\xff\xfe" + NETWORK_PATH.read_bytes())
    return ["solve", net], net


def config_with_utf16_mark(tmp_path, dataset_dir):
    cfg = tmp_path / "cfg.json"
    cfg.write_bytes(b"\xff\xfe{}")
    return ["solve", NETWORK, "--config", cfg], cfg


def network_with_5000_digit_integer(tmp_path, dataset_dir):
    doc = json.loads(NETWORK_PATH.read_text())
    doc["buses"][1]["p_load"] = "DIGITS"
    net = tmp_path / "net"
    net.write_text(json.dumps(doc).replace('"DIGITS"', "7" * 5000))
    return ["solve", net], net


def network_nested_too_deep(tmp_path, dataset_dir):
    net = tmp_path / "net"
    net.write_text("[" * 200000)
    return ["solve", net], net


def train_split_with_undecodable_line(tmp_path, dataset_dir):
    prefix = copy_split(dataset_dir, tmp_path)
    split = tmp_path / "data_train.csv"
    split.write_bytes(split.read_bytes() + b"\xff\xff\r\n")
    return ["train", prefix, "--preset", "table3", "--epochs", 1], split


def curve_with_cell_over_field_limit(tmp_path, dataset_dir):
    curve = tmp_path / "curve.csv"
    curve.write_text("u,sigma_z\n-1," + "5" * 200000 + "\n1,0.5\n")
    return ["activation", "fit", curve], f"{curve}: line 2: field larger than field limit"


@pytest.mark.parametrize("make, code", [
    (too_long_out_dir, 3),
    (out_dir_is_a_file, 3),
    (network_with_utf16_mark, 4),
    (config_with_utf16_mark, 4),
    pytest.param(network_with_5000_digit_integer, 4, marks=pytest.mark.skipif(
        not hasattr(sys, "get_int_max_str_digits"), reason="int() reads any number of digits")),
    (network_nested_too_deep, 4),
    (train_split_with_undecodable_line, 4),
    (curve_with_cell_over_field_limit, 4),
], ids=lambda v: getattr(v, "__name__", None))
def test_bad_input_path_exits_with_one_error_line(make, code, dataset_dir, tmp_path):
    argv, named = make(tmp_path, dataset_dir)
    if "--out-dir" not in argv:
        argv += ["--out-dir", tmp_path / "out"]
    res = cli(*argv)
    assert res.returncode == code, res.stderr
    assert res.stderr.startswith("error: ") and res.stderr.count("\n") == 1, res.stderr
    assert str(named) in res.stderr
