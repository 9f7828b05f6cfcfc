"""Workload definitions: the CLI calls of one pass, and the check of each call.

Every path is relative to the child's working directory, which sits two
levels below the checkout root, so config snapshots (which record the paths
they were given) hold the same bytes in every run.
"""
from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

NETWORK = "../../networks/paper4bus"
TRAIN_BETAS = ("2.22", "2.78", "3.33", "4.1")
ACTIVATION_SPINS = ("1/2", "5/2")
CLOSED_FORM_TOL = 1e-3  # criterion 4's bound
# A dataset pass is DATASET_PARTS calls of 500 samples each rather than one
# call of 2000, so that the reference speed (reference.py) is timed every
# ~0.7 s instead of every ~3 s; the per-sample work is the same.
DATASET_PARTS = 4


@dataclass(frozen=True)
class Call:
    """One `qnpflow.cli.main(argv)` call and the directory it writes into."""

    kind: str  # dataset | simulate | train | evaluate
    argv: tuple[str, ...]
    out: str


@dataclass
class Outcome:
    """What a call's check found: items of work, useful units over units, and
    the reason the output is wrong (None when it is right)."""

    items: float = 0.0
    useful: int = 0
    units: int = 0
    error: str | None = None
    test_mse: float | None = None


@dataclass(frozen=True)
class Workload:
    name: str
    setup: tuple[Call, ...]
    passes: tuple[Call, ...]


def _dataset_call(out: str, n: int, lo: str, hi: str, seed: int) -> Call:
    return Call("dataset", ("dataset", NETWORK, "--n", str(n), "--range", lo, hi,
                            "--seed", str(seed), "--out-dir", out), out)


def _dataset_pass(n: int, lo: str, hi: str, seed: int) -> tuple[Call, ...]:
    return tuple(_dataset_call(f"out/part{k}", n // DATASET_PARTS, lo, hi, seed * DATASET_PARTS + k)
                 for k in range(DATASET_PARTS))


def build(name: str, seed: int) -> Workload:
    """The calls of workload `name` with inputs made from `seed`."""
    if name == "dataset-nominal":
        return Workload(name, (), _dataset_pass(2000, "0.8", "1.2", seed))
    if name == "dataset-stressed":
        return Workload(name, (), _dataset_pass(2000, "1.0", "5.5", seed))
    if name == "activation":
        # Round-robin schedule: the seed reaches the CLI but changes no input.
        calls = tuple(
            Call("simulate", ("activation", "simulate", "--spin", spin, "--points", "5",
                              "--seed", str(seed), "--out-dir", f"out/spin{i}"), f"out/spin{i}")
            for i, spin in enumerate(ACTIVATION_SPINS))
        return Workload(name, (), calls)
    if name == "train":
        setup = (_dataset_call("data", 2000, "0.8", "1.2", seed),)
        calls = []
        for beta in TRAIN_BETAS:
            out = f"out/b{beta}"
            calls.append(Call("train", ("train", "data/dataset", "--preset", "table3",
                                        "--beta", beta, "--seed", str(seed),
                                        "--out-dir", f"{out}/train"), f"{out}/train"))
            calls.append(Call("evaluate", ("evaluate", f"{out}/train/model.json", "data/dataset",
                                           "--split", "test", "--out-dir", f"{out}/eval"),
                              f"{out}/eval"))
        return Workload(name, setup, tuple(calls))
    raise KeyError(name)


NAMES = ("dataset-nominal", "dataset-stressed", "activation", "train")


# ---------------------------------------------------------------- checks

def _read_rows(path: Path) -> tuple[list[str], list[list[str]]]:
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, [])
        return header, list(reader)


def worst_mismatch(net, header: list[str], rows: list[list[str]]) -> float:
    """Largest power mismatch, in per-unit, of the stored solutions.

    Evaluates S = V * conj(Y V) for every row at once, from the CSV columns
    alone, independently of `qnpflow.powerflow` (criterion 8's rule).
    """
    if not rows:
        return 0.0
    col = {h: i for i, h in enumerate(header)}
    data = np.array([[float(v) for v in r] for r in rows])
    base = net.base.s_base
    n = net.n
    vm = np.empty((len(rows), n))
    va = np.zeros((len(rows), n))
    p_sch = np.full(n, np.nan)
    q_sch = np.full(n, np.nan)
    p_load = np.empty((len(rows), n))
    q_load = np.empty((len(rows), n))
    for i, bus in enumerate(net.buses):
        p_load[:, i] = data[:, col[f"p_load_{bus.id}"]]
        q_load[:, i] = data[:, col[f"q_load_{bus.id}"]]
        kind = bus.kind.value
        if kind == "slack":
            vm[:, i] = data[:, col[f"v_slack_{bus.id}"]]
            va[:, i] = math.radians(bus.v_angle)
            continue
        va[:, i] = np.radians(data[:, col[f"delta_{bus.id}_deg"]])
        p_sch[i] = bus.p_gen / base
        if kind == "pv":
            vm[:, i] = data[:, col[f"v_pv_{bus.id}"]]
        else:
            vm[:, i] = data[:, col[f"v_mag_{bus.id}"]]
            q_sch[i] = bus.q_gen / base
    volts = vm * np.exp(1j * va)
    s = volts * np.conj(volts @ net.ybus.entries.T)
    dp = (p_sch - p_load) - s.real
    dq = (q_sch - q_load) - s.imag
    worst = max(np.nanmax(np.abs(dp)), np.nanmax(np.abs(dq)))
    return float(worst)


def check_dataset(out: Path, net, tol: float) -> Outcome:
    meta = json.loads((out / "dataset_meta.json").read_text())
    outcome = Outcome(items=meta["n_requested"], useful=meta["n_converged"],
                      units=meta["n_requested"])
    header, rows = _read_rows(out / "dataset_train.csv")
    _, test_rows = _read_rows(out / "dataset_test.csv")
    converged = [r for r in rows + test_rows if r[-1] == "1"]
    if len(converged) != meta["n_converged"]:
        outcome.error = f"{len(converged)} converged rows on disk, meta says {meta['n_converged']}"
        return outcome
    worst = worst_mismatch(net, header, converged)
    if not worst < tol:
        outcome.error = f"stored solution mismatch {worst:.3e} >= tol {tol:.1e}"
    return outcome


def check_simulate(out: Path, closed_form) -> Outcome:
    """Every curve point within criterion 4's bound of `closed_form(spin, u)`,
    and a finite fitted beta."""
    (curve_path,) = out.glob("curve_*.csv")
    (fit_path,) = out.glob("fit_*.json")
    fit = json.loads(fit_path.read_text())
    header, rows = _read_rows(curve_path)
    col = {h: i for i, h in enumerate(header)}
    flags = [r[col["converged"]] == "1" for r in rows]
    outcome = Outcome(items=len(rows), useful=sum(flags), units=len(rows))
    worst = max(abs(float(r[col["sigma_z"]]) - closed_form(fit["spin_j"], float(r[col["u"]])))
                for r in rows)
    beta = fit["beta"]
    if not worst < CLOSED_FORM_TOL:
        outcome.error = f"curve point {worst:.3e} from the closed form (bound {CLOSED_FORM_TOL})"
    elif not math.isfinite(beta):
        outcome.error = f"fitted beta {beta} is not finite"
    return outcome


def check_train(report, n_rows: int) -> Outcome:
    """Criterion 7's rule: the final train MSE is below a tenth of the initial."""
    if report is None:
        return Outcome(units=1, error="train returned no report")
    outcome = Outcome(items=n_rows * len(report.train_mse), units=1)
    outcome.test_mse = report.final_test_mse
    if report.final_train_mse < report.initial_train_mse / 10.0:
        outcome.useful = 1
    else:
        outcome.error = (f"final train MSE {report.final_train_mse:.3e} not below a tenth of "
                         f"the initial {report.initial_train_mse:.3e}")
    return outcome


def check_evaluate(out: Path) -> Outcome:
    doc = json.loads((out / "eval_report.json").read_text())
    values = [doc["mse"], *doc["mape_per_output"]]
    outcome = Outcome()
    if not all(math.isfinite(v) for v in values):
        outcome.error = f"evaluate reported non-finite MSE/MAPE {values}"
    return outcome
