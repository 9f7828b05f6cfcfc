"""Command-line entry point: solve, dataset, activation, train, evaluate, sweep.

Every artifact-producing run writes a resolved-config snapshot next to its
outputs so a rerun with the same flags reproduces the same bytes (no
timestamps in any artifact).  Exit codes are one per error class; see
EXIT_* constants or the README table.
"""

from __future__ import annotations

import argparse
import csv
import json
import statistics
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import __version__
from .activation import ActivationCurve, beta_table, fit_beta, spin_beta
from .dataset import (
    Scaler,
    _arrays,
    fit_scaler,
    generate,
    read_dataset_csv,
    read_meta_json,
    split,
    write_dataset_csv,
    write_meta_json,
)
from .errors import (
    DegenerateCurve,
    DimensionMismatch,
    InvalidDensityMatrix,
    InvalidSpin,
    MapeUndefined,
    NoCoupling,
    NonFinite,
    NotConverged,
    ParseError,
    ShapeMismatch,
    SingularJacobian,
    TooFewConverged,
    UnknownSpin,
    ValidationError,
    VersionMismatch,
    read_json_object,
)
from .grid import load_network
from .neuralnet import (
    Hyperparams,
    OptimizerKind,
    TrainSet,
    build_topology,
    evaluate,
    load_model,
    preset,
    save_model,
    train,
    write_epoch_log,
)
from .powerflow import SolveOptions, solve
from .qsim import CollisionParams, PropagatorMode, transfer_curve

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_FILE = 3
EXIT_PARSE = 4
EXIT_NOT_CONVERGED = 5
EXIT_SINGULAR = 6
EXIT_TOO_FEW_CONVERGED = 7
EXIT_DOMAIN = 8
EXIT_NONFINITE = 9


class UsageError(Exception):
    pass


def _parse_spin(text: str) -> float:
    try:
        if "/" in text:
            num, den = text.split("/", 1)
            return float(num) / float(den)
        return float(text)
    except (ValueError, ZeroDivisionError):
        raise UsageError(f"spin must be a number such as 1.5 or a fraction such as 3/2, "
                         f"got {text!r}") from None


def _is(value, kind: type) -> bool:
    """isinstance for JSON values: a bool is no number, an int is also a float."""
    if isinstance(value, bool):
        return kind is bool
    return isinstance(value, (int, float) if kind is float else kind)


def _fits(action: argparse.Action, value) -> bool:
    """Whether a config-file value is one the option's flag could have given."""
    if isinstance(action, argparse.BooleanOptionalAction):
        return _is(value, bool)
    if isinstance(action.nargs, int):
        return (isinstance(value, list) and len(value) == action.nargs
                and all(_is(v, action.type) for v in value))
    if action.dest == "spin":  # a number, or text such as "3/2"
        return _is(value, float) or _is(value, str)
    return _is(value, action.type or str) and (action.choices is None or value in action.choices)


def _resolve(ns: argparse.Namespace, defaults: dict) -> dict:
    """CLI value if given, else config-file value, else builtin default.

    A config-file value must be one the option's flag could have given, or
    null where the default is None; otherwise ParseError names the key."""
    config = {} if ns.config is None else read_json_object(ns.config)
    actions = {a.dest: a for a in ns.parser._actions}
    out = {}
    for key, default in defaults.items():
        cli_val = getattr(ns, key, None)
        if cli_val is not None:
            out[key] = cli_val
        elif key in config:
            value = config[key]
            if not (value is None and default is None) and not _fits(actions[key], value):
                raise ParseError(f"{ns.config}: {value!r} is not a valid value for {key!r}")
            out[key] = value
        else:
            out[key] = default
    return out


def _out_dir(cfg: dict) -> Path:
    out = Path(cfg.get("out_dir") or ".")
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_snapshot(out: Path, command: str, cfg: dict) -> None:
    doc = {"command": command, **cfg}
    (out / f"{command}_config.json").write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")


# ---------------------------------------------------------------- solve

SOLVE_DEFAULTS = {"tol": 1e-8, "max_iter": 20, "flat_start": True, "out_dir": None}


def cmd_solve(ns: argparse.Namespace) -> int:
    cfg = _resolve(ns, SOLVE_DEFAULTS)
    net = load_network(ns.network)
    sol = solve(net, SolveOptions(tol=cfg["tol"], max_iter=cfg["max_iter"],
                                  flat_start=cfg["flat_start"]))
    out = _out_dir(cfg)
    _write_snapshot(out, "solve", {**cfg, "network": str(ns.network)})

    rows = []
    for i, bus in enumerate(net.buses):
        rows.append({
            "bus_id": bus.id,
            "kind": bus.kind.value,
            "v_mag_pu": float(sol.v_mag[i]),
            "delta_deg": float(np.degrees(sol.delta[i])),
            "p_inj_mw": float(net.base.from_pu(sol.p_calc[i])),
            "q_inj_mvar": float(net.base.from_pu(sol.q_calc[i])),
        })
    (out / "solution.json").write_text(json.dumps({
        "converged": sol.converged,
        "iterations": sol.iterations,
        "mismatch_history": list(sol.mismatch_history),
        "buses": rows,
    }, indent=1) + "\n")
    with open(out / "solution.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["bus_id", "kind", "v_mag_pu", "delta_deg", "p_inj_mw", "q_inj_mvar"])
        for r in rows:
            writer.writerow([r["bus_id"], r["kind"], *(repr(r[k]) for k in
                             ("v_mag_pu", "delta_deg", "p_inj_mw", "q_inj_mvar"))])

    print(f"converged in {sol.iterations} iterations, "
          f"final mismatch {sol.mismatch_history[-1]:.3e}")
    print(f"{'bus':>3} {'kind':>5} {'v_mag_pu':>10} {'delta_deg':>10} "
          f"{'p_inj_mw':>10} {'q_inj_mvar':>11}")
    for r in rows:
        print(f"{r['bus_id']:>3} {r['kind']:>5} {r['v_mag_pu']:>10.6f} "
              f"{r['delta_deg']:>10.4f} {r['p_inj_mw']:>10.3f} {r['q_inj_mvar']:>11.3f}")
    return EXIT_OK


# ---------------------------------------------------------------- dataset

DATASET_DEFAULTS = {
    "n": 500, "mult_range": [0.8, 1.2], "split": 0.8,
    "coupled": False, "perturb_all_loads": False, "prefix": "dataset",
    "seed": 0, "out_dir": None,
}


def cmd_dataset(ns: argparse.Namespace) -> int:
    cfg = _resolve(ns, DATASET_DEFAULTS)
    net = load_network(ns.network)
    lo, hi = cfg["mult_range"]
    samples, meta = generate(net, cfg["n"], mult_range=(lo, hi), seed=cfg["seed"],
                             coupled=cfg["coupled"], perturb_all_loads=cfg["perturb_all_loads"])

    usable = [s for s in samples if s.converged]
    train_s, test_s = split(usable, cfg["split"], cfg["seed"])
    meta = replace(meta, split_ratio=cfg["split"], split_seed=cfg["seed"])

    out = _out_dir(cfg)
    _write_snapshot(out, "dataset", {**cfg, "network": str(ns.network)})
    prefix = cfg["prefix"]
    write_dataset_csv(train_s, meta, out / f"{prefix}_train.csv")
    write_dataset_csv(test_s, meta, out / f"{prefix}_test.csv")
    write_meta_json(meta, out / f"{prefix}_meta.json")
    print(f"{meta.n_converged}/{meta.n_requested} converged, "
          f"{len(train_s)} train / {len(test_s)} test rows -> {out / prefix}_*.csv")
    return EXIT_OK


# ---------------------------------------------------------------- activation

SIMULATE_DEFAULTS = {
    "spin": 0.5, "g": 0.01, "tau": 3.0, "gamma": 0.0, "points": 41,
    "collisions": 20000, "mode": "exact", "schedule": "round-robin",
    "seed": None, "out_dir": None,
}


def _write_curve_csv(curve: ActivationCurve, path: Path) -> None:
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


def _read_curve_csv(path: str | Path) -> ActivationCurve:
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None or not {"u", "sigma_z"} <= set(reader.fieldnames):
            raise ParseError(f"{path}: expected columns u and sigma_z")
        try:
            rows = [(float(r["u"]), float(r["sigma_z"])) for r in reader]
        except (TypeError, ValueError):
            raise ParseError(f"{path}: line {reader.line_num}: u and sigma_z must be numbers") from None
    if not rows:
        raise ParseError(f"{path}: no data rows")
    u, y = zip(*rows)
    try:
        return ActivationCurve(inputs=np.array(u), outputs=np.array(y),
                               provenance={"source": Path(path).name})
    except ValidationError as exc:
        raise ValidationError(f"{path}: {exc}") from None


def _fit_doc(fit, curve: ActivationCurve) -> dict:
    return {
        "beta": fit.beta,
        "rss": fit.rss,
        "n_points": fit.n_points,
        "spin_j": curve.spin_j,
        "provenance": curve.provenance,
    }


def cmd_activation_simulate(ns: argparse.Namespace) -> int:
    cfg = _resolve(ns, SIMULATE_DEFAULTS)
    if isinstance(cfg["spin"], str):
        cfg["spin"] = _parse_spin(cfg["spin"])
    params = CollisionParams(
        tau=cfg["tau"],
        n_collisions=cfg["collisions"],
        gamma=cfg["gamma"],
        propagator_mode=PropagatorMode(cfg["mode"]),
    )
    curve = transfer_curve(cfg["spin"], params, n_points=cfg["points"], g=cfg["g"],
                           schedule=cfg["schedule"], seed=cfg["seed"])
    fit = fit_beta(curve)

    out = _out_dir(cfg)
    _write_snapshot(out, "activation_simulate", cfg)
    tag = f"spin{cfg['spin']}"
    _write_curve_csv(curve, out / f"curve_{tag}.csv")
    doc = {**_fit_doc(fit, curve), "table_beta": beta_table().get(cfg["spin"])}
    (out / f"fit_{tag}.json").write_text(json.dumps(doc, indent=1) + "\n")
    print(f"spin={cfg['spin']} fitted beta={fit.beta:.6f} rss={fit.rss:.3e} "
          f"-> {out / f'curve_{tag}.csv'}")
    capped = int(np.count_nonzero(~curve.converged))
    if capped:
        print(f"note: {capped} of {curve.n_points} curve points did not settle within the "
              f"{params.n_collisions}-collision cap; sigma_z is exact, only collisions_used "
              f"is capped", file=sys.stderr)
    return EXIT_OK


FIT_DEFAULTS = {"out_dir": None}


def cmd_activation_fit(ns: argparse.Namespace) -> int:
    cfg = _resolve(ns, FIT_DEFAULTS)
    curve = _read_curve_csv(ns.curve)
    fit = fit_beta(curve)
    out = _out_dir(cfg)
    _write_snapshot(out, "activation_fit", {**cfg, "curve": str(ns.curve)})
    (out / "fit.json").write_text(json.dumps(_fit_doc(fit, curve), indent=1) + "\n")
    print(f"fitted beta={fit.beta:.6f} rss={fit.rss:.3e} over {fit.n_points} points")
    return EXIT_OK


# ---------------------------------------------------------------- train

TRAIN_DEFAULTS = {
    "preset": None, "beta": None, "spin": None, "beta_from_fit": None,
    "optimizer": None, "learning_rate": None, "epochs": None, "batch_size": None,
    "hidden_layers": None, "hidden_size": None, "l1": None, "l2": None,
    "scale_inputs": "minmax", "scale_targets": "none", "output_beta": None,
    "bias": True, "seed": 0, "out_dir": None,
}


def _resolve_beta(cfg: dict) -> float:
    given = [k for k in ("beta", "spin", "beta_from_fit") if cfg[k] is not None]
    if len(given) > 1:
        raise UsageError(f"give at most one of --beta / --spin / --beta-from-fit, got {given}")
    if cfg["spin"] is not None:
        spin = _parse_spin(cfg["spin"]) if isinstance(cfg["spin"], str) else cfg["spin"]
        return spin_beta(spin)
    if cfg["beta_from_fit"] is not None:
        doc = read_json_object(cfg["beta_from_fit"])
        try:
            return float(doc["beta"])
        except (KeyError, TypeError, ValueError):
            raise ParseError(f"{cfg['beta_from_fit']}: no numeric beta field") from None
    return cfg["beta"] if cfg["beta"] is not None else 2.22


def _resolve_hyper(cfg: dict) -> Hyperparams:
    if cfg["preset"] is not None:
        hyper = preset(cfg["preset"])
    else:
        needed = ("hidden_layers", "hidden_size", "epochs", "batch_size")
        missing = [k for k in needed if cfg[k] is None]
        if missing:
            raise UsageError(f"without --preset, set {', '.join(missing)}")
        hyper = Hyperparams(hidden_layers=cfg["hidden_layers"], hidden_size=cfg["hidden_size"],
                            epochs=cfg["epochs"], batch_size=cfg["batch_size"])
    overrides = {k: cfg[k] for k in ("hidden_layers", "hidden_size", "epochs", "batch_size",
                                     "optimizer", "learning_rate", "l1", "l2")
                 if cfg[k] is not None}
    return replace(hyper, seed=cfg["seed"], **overrides)


def _load_split(prefix: str, which: str):
    meta = read_meta_json(f"{prefix}_meta.json")
    path = Path(f"{prefix}_{which}.csv")
    if not path.exists():
        raise FileNotFoundError(f"{path}: no such dataset split")
    samples = [s for s in read_dataset_csv(path, meta) if s.converged]
    if not samples:
        raise ValidationError(f"{path}: no converged rows")
    return _arrays(samples)


def _scaled(arr: np.ndarray | None, scaler: Scaler | None) -> np.ndarray | None:
    return arr if scaler is None or arr is None else scaler.transform(arr)


def _train_set(prefix: str, scale_inputs: str, scale_targets: str,
               with_test: bool) -> tuple[TrainSet, Scaler | None, Scaler | None]:
    """Read the split CSVs under `prefix` and scale them with scalers fitted on
    the train rows only; kind "none" leaves that side unscaled. With `with_test`,
    the test split is included when its CSV exists."""
    x_tr, y_tr = _load_split(prefix, "train")
    x_te = y_te = None
    if with_test:
        try:
            x_te, y_te = _load_split(prefix, "test")
        except FileNotFoundError:
            pass
    fs = None if scale_inputs == "none" else fit_scaler(x_tr, scale_inputs)
    ts = None if scale_targets == "none" else fit_scaler(y_tr, scale_targets)
    data = TrainSet(x_train=_scaled(x_tr, fs), y_train=_scaled(y_tr, ts),
                    x_test=_scaled(x_te, fs), y_test=_scaled(y_te, ts),
                    invert_targets=ts.invert if ts else None)
    return data, fs, ts


def cmd_train(ns: argparse.Namespace) -> int:
    cfg = _resolve(ns, TRAIN_DEFAULTS)
    beta = _resolve_beta(cfg)
    hyper = _resolve_hyper(cfg)
    data, fs, ts = _train_set(ns.data, cfg["scale_inputs"], cfg["scale_targets"], with_test=True)
    topology = build_topology(data.x_train.shape[1], data.y_train.shape[1], hyper, beta,
                              cfg["output_beta"], cfg["bias"])
    params, report = train(data, topology, hyper)

    out = _out_dir(cfg)
    resolved = {**cfg, "data": str(ns.data), "beta": beta,
                "hidden_layers": hyper.hidden_layers, "hidden_size": hyper.hidden_size,
                "epochs": hyper.epochs, "batch_size": hyper.batch_size,
                "optimizer": hyper.optimizer,
                "learning_rate": OptimizerKind(hyper.optimizer, hyper.learning_rate).lr,
                "l1": hyper.l1, "l2": hyper.l2}
    _write_snapshot(out, "train", resolved)
    scalers = {"inputs": fs.to_dict() if fs else None,
               "targets": ts.to_dict() if ts else None}
    save_model(params, scalers, out / "model.json")
    write_epoch_log(report, out / "epochs.csv")

    line = (f"beta={beta} optimizer={hyper.optimizer} epochs={hyper.epochs} "
            f"final_train_mse={report.final_train_mse:.6e}")
    if report.final_test_mse is not None:
        line += f" final_test_mse={report.final_test_mse:.6e}"
    if report.mape is not None:
        line += " mape=" + "/".join(f"{v:.3f}%" for v in report.mape)
    print(line)
    print(f"wall time {report.wall_time:.2f} s -> {out / 'model.json'}")
    return EXIT_OK


# ---------------------------------------------------------------- evaluate

EVALUATE_DEFAULTS = {"split": "test", "out_dir": None}


def cmd_evaluate(ns: argparse.Namespace) -> int:
    cfg = _resolve(ns, EVALUATE_DEFAULTS)
    params, scalers = load_model(ns.model)
    x, y = _load_split(ns.data, cfg["split"])
    try:
        fs, ts = (Scaler.from_dict((scalers or {}).get(side)) for side in ("inputs", "targets"))
    except ParseError as exc:
        raise ParseError(f"{ns.model}: {exc}") from None
    report = evaluate(params, _scaled(x, fs), _scaled(y, ts),
                      invert_targets=ts.invert if ts else None)
    out = _out_dir(cfg)
    _write_snapshot(out, "evaluate", {**cfg, "model": str(ns.model), "data": str(ns.data)})
    (out / "eval_report.json").write_text(json.dumps({
        "split": cfg["split"],
        "mse": report.mse,
        "mape_per_output": report.mape.tolist(),
    }, indent=1) + "\n")
    print(f"split={cfg['split']} mse={report.mse:.6e} "
          "mape=" + "/".join(f"{v:.3f}%" for v in report.mape))
    return EXIT_OK


# ---------------------------------------------------------------- sweep

SWEEP_DEFAULTS = {"out_dir": None}


def cmd_sweep(ns: argparse.Namespace) -> int:
    cfg = _resolve(ns, SWEEP_DEFAULTS)
    doc = read_json_object(ns.sweep_config)
    if not isinstance(doc.get("data"), str):
        raise UsageError(f"{ns.sweep_config}: sweep config needs a 'data' prefix string")

    for key, kind in (("betas", float), ("optimizers", str), ("seeds", int)):
        value = doc.get(key)
        if value is not None and not (isinstance(value, list) and all(_is(v, kind) for v in value)):
            raise UsageError(f"{ns.sweep_config}: {key!r} must be a list of {kind.__name__} "
                             f"values, got {value!r}")
    betas = doc.get("betas", None)
    optimizers = doc.get("optimizers", None)
    if betas == [] or optimizers == []:
        raise UsageError("empty sweep list: betas/optimizers must be non-empty when given")
    if betas is None and optimizers is None:
        raise UsageError("sweep config lists neither betas nor optimizers")
    seeds = doc.get("seeds", [0, 1, 2, 3, 4])
    if not seeds:
        raise UsageError("empty sweep list: seeds must be non-empty")

    # The train keys of the sweep file pass the checks of `train --config`;
    # "--" keeps a prefix that starts with "-" from reading as a flag.
    base = _resolve(build_parser().parse_args(
        ["train", "--config", str(ns.sweep_config), "--", doc["data"]]), TRAIN_DEFAULTS)
    if betas is None:
        betas = [_resolve_beta(base)]
    if optimizers is None:
        optimizers = [_resolve_hyper({**base, "seed": 0}).optimizer]

    data, _, _ = _train_set(doc["data"], base["scale_inputs"], base["scale_targets"],
                            with_test=False)

    rows = []
    for beta in betas:
        for opt in optimizers:
            finals = []
            for seed in seeds:
                hyper = _resolve_hyper({**base, "optimizer": opt, "seed": seed})
                topology = build_topology(data.x_train.shape[1], data.y_train.shape[1], hyper,
                                          beta, base["output_beta"], base["bias"])
                _, report = train(data, topology, hyper)
                finals.append(report.final_train_mse)
            rows.append({
                "beta": beta, "optimizer": opt, "n_seeds": len(seeds),
                "median_final_mse": statistics.median(finals),
                "mean_final_mse": statistics.fmean(finals),
                "min_final_mse": min(finals), "max_final_mse": max(finals),
            })

    out = _out_dir(cfg)
    _write_snapshot(out, "sweep", {**cfg, "sweep_config": str(ns.sweep_config), **doc})
    with open(out / "sweep.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["beta", "optimizer", "n_seeds", "median_final_mse",
                         "mean_final_mse", "min_final_mse", "max_final_mse"])
        for r in rows:
            writer.writerow([repr(float(r["beta"])), r["optimizer"], r["n_seeds"],
                             *(repr(r[k]) for k in ("median_final_mse", "mean_final_mse",
                                                    "min_final_mse", "max_final_mse"))])
    for r in rows:
        print(f"beta={r['beta']} optimizer={r['optimizer']} "
              f"median_final_mse={r['median_final_mse']:.6e} (n={r['n_seeds']})")
    return EXIT_OK


# ---------------------------------------------------------------- parser

def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out-dir", default=None, help="directory for output artifacts")
    common.add_argument("--config", default=None, help="JSON config file with option defaults")
    seeded = argparse.ArgumentParser(add_help=False, parents=[common])
    seeded.add_argument("--seed", type=int, default=None, help="master random seed")

    parser = argparse.ArgumentParser(
        prog="qnpflow",
        description="Power-flow learning with a collision-model tanh activation.")
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", parents=[common], help="Newton-Raphson power flow")
    p.add_argument("network", help="network definition file")
    p.add_argument("--tol", type=float)
    p.add_argument("--max-iter", type=int)
    p.add_argument("--flat-start", action=argparse.BooleanOptionalAction, default=None)
    p.set_defaults(func=cmd_solve, parser=p)

    p = sub.add_parser("dataset", parents=[seeded], help="generate a training dataset")
    p.add_argument("network")
    p.add_argument("--n", type=int)
    p.add_argument("--range", dest="mult_range", type=float, nargs=2, metavar=("LO", "HI"))
    p.add_argument("--split", type=float)
    p.add_argument("--coupled", action=argparse.BooleanOptionalAction, default=None)
    p.add_argument("--perturb-all-loads", action=argparse.BooleanOptionalAction, default=None)
    p.add_argument("--prefix")
    p.set_defaults(func=cmd_dataset, parser=p)

    p = sub.add_parser("activation", help="collision-model transfer curves")
    asub = p.add_subparsers(dest="subcommand", required=True)

    q = asub.add_parser("simulate", parents=[seeded], help="simulate a transfer curve and fit it")
    q.add_argument("--spin", type=str)
    q.add_argument("--g", type=float)
    q.add_argument("--tau", type=float)
    q.add_argument("--gamma", type=float)
    q.add_argument("--points", type=int)
    q.add_argument("--collisions", type=int)
    q.add_argument("--mode", choices=[m.value for m in PropagatorMode])
    q.add_argument("--schedule", choices=["round-robin", "weighted-random"])
    q.set_defaults(func=cmd_activation_simulate, parser=q)

    q = asub.add_parser("fit", parents=[common], help="fit beta to an existing curve file")
    q.add_argument("curve", help="curve CSV with u and sigma_z columns")
    q.set_defaults(func=cmd_activation_fit, parser=q)

    p = sub.add_parser("train", parents=[seeded], help="train the feedforward network")
    p.add_argument("data", help="dataset prefix (expects <prefix>_train.csv and <prefix>_meta.json)")
    p.add_argument("--preset", choices=["table3", "table4"])
    p.add_argument("--beta", type=float)
    p.add_argument("--spin", type=str, help="look the beta up from the tabulated spin-to-steepness map")
    p.add_argument("--beta-from-fit", help="JSON fit record to read beta from")
    p.add_argument("--optimizer", choices=["sgd", "adam", "adamax", "nadam"])
    p.add_argument("--lr", dest="learning_rate", type=float)
    p.add_argument("--epochs", type=int)
    p.add_argument("--batch-size", type=int)
    p.add_argument("--hidden-layers", type=int)
    p.add_argument("--hidden-size", type=int)
    p.add_argument("--l1", type=float)
    p.add_argument("--l2", type=float)
    p.add_argument("--scale-inputs", choices=["minmax", "standard", "none"])
    p.add_argument("--scale-targets", choices=["minmax", "standard", "none"])
    p.add_argument("--output-beta", type=float, help="apply the activation on the output layer too")
    p.add_argument("--bias", action=argparse.BooleanOptionalAction, default=None)
    p.set_defaults(func=cmd_train, parser=p)

    p = sub.add_parser("evaluate", parents=[common], help="evaluate a saved model on a dataset split")
    p.add_argument("model", help="model file written by train")
    p.add_argument("data", help="dataset prefix")
    p.add_argument("--split", choices=["train", "test"])
    p.set_defaults(func=cmd_evaluate, parser=p)

    p = sub.add_parser("sweep", parents=[common], help="aggregate training runs over betas/optimizers/seeds")
    p.add_argument("sweep_config", help="JSON file listing the sweep axes")
    p.set_defaults(func=cmd_sweep, parser=p)

    return parser


_ERROR_CODES = [
    ((FileNotFoundError, IsADirectoryError, NotADirectoryError, PermissionError), EXIT_FILE),
    ((ParseError, ValidationError, DimensionMismatch, ShapeMismatch, VersionMismatch), EXIT_PARSE),
    ((NotConverged,), EXIT_NOT_CONVERGED),
    ((SingularJacobian,), EXIT_SINGULAR),
    ((TooFewConverged,), EXIT_TOO_FEW_CONVERGED),
    ((InvalidSpin, UnknownSpin, DegenerateCurve, NoCoupling, InvalidDensityMatrix,
      MapeUndefined), EXIT_DOMAIN),
    ((NonFinite,), EXIT_NONFINITE),
]


def main(argv: list[str] | None = None) -> int:
    ns = build_parser().parse_args(argv)
    try:
        return ns.func(ns)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:
        for classes, code in _ERROR_CODES:
            if isinstance(exc, classes):
                print(f"error: {exc}", file=sys.stderr)
                return code
        raise


if __name__ == "__main__":
    sys.exit(main())
