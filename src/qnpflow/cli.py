"""Command-line entry point: solve, dataset, activation, train, evaluate, sweep.

Every artifact-producing run writes a resolved-config snapshot next to its
outputs so a rerun with the same flags reproduces the same bytes (no
timestamps in any artifact).  Each error class in errors.py carries its
exit code; the README lists them.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import statistics
import sys
from dataclasses import replace
from operator import itemgetter
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from . import __version__
from .activation import BETA_HI, BETA_LO, ActivationCurve, beta_table, fit_beta, spin_beta
from .dataset import (
    Scaler,
    fit_scaler,
    generate,
    parse_rows,
    read_csv,
    read_dataset_csv,
    read_meta_json,
    split,
    write_csv,
    write_dataset_csv,
    write_meta_json,
)
from .errors import NonFinite, ParseError, QnpflowError, ShapeMismatch, ValidationError, read_json_object
from .grid import load_network
from .neuralnet import (
    OPTIMIZER_NAMES,
    PRESETS,
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

class UsageError(Exception):
    pass


def _parse_spin(value: str | float) -> float:
    """A spin from --spin's text, such as "3/2", or from a config's number."""
    if not isinstance(value, str):
        return float(value)
    try:
        if "/" in value:
            num, den = value.split("/", 1)
            return float(num) / float(den)
        return float(value)
    except (ValueError, ZeroDivisionError):
        raise UsageError(f"spin must be a number such as 1.5 or a fraction such as 3/2, "
                         f"got {value!r}") from None


def _is(value, kind: type) -> bool:
    """isinstance for JSON values: a bool is no number, and an int is also a
    float if a float holds it."""
    if isinstance(value, bool):
        return kind is bool
    if kind is float and isinstance(value, int):
        return abs(value) <= sys.float_info.max
    return isinstance(value, kind)


class Option(NamedTuple):
    """One option of a subcommand, declared once: the parser builds its flag
    from it, `_resolve` takes its builtin default, and `_fits` checks a
    --config value against it."""
    dest: str
    default: object = None
    type: type = str  # bool gives a --name/--no-name pair
    flag: str | None = None  # "--" + dest with dashes unless given
    nargs: int | None = None
    choices: tuple[str, ...] | None = None
    metavar: tuple[str, ...] | None = None
    help: str | None = None


def _fits(opt: Option, value) -> bool:
    """Whether a config-file value is one the option's flag could have given."""
    if opt.nargs is not None:
        return (isinstance(value, list) and len(value) == opt.nargs
                and all(_is(v, opt.type) for v in value))
    if opt.dest == "spin":  # a number, or text that _parse_spin reads, such as "3/2"
        if not _is(value, str):
            return _is(value, float)
        try:
            _parse_spin(value)
        except UsageError:
            return False
        return True
    return _is(value, opt.type) and (opt.choices is None or value in opt.choices)


def _resolve(options: tuple[Option, ...], flags: dict, config: dict, source) -> dict:
    """Flag value if given, else config-file value, else builtin default.

    A config-file key must name one of `options`, and its value must be one
    the option's flag could have given, or null where the default is None;
    otherwise ParseError names the key and the file `source`. A float option's
    integer becomes the float that its flag would give."""
    unknown = sorted(config.keys() - {opt.dest for opt in options})
    if unknown:
        raise ParseError(f"{source}: no option named {', '.join(map(repr, unknown))}")
    out = {}
    for opt in options:
        if flags.get(opt.dest) is not None:
            out[opt.dest] = flags[opt.dest]
        elif opt.dest in config:
            value = config[opt.dest]
            if not (value is None and opt.default is None) and not _fits(opt, value):
                raise ParseError(f"{source}: {value!r} is not a valid value for {opt.dest!r}")
            if opt.type is float and value is not None:
                value = [float(v) for v in value] if opt.nargs else float(value)
            out[opt.dest] = value
        else:
            out[opt.dest] = opt.default
    return out


def _out_dir(cfg: dict) -> Path:
    out = Path(cfg.get("out_dir") or ".")
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_snapshot(out: Path, command: str, cfg: dict) -> None:
    doc = {"command": command, **cfg}
    (out / f"{command}_config.json").write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")


# ---------------------------------------------------------------- solve

def cmd_solve(ns: argparse.Namespace, cfg: dict) -> int:
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
    # the bus records again, as text: str of a float is its repr
    write_csv(out / "solution.csv", [",".join(rows[0]), *(",".join(map(str, r.values())) for r in rows)])

    print(f"converged in {sol.iterations} iterations, "
          f"final mismatch {sol.mismatch_history[-1]:.3e}")
    print(f"{'bus':>3} {'kind':>5} {'v_mag_pu':>10} {'delta_deg':>10} "
          f"{'p_inj_mw':>10} {'q_inj_mvar':>11}")
    for r in rows:
        print(f"{r['bus_id']:>3} {r['kind']:>5} {r['v_mag_pu']:>10.6f} "
              f"{r['delta_deg']:>10.4f} {r['p_inj_mw']:>10.3f} {r['q_inj_mvar']:>11.3f}")
    return 0


# ---------------------------------------------------------------- dataset

def cmd_dataset(ns: argparse.Namespace, cfg: dict) -> int:
    net = load_network(ns.network)
    lo, hi = cfg["mult_range"]
    samples, meta = generate(net, cfg["n"], mult_range=(lo, hi), seed=cfg["seed"],
                             coupled=cfg["coupled"], perturb_all_loads=cfg["perturb_all_loads"])

    train_s, test_s = split(samples[samples.converged], cfg["split"], cfg["seed"])
    meta = replace(meta, split_ratio=cfg["split"], split_seed=cfg["seed"])

    out = _out_dir(cfg)
    _write_snapshot(out, "dataset", {**cfg, "network": str(ns.network)})
    prefix = cfg["prefix"]
    write_dataset_csv(train_s, meta, out / f"{prefix}_train.csv")
    write_dataset_csv(test_s, meta, out / f"{prefix}_test.csv")
    write_meta_json(meta, out / f"{prefix}_meta.json")
    print(f"{meta.n_converged}/{meta.n_requested} converged, "
          f"{len(train_s)} train / {len(test_s)} test rows -> {out / prefix}_*.csv")
    return 0


# ---------------------------------------------------------------- activation

def _read_curve_csv(path: str | Path) -> ActivationCurve:
    header, rows = read_csv(path)
    column = {name: i for i, name in enumerate(header or ())}  # a repeated name: its last column
    if not {"u", "sigma_z"} <= column.keys():
        raise ParseError(f"{path}: expected columns u and sigma_z")
    rows = [(line, row) for line, row in rows if row]  # blank lines are skipped
    if not rows:
        raise ParseError(f"{path}: no data rows")
    for line, row in rows:
        if len(row) <= max(column["u"], column["sigma_z"]):
            raise ParseError(f"{path}: line {line}: u and sigma_z must be numbers")
    u, y = parse_rows(path, rows, itemgetter(column["u"], column["sigma_z"]), float).T
    try:
        return ActivationCurve(inputs=u, outputs=y, provenance={"source": Path(path).name})
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


def _note_beta_bound(fit) -> None:
    """Say on stderr when the fitted beta sits on a bound of its search range."""
    if fit.beta in (BETA_LO, BETA_HI):
        print(f"note: fitted beta is pinned at the bound {fit.beta:g}; the least-squares "
              f"minimum lies outside [{BETA_LO:g}, {BETA_HI:g}]", file=sys.stderr)


def cmd_activation_simulate(ns: argparse.Namespace, cfg: dict) -> int:
    # a float either way, so `--spin 1` and a config's "spin": 1 name the same artifacts
    cfg["spin"] = _parse_spin(cfg["spin"])
    params = CollisionParams(
        tau=cfg["tau"],
        n_collisions=cfg["collisions"],
        gamma=cfg["gamma"],
        propagator_mode=cfg["mode"],
    )
    curve = transfer_curve(cfg["spin"], params, n_points=cfg["points"], g=cfg["g"],
                           seed=cfg["seed"])
    fit = fit_beta(curve)

    out = _out_dir(cfg)
    _write_snapshot(out, "activation_simulate", cfg)
    tag = f"spin{cfg['spin']}"
    write_csv(out / f"curve_{tag}.csv", ["u,sigma_z,collisions_used,converged", *(
        f"{u!r},{y!r},{n:d},{c:d}" for u, y, n, c in zip(
            curve.inputs.tolist(), curve.outputs.tolist(), curve.collisions_used.tolist(),
            curve.converged.tolist()))])
    doc = {**_fit_doc(fit, curve), "table_beta": beta_table().get(cfg["spin"])}
    (out / f"fit_{tag}.json").write_text(json.dumps(doc, indent=1) + "\n")
    print(f"spin={cfg['spin']} fitted beta={fit.beta:.6f} rss={fit.rss:.3e} "
          f"-> {out / f'curve_{tag}.csv'}")
    _note_beta_bound(fit)
    capped = int(np.count_nonzero(~curve.converged))
    if capped:
        print(f"note: {capped} of {curve.n_points} curve points did not settle within the "
              f"{params.n_collisions}-collision cap; sigma_z is exact, only collisions_used "
              f"is capped", file=sys.stderr)
    return 0


def cmd_activation_fit(ns: argparse.Namespace, cfg: dict) -> int:
    curve = _read_curve_csv(ns.curve)
    fit = fit_beta(curve)
    out = _out_dir(cfg)
    _write_snapshot(out, "activation_fit", {**cfg, "curve": str(ns.curve)})
    (out / "fit.json").write_text(json.dumps(_fit_doc(fit, curve), indent=1) + "\n")
    print(f"fitted beta={fit.beta:.6f} rss={fit.rss:.3e} over {fit.n_points} points")
    _note_beta_bound(fit)
    return 0


# ---------------------------------------------------------------- train

def _resolve_beta(cfg: dict) -> float:
    given = [k for k in ("beta", "spin", "beta_from_fit") if cfg[k] is not None]
    if len(given) > 1:
        raise UsageError(f"give at most one of --beta / --spin / --beta-from-fit, got {given}")
    if cfg["spin"] is not None:
        # a float either way, so `--spin 1` and a config's "spin": 1 write the same snapshot
        cfg["spin"] = _parse_spin(cfg["spin"])
        return spin_beta(cfg["spin"])
    if cfg["beta_from_fit"] is not None:
        beta = read_json_object(cfg["beta_from_fit"]).get("beta")
        if not (_is(beta, float) and math.isfinite(beta) and beta > 0):
            raise ParseError(f"{cfg['beta_from_fit']}: beta must be a finite positive number, "
                             f"got {beta!r}")
        return float(beta)
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
    samples = read_dataset_csv(path, meta)
    samples = samples[samples.converged]
    if not len(samples):
        raise ValidationError(f"{path}: no converged rows")
    return samples.inputs, samples.targets


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


def cmd_train(ns: argparse.Namespace, cfg: dict) -> int:
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
    return 0


# ---------------------------------------------------------------- evaluate

def cmd_evaluate(ns: argparse.Namespace, cfg: dict) -> int:
    params, scalers = load_model(ns.model)
    x, y = _load_split(ns.data, cfg["split"])
    try:
        fs, ts = (Scaler.from_dict((scalers or {}).get(side)) for side in ("inputs", "targets"))
        x, y = _scaled(x, fs), _scaled(y, ts)
    except (ParseError, ShapeMismatch) as exc:
        raise type(exc)(f"{ns.model}: {exc}") from None
    report = evaluate(params, x, y, invert_targets=ts.invert if ts else None)
    if not np.isfinite([report.mse, *report.mape]).all():  # JSON holds no Infinity or NaN
        raise NonFinite(f"{ns.model}: evaluation error is not finite: mse={report.mse}, "
                        f"largest mape={report.mape.max()}%")
    out = _out_dir(cfg)
    _write_snapshot(out, "evaluate", {**cfg, "model": str(ns.model), "data": str(ns.data)})
    (out / "eval_report.json").write_text(json.dumps({
        "split": cfg["split"],
        "mse": report.mse,
        "mape_per_output": report.mape.tolist(),
    }, indent=1) + "\n")
    print(f"split={cfg['split']} mse={report.mse:.6e} "
          "mape=" + "/".join(f"{v:.3f}%" for v in report.mape))
    return 0


# ---------------------------------------------------------------- sweep

def cmd_sweep(ns: argparse.Namespace, cfg: dict) -> int:
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

    # The sweep file's other keys are train options and pass the checks of `train --config`.
    train_keys = {k: v for k, v in doc.items() if k not in ("data", "betas", "optimizers", "seeds")}
    base = _resolve(COMMANDS["train"].options, {}, train_keys, ns.sweep_config)
    if betas is None:
        betas = [_resolve_beta(base)]
    if optimizers is None:
        optimizers = [_resolve_hyper({**base, "seed": 0}).optimizer]

    data, _, _ = _train_set(doc["data"], base["scale_inputs"], base["scale_targets"],
                            with_test=False)

    def settings(beta, opt, seed):
        hyper = _resolve_hyper({**base, "optimizer": opt, "seed": seed})
        return build_topology(data.x_train.shape[1], data.y_train.shape[1], hyper, beta,
                              base["output_beta"], base["bias"]), hyper

    # Every run's settings are built, and so checked, before the first one trains.
    grid = [(beta, opt, [settings(beta, opt, seed) for seed in seeds])
            for beta in betas for opt in optimizers]
    # (beta, optimizer, final train MSE of each seed) per grid point
    rows = [(beta, opt, [train(data, topology, hyper)[1].final_train_mse for topology, hyper in runs])
            for beta, opt, runs in grid]

    out = _out_dir(cfg)
    _write_snapshot(out, "sweep", {**doc, **cfg, "sweep_config": str(ns.sweep_config)})
    write_csv(out / "sweep.csv", [
        "beta,optimizer,n_seeds,median_final_mse,mean_final_mse,min_final_mse,max_final_mse", *(
            f"{float(beta)!r},{opt},{len(finals)},{statistics.median(finals)!r},"
            f"{statistics.fmean(finals)!r},{min(finals)!r},{max(finals)!r}"
            for beta, opt, finals in rows)])
    for beta, opt, finals in rows:
        print(f"beta={beta} optimizer={opt} median_final_mse={statistics.median(finals):.6e} "
              f"(n={len(finals)})")
    return 0


# ---------------------------------------------------------------- parser

class Command(NamedTuple):
    """A leaf subcommand: what runs it, its help line, its positional
    arguments as (name, help) pairs, and its options besides --out-dir and
    --config, which every command takes."""
    run: Callable[[argparse.Namespace, dict], int]
    help: str
    args: tuple[tuple[str, str | None], ...]
    own: tuple[Option, ...] = ()

    @property
    def options(self) -> tuple[Option, ...]:
        return (OUT_DIR, *self.own)


OUT_DIR = Option("out_dir", help="directory for output artifacts")
SEED = Option("seed", 0, int, help="master random seed")
SCALERS = ("minmax", "standard", "none")

COMMANDS = {
    "solve": Command(cmd_solve, "Newton-Raphson power flow", (("network", "network definition file"),), (
        Option("tol", 1e-8, float),
        Option("max_iter", 20, int),
        Option("flat_start", True, bool),
    )),
    "dataset": Command(cmd_dataset, "generate a training dataset", (("network", None),), (
        SEED,
        Option("n", 500, int),
        Option("mult_range", (0.8, 1.2), float, flag="--range", nargs=2, metavar=("LO", "HI")),
        Option("split", 0.8, float),
        Option("coupled", False, bool),
        Option("perturb_all_loads", False, bool),
        Option("prefix", "dataset"),
    )),
    "activation simulate": Command(cmd_activation_simulate, "simulate a transfer curve and fit it", (), (
        SEED._replace(default=None),
        Option("spin", 0.5),
        Option("g", 0.01, float),
        Option("tau", 3.0, float),
        Option("gamma", 0.0, float),
        Option("points", 41, int),
        Option("collisions", 20000, int),
        Option("mode", "exact", choices=tuple(m.value for m in PropagatorMode)),
    )),
    "activation fit": Command(cmd_activation_fit, "fit beta to an existing curve file",
                              (("curve", "curve CSV with u and sigma_z columns"),)),
    "train": Command(cmd_train, "train the feedforward network", (
        ("data", "dataset prefix (expects <prefix>_train.csv and <prefix>_meta.json)"),), (
        SEED,
        Option("preset", choices=tuple(PRESETS)),
        Option("beta", type=float),
        Option("spin", help="look the beta up from the tabulated spin-to-steepness map"),
        Option("beta_from_fit", help="JSON fit record to read beta from"),
        Option("optimizer", choices=OPTIMIZER_NAMES),
        Option("learning_rate", type=float, flag="--lr"),
        Option("epochs", type=int),
        Option("batch_size", type=int),
        Option("hidden_layers", type=int),
        Option("hidden_size", type=int),
        Option("l1", type=float),
        Option("l2", type=float),
        Option("scale_inputs", "minmax", choices=SCALERS),
        Option("scale_targets", "none", choices=SCALERS),
        Option("output_beta", type=float, help="apply the activation on the output layer too"),
        Option("bias", True, bool),
    )),
    "evaluate": Command(cmd_evaluate, "evaluate a saved model on a dataset split", (
        ("model", "model file written by train"), ("data", "dataset prefix")), (
        Option("split", "test", choices=("train", "test")),
    )),
    "sweep": Command(cmd_sweep, "aggregate training runs over betas/optimizers/seeds",
                     (("sweep_config", "JSON file listing the sweep axes"),)),
}

# The benchmark reads the default coupling g from here.
SIMULATE_DEFAULTS = {opt.dest: opt.default for opt in COMMANDS["activation simulate"].options}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qnpflow",
        description="Power-flow learning with a collision-model tanh activation.")
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    groups = {"": parser.add_subparsers(dest="command", required=True)}
    for name, command in COMMANDS.items():
        group, _, leaf = name.rpartition(" ")
        if group not in groups:  # the one group, activation
            groups[group] = groups[""].add_parser(group, help="collision-model transfer curves") \
                .add_subparsers(dest="subcommand", required=True)
        p = groups[group].add_parser(leaf, help=command.help)
        for arg, text in command.args:
            p.add_argument(arg, help=text)
        for opt in command.options:  # with default None: None means "not given"
            kind = ({"action": argparse.BooleanOptionalAction} if opt.type is bool else
                    {"type": opt.type, "nargs": opt.nargs, "choices": opt.choices,
                     "metavar": opt.metavar})
            p.add_argument(opt.flag or "--" + opt.dest.replace("_", "-"), dest=opt.dest,
                           help=opt.help, **kind)
            if opt is OUT_DIR:
                p.add_argument("--config", help="JSON config file with option defaults")
        p.set_defaults(cmd=command)
    return parser


def main(argv: list[str] | None = None) -> int:
    ns = build_parser().parse_args(argv)
    try:
        config = {} if ns.config is None else read_json_object(ns.config)
        return ns.cmd.run(ns, _resolve(ns.cmd.options, vars(ns), config, ns.config))
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except QnpflowError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except OSError as exc:  # any input or output path
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
