"""Load-perturbation dataset generation, deterministic splitting, scalers, and file I/O.

A dataset is one `Samples` of column arrays from generation to training. The
dataset files hold unscaled values; `train` fits its scalers on the train
split and stores them in the model file.

Angle convention: targets are radians in memory and degrees in CSV exports
(columns named delta_*_deg). The CSV reader converts back to radians.
"""
from __future__ import annotations

import csv
import json
import math
from dataclasses import asdict, dataclass, fields
from pathlib import Path
from typing import Callable, Iterable

import numpy as np

from .errors import ParseError, ShapeMismatch, TooFewConverged, ValidationError, read_json_object
from .grid import NetworkModel
# `solve` is not called here; the benchmark's span table looks it up on this module.
from .powerflow import SolveOptions, initial_state, solve, solve_batch  # noqa: F401

CONVERGED_SHARE = 0.9
CONSTANT_EPS = 1e-12


@dataclass
class Samples:
    """Perturbed load cases as columns: row i of each array is one case.
    Targets are radians, NaN unless the case converged."""

    sample_id: np.ndarray
    inputs: np.ndarray
    targets: np.ndarray
    converged: np.ndarray

    def __len__(self) -> int:
        return len(self.sample_id)

    def __getitem__(self, rows) -> "Samples":
        return Samples(*(getattr(self, f.name)[rows] for f in fields(self)))


@dataclass
class DatasetMeta:
    """What the splits hold; the recipe that drew them is in dataset_config.json."""

    n_requested: int
    n_converged: int
    network_fingerprint: str
    input_labels: list[str]
    target_labels: list[str]


def generate(
    net: NetworkModel,
    n: int,
    mult_range: tuple[float, float] = (0.8, 1.2),
    seed: int = 0,
    *,
    coupled: bool = False,
    perturb_all_loads: bool = False,
) -> tuple[Samples, DatasetMeta]:
    """Draw uniform load multipliers, solve every case, and record the map.

    By default each PQ bus gets its own P and Q multiplier; `coupled` draws
    one multiplier for both, and `perturb_all_loads` perturbs every bus.

    One `np.random.default_rng(seed)` draws every multiplier, row by row, so
    the first m samples are the same for any n >= m. The cases differ only
    in their loads, so one solve_batch call solves them all, from a flat
    start with the default SolveOptions.
    Non-converged cases are kept with converged=False and NaN targets. Raises
    TooFewConverged when fewer than 90% of the cases solve.
    """
    low, high = float(mult_range[0]), float(mult_range[1])
    if not 0 < low <= high < math.inf:
        raise ValidationError(f"multiplier range must satisfy 0 < low <= high < inf, "
                              f"got {mult_range}")
    if n < 1:
        raise ValidationError(f"need at least one sample, got {n}")
    solver = SolveOptions()
    # the widest arrays per sample: the Jacobian's two stacked complex n x n
    # derivatives, and the norm of each Newton step
    most = np.iinfo(np.intp).max // (8 * max(4 * net.n**2, solver.max_iter + 1))
    if n > most:
        raise ValidationError(f"n must be at most {most}, as numpy cannot index the arrays "
                              f"of more samples, got {n}")
    if seed < 0:
        raise ValidationError(f"seed must be non-negative, got {seed}")

    perturbed = np.arange(net.n) if perturb_all_loads else net.pq_indices

    # One draw per perturbed bus when coupled, else a (P, Q) pair per bus.
    per_bus = 1 if coupled else 2
    factors = np.random.default_rng(seed).uniform(low, high, (n, per_bus * len(perturbed)))
    p_load = np.tile([b.p_load for b in net.buses], (n, 1))
    q_load = np.tile([b.q_load for b in net.buses], (n, 1))
    with np.errstate(over="ignore"):  # an infinite load leaves its case unconverged
        p_load[:, perturbed] *= factors[:, 0::per_bus]
        q_load[:, perturbed] *= factors[:, per_bus - 1::per_bus]

    fixed_v = [net.buses[i].v_mag for i in (net.slack_index, *net.pv_indices)]
    inputs = np.hstack([net.base.to_pu(p_load), net.base.to_pu(q_load), np.tile(fixed_v, (n, 1))])
    res = solve_batch(net, initial_state(net), *net.schedule(p_load, q_load),
                      solver.tol, solver.max_iter)
    targets = np.hstack([res.v_mag[:, net.pq_indices], res.delta[:, net.non_slack_indices]])
    targets[~res.converged] = np.nan
    n_converged = int(res.converged.sum())

    if n_converged < CONVERGED_SHARE * n:
        raise TooFewConverged(
            f"only {n_converged}/{n} samples converged (need {CONVERGED_SHARE:.0%})"
        )
    ids = [b.id for b in net.buses]
    meta = DatasetMeta(
        n_requested=n,
        n_converged=n_converged,
        network_fingerprint=net.fingerprint,
        input_labels=[*(f"p_load_{b}" for b in ids), *(f"q_load_{b}" for b in ids),
                      f"v_slack_{ids[net.slack_index]}", *(f"v_pv_{ids[i]}" for i in net.pv_indices)],
        target_labels=[*(f"v_mag_{ids[i]}" for i in net.pq_indices),
                       *(f"delta_{ids[i]}_deg" for i in net.non_slack_indices)],
    )
    return Samples(np.arange(n), inputs, targets, res.converged), meta


def split(samples: Samples, ratio: float, seed: int) -> tuple[Samples, Samples]:
    """Shuffle deterministically and cut at floor(n * ratio)."""
    if not 0 < ratio < 1:
        raise ValidationError(f"split ratio must lie in (0, 1), got {ratio}")
    perm = np.random.default_rng(seed).permutation(len(samples))
    cut = int(math.floor(len(samples) * ratio))
    return samples[perm[:cut]], samples[perm[cut:]]


@dataclass
class Scaler:
    """Per-column affine scaler; constant columns pass through unchanged."""

    kind: str
    center: np.ndarray
    scale: np.ndarray
    passthrough: np.ndarray

    def _columns(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """`x` as a 2-D float batch and the divisor per column; ShapeMismatch on a width mismatch."""
        x = np.atleast_2d(np.asarray(x, dtype=float))
        if x.shape[-1] != self.center.size:
            raise ShapeMismatch(f"{self.kind} scaler has {self.center.size} columns, "
                                f"data has {x.shape[-1]}")
        return x, np.where(self.passthrough, 1.0, self.scale)

    def transform(self, x: np.ndarray) -> np.ndarray:
        x, safe = self._columns(x)
        return np.where(self.passthrough, x, (x - self.center) / safe)

    def invert(self, x: np.ndarray) -> np.ndarray:
        x, safe = self._columns(x)
        return np.where(self.passthrough, x, x * safe + self.center)

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "center": self.center.tolist(),
            "scale": self.scale.tolist(),
            "passthrough": self.passthrough.tolist(),
        }

    @classmethod
    def from_dict(cls, doc: dict | None) -> "Scaler | None":
        """Inverse of to_dict, None for null; ParseError for a malformed blob."""
        if doc is None:
            return None
        try:
            scaler = cls(
                kind=doc["kind"],
                center=np.array(doc["center"], dtype=float),
                scale=np.array(doc["scale"], dtype=float),
                passthrough=np.array(doc["passthrough"], dtype=bool),
            )
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise ParseError(f"malformed scaler ({exc!r})") from None
        shapes = {scaler.center.shape, scaler.scale.shape, scaler.passthrough.shape}
        if len(shapes) != 1 or scaler.center.ndim != 1:
            raise ParseError("malformed scaler: center, scale and passthrough must be "
                             "lists of one common length")
        if not (np.isfinite(scaler.center).all() and np.isfinite(scaler.scale).all()):
            raise ParseError("malformed scaler: center and scale must be finite numbers")
        return scaler


def fit_scaler(x: np.ndarray, kind: str = "minmax") -> Scaler:
    x = np.atleast_2d(np.asarray(x, dtype=float))
    if kind == "minmax":
        center = x.min(axis=0)
        scale = x.max(axis=0) - center
    elif kind == "standard":
        center = x.mean(axis=0)
        scale = x.std(axis=0)
    else:
        raise ValidationError(f"unknown scaler kind {kind!r}")
    return Scaler(kind=kind, center=center, scale=scale, passthrough=scale < CONSTANT_EPS)


def _layout(meta: DatasetMeta) -> tuple[list[str], np.ndarray]:
    """The CSV header, and the angle targets' columns among a row's float
    cells (inputs, targets)."""
    header = ["sample_id", *meta.input_labels, *meta.target_labels, "converged"]
    angle = [lab.startswith("delta_") and lab.endswith("_deg") for lab in meta.target_labels]
    return header, len(meta.input_labels) + np.flatnonzero(angle)


def write_csv(path: str | Path, lines: Iterable[str]) -> None:
    """Write `lines` as a CSV file, as every CSV artifact but epochs.csv is: in
    the csv module's default dialect, with `\\r\\n` line ends, one `repr` per
    float, and no cell ever quoted (no label, name, integer or float repr holds
    a comma, quote or line break). epochs.csv ends its lines in `\\n`."""
    with open(path, "w", newline="") as fh:
        fh.write("\r\n".join([*lines, ""]))


def read_csv(path: str | Path) -> tuple[list[str] | None, list[tuple[int, list[str]]]]:
    """The header row (None in an empty file) and each further row with the line
    it ends on, as csv.reader tokenises them (a blank line is an empty row).
    ParseError when csv rejects a line (such as a cell over its field limit),
    naming the line, or when the text does not decode, naming only the file:
    the decoder reads ahead of csv.reader, whose line count then misses the
    bad byte."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, None)
            return header, [(reader.line_num, row) for row in reader]
        except csv.Error as exc:
            raise ParseError(f"{path}: line {reader.line_num}: {exc}") from None
        except UnicodeDecodeError as exc:
            raise ParseError(f"{path}: {exc}") from None


def parse_rows(path: str | Path, rows: list[tuple[int, list[str]]],
               cells: Callable[[list[str]], object], dtype: type) -> np.ndarray:
    """`cells(row)` of every row, converted to `dtype` by one np.array call.
    Only when that fails are the rows converted one at a time, so that
    ParseError names the line of the first bad one."""
    try:
        return np.array([cells(row) for _, row in rows], dtype=dtype)
    except (ValueError, OverflowError):
        for line, row in rows:
            try:
                np.array(cells(row), dtype=dtype)
            except (ValueError, OverflowError) as exc:
                raise ParseError(f"{path}: line {line}: {exc}") from None
        raise


def write_dataset_csv(samples: Samples, meta: DatasetMeta, path: str | Path) -> None:
    """One row per sample: sample_id, the inputs, the targets (angles in
    degrees) and converged, in the order of the meta's labels. The load
    multipliers are not written: each load is its multiplier times the base
    load. Each row follows one `%` template that holds as text every column
    with one bit pattern in all rows (such as the fixed voltages), so only the
    other cells are formatted; the body is one `%` of that template, repeated
    per row, over every row's cells. An empty split writes only the header
    line."""
    header, angle = _layout(meta)
    values = np.hstack([samples.inputs, samples.targets])
    values[:, angle] = np.degrees(values[:, angle])
    lines = [",".join(header)]
    if len(values):
        bits = values.view(np.int64)
        same = (bits == bits[0]).all(axis=0)
        template = ",".join(["%d", *(repr(v) if c else "%r" for v, c
                                     in zip(values[0].tolist(), same.tolist())), "%d"])
        cells = np.empty((len(values), 2 + np.count_nonzero(~same)), dtype=object)
        cells[:, 0], cells[:, 1:-1], cells[:, -1] = samples.sample_id, values[:, ~same], samples.converged
        lines.append("\r\n".join([template] * len(values)) % tuple(cells.ravel().tolist()))
    write_csv(path, lines)


def write_meta_json(meta: DatasetMeta, path: str | Path) -> None:
    Path(path).write_text(json.dumps(asdict(meta), indent=1) + "\n")


def read_meta_json(path: str | Path) -> DatasetMeta:
    """Keys other than the DatasetMeta fields are ignored, such as the scaler
    keys that older meta files carry."""
    doc = read_json_object(path)
    try:
        meta = DatasetMeta(**{f.name: doc[f.name] for f in fields(DatasetMeta)})
    except KeyError as exc:
        raise ParseError(f"{path}: missing key {exc}") from None
    for key in ("input_labels", "target_labels"):
        labels = getattr(meta, key)
        if not (isinstance(labels, list) and all(isinstance(lab, str) for lab in labels)):
            raise ParseError(f"{path}: {key!r} must be a list of strings")
    return meta


def read_dataset_csv(path: str | Path, meta: DatasetMeta) -> Samples:
    """Inverse of write_dataset_csv; angle columns come back as radians. Every
    cell must be finite, except the targets of a row with `converged` 0, and
    `converged` must be 0 or 1. ParseError names the line of a bad row."""
    expected, angle = _layout(meta)
    header, rows = read_csv(path)
    if header != expected:
        raise ParseError(f"{path}: header {header} does not match dataset metadata")
    for line, row in rows:
        if len(row) != len(expected):
            raise ParseError(f"{path}: line {line}: row with {len(row)} fields, expected {len(expected)}")
        if row[-1] not in ("0", "1"):
            raise ParseError(f"{path}: line {line}: converged must be 0 or 1, got {row[-1]!r}")
    sample_id = parse_rows(path, rows, lambda row: row[0], int)
    table = parse_rows(path, rows, lambda row: row[1:-1], float).reshape(-1, len(expected) - 2)
    converged = np.array([row[-1] == "1" for _, row in rows], dtype=bool)
    n_i = len(meta.input_labels)
    finite = np.isfinite(table)
    finite[~converged, n_i:] = True  # the targets of a failed case are NaN
    bad = np.flatnonzero(~finite.all(axis=1))
    if bad.size:
        raise ParseError(f"{path}: line {rows[bad[0]][0]}: non-finite number")
    table[:, angle] = np.radians(table[:, angle])
    return Samples(sample_id, table[:, :n_i], table[:, n_i:], converged)
