"""Load-perturbation dataset generation, deterministic splitting, scalers, and file I/O.

The dataset files hold unscaled values; `train` fits its scalers on the train
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

import numpy as np

from .errors import ParseError, ShapeMismatch, TooFewConverged, ValidationError, read_json_object
from .grid import NetworkModel
# `solve` is not called here; the benchmark's span table looks it up on this module.
from .powerflow import SolveOptions, initial_state, solve, solve_batch  # noqa: F401

CONVERGED_SHARE = 0.9
CONSTANT_EPS = 1e-12


@dataclass
class SampleRecord:
    """One perturbed load case: draw factors, solver inputs, solved targets."""

    sample_id: int
    scale_factors: np.ndarray
    inputs: np.ndarray
    targets: np.ndarray
    converged: bool


@dataclass
class DatasetMeta:
    seed: int
    n_requested: int
    n_converged: int
    mult_low: float
    mult_high: float
    coupled: bool
    perturb_all_loads: bool
    network_fingerprint: str
    mult_labels: list[str]
    input_labels: list[str]
    target_labels: list[str]
    split_ratio: float | None = None
    split_seed: int | None = None


def _labels(net: NetworkModel, coupled: bool,
            perturb_all_loads: bool) -> tuple[list[str], list[str], list[str]]:
    perturbed = range(net.n) if perturb_all_loads else net.pq_indices
    mults = []
    for i in perturbed:
        bus = net.buses[i].id
        if coupled:
            mults.append(f"mult_pq{bus}")
        else:
            mults.extend([f"mult_p{bus}", f"mult_q{bus}"])
    inputs = [f"p_load_{b.id}" for b in net.buses] + [f"q_load_{b.id}" for b in net.buses]
    inputs.append(f"v_slack_{net.buses[net.slack_index].id}")
    inputs.extend(f"v_pv_{net.buses[i].id}" for i in net.pv_indices)
    targets = [f"v_mag_{net.buses[i].id}" for i in net.pq_indices]
    targets.extend(f"delta_{net.buses[i].id}_deg" for i in net.non_slack_indices)
    return mults, inputs, targets


def generate(
    net: NetworkModel,
    n: int,
    mult_range: tuple[float, float] = (0.8, 1.2),
    seed: int = 0,
    *,
    coupled: bool = False,
    perturb_all_loads: bool = False,
) -> tuple[list[SampleRecord], DatasetMeta]:
    """Draw uniform load multipliers, solve every case, and record the map.

    By default each PQ bus gets its own P and Q multiplier; `coupled` draws
    one multiplier for both, and `perturb_all_loads` perturbs every bus.

    Each sample uses its own generator seeded by (seed, index), so sample i
    is identical no matter how many samples are requested. The cases differ
    only in their loads, so one solve_batch call solves them all, from a
    flat start with the default SolveOptions.
    Non-converged cases are kept with converged=False and NaN targets. Raises
    TooFewConverged when fewer than 90% of the cases solve.
    """
    low, high = float(mult_range[0]), float(mult_range[1])
    if not (0 < low <= high):
        raise ValidationError(f"multiplier range must satisfy 0 < low <= high, got {mult_range}")
    if n < 1:
        raise ValidationError(f"need at least one sample, got {n}")

    perturbed = np.arange(net.n) if perturb_all_loads else net.pq_indices
    mult_labels, input_labels, target_labels = _labels(net, coupled, perturb_all_loads)

    # One draw per perturbed bus when coupled, else a (P, Q) pair per bus.
    per_bus = 1 if coupled else 2
    factors = np.array([
        np.random.default_rng([seed, idx]).uniform(low, high, per_bus * len(perturbed))
        for idx in range(n)
    ])
    p_load = np.tile([b.p_load for b in net.buses], (n, 1))
    q_load = np.tile([b.q_load for b in net.buses], (n, 1))
    p_load[:, perturbed] *= factors[:, 0::per_bus]
    q_load[:, perturbed] *= factors[:, per_bus - 1::per_bus]

    fixed_v = [net.buses[i].v_mag for i in (net.slack_index, *net.pv_indices)]
    inputs = np.hstack([net.base.to_pu(p_load), net.base.to_pu(q_load), np.tile(fixed_v, (n, 1))])
    solver = SolveOptions()
    res = solve_batch(net, initial_state(net), *net.schedule(p_load, q_load),
                      solver.tol, solver.max_iter)
    targets = np.hstack([res.v_mag[:, net.pq_indices], res.delta[:, net.non_slack_indices]])
    targets[~res.converged] = np.nan
    samples = [
        SampleRecord(sample_id=idx, scale_factors=factors[idx], inputs=inputs[idx],
                     targets=targets[idx], converged=bool(res.converged[idx]))
        for idx in range(n)
    ]
    n_converged = int(res.converged.sum())

    if n_converged < CONVERGED_SHARE * n:
        raise TooFewConverged(
            f"only {n_converged}/{n} samples converged (need {CONVERGED_SHARE:.0%})"
        )
    meta = DatasetMeta(
        seed=seed,
        n_requested=n,
        n_converged=n_converged,
        mult_low=low,
        mult_high=high,
        coupled=coupled,
        perturb_all_loads=perturb_all_loads,
        network_fingerprint=net.fingerprint,
        mult_labels=mult_labels,
        input_labels=input_labels,
        target_labels=target_labels,
    )
    return samples, meta


def split(samples: list[SampleRecord], ratio: float, seed: int) -> tuple[list[SampleRecord], list[SampleRecord]]:
    """Shuffle deterministically and cut at floor(n * ratio)."""
    if not 0 < ratio < 1:
        raise ValidationError(f"split ratio must lie in (0, 1), got {ratio}")
    perm = np.random.default_rng(seed).permutation(len(samples))
    cut = int(math.floor(len(samples) * ratio))
    train = [samples[i] for i in perm[:cut]]
    test = [samples[i] for i in perm[cut:]]
    return train, test


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
        except (KeyError, TypeError, ValueError) as exc:
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


def _arrays(samples: list[SampleRecord]) -> tuple[np.ndarray, np.ndarray]:
    return (
        np.array([s.inputs for s in samples]),
        np.array([s.targets for s in samples]),
    )


def _is_angle(label: str) -> bool:
    return label.startswith("delta_") and label.endswith("_deg")


def write_dataset_csv(samples: list[SampleRecord], meta: DatasetMeta, path: str | Path) -> None:
    """One row per sample; angle targets converted to degrees per the labels."""
    header = ["sample_id", *meta.mult_labels, *meta.input_labels, *meta.target_labels, "converged"]
    angle = np.array([_is_angle(lab) for lab in meta.target_labels], dtype=bool)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for s in samples:
            targets = np.where(angle, np.degrees(s.targets), s.targets)
            values = np.concatenate([s.scale_factors, s.inputs, targets]).tolist()
            writer.writerow([s.sample_id, *map(repr, values), int(s.converged)])


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
    for key in ("mult_labels", "input_labels", "target_labels"):
        labels = getattr(meta, key)
        if not (isinstance(labels, list) and all(isinstance(lab, str) for lab in labels)):
            raise ParseError(f"{path}: {key!r} must be a list of strings")
    return meta


def read_dataset_csv(path: str | Path, meta: DatasetMeta) -> list[SampleRecord]:
    """Inverse of write_dataset_csv; angle columns come back as radians. Every
    cell must be finite, except the targets of a row with `converged` 0."""
    expected = ["sample_id", *meta.mult_labels, *meta.input_labels, *meta.target_labels, "converged"]
    samples = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != expected:
            raise ParseError(f"{path}: header {header} does not match dataset metadata")
        n_m, n_i, n_t = len(meta.mult_labels), len(meta.input_labels), len(meta.target_labels)
        try:
            for row in reader:
                if len(row) != len(expected):
                    raise ParseError(f"{path}: row with {len(row)} fields, expected {len(expected)}")
                vals = [float(v) for v in row[1: 1 + n_m + n_i + n_t]]
                converged = bool(int(row[-1]))
                if not all(map(math.isfinite, vals if converged else vals[:n_m + n_i])):
                    raise ParseError(f"{path}: line {reader.line_num}: non-finite number")
                targets = np.array([
                    math.radians(v) if _is_angle(lab) else v
                    for lab, v in zip(meta.target_labels, vals[n_m + n_i:])
                ])
                samples.append(SampleRecord(
                    sample_id=int(row[0]),
                    scale_factors=np.array(vals[:n_m]),
                    inputs=np.array(vals[n_m: n_m + n_i]),
                    targets=targets,
                    converged=converged,
                ))
        except ValueError as exc:
            raise ParseError(f"{path}: line {reader.line_num}: {exc}") from None
    return samples
