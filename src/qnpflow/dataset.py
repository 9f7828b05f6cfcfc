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
    scale_factors: np.ndarray
    inputs: np.ndarray
    targets: np.ndarray
    converged: np.ndarray

    def __len__(self) -> int:
        return len(self.sample_id)

    def __getitem__(self, rows) -> "Samples":
        return Samples(*(getattr(self, f.name)[rows] for f in fields(self)))


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


# numpy's SeedSequence (hash and mix constants, 4-word pool) and PCG64
# (128-bit LCG multiplier) constants, for the batched draws below.
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = np.uint64(0xCA01F9DD), np.uint64(0x4973F715)
_PCG_MULT_HI, _PCG_MULT_LO = 0x2360ED051FC65DA4, 0x4385DF649FCCF645
_U32, _X16, _U = np.uint64(_MASK32), np.uint64(16), np.uint64


def _hasher(const: int, mult: int):
    """SeedSequence's hashmix: the multiplier advances by `mult` on every call
    and does not depend on the data, so it stays a Python int masked to 32 bits."""
    def hashmix(value: np.ndarray) -> np.ndarray:
        nonlocal const
        value = value ^ _U(const)
        const = const * mult & _MASK32
        value = value * _U(const) & _U32
        return value ^ (value >> _X16)
    return hashmix


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    result = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _U32
    return result ^ (result >> _X16)


def _mulhi(a: np.ndarray, b: int) -> np.ndarray:
    """High 64 bits of each a * b, from 32-bit halves."""
    a0, a1 = a & _U32, a >> _U(32)
    b0, b1 = _U(b & _MASK32), _U(b >> 32)
    p00, p01, p10 = a0 * b0, a0 * b1, a1 * b0
    mid = (p00 >> _U(32)) + (p01 & _U32) + (p10 & _U32)
    return a1 * b1 + (p01 >> _U(32)) + (p10 >> _U(32)) + (mid >> _U(32))


def _pcg_step(hi: np.ndarray, lo: np.ndarray, inc_hi: np.ndarray,
              inc_lo: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """state * multiplier + inc, mod 2**128, on (high, low) word arrays."""
    new_lo = lo * _U(_PCG_MULT_LO) + inc_lo
    carry = (new_lo < inc_lo).astype(np.uint64)
    new_hi = (_mulhi(lo, _PCG_MULT_LO) + lo * _U(_PCG_MULT_HI) + hi * _U(_PCG_MULT_LO)
              + inc_hi + carry)
    return new_hi, new_lo


def _uniform_draws(seed: int, n: int, k: int, low: float, high: float) -> np.ndarray:
    """Row idx holds `np.random.default_rng([seed, idx]).uniform(low, high, k)`,
    bit for bit, computed for every idx < n at once in uint64 arithmetic: the
    SeedSequence pool of the entropy words, its 4 uint64 state words, PCG64
    seeding, then k XSL-RR outputs as doubles. Each idx < 2**32 is one word."""
    words = []
    while True:  # the little-endian 32-bit words of seed; 0 gives one word
        words.append(np.full(n, seed & _MASK32, dtype=np.uint64))
        seed >>= 32
        if not seed:
            break
    words.append(np.arange(n, dtype=np.uint64))

    hashmix = _hasher(_INIT_A, _MULT_A)
    pool = [hashmix(words[i] if i < len(words) else np.zeros(n, np.uint64)) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    for word in words[4:]:
        for dst in range(4):
            pool[dst] = _mix(pool[dst], hashmix(word))

    hashmix = _hasher(_INIT_B, _MULT_B)
    halves = [hashmix(pool[i % 4]) for i in range(8)]
    init_hi, init_lo, seq_hi, seq_lo = (
        halves[2 * j] | (halves[2 * j + 1] << _U(32)) for j in range(4))

    inc_hi = (seq_hi << _U(1)) | (seq_lo >> _U(63))
    inc_lo = (seq_lo << _U(1)) | _U(1)
    lo = inc_lo + init_lo  # state 0 stepped once is inc; then state += initstate
    hi = inc_hi + init_hi + (lo < init_lo).astype(np.uint64)
    hi, lo = _pcg_step(hi, lo, inc_hi, inc_lo)

    out = np.empty((n, k))
    for j in range(k):
        hi, lo = _pcg_step(hi, lo, inc_hi, inc_lo)
        folded, rot = hi ^ lo, hi >> _U(58)
        raw = (folded >> rot) | (folded << ((_U(64) - rot) & _U(63)))
        out[:, j] = (raw >> _U(11)).astype(np.float64) * 2.0 ** -53
    return low + (high - low) * out


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

    Sample i draws what its own `np.random.default_rng([seed, i])` would, bit
    for bit, so it is identical no matter how many samples are requested;
    one batch computes the draws of all samples at once. The cases differ
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
    if seed < 0:
        raise ValidationError(f"seed must be non-negative, got {seed}")

    perturbed = np.arange(net.n) if perturb_all_loads else net.pq_indices
    mult_labels, input_labels, target_labels = _labels(net, coupled, perturb_all_loads)

    # One draw per perturbed bus when coupled, else a (P, Q) pair per bus.
    per_bus = 1 if coupled else 2
    factors = _uniform_draws(seed, n, per_bus * len(perturbed), low, high)
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
    return Samples(np.arange(n), factors, inputs, targets, res.converged), meta


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


def _layout(meta: DatasetMeta) -> tuple[list[str], np.ndarray]:
    """The CSV header, and the angle targets' columns among a row's float
    cells (draw factors, inputs, targets)."""
    header = ["sample_id", *meta.mult_labels, *meta.input_labels, *meta.target_labels, "converged"]
    angle = [lab.startswith("delta_") and lab.endswith("_deg") for lab in meta.target_labels]
    return header, len(meta.mult_labels) + len(meta.input_labels) + np.flatnonzero(angle)


def write_dataset_csv(samples: Samples, meta: DatasetMeta, path: str | Path) -> None:
    """One row per sample; angle targets converted to degrees per the labels.

    The whole split is formatted as one block, in the bytes of the default csv
    dialect: `\\r\\n` line ends, and no cell (labels of integer bus ids, float
    reprs) ever needs quoting. An empty split writes only the header line."""
    header, angle = _layout(meta)
    values = np.hstack([samples.scale_factors, samples.inputs, samples.targets])
    values[:, angle] = np.degrees(values[:, angle])
    rows = [f"{idx},{','.join(map(repr, row))},{flag:d}" for idx, row, flag
            in zip(samples.sample_id.tolist(), values.tolist(), samples.converged.tolist())]
    with open(path, "w", newline="") as fh:
        fh.write("\r\n".join([",".join(header), *rows, ""]))


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


def read_dataset_csv(path: str | Path, meta: DatasetMeta) -> Samples:
    """Inverse of write_dataset_csv; angle columns come back as radians. Every
    cell must be finite, except the targets of a row with `converged` 0, and
    `converged` must be 0 or 1. ParseError names the line of a bad row."""
    expected, angle = _layout(meta)
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != expected:
            raise ParseError(f"{path}: header {header} does not match dataset metadata")
        rows = [(reader.line_num, row) for row in reader]

    table = np.empty((len(rows), len(expected) - 2))
    sample_id = np.empty(len(rows), dtype=int)
    converged = np.empty(len(rows), dtype=bool)
    for k, (line, row) in enumerate(rows):
        try:
            if len(row) != len(expected):
                raise ValueError(f"row with {len(row)} fields, expected {len(expected)}")
            if row[-1] not in ("0", "1"):
                raise ValueError(f"converged must be 0 or 1, got {row[-1]!r}")
            sample_id[k], converged[k] = int(row[0]), row[-1] == "1"
            table[k] = row[1:-1]
        except (ValueError, OverflowError) as exc:
            raise ParseError(f"{path}: line {line}: {exc}") from None

    n_m, n_i = len(meta.mult_labels), len(meta.input_labels)
    finite = np.isfinite(table)
    finite[~converged, n_m + n_i:] = True  # the targets of a failed case are NaN
    bad = np.flatnonzero(~finite.all(axis=1))
    if bad.size:
        raise ParseError(f"{path}: line {rows[bad[0]][0]}: non-finite number")
    table[:, angle] = np.radians(table[:, angle])
    return Samples(sample_id, *np.split(table, [n_m, n_m + n_i], axis=1), converged)
