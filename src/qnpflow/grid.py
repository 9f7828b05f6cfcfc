"""Bus-level network model: bus records, admittance matrix, file I/O, per-unit scheduling."""
from __future__ import annotations

import enum
import hashlib
import json
import sys
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path

import numpy as np

from .errors import ParseError, ValidationError, read_json_object

SYMMETRY_TOL = 1e-9


class BusKind(str, enum.Enum):
    SLACK = "slack"
    PV = "pv"
    PQ = "pq"


@dataclass(frozen=True)
class BusRecord:
    """One bus row in physical units.

    Loads and generation are MW / Mvar, voltage magnitude is per-unit and the
    angle is degrees. Generation fields are ``None`` exactly where the
    quantity is an unknown of the power-flow problem: P and Q at the slack
    bus, Q at PV buses. ``None`` is an absent-marker, not a zero.
    """

    id: int
    kind: BusKind
    p_load: float
    q_load: float
    v_mag: float
    v_angle: float
    p_gen: float | None = None
    q_gen: float | None = None


@dataclass(frozen=True)
class AdmittanceMatrix:
    """Dense complex bus admittance matrix, read-only."""

    entries: np.ndarray

    def __post_init__(self):
        arr = np.array(self.entries, dtype=complex)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise ValidationError(f"ybus must be square, got shape {arr.shape}")
        arr.setflags(write=False)
        object.__setattr__(self, "entries", arr)

    @property
    def n(self) -> int:
        return self.entries.shape[0]


@dataclass(frozen=True)
class PerUnitBase:
    """System power base for per-unit normalization."""

    s_base: float = 100.0

    def __post_init__(self):
        if not self.s_base > 0:
            raise ValidationError(f"s_base must be positive, got {self.s_base}")

    def to_pu(self, mva: float) -> float:
        return mva / self.s_base

    def from_pu(self, pu: float) -> float:
        return pu * self.s_base


@dataclass(frozen=True)
class NetworkModel:
    """Immutable network: ordered bus records, YBUS and power base.

    What the solver reads on every call is computed once, at construction:
    the bus index sets as integer arrays that index directly, and the
    per-unit schedule (`p_sched`, `q_sched`), NaN where the quantity is an
    unknown. conj(Y), the Jacobian's gather table and the content hash are
    computed on first read.
    """

    buses: tuple[BusRecord, ...]
    ybus: AdmittanceMatrix
    base: PerUnitBase
    slack_index: int = field(init=False, repr=False, compare=False)
    pv_indices: np.ndarray = field(init=False, repr=False, compare=False)
    pq_indices: np.ndarray = field(init=False, repr=False, compare=False)
    non_slack_indices: np.ndarray = field(init=False, repr=False, compare=False)
    p_sched: np.ndarray = field(init=False, repr=False, compare=False)
    q_sched: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        _validate(self.buses, self.ybus, self.base)
        kinds = np.array([b.kind.value for b in self.buses])
        p_sched, q_sched = self.schedule(np.array([b.p_load for b in self.buses]),
                                         np.array([b.q_load for b in self.buses]))
        constants = {
            "pv_indices": np.flatnonzero(kinds == BusKind.PV.value),
            "pq_indices": np.flatnonzero(kinds == BusKind.PQ.value),
            "non_slack_indices": np.flatnonzero(kinds != BusKind.SLACK.value),
            "p_sched": p_sched,
            "q_sched": q_sched,
        }
        for name, value in constants.items():
            value.setflags(write=False)
            object.__setattr__(self, name, value)
        object.__setattr__(self, "slack_index", int(np.flatnonzero(kinds == BusKind.SLACK.value)[0]))

    @property
    def n(self) -> int:
        return len(self.buses)

    def schedule(self, p_load: np.ndarray, q_load: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Per-unit scheduled (P, Q) of this network's buses under other loads.

        `p_load`/`q_load` are MW/Mvar per bus along the last axis, optionally
        stacked along leading axes. P_sch = (p_gen - p_load) / s_base, NaN
        where the generation is an unknown (slack P and Q, PV-bus Q).
        """
        p_gen = np.array([b.p_gen for b in self.buses], dtype=float)  # None becomes NaN
        q_gen = np.array([b.q_gen for b in self.buses], dtype=float)
        return self.base.to_pu(p_gen - p_load), self.base.to_pu(q_gen - q_load)

    @cached_property
    def ybus_conj(self) -> np.ndarray:
        """conj(Y), read-only."""
        conj = np.conj(self.ybus.entries)
        conj.setflags(write=False)
        return conj

    @cached_property
    def jacobian_index(self) -> tuple[np.ndarray, np.ndarray]:
        """(position, sign), each (m, m): where powerflow.jacobian reads
        each entry, and the sign that makes it an injection derivative.

        `position` indexes one case's (n + 1, n) complex table read as
        floats (real, imaginary): rows 0..n-1 hold vy_ik = V_i conj(Y_ik)
        conj(V_k) off the diagonal and S_i - vy_ii on it, and row n holds
        S_i + vy_ii. Rows take P, the real part, at the non-slack buses,
        then Q, the imaginary part, at the PQ buses; columns take delta at
        the non-slack buses, then |V| at the PQ buses. sign * table[position]
        is the entry of dS/d(delta) = j (diag(S) - vy), which takes the
        other part than the row's (-Im for P, Re for Q), or of
        |V| dS/d|V| = diag(S) + vy, which takes the row's own.
        """
        ns, pq = self.non_slack_indices, self.pq_indices
        bus = np.concatenate([ns, pq])
        q_row = np.repeat([False, True], [len(ns), len(pq)])[:, None]
        v_col = q_row.T
        diag = bus[:, None] == bus
        row = np.where(diag & v_col, self.n, bus[:, None])
        # j A puts -Im A into P and Re A into Q, with A = -vy off the diagonal
        part = np.where(v_col, q_row, ~q_row)
        sign = np.where(v_col, 1.0, np.where(q_row, 1.0, -1.0) * np.where(diag, 1.0, -1.0))
        position = (row * self.n + bus) * 2 + part
        for table in (position, sign):
            table.setflags(write=False)
        return position, sign

    @cached_property
    def fingerprint(self) -> str:
        """SHA-256 of the network's base, bus records and Y-bus entries as sorted-key JSON."""
        return hashlib.sha256(json.dumps(_payload(self), sort_keys=True).encode()).hexdigest()


def _require(obj: dict, key: str, path: str):
    if key not in obj:
        raise ParseError(f"{path}: missing required key {key!r}")
    return obj[key]


def _number(value, where: str) -> float:
    """A finite JSON number. json also reads NaN, Infinity and integers beyond
    the float range, which no field takes."""
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not abs(value) <= sys.float_info.max:
        raise ParseError(f"{where}: expected a finite number, got {value!r}")
    return float(value)


def _optional_number(obj: dict, key: str, where: str) -> float | None:
    if key not in obj or obj[key] is None:
        return None
    return _number(obj[key], f"{where}.{key}")


def _parse_bus(obj, idx: int) -> BusRecord:
    where = f"buses[{idx}]"
    if not isinstance(obj, dict):
        raise ParseError(f"{where}: expected an object")
    kind_token = _require(obj, "kind", where)
    try:
        kind = BusKind(str(kind_token).lower())
    except ValueError:
        raise ParseError(f"{where}: unknown bus kind {kind_token!r}") from None
    return BusRecord(
        id=int(_number(_require(obj, "id", where), f"{where}.id")),
        kind=kind,
        p_load=_number(_require(obj, "p_load", where), f"{where}.p_load"),
        q_load=_number(_require(obj, "q_load", where), f"{where}.q_load"),
        v_mag=_number(_require(obj, "v_mag", where), f"{where}.v_mag"),
        v_angle=_number(_require(obj, "v_angle", where), f"{where}.v_angle"),
        p_gen=_optional_number(obj, "p_gen", where),
        q_gen=_optional_number(obj, "q_gen", where),
    )


def _parse_ybus(rows) -> AdmittanceMatrix:
    if not isinstance(rows, list) or not rows:
        raise ParseError("ybus: expected a non-empty array of rows")
    n = len(rows)
    arr = np.zeros((n, n), dtype=complex)
    for i, row in enumerate(rows):
        if not isinstance(row, list) or len(row) != n:
            raise ParseError(f"ybus row {i}: expected {n} entries")
        for j, pair in enumerate(row):
            if not isinstance(pair, list) or len(pair) != 2:
                raise ParseError(f"ybus[{i}][{j}]: expected a [re, im] pair")
            re = _number(pair[0], f"ybus[{i}][{j}][0]")
            im = _number(pair[1], f"ybus[{i}][{j}][1]")
            arr[i, j] = complex(re, im)
    return AdmittanceMatrix(arr)


def _validate(buses, ybus: AdmittanceMatrix, base: PerUnitBase):
    n = len(buses)
    if n == 0:
        raise ValidationError("network has no buses")
    if ybus.n != n:
        raise ValidationError(f"ybus is {ybus.n}x{ybus.n} but network has {n} buses")
    asym = np.max(np.abs(ybus.entries - ybus.entries.T)) if n else 0.0
    if asym > SYMMETRY_TOL:
        raise ValidationError(f"ybus asymmetry {asym:.3e} exceeds {SYMMETRY_TOL}")
    slack_count = sum(1 for b in buses if b.kind is BusKind.SLACK)
    if slack_count != 1:
        raise ValidationError(f"expected exactly one slack bus, found {slack_count}")
    for i, b in enumerate(buses):
        if b.id != i + 1:
            raise ValidationError(f"bus ids must be 1..{n} in order, got {b.id} at position {i}")
        if b.kind is BusKind.SLACK:
            if b.p_gen is not None or b.q_gen is not None:
                raise ValidationError(f"bus {b.id}: slack generation is an unknown, not an input")
            if not b.v_mag > 0:
                raise ValidationError(f"bus {b.id}: slack v_mag must be positive")
        elif b.kind is BusKind.PV:
            if b.p_gen is None:
                raise ValidationError(f"bus {b.id}: PV bus requires p_gen")
            if b.q_gen is not None:
                raise ValidationError(f"bus {b.id}: PV reactive generation is an unknown, not an input")
            if not b.v_mag > 0:
                raise ValidationError(f"bus {b.id}: PV v_mag must be positive")
        else:
            if b.p_gen is None or b.q_gen is None:
                raise ValidationError(f"bus {b.id}: PQ bus requires p_gen and q_gen (zero is allowed)")


def load_network(path: str | Path) -> NetworkModel:
    """Parse and validate a network file, returning an immutable model.

    Raises ParseError for malformed content and ValidationError for semantic
    violations (no or multiple slack buses, asymmetric YBUS, bad ids).
    """
    doc = read_json_object(path)
    base = PerUnitBase(_number(_require(doc, "base_mva", str(path)), "base_mva"))
    bus_objs = _require(doc, "buses", str(path))
    if not isinstance(bus_objs, list):
        raise ParseError(f"{path}: buses must be an array")
    buses = tuple(_parse_bus(obj, i) for i, obj in enumerate(bus_objs))
    ybus = _parse_ybus(_require(doc, "ybus", str(path)))
    return NetworkModel(buses=buses, ybus=ybus, base=base)


def _payload(net: NetworkModel) -> dict:
    bus_rows = []
    for b in net.buses:
        row = {
            "id": b.id,
            "kind": b.kind.value,
            "p_load": b.p_load,
            "q_load": b.q_load,
            "v_mag": b.v_mag,
            "v_angle": b.v_angle,
        }
        if b.p_gen is not None:
            row["p_gen"] = b.p_gen
        if b.q_gen is not None:
            row["q_gen"] = b.q_gen
        bus_rows.append(row)
    ybus_rows = [
        [[net.ybus.entries[i, j].real, net.ybus.entries[i, j].imag] for j in range(net.n)]
        for i in range(net.n)
    ]
    return {"base_mva": net.base.s_base, "buses": bus_rows, "ybus": ybus_rows}
