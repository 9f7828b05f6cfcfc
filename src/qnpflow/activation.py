"""Transfer-curve container, tanh steepness fitting, and the spin-to-steepness table."""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateCurve, UnknownSpin, ValidationError

BETA_LO = 1e-3
BETA_HI = 100.0

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0

# Fitted steepness by reservoir spin, used as named activation presets.
_BETA_BY_SPIN = {0.5: 2.22, 1.0: 2.78, 1.5: 3.33, 2.5: 4.1}


@dataclass
class ActivationCurve:
    """Sampled transfer curve: probe steady-state output versus input weight u."""

    inputs: np.ndarray
    outputs: np.ndarray
    spin_j: float | None = None
    collisions_used: np.ndarray | None = None
    converged: np.ndarray | None = None
    provenance: dict = field(default_factory=dict)

    def __post_init__(self):
        self.inputs = np.asarray(self.inputs, dtype=float)
        self.outputs = np.asarray(self.outputs, dtype=float)
        if self.inputs.ndim != 1 or self.inputs.shape != self.outputs.shape:
            raise ValidationError(
                f"curve arrays must be 1-D and equal length, got {self.inputs.shape} and {self.outputs.shape}"
            )
        if self.inputs.size < 2:
            raise ValidationError("a curve needs at least two points")
        if not (np.isfinite(self.inputs).all() and np.isfinite(self.outputs).all()):
            raise ValidationError("curve inputs and outputs must be finite numbers")
        if not np.all(np.diff(self.inputs) > 0):
            raise ValidationError("curve inputs must be strictly increasing")
        if np.any(np.abs(self.outputs) > 1.0 + 1e-9):
            raise ValidationError("curve outputs must lie in [-1, 1]")

    @property
    def n_points(self) -> int:
        return self.inputs.size


@dataclass
class BetaFit:
    beta: float
    rss: float
    n_points: int


def _rss(curve: ActivationCurve, beta: float) -> float:
    r = curve.outputs - np.tanh(beta * curve.inputs)
    return float(r @ r)


def _scan_rss(curve: ActivationCurve, betas: np.ndarray) -> np.ndarray:
    """_rss at every beta in one pass; each residual dot product is the
    1x1 matmul r @ r, so the losses equal _rss bit for bit."""
    r = curve.outputs - np.tanh(betas[:, None] * curve.inputs)
    return (r[:, None, :] @ r[:, :, None])[:, 0, 0]


def fit_beta(curve: ActivationCurve) -> BetaFit:
    """Least-squares steepness of tanh(beta u) against the sampled curve.

    Coarse geometric scan over [BETA_LO, BETA_HI] to bracket the minimum,
    golden-section search inside the bracket, then one parabolic refinement.
    Raises DegenerateCurve when the samples carry no slope information.
    """
    if np.ptp(curve.outputs) == 0:
        raise DegenerateCurve("curve outputs are constant; no slope to fit")
    if curve.inputs.min() >= 0 or curve.inputs.max() <= 0:
        raise DegenerateCurve("curve inputs must span both signs of u")

    grid = np.geomspace(BETA_LO, BETA_HI, 400)
    losses = _scan_rss(curve, grid)
    k = int(np.argmin(losses))
    lo = grid[max(k - 1, 0)]
    hi = grid[min(k + 1, grid.size - 1)]

    a, b = lo, hi
    c = b - _GOLDEN * (b - a)
    d = a + _GOLDEN * (b - a)
    fc, fd = _rss(curve, c), _rss(curve, d)
    while b - a > 1e-12 * max(1.0, b):
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - _GOLDEN * (b - a)
            fc = _rss(curve, c)
        else:
            a, c, fc = c, d, fd
            d = a + _GOLDEN * (b - a)
            fd = _rss(curve, d)
    beta = 0.5 * (a + b)

    # Parabolic vertex through (beta - h, beta, beta + h) as a final polish.
    h = 1e-7 * max(1.0, beta)
    f0, f1, f2 = _rss(curve, beta - h), _rss(curve, beta), _rss(curve, beta + h)
    denom = f0 - 2.0 * f1 + f2
    if denom > 0:
        candidate = beta + 0.5 * h * (f0 - f2) / denom
        if BETA_LO <= candidate <= BETA_HI and _rss(curve, candidate) <= f1:
            beta = candidate

    return BetaFit(beta=float(beta), rss=_rss(curve, beta), n_points=curve.n_points)


def beta_table() -> dict[float, float]:
    """Tabulated steepness by reservoir spin: {1/2: 2.22, 1: 2.78, 3/2: 3.33, 5/2: 4.1}."""
    return dict(_BETA_BY_SPIN)


def spin_beta(spin_j: float) -> float:
    try:
        return _BETA_BY_SPIN[float(spin_j)]
    except KeyError:
        raise UnknownSpin(f"no tabulated steepness for spin {spin_j}") from None

