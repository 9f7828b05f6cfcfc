"""Transfer-curve container, tanh steepness fitting, and the spin-to-steepness table."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateCurve, UnknownSpin, ValidationError

BETA_LO = 1e-3
BETA_HI = 100.0

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


def _scan_rss(curve: ActivationCurve, betas: np.ndarray) -> np.ndarray:
    """Residual sum of squares of tanh(beta u) against the curve, one per beta."""
    r = curve.outputs - np.tanh(betas[:, None] * curve.inputs)
    return (r[:, None, :] @ r[:, :, None])[:, 0, 0]


def fit_beta(curve: ActivationCurve) -> BetaFit:
    """Least-squares steepness of tanh(beta u) against the sampled curve.

    A geometric scan of 400 betas over [BETA_LO, BETA_HI] brackets the
    minimum by the neighbours of its best beta; each further pass scans the
    bracket at 41 even points and keeps the neighbours of its best, a
    20-fold narrowing, until the bracket is narrower than 1e-12 max(1, hi).
    Returns the last pass's best beta and its loss. Raises DegenerateCurve
    when the samples carry no slope information.
    """
    if np.ptp(curve.outputs) == 0:
        raise DegenerateCurve("curve outputs are constant; no slope to fit")
    if curve.inputs.min() >= 0 or curve.inputs.max() <= 0:
        raise DegenerateCurve("curve inputs must span both signs of u")

    betas = np.geomspace(BETA_LO, BETA_HI, 400)
    while True:
        losses = _scan_rss(curve, betas)
        k = int(np.argmin(losses))
        lo, hi = betas[max(k - 1, 0)], betas[min(k + 1, betas.size - 1)]
        if hi - lo < 1e-12 * max(1.0, hi):
            break
        betas = np.linspace(lo, hi, 41)
    return BetaFit(beta=float(betas[k]), rss=float(losses[k]), n_points=curve.n_points)


def beta_table() -> dict[float, float]:
    """Tabulated steepness by reservoir spin: {1/2: 2.22, 1: 2.78, 3/2: 3.33, 5/2: 4.1}."""
    return dict(_BETA_BY_SPIN)


def spin_beta(spin_j: float) -> float:
    try:
        return _BETA_BY_SPIN[float(spin_j)]
    except KeyError:
        raise UnknownSpin(f"no tabulated steepness for spin {spin_j}") from None

