"""Dense feedforward networks with tanh(beta x) hidden units and from-scratch backprop.

Loss convention: batch-mean squared error over all outputs plus unnormalized
penalties l1 * sum|w| + l2 * sum w^2 over weights only (biases excluded), so
the penalty gradient is exactly l1 * sign(w) + 2 * l2 * w. Gradients and
optimizer moments share the layout of `MLPParams.flat`, so a step is one
elementwise update. Consecutive hidden layers of one width form a run, whose
activations, tanh slopes and deltas are each one (k, rows, H) array.

The training step works in place, with the same floating-point operations in
the same order as the textbook formulas, so every result is bit for bit what
those formulas give. `train` binds one step plan (`_StepBuffers`) per batch
row count: the arrays the step writes into and every view it reads, so
`forward` and `backward` only loop over it; a call without a plan builds one
for itself. Every 2-D product goes through `np.dot(..., out=)`, which reaches
the same BLAS routine as `@` at less cost per call, and the optimizer writes
each update into the scratch vectors of its `OptState`.
"""
from __future__ import annotations

import json
import math
import numbers
import sys
import time
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import Callable

import numpy as np

from .errors import (
    MapeUndefined,
    NonFinite,
    ParseError,
    ShapeMismatch,
    ValidationError,
    VersionMismatch,
    read_json_object,
)

FORMAT_VERSION = 1

OPTIMIZER_NAMES = ("sgd", "adam", "adamax", "nadam")
DEFAULT_LR = {"sgd": 0.01, "adam": 0.001, "adamax": 0.001, "nadam": 0.001}
# Adam-family moment decay rates and denominator guard
BETA1 = 0.9
BETA2 = 0.999
EPS = 1e-8


@dataclass(frozen=True)
class LayerTopology:
    """Layer sizes (input, hidden..., output) and activation steepness.

    Every hidden layer uses tanh(beta x). The output layer is linear unless
    output_beta is set, in which case it uses tanh(output_beta x).
    """

    sizes: tuple[int, ...]
    beta: float = 2.22
    output_beta: float | None = None
    use_bias: bool = True

    def __post_init__(self):
        if not all(isinstance(s, numbers.Integral) and not isinstance(s, bool) for s in self.sizes):
            raise ValidationError(f"layer sizes must be integers, got {self.sizes!r}")
        object.__setattr__(self, "sizes", tuple(int(s) for s in self.sizes))
        if not isinstance(self.use_bias, bool):
            raise ValidationError(f"use_bias must be true or false, got {self.use_bias!r}")
        if isinstance(self.beta, bool) or isinstance(self.output_beta, bool):
            raise ValidationError(f"beta and output_beta must be numbers, got "
                                  f"{self.beta!r} and {self.output_beta!r}")
        if len(self.sizes) < 2:
            raise ValidationError("topology needs at least input and output layers")
        if any(s < 1 for s in self.sizes):
            raise ValidationError(f"layer sizes must be positive, got {self.sizes}")
        if not 0 < self.beta <= sys.float_info.max:
            raise ValidationError(f"beta must be finite and positive, got {self.beta}")
        if self.output_beta is not None and not 0 < self.output_beta <= sys.float_info.max:
            raise ValidationError(f"output_beta must be finite and positive, got {self.output_beta}")

    @property
    def n_layers(self) -> int:
        return len(self.sizes) - 1

    @property
    def n_inputs(self) -> int:
        return self.sizes[0]

    @property
    def n_outputs(self) -> int:
        return self.sizes[-1]

    @property
    def n_weights(self) -> int:
        """Number of weight entries: the leading slice of `MLPParams.flat`."""
        return sum(a * b for a, b in zip(self.sizes[:-1], self.sizes[1:]))

    @cached_property
    def layout(self) -> tuple[tuple[slice, tuple[int, int], slice], ...]:
        """Per layer: the slice of `MLPParams.flat` that holds its weights, their
        (out, in) shape, and the slice that holds its biases."""
        out, w_at, b_at = [], 0, self.n_weights
        for n_out, n_in in zip(self.sizes[1:], self.sizes[:-1]):
            out.append((slice(w_at, w_at + n_out * n_in), (n_out, n_in), slice(b_at, b_at + n_out)))
            w_at += n_out * n_in
            b_at += n_out
        return tuple(out)

    @cached_property
    def runs(self) -> tuple[tuple[int, int], ...]:
        """Each run of consecutive hidden layers of one width, as the index of
        its first layer and its length; unequal widths are runs of one."""
        out: list[list[int]] = []
        for l in range(self.n_layers - 1):
            if out and self.sizes[l + 1] == self.sizes[l]:
                out[-1][1] += 1
            else:
                out.append([l, 1])
        return tuple((first, k) for first, k in out)


@dataclass
class MLPParams:
    """All weights (out x in per layer), then all biases, copied into one vector
    `flat`; `weights` and `biases` become per-layer views of it."""

    topology: LayerTopology
    weights: list[np.ndarray]
    biases: list[np.ndarray]
    flat: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        sizes = self.topology.sizes
        if len(self.weights) != self.topology.n_layers or len(self.biases) != self.topology.n_layers:
            raise ShapeMismatch(
                f"expected {self.topology.n_layers} weight/bias arrays, got "
                f"{len(self.weights)}/{len(self.biases)}"
            )
        for l, (w, b) in enumerate(zip(self.weights, self.biases)):
            want = (sizes[l + 1], sizes[l])
            if w.shape != want:
                raise ShapeMismatch(f"layer {l}: weight shape {w.shape}, expected {want}")
            if b.shape != (sizes[l + 1],):
                raise ShapeMismatch(f"layer {l}: bias shape {b.shape}, expected {(sizes[l + 1],)}")
        self.flat = np.concatenate([a.ravel() for a in (*self.weights, *self.biases)], dtype=float)
        self.weights, self.biases = self.unflatten(self.flat)

    def unflatten(self, vec: np.ndarray) -> tuple[list[np.ndarray], list[np.ndarray]]:
        """Per-layer weight and bias views of a vector laid out like `flat`."""
        layout = self.topology.layout
        return [vec[w].reshape(shape) for w, shape, _ in layout], [vec[b] for _, _, b in layout]


def glorot_init(topology: LayerTopology, seed: int) -> MLPParams:
    """Glorot-uniform weights in +-sqrt(6 / (fan_in + fan_out)), zero biases."""
    rng = np.random.default_rng(seed)
    weights, biases = [], []
    for fan_in, fan_out in zip(topology.sizes[:-1], topology.sizes[1:]):
        limit = np.sqrt(6.0 / (fan_in + fan_out))
        weights.append(rng.uniform(-limit, limit, size=(fan_out, fan_in)))
        biases.append(np.zeros(fan_out))
    return MLPParams(topology=topology, weights=weights, biases=biases)


def _as_batch(x: np.ndarray, n_in: int) -> np.ndarray:
    arr = np.asarray(x, dtype=float)
    if arr.ndim == 1:
        arr = arr[None, :]
    if arr.ndim != 2 or arr.shape[1] != n_in:
        raise ShapeMismatch(f"input shape {np.shape(x)} incompatible with {n_in} input units")
    return arr


class _StepBuffers:
    """The plan of a forward and backward pass on `rows` rows, bound once to
    `params`: the arrays the pass writes into and the views it reads, so a
    call only runs its numpy calls.

    `layers` holds per layer its `W.T` view, its bias view or None, its
    steepness or None (linear output) and its output slot; the slots of a
    run are the layers of one (k, rows, H) array. `forward` returns `acts`:
    the batch, then every slot. With the gradient vector `grad`, laid out
    like `MLPParams.flat`, the plan also holds the backward pass: the output
    delta, its scale 2 / (rows n_out), its slope scratch or None, the output
    layer's gradient views and the l1/l2 scratch; and per run, last run
    first, its slopes and deltas as (k, rows, H) arrays, its delta chain as
    (delta in, weights, delta out, slope) steps, the views of its stacked
    interior product, its first layer's gradient and its bias gradient or
    None. Without `grad` it plans the forward pass only.

    Every 2-D product is `np.dot(..., out=)`, which reaches the BLAS routine
    that `@` reaches for the shape, so the bits are the same at less cost per
    call; only a 1 x 1 by 1 x 1 product, which `np.dot` takes as a scalar
    product, keeps the sign of an exact zero that `@` drops.
    """

    def __init__(self, params: MLPParams, rows: int, grad: np.ndarray | None = None):
        topo = params.topology
        acts = [np.empty((k, rows, topo.sizes[first + 1])) for first, k in topo.runs]
        outputs = [*(a for run in acts for a in run), np.empty((rows, topo.n_outputs))]
        betas = [float(topo.beta)] * (topo.n_layers - 1)
        betas.append(None if topo.output_beta is None else float(topo.output_beta))
        self.acts = [None, *outputs]
        self.layers = tuple((w.T, b if topo.use_bias else None, beta, out)
                            for w, b, beta, out in zip(params.weights, params.biases, betas, outputs))
        if grad is None:
            return
        self.grad = grad
        self.beta, self.output_beta = float(topo.beta), betas[-1]
        grad_w, grad_b = params.unflatten(grad)
        self.out_delta = delta = np.empty((rows, topo.n_outputs))
        self.scale = 2.0 / (rows * topo.n_outputs)
        self.out_slope = None if topo.output_beta is None else np.empty_like(delta)
        self.out_grad = (delta.T, grad_w[-1], grad_b[-1] if topo.use_bias else None)
        n = topo.n_weights
        self.penalty = (params.flat[:n], grad[:n], np.empty(n))
        self.runs = []
        for (first, k), a in reversed(list(zip(topo.runs, acts))):
            slope, deltas = np.empty_like(a), np.empty_like(a)
            chain = []
            for i in range(k - 1, -1, -1):
                chain.append((delta, params.weights[first + i + 1], deltas[i], slope[i]))
                delta = deltas[i]
            last, width = topo.layout[first + k - 1], a.shape[2]
            interior = grad[topo.layout[first][0].stop:last[0].stop].reshape(k - 1, width, width)
            biases = grad[topo.layout[first][2].start:last[2].stop].reshape(k, width)
            self.runs.append((first, a, slope, tuple(chain), deltas[1:].transpose(0, 2, 1), a[:-1],
                              interior, delta.T, grad_w[first], deltas,
                              biases if topo.use_bias else None))


def forward(params: MLPParams, x: np.ndarray, buffers: _StepBuffers | None = None) -> list[np.ndarray]:
    """Propagate a batch; returns the activations [x, a_1, ..., y] of every layer.
    Each layer's product is written into its output slot, where bias,
    steepness and tanh then act in place.

    With `buffers`, bound to `params`, `x` must be a float (rows, n_in) array,
    and the list returned is `buffers.acts`; without, `x` is checked and the
    pass runs on a plan of its own, so the arrays returned are new."""
    if buffers is None:
        x = _as_batch(x, params.topology.n_inputs)
        buffers = _StepBuffers(params, x.shape[0])
    acts = buffers.acts
    acts[0] = x
    for w_t, b, beta, z in buffers.layers:
        np.dot(x, w_t, out=z)
        if b is not None:
            z += b
        if beta is not None:
            z *= beta
            np.tanh(z, out=z)
        x = z
    return acts


def mse(pred: np.ndarray, target: np.ndarray) -> float:
    p = np.asarray(pred, dtype=float)
    t = np.asarray(target, dtype=float)
    if p.shape != t.shape:
        raise ShapeMismatch(f"prediction shape {p.shape} vs target shape {t.shape}")
    return float(np.mean((p - t) ** 2))


def mape(pred: np.ndarray, target: np.ndarray) -> np.ndarray:
    """Mean absolute percentage error per output column."""
    p = np.atleast_2d(np.asarray(pred, dtype=float))
    t = np.atleast_2d(np.asarray(target, dtype=float))
    if p.shape != t.shape:
        raise ShapeMismatch(f"prediction shape {p.shape} vs target shape {t.shape}")
    if np.any(t == 0.0):
        raise MapeUndefined("targets contain exact zeros; MAPE is undefined")
    return 100.0 * np.mean(np.abs((p - t) / t), axis=0)


def _tanh_slope(a: np.ndarray, beta: float, out: np.ndarray | None = None) -> np.ndarray:
    """beta (1 - a^2): the derivative of tanh(beta z) at a = tanh(beta z)."""
    slope = np.multiply(a, a, out=out)
    np.subtract(1.0, slope, out=slope)
    slope *= beta
    return slope


def backward(params: MLPParams, acts: list[np.ndarray], targets: np.ndarray,
             l1: float = 0.0, l2: float = 0.0, buffers: _StepBuffers | None = None) -> np.ndarray:
    """Exact gradient of the batch-mean squared error plus penalties, laid
    out like `params.flat`, from the activations that `forward` returned.

    With `buffers`, bound to `params` with a gradient vector, `acts` must be
    what `forward` wrote into them and `targets` a float (rows, n_out) array,
    and the gradient is `buffers.grad`, overwritten; without, the targets are
    checked, the hidden activations are copied into a plan of this call's own
    and the gradient is a new array. The delta chain runs layer by layer; per
    run of equal-width layers, the tanh slopes, the interior weight products
    and the bias sums are each one call."""
    if buffers is None:
        t = np.atleast_2d(np.asarray(targets, dtype=float))
        if t.shape != acts[-1].shape:
            raise ShapeMismatch(f"targets shape {t.shape} vs outputs shape {acts[-1].shape}")
        buffers = _StepBuffers(params, t.shape[0], np.zeros(params.flat.shape))
        for first, a, *_ in buffers.runs:
            np.stack(acts[first + 1:first + len(a) + 1], out=a)
        targets = t

    y = acts[-1]
    delta = np.subtract(y, targets, out=buffers.out_delta)
    delta *= buffers.scale
    if buffers.out_slope is not None:
        delta *= _tanh_slope(y, buffers.output_beta, out=buffers.out_slope)
    delta_t, grad_w, grad_b = buffers.out_grad
    np.dot(delta_t, acts[-2], out=grad_w)
    if grad_b is not None:
        np.add.reduce(delta, axis=0, out=grad_b)
    beta = buffers.beta
    for (first, a, slope, chain, deltas_t, a_in, interior, delta_t, grad_w, deltas,
         grad_b) in buffers.runs:
        _tanh_slope(a, beta, out=slope)
        for delta, w, out, s in chain:
            np.dot(delta, w, out=out)
            out *= s
        np.matmul(deltas_t, a_in, out=interior)
        np.dot(delta_t, acts[first], out=grad_w)
        if grad_b is not None:
            np.add.reduce(deltas, axis=1, out=grad_b)
    if l1 or l2:
        w, g, term = buffers.penalty
        np.sign(w, out=term)
        term *= l1
        g += term
        np.multiply(w, 2.0 * l2, out=term)
        g += term
    return buffers.grad


@dataclass(frozen=True)
class OptimizerKind:
    """Optimizer selector with step size."""

    name: str
    learning_rate: float | None = None

    def __post_init__(self):
        if self.name not in OPTIMIZER_NAMES:
            raise ValidationError(f"unknown optimizer {self.name!r}, expected one of {OPTIMIZER_NAMES}")
        if self.learning_rate is not None and not 0 < self.learning_rate < math.inf:
            raise ValidationError(f"learning rate must be finite and positive, "
                                  f"got {self.learning_rate}")

    @property
    def lr(self) -> float:
        return DEFAULT_LR[self.name] if self.learning_rate is None else self.learning_rate


@dataclass
class OptState:
    """First and second moments, laid out like `MLPParams.flat`, and two
    scratch vectors of that layout that every update writes into."""

    m: np.ndarray
    v: np.ndarray
    step: np.ndarray = field(init=False, repr=False, compare=False)
    den: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.step, self.den = np.empty_like(self.m), np.empty_like(self.m)


def init_optimizer_state(params: MLPParams) -> OptState:
    return OptState(m=np.zeros_like(params.flat), v=np.zeros_like(params.flat))


def _apply_update(kind: OptimizerKind, t: int, g: np.ndarray, state: OptState) -> np.ndarray:
    """Return the parameter delta, written into `state.step`, and update the
    moments in place; g is left as it is. Each comment gives the formula that
    the in-place steps below it evaluate, in its order and association."""
    lr, b1, b2, eps = kind.lr, BETA1, BETA2, EPS
    m, v, step, den = state.m, state.v, state.step, state.den
    if kind.name == "sgd":
        return np.multiply(g, -lr, out=step)
    # m = b1 m + (1 - b1) g
    np.multiply(g, 1.0 - b1, out=step)
    m *= b1
    m += step
    if kind.name == "adamax":
        # v = max(b2 v, |g|); delta = (-(lr / (1 - b1^t)) m) / (v + eps)
        np.abs(g, out=step)
        v *= b2
        np.maximum(v, step, out=v)
        np.add(v, eps, out=den)
        np.multiply(m, -(lr / (1.0 - b1**t)), out=step)
        step /= den
        return step
    # v = b2 v + ((1 - b2) g) g
    np.multiply(g, 1.0 - b2, out=step)
    step *= g
    v *= b2
    v += step
    if kind.name == "adam":
        # delta = (-lr (m / (1 - b1^t))) / den
        np.divide(m, 1.0 - b1**t, out=step)
    else:
        # nadam, Nesterov momentum folded into the Adam step, with den holding
        # the second term until den itself is formed:
        # delta = (-lr (b1 (m / (1 - b1^(t+1))) + (1 - b1) (g / (1 - b1^t)))) / den
        np.divide(m, 1.0 - b1 ** (t + 1), out=step)
        step *= b1
        np.divide(g, 1.0 - b1**t, out=den)
        den *= 1.0 - b1
        step += den
    # den = sqrt(v / (1 - b2^t)) + eps
    np.divide(v, 1.0 - b2**t, out=den)
    np.sqrt(den, out=den)
    den += eps
    step *= -lr
    step /= den
    return step


def optimizer_step(kind: OptimizerKind, state: OptState, params: MLPParams,
                   grad: np.ndarray, t: int) -> None:
    """Apply one update step (1-based step index t) in place. Without biases,
    their zero gradient gives a -0.0 delta, which leaves them as they are."""
    if t < 1:
        raise ValidationError(f"step index must be >= 1, got {t}")
    params.flat += _apply_update(kind, t, grad, state)


@dataclass(frozen=True)
class Hyperparams:
    hidden_layers: int
    hidden_size: int
    epochs: int
    batch_size: int
    optimizer: str = "adam"
    learning_rate: float | None = None
    l1: float = 0.0
    l2: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if self.hidden_layers < 1 or self.hidden_size < 1:
            raise ValidationError("need at least one hidden layer with at least one unit")
        if self.epochs < 1 or self.batch_size < 1:
            raise ValidationError("epochs and batch_size must be positive")
        OptimizerKind(self.optimizer, self.learning_rate)  # checks the name and step size
        if not (0 <= self.l1 < math.inf and 0 <= self.l2 < math.inf):
            raise ValidationError(f"penalty strengths must be finite and non-negative, "
                                  f"got l1={self.l1}, l2={self.l2}")
        if self.seed < 0:
            raise ValidationError(f"seed must be non-negative, got {self.seed}")


PRESETS = {
    "table3": Hyperparams(hidden_layers=7, hidden_size=10, epochs=50, batch_size=50,
                          optimizer="adam"),
    "table4": Hyperparams(hidden_layers=10, hidden_size=50, epochs=600, batch_size=50,
                          optimizer="adamax", l1=0.0001, l2=0.0001),
}


def preset(name: str) -> Hyperparams:
    try:
        return PRESETS[name]
    except KeyError:
        raise ValidationError(f"unknown preset {name!r}, expected one of {sorted(PRESETS)}") from None


def build_topology(n_inputs: int, n_outputs: int, hyper: Hyperparams, beta: float,
                   output_beta: float | None = None, use_bias: bool = True) -> LayerTopology:
    sizes = (n_inputs, *([hyper.hidden_size] * hyper.hidden_layers), n_outputs)
    return LayerTopology(sizes=sizes, beta=beta, output_beta=output_beta, use_bias=use_bias)


@dataclass
class TrainSet:
    """Arrays for supervised training, plus an optional inverse transform
    mapping scaled targets back to original units (used for MAPE)."""

    x_train: np.ndarray
    y_train: np.ndarray
    x_test: np.ndarray | None = None
    y_test: np.ndarray | None = None
    invert_targets: Callable[[np.ndarray], np.ndarray] | None = None


@dataclass
class TrainReport:
    train_mse: list[float]
    test_mse: list[float] | None
    initial_train_mse: float
    final_train_mse: float
    final_test_mse: float | None
    mape: np.ndarray | None
    wall_time: float


def train(data: TrainSet, topology: LayerTopology, hyper: Hyperparams) -> tuple[MLPParams, TrainReport]:
    """Mini-batch training loop; deterministic for a fixed seed.

    Shuffles with an rng derived from the seed, gathers the epoch's rows in
    that order once, slices consecutive batches (remainder batch included),
    logs full-set MSE after every epoch, and raises NonFinite the moment a
    loss stops being finite.
    """
    x = _as_batch(data.x_train, topology.n_inputs)
    y = np.atleast_2d(np.asarray(data.y_train, dtype=float))
    if y.shape != (x.shape[0], topology.n_outputs):
        raise ShapeMismatch(f"targets shape {y.shape}, expected {(x.shape[0], topology.n_outputs)}")
    has_test = data.x_test is not None and data.y_test is not None

    start = time.perf_counter()
    params = glorot_init(topology, hyper.seed)
    kind = OptimizerKind(hyper.optimizer, learning_rate=hyper.learning_rate)
    state = init_optimizer_state(params)
    shuffle_rng = np.random.default_rng([hyper.seed, 1])
    initial_mse = mse(forward(params, x)[-1], y)

    # one buffer set for the full batches and one for the remainder, both
    # writing their gradient into the one vector `grad`
    n, size = x.shape[0], hyper.batch_size
    grad = np.zeros(params.flat.shape)
    buffers = {rows: _StepBuffers(params, rows, grad) for rows in {min(size, n), n % size} - {0}}
    train_log: list[float] = []
    test_log: list[float] | None = [] if has_test else None
    t = 0
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow ends in the NonFinite check
        for _ in range(hyper.epochs):
            perm = shuffle_rng.permutation(n)
            x_epoch, y_epoch = x[perm], y[perm]
            for lo in range(0, n, size):
                step = buffers[min(size, n - lo)]
                acts = forward(params, x_epoch[lo:lo + size], buffers=step)
                backward(params, acts, y_epoch[lo:lo + size], l1=hyper.l1, l2=hyper.l2, buffers=step)
                t += 1
                optimizer_step(kind, state, params, grad, t)
            epoch_mse = mse(forward(params, x)[-1], y)
            if not np.isfinite(epoch_mse):
                raise NonFinite(f"training loss became {epoch_mse} at epoch {len(train_log) + 1}")
            train_log.append(epoch_mse)
            if has_test:
                test_log.append(mse(forward(params, data.x_test)[-1], np.atleast_2d(data.y_test)))

    final_mape = None
    if has_test:
        try:
            final_mape = evaluate(params, data.x_test, data.y_test, data.invert_targets).mape
        except MapeUndefined:
            pass

    report = TrainReport(
        train_mse=train_log,
        test_mse=test_log,
        initial_train_mse=initial_mse,
        final_train_mse=train_log[-1],
        final_test_mse=test_log[-1] if has_test else None,
        mape=final_mape,
        wall_time=time.perf_counter() - start,
    )
    return params, report


@dataclass
class EvalReport:
    mse: float
    mape: np.ndarray


def evaluate(params: MLPParams, x: np.ndarray, y: np.ndarray,
             invert_targets: Callable[[np.ndarray], np.ndarray] | None = None) -> EvalReport:
    """MSE on the given arrays and per-output MAPE in original target units;
    either may overflow to inf or NaN, without a warning."""
    with np.errstate(over="ignore", invalid="ignore"):
        pred = forward(params, x)[-1]
        truth = np.atleast_2d(np.asarray(y, dtype=float))
        err = mse(pred, truth)
        if invert_targets is not None:
            pred = invert_targets(pred)
            truth = invert_targets(truth)
        return EvalReport(mse=err, mape=mape(pred, truth))


def write_epoch_log(report: TrainReport, path: str | Path) -> None:
    """Comma-separated (epoch, train_mse, val_mse); val column empty without a test set."""
    lines = ["epoch,train_mse,val_mse"]
    for i, tr in enumerate(report.train_mse):
        val = repr(report.test_mse[i]) if report.test_mse is not None else ""
        lines.append(f"{i + 1},{repr(tr)},{val}")
    Path(path).write_text("\n".join(lines) + "\n")


def save_model(params: MLPParams, scalers: dict | None, path: str | Path) -> None:
    """Serialize params and optional scaler blobs; round-trips bit-exactly."""
    topo = params.topology
    doc = {
        "format_version": FORMAT_VERSION,
        "topology": {
            "sizes": list(topo.sizes),
            "beta": topo.beta,
            "output_beta": topo.output_beta,
            "use_bias": topo.use_bias,
        },
        "weights": [w.tolist() for w in params.weights],
        "biases": [b.tolist() for b in params.biases],
        "scalers": scalers,
    }
    Path(path).write_text(json.dumps(doc, indent=1) + "\n")


def load_model(path: str | Path) -> tuple[MLPParams, dict | None]:
    doc = read_json_object(path)
    version = doc.get("format_version")
    if version != FORMAT_VERSION:
        raise VersionMismatch(f"{path}: format_version {version!r}, expected {FORMAT_VERSION}")
    try:
        t = doc["topology"]
        topo = LayerTopology(
            sizes=tuple(t["sizes"]),
            beta=t["beta"],
            output_beta=t["output_beta"],
            use_bias=t["use_bias"],
        )
        weights = [np.array(w, dtype=float) for w in doc["weights"]]
        biases = [np.array(b, dtype=float) for b in doc["biases"]]
        scalers = doc["scalers"]
    except (KeyError, TypeError, ValueError, OverflowError, ValidationError) as exc:
        raise ParseError(f"{path}: missing or malformed field ({exc})") from None
    if scalers is not None and not isinstance(scalers, dict):
        raise ParseError(f"{path}: scalers must be an object or null, got {scalers!r}")
    try:
        params = MLPParams(topology=topo, weights=weights, biases=biases)
    except ShapeMismatch as exc:
        raise ShapeMismatch(f"{path}: {exc}") from None
    if not np.isfinite(params.flat).all():
        raise ParseError(f"{path}: weights and biases must be finite numbers")
    return params, scalers
