"""Dense feedforward networks with tanh(beta x) hidden units and from-scratch backprop.

Loss convention: batch-mean squared error over all outputs plus unnormalized
penalties l1 * sum|w| + l2 * sum w^2 over weights only (biases excluded), so
the penalty gradient is exactly l1 * sign(w) + 2 * l2 * w. Gradients and
optimizer moments share the layout of `MLPParams.flat`, so a step is one
elementwise update.
"""
from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from .activation import activate
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
        object.__setattr__(self, "sizes", tuple(int(s) for s in self.sizes))
        if len(self.sizes) < 2:
            raise ValidationError("topology needs at least input and output layers")
        if any(s < 1 for s in self.sizes):
            raise ValidationError(f"layer sizes must be positive, got {self.sizes}")
        if not 0 < self.beta < math.inf:
            raise ValidationError(f"beta must be finite and positive, got {self.beta}")
        if self.output_beta is not None and not 0 < self.output_beta < math.inf:
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
        sizes, n = self.topology.sizes, self.topology.n_layers
        views, at = [], 0
        for shape in [*zip(sizes[1:], sizes[:-1]), *((s,) for s in sizes[1:])]:
            size = math.prod(shape)
            views.append(vec[at: at + size].reshape(shape))
            at += size
        return views[:n], views[n:]

    def copy(self) -> "MLPParams":
        return MLPParams(topology=self.topology, weights=self.weights, biases=self.biases)


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


def forward(params: MLPParams, x: np.ndarray) -> list[np.ndarray]:
    """Propagate a batch; returns the activations [x, a_1, ..., y] of every layer."""
    topo = params.topology
    acts = [_as_batch(x, topo.n_inputs)]
    last = topo.n_layers - 1
    for l, (w, b) in enumerate(zip(params.weights, params.biases)):
        z = acts[-1] @ w.T
        if topo.use_bias:
            z = z + b
        if l < last:
            z = activate(z, topo.beta)
        elif topo.output_beta is not None:
            z = activate(z, topo.output_beta)
        acts.append(z)
    return acts


def predict(params: MLPParams, x: np.ndarray) -> np.ndarray:
    y = forward(params, x)[-1]
    return y[0] if np.asarray(x).ndim == 1 else y


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


def penalty(params: MLPParams, l1: float, l2: float) -> float:
    """Regularization term l1 sum|w| + l2 sum w^2 over weights only."""
    w = params.flat[:params.topology.n_weights]
    total = 0.0
    if l1:
        total += l1 * float(np.sum(np.abs(w)))
    if l2:
        total += l2 * float(np.sum(w * w))
    return total


def loss_value(params: MLPParams, x: np.ndarray, target: np.ndarray,
               l1: float = 0.0, l2: float = 0.0) -> float:
    """Full training objective on one batch: MSE plus penalties."""
    return mse(forward(params, x)[-1], np.atleast_2d(target)) + penalty(params, l1, l2)


def backward(params: MLPParams, acts: list[np.ndarray], targets: np.ndarray,
             l1: float = 0.0, l2: float = 0.0) -> np.ndarray:
    """Exact gradient of loss_value, laid out like `params.flat`, from the
    activations `forward` returned. The tanh(beta z) derivative is taken from
    each activation a as beta (1 - a^2)."""
    topo = params.topology
    t = np.atleast_2d(np.asarray(targets, dtype=float))
    y = acts[-1]
    if t.shape != y.shape:
        raise ShapeMismatch(f"targets shape {t.shape} vs outputs shape {y.shape}")
    batch = y.shape[0]

    delta = (y - t) * (2.0 / (batch * topo.n_outputs))
    if topo.output_beta is not None:
        delta = delta * (float(topo.output_beta) * (1.0 - y * y))

    grad = np.zeros_like(params.flat)
    g_w, g_b = params.unflatten(grad)
    for l in range(topo.n_layers - 1, -1, -1):
        g_w[l][:] = delta.T @ acts[l]
        if topo.use_bias:
            g_b[l][:] = delta.sum(axis=0)
        if l > 0:
            a = acts[l]
            delta = (delta @ params.weights[l]) * (float(topo.beta) * (1.0 - a * a))
    if l1 or l2:
        n = topo.n_weights
        w = params.flat[:n]
        grad[:n] = grad[:n] + l1 * np.sign(w) + 2.0 * l2 * w
    return grad


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
    """First and second moments, laid out like `MLPParams.flat`."""

    m: np.ndarray
    v: np.ndarray


def init_optimizer_state(params: MLPParams) -> OptState:
    return OptState(m=np.zeros_like(params.flat), v=np.zeros_like(params.flat))


def _apply_update(kind: OptimizerKind, t: int, g, m, v):
    """Return the parameter delta and update moment arrays in place."""
    lr, b1, b2, eps = kind.lr, BETA1, BETA2, EPS
    if kind.name == "sgd":
        return -lr * g
    m *= b1
    m += (1.0 - b1) * g
    if kind.name == "adamax":
        np.maximum(b2 * v, np.abs(g), out=v)
        return -(lr / (1.0 - b1**t)) * m / (v + eps)
    v *= b2
    v += (1.0 - b2) * g * g
    v_hat = v / (1.0 - b2**t)
    if kind.name == "adam":
        m_hat = m / (1.0 - b1**t)
        return -lr * m_hat / (np.sqrt(v_hat) + eps)
    # nadam: Nesterov momentum folded into the Adam step
    m_hat = m / (1.0 - b1 ** (t + 1))
    g_hat = g / (1.0 - b1**t)
    return -lr * (b1 * m_hat + (1.0 - b1) * g_hat) / (np.sqrt(v_hat) + eps)


def optimizer_step(kind: OptimizerKind, state: OptState, params: MLPParams,
                   grad: np.ndarray, t: int) -> None:
    """Apply one update step (1-based step index t) in place. Without biases,
    their zero gradient gives a -0.0 delta, which leaves them as they are."""
    if t < 1:
        raise ValidationError(f"step index must be >= 1, got {t}")
    params.flat += _apply_update(kind, t, grad, state.m, state.v)


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
        if self.l1 < 0 or self.l2 < 0:
            raise ValidationError("penalty strengths must be non-negative")


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

    Shuffles with an rng derived from the seed, slices consecutive batches
    (remainder batch included), logs full-set MSE after every epoch, and
    raises NonFinite the moment a loss stops being finite.
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

    train_log: list[float] = []
    test_log: list[float] | None = [] if has_test else None
    t = 0
    for _ in range(hyper.epochs):
        perm = shuffle_rng.permutation(x.shape[0])
        for lo in range(0, x.shape[0], hyper.batch_size):
            sel = perm[lo: lo + hyper.batch_size]
            grad = backward(params, forward(params, x[sel]), y[sel], l1=hyper.l1, l2=hyper.l2)
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
    """MSE on the given arrays and per-output MAPE in original target units."""
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
    except (KeyError, TypeError, ValueError, ValidationError) as exc:
        raise ParseError(f"{path}: missing or malformed field ({exc})") from None
    if scalers is not None and not isinstance(scalers, dict):
        raise ParseError(f"{path}: scalers must be an object or null, got {scalers!r}")
    params = MLPParams(topology=topo, weights=weights, biases=biases)
    if not np.isfinite(params.flat).all():
        raise ParseError(f"{path}: weights and biases must be finite numbers")
    return params, scalers
