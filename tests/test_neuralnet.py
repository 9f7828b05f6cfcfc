import json
import math
import tracemalloc

import numpy as np
import pytest

from qnpflow import neuralnet
from qnpflow.errors import (
    MapeUndefined,
    NonFinite,
    ParseError,
    ShapeMismatch,
    ValidationError,
    VersionMismatch,
)
from qnpflow.neuralnet import (
    BETA1,
    BETA2,
    DEFAULT_LR,
    EPS,
    OPTIMIZER_NAMES,
    PRESETS,
    Hyperparams,
    LayerTopology,
    MLPParams,
    OptimizerKind,
    TrainSet,
    backward,
    build_topology,
    evaluate,
    forward,
    glorot_init,
    init_optimizer_state,
    load_model,
    mape,
    mse,
    optimizer_step,
    preset,
    save_model,
    train,
    write_epoch_log,
)


# ---------------------------------------------------------------------------
# finite-difference oracle for the backward pass


def penalty(params, l1, l2):
    """Regularization term l1 sum|w| + l2 sum w^2 over weights only."""
    w = params.flat[:params.topology.n_weights]
    total = 0.0
    if l1:
        total += l1 * float(np.sum(np.abs(w)))
    if l2:
        total += l2 * float(np.sum(w * w))
    return total


def loss_value(params, x, target, l1=0.0, l2=0.0):
    """Full training objective on one batch: MSE plus penalties."""
    return mse(forward(params, x)[-1], np.atleast_2d(target)) + penalty(params, l1, l2)


def fd_grads(params, x, y, l1=0.0, l2=0.0, h=1e-6):
    """Central-difference gradient of loss_value over every entry of params.flat."""
    flat = params.flat
    g = np.zeros_like(flat)
    for i in range(flat.size):
        keep = flat[i]
        flat[i] = keep + h
        up = loss_value(params, x, y, l1=l1, l2=l2)
        flat[i] = keep - h
        dn = loss_value(params, x, y, l1=l1, l2=l2)
        flat[i] = keep
        g[i] = (up - dn) / (2.0 * h)
    return g


def grad_rel_error(analytic, numeric):
    """Inf-norm of the difference over the inf-norm of the numeric gradient."""
    return float(np.abs(analytic - numeric).max()) / max(float(np.abs(numeric).max()), 1e-12)


@pytest.mark.parametrize("beta", [2.22, 2.78, 3.33, 4.1, 8.0])
@pytest.mark.parametrize("l1,l2", [(0.0, 0.0), (1e-4, 1e-4)])
def test_backward_matches_finite_difference(beta, l1, l2):
    rng = np.random.default_rng(11)
    topo = LayerTopology((3, 6, 2), beta=beta)
    params = glorot_init(topo, seed=5)
    x = rng.normal(size=(5, 3))
    y = rng.normal(size=(5, 2))
    grads = backward(params, forward(params, x), y, l1=l1, l2=l2)
    assert grad_rel_error(grads, fd_grads(params, x, y, l1=l1, l2=l2)) < 1e-6


def test_backward_matches_fd_with_output_activation():
    rng = np.random.default_rng(12)
    topo = LayerTopology((2, 4, 3), beta=2.22, output_beta=2.0)
    params = glorot_init(topo, seed=6)
    x = rng.normal(size=(4, 2))
    y = rng.uniform(-0.8, 0.8, size=(4, 3))
    grads = backward(params, forward(params, x), y)
    assert grad_rel_error(grads, fd_grads(params, x, y)) < 1e-6


def test_backward_matches_fd_without_bias():
    rng = np.random.default_rng(13)
    topo = LayerTopology((3, 5, 2), beta=3.33, use_bias=False)
    params = glorot_init(topo, seed=7)
    x = rng.normal(size=(6, 3))
    y = rng.normal(size=(6, 2))
    grads = backward(params, forward(params, x), y, l1=1e-4, l2=1e-4)
    fd = fd_grads(params, x, y, l1=1e-4, l2=1e-4)
    assert grad_rel_error(grads, fd) < 1e-6
    # biases never enter the forward pass, so both sides must be exactly zero
    for g, f in zip(params.unflatten(grads)[1], params.unflatten(fd)[1]):
        assert np.all(g == 0.0) and np.all(f == 0.0)


def test_backward_two_hidden_layers_fd():
    rng = np.random.default_rng(14)
    topo = LayerTopology((2, 4, 4, 1), beta=2.78)
    params = glorot_init(topo, seed=8)
    x = rng.normal(size=(5, 2))
    y = rng.normal(size=(5, 1))
    grads = backward(params, forward(params, x), y, l2=1e-4)
    assert grad_rel_error(grads, fd_grads(params, x, y, l2=1e-4)) < 1e-6


def test_backward_zero_error_gives_zero_gradients():
    topo = LayerTopology((3, 4, 2), beta=2.22)
    params = glorot_init(topo, seed=9)
    x = np.random.default_rng(15).normal(size=(6, 3))
    acts = forward(params, x)
    assert np.all(backward(params, acts, acts[-1]) == 0.0)


def test_backward_rejects_wrong_target_shape():
    topo = LayerTopology((3, 4, 2), beta=2.22)
    params = glorot_init(topo, seed=0)
    acts = forward(params, np.zeros((5, 3)))
    with pytest.raises(ShapeMismatch):
        backward(params, acts, np.zeros((5, 3)))


# ---------------------------------------------------------------------------
# forward pass


def test_hidden_permutation_preserves_function():
    # relabeling hidden units (rows of W0, entries of b0, columns of W1)
    # must not change the network function
    topo = LayerTopology((3, 5, 2), beta=2.22)
    params = glorot_init(topo, seed=3)
    perm = np.array([2, 0, 4, 1, 3])
    twin = MLPParams(params.topology, params.weights, params.biases)
    twin.weights[0][:] = twin.weights[0][perm]
    twin.biases[0][:] = twin.biases[0][perm]
    twin.weights[1][:] = twin.weights[1][:, perm]
    x = np.random.default_rng(4).normal(size=(7, 3))
    assert np.allclose(forward(params, x)[-1], forward(twin, x)[-1], atol=1e-14)


def test_single_unit_chain_reproduces_activation_value():
    topo = LayerTopology((1, 1, 1), beta=4.1)
    params = MLPParams(
        topology=topo,
        weights=[np.array([[1.0]]), np.array([[1.0]])],
        biases=[np.zeros(1), np.zeros(1)],
    )
    out = forward(params, np.array([0.5]))[-1]
    assert out[0, 0] == pytest.approx(0.967395001257118, abs=1e-6)


def test_zero_weights_output_equals_final_bias():
    topo = LayerTopology((2, 3, 2), beta=2.22)
    b_out = np.array([0.4, -1.3])
    params = MLPParams(
        topology=topo,
        weights=[np.zeros((3, 2)), np.zeros((2, 3))],
        biases=[np.array([0.5, -0.2, 1.0]), b_out],
    )
    y = forward(params, np.random.default_rng(5).normal(size=(4, 2)))[-1]
    assert np.array_equal(y, np.tile(b_out, (4, 1)))


def test_zero_input_without_bias_gives_zero_output():
    topo = LayerTopology((2, 3, 2), beta=2.22, use_bias=False)
    params = glorot_init(topo, seed=2)
    assert np.all(forward(params, np.zeros((3, 2)))[-1] == 0.0)


def test_forward_rejects_wrong_input_width():
    params = glorot_init(LayerTopology((3, 2), beta=2.22), seed=0)
    with pytest.raises(ShapeMismatch):
        forward(params, np.zeros((4, 2)))


def test_topology_validation():
    with pytest.raises(ValidationError):
        LayerTopology((3,), beta=2.22)
    with pytest.raises(ValidationError):
        LayerTopology((3, 0, 1), beta=2.22)
    with pytest.raises(ValidationError):
        LayerTopology((3, 2), beta=0.0)
    with pytest.raises(ValidationError):
        LayerTopology((3, 2), beta=2.22, output_beta=-1.0)
    with pytest.raises(ValidationError, match="integers"):
        LayerTopology((3, 2.5, 1), beta=2.22)
    with pytest.raises(ValidationError, match="use_bias"):
        LayerTopology((3, 2), beta=2.22, use_bias=None)
    with pytest.raises(ValidationError, match="numbers"):
        LayerTopology((3, 2), beta=True)
    assert LayerTopology(np.array([3, 2]), beta=2.22).sizes == (3, 2)


def test_params_flat_holds_weights_then_biases():
    topo = LayerTopology((2, 3, 1), beta=2.22)
    weights = [np.arange(6.0).reshape(3, 2), np.arange(6.0, 9.0).reshape(1, 3)]
    biases = [np.arange(9.0, 12.0), np.array([12.0])]
    params = MLPParams(topology=topo, weights=weights, biases=biases)
    assert topo.n_weights == 9
    assert np.array_equal(params.flat, np.arange(13.0))
    # weights and biases are views: writing flat moves them, the inputs stay
    params.flat += 100.0
    assert params.weights[1][0, 2] == 108.0 and params.biases[0][1] == 110.0
    assert weights[1][0, 2] == 8.0
    w_views, b_views = params.unflatten(params.flat)
    assert all(np.shares_memory(v, params.flat) for v in w_views + b_views)
    twin = MLPParams(params.topology, params.weights, params.biases)
    twin.flat[0] = -1.0
    assert params.flat[0] == 100.0 and twin.weights[0][0, 0] == -1.0


def test_params_shape_validation():
    topo = LayerTopology((2, 3), beta=2.22)
    with pytest.raises(ShapeMismatch):
        MLPParams(topology=topo, weights=[np.zeros((2, 3))], biases=[np.zeros(3)])
    with pytest.raises(ShapeMismatch):
        MLPParams(topology=topo, weights=[np.zeros((3, 2))], biases=[np.zeros(2)])


# ---------------------------------------------------------------------------
# losses


def test_mse_arithmetic():
    assert mse(np.array([1.0, 2.0]), np.array([0.0, 0.0])) == pytest.approx(2.5)
    assert mse(np.zeros((3, 2)), np.zeros((3, 2))) == 0.0
    with pytest.raises(ShapeMismatch):
        mse(np.zeros(3), np.zeros(4))


def test_mape_arithmetic_per_column():
    pred = np.array([[1.1, 1.9], [0.9, 2.1]])
    truth = np.array([[1.0, 2.0], [1.0, 2.0]])
    out = mape(pred, truth)
    assert out == pytest.approx([10.0, 5.0])


def test_mape_rejects_zero_targets():
    with pytest.raises(MapeUndefined):
        mape(np.array([[1.0]]), np.array([[0.0]]))


# ---------------------------------------------------------------------------
# optimizers


def test_sgd_step_is_exact_update():
    topo = LayerTopology((2, 3, 1), beta=2.22)
    params = glorot_init(topo, seed=1)
    before = MLPParams(params.topology, params.weights, params.biases)
    x = np.random.default_rng(6).normal(size=(4, 2))
    y = np.random.default_rng(7).normal(size=(4, 1))
    grads = backward(params, forward(params, x), y)
    kind = OptimizerKind("sgd", learning_rate=0.1)
    optimizer_step(kind, init_optimizer_state(params), params, grads, t=1)
    assert np.array_equal(params.flat, before.flat + (-0.1) * grads)


def test_adam_first_step_magnitude_is_learning_rate():
    # at t=1 the bias-corrected moments give |delta| = lr*|g|/(|g|+eps)
    topo = LayerTopology((3, 4, 2), beta=2.22)
    params = glorot_init(topo, seed=10)
    before = MLPParams(params.topology, params.weights, params.biases)
    rng = np.random.default_rng(8)
    shape = params.flat.shape
    grads = rng.uniform(0.01, 1.0, shape) * rng.choice([-1, 1], shape)
    kind = OptimizerKind("adam")
    optimizer_step(kind, init_optimizer_state(params), params, grads, t=1)
    step = params.flat - before.flat
    assert np.all(np.abs(step) >= 0.00099) and np.all(np.abs(step) <= 0.001)
    assert np.all(np.sign(step) == -np.sign(grads))


def test_adamax_tracks_max_of_decayed_norm():
    topo = LayerTopology((1, 1), beta=2.22)
    params = MLPParams(topology=topo, weights=[np.array([[0.0]])], biases=[np.zeros(1)])
    kind = OptimizerKind("adamax")
    state = init_optimizer_state(params)
    optimizer_step(kind, state, params, np.array([1.0, 0.0]), t=1)
    assert state.v[0] == pytest.approx(1.0)
    optimizer_step(kind, state, params, np.array([0.1, 0.0]), t=2)
    # max(0.999 * 1.0, 0.1): the decayed running max wins over the new |g|
    assert state.v[0] == pytest.approx(0.999)


def test_nadam_differs_from_adam():
    topo = LayerTopology((2, 3, 1), beta=2.22)
    x = np.random.default_rng(9).normal(size=(6, 2))
    y = np.random.default_rng(10).normal(size=(6, 1))
    finals = {}
    for name in ("adam", "nadam"):
        params = glorot_init(topo, seed=4)
        kind = OptimizerKind(name)
        state = init_optimizer_state(params)
        for t in (1, 2):
            grads = backward(params, forward(params, x), y)
            optimizer_step(kind, state, params, grads, t)
        finals[name] = params
    assert not np.allclose(finals["adam"].weights[0], finals["nadam"].weights[0],
                           atol=1e-12)


def test_default_learning_rates():
    assert DEFAULT_LR == {"sgd": 0.01, "adam": 0.001, "adamax": 0.001, "nadam": 0.001}
    assert OptimizerKind("sgd").lr == 0.01
    assert OptimizerKind("adam").lr == 0.001
    assert OptimizerKind("adam", learning_rate=0.5).lr == 0.5


@pytest.mark.parametrize("lr", [0.0, -1.0, float("nan"), float("inf")])
def test_learning_rate_must_be_finite_and_positive(lr):
    with pytest.raises(ValidationError):
        OptimizerKind("adam", learning_rate=lr)
    with pytest.raises(ValidationError):
        Hyperparams(hidden_layers=1, hidden_size=4, epochs=1, batch_size=8, learning_rate=lr)


def test_optimizer_validation():
    with pytest.raises(ValidationError):
        OptimizerKind("rmsprop")
    topo = LayerTopology((1, 1), beta=2.22)
    params = glorot_init(topo, seed=0)
    kind = OptimizerKind("sgd")
    with pytest.raises(ValidationError):
        optimizer_step(kind, init_optimizer_state(params), params, np.zeros(2), t=0)


@pytest.mark.parametrize("name", OPTIMIZER_NAMES)
def test_zero_bias_gradient_keeps_bias_positive_zero(name):
    # without biases their gradient is zero; every optimizer must leave +0.0
    # bit for bit (a -0.0 would change the bytes of model.json)
    topo = LayerTopology((3, 4, 2), beta=2.22, use_bias=False)
    params = glorot_init(topo, seed=3)
    rng = np.random.default_rng(31)
    x, y = rng.normal(size=(6, 3)), rng.normal(size=(6, 2))
    kind = OptimizerKind(name)
    state = init_optimizer_state(params)
    for t in (1, 2, 3):
        optimizer_step(kind, state, params, backward(params, forward(params, x), y, l1=1e-4), t)
    n_w = topo.n_weights
    assert not np.array_equal(params.flat[:n_w], glorot_init(topo, seed=3).flat[:n_w])
    assert params.flat[n_w:].tobytes() == bytes(8 * (params.flat.size - n_w))


# ---------------------------------------------------------------------------
# training loop


def toy_linear_data(n=64, seed=20):
    rng = np.random.default_rng(seed)
    x = rng.uniform(-1.0, 1.0, size=(n, 2))
    y = x @ np.array([[0.7], [-0.4]])
    return x, y


def test_training_fits_linear_map():
    x, y = toy_linear_data()
    hyper = Hyperparams(hidden_layers=1, hidden_size=8, epochs=200, batch_size=16,
                        optimizer="sgd", learning_rate=0.05, seed=0)
    topo = build_topology(2, 1, hyper, beta=2.22)
    _, report = train(TrainSet(x_train=x, y_train=y), topo, hyper)
    assert report.final_train_mse < 1e-3
    assert report.final_train_mse < report.initial_train_mse / 100.0
    assert len(report.train_mse) == 200
    assert report.test_mse is None and report.final_test_mse is None


def test_training_reports_test_metrics():
    x, y = toy_linear_data(n=50)
    data = TrainSet(x_train=x[:40], y_train=y[:40], x_test=x[40:], y_test=y[40:])
    hyper = Hyperparams(hidden_layers=1, hidden_size=4, epochs=3, batch_size=10, seed=1)
    topo = build_topology(2, 1, hyper, beta=2.22)
    params, report = train(data, topo, hyper)
    assert report.test_mse is not None and len(report.test_mse) == 3
    assert report.final_test_mse == report.test_mse[-1]
    expect = mse(forward(params, x[40:])[-1], y[40:])
    assert report.final_test_mse == pytest.approx(expect, rel=1e-12)


def test_training_mape_skipped_on_zero_targets():
    x, y = toy_linear_data(n=30)
    y = y.copy()
    y[-1] = 0.0
    data = TrainSet(x_train=x[:20], y_train=y[:20], x_test=x[20:], y_test=y[20:])
    hyper = Hyperparams(hidden_layers=1, hidden_size=3, epochs=2, batch_size=10, seed=0)
    _, report = train(data, topo := build_topology(2, 1, hyper, beta=2.22), hyper)
    assert report.mape is None


def test_l2_penalty_shrinks_weight_norm():
    x, y = toy_linear_data(n=48, seed=21)
    norms = []
    for l2 in (0.0, 0.01, 0.3):
        finals = []
        for seed in range(5):
            hyper = Hyperparams(hidden_layers=1, hidden_size=6, epochs=40,
                                batch_size=16, optimizer="adam", l2=l2, seed=seed)
            topo = build_topology(2, 1, hyper, beta=2.22)
            params, _ = train(TrainSet(x_train=x, y_train=y), topo, hyper)
            finals.append(np.sqrt(sum(float(np.sum(w * w)) for w in params.weights)))
        norms.append(float(np.median(finals)))
    assert norms[1] <= norms[0] * 1.01
    assert norms[2] < norms[0]


def test_training_raises_on_divergence():
    x, y = toy_linear_data(n=32)
    hyper = Hyperparams(hidden_layers=1, hidden_size=8, epochs=50, batch_size=32,
                        optimizer="sgd", learning_rate=1e6, seed=0)
    topo = build_topology(2, 1, hyper, beta=2.22)
    with pytest.raises(NonFinite):
        train(TrainSet(x_train=x, y_train=y * 1e3), topo, hyper)


def test_hyperparams_validation():
    with pytest.raises(ValidationError):
        Hyperparams(hidden_layers=1, hidden_size=4, epochs=0, batch_size=8)
    with pytest.raises(ValidationError):
        Hyperparams(hidden_layers=0, hidden_size=4, epochs=1, batch_size=8)
    with pytest.raises(ValidationError):
        Hyperparams(hidden_layers=1, hidden_size=4, epochs=1, batch_size=8, l1=-0.1)
    with pytest.raises(ValidationError):
        Hyperparams(hidden_layers=1, hidden_size=4, epochs=1, batch_size=8,
                    optimizer="lbfgs")
    with pytest.raises(ValidationError, match="seed"):
        Hyperparams(hidden_layers=1, hidden_size=4, epochs=1, batch_size=8, seed=-1)


def test_presets():
    t3 = preset("table3")
    assert (t3.hidden_layers, t3.hidden_size, t3.epochs, t3.batch_size) == (7, 10, 50, 50)
    assert t3.optimizer == "adam" and t3.l1 == 0.0 and t3.l2 == 0.0
    t4 = preset("table4")
    assert (t4.hidden_layers, t4.hidden_size, t4.epochs, t4.batch_size) == (10, 50, 600, 50)
    assert t4.optimizer == "adamax" and t4.l1 == 0.0001 and t4.l2 == 0.0001
    assert set(PRESETS) == {"table3", "table4"}
    with pytest.raises(ValidationError):
        preset("table5")


def test_build_topology_sizes():
    hyper = Hyperparams(hidden_layers=3, hidden_size=7, epochs=1, batch_size=1)
    topo = build_topology(4, 5, hyper, beta=3.0, output_beta=1.5, use_bias=False)
    assert topo.sizes == (4, 7, 7, 7, 5)
    assert topo.beta == 3.0 and topo.output_beta == 1.5 and topo.use_bias is False


# ---------------------------------------------------------------------------
# evaluation and artifacts


def test_evaluate_matches_training_report():
    x, y = toy_linear_data(n=50, seed=22)
    data = TrainSet(x_train=x[:40], y_train=y[:40], x_test=x[40:], y_test=y[40:])
    hyper = Hyperparams(hidden_layers=1, hidden_size=5, epochs=4, batch_size=10, seed=2)
    params, report = train(data, build_topology(2, 1, hyper, beta=2.22), hyper)
    out = evaluate(params, x[40:], y[40:])
    assert out.mse == pytest.approx(report.final_test_mse, rel=1e-12)
    assert out.mape == pytest.approx(report.mape)


def test_evaluate_overflow_gives_inf_without_a_warning():
    # pyproject.toml turns warnings into errors; the inf is the caller's to
    # report. The predictions of about 1e300 stay finite, and so does MAPE
    x, y = toy_linear_data(n=20, seed=25)
    hyper = Hyperparams(hidden_layers=1, hidden_size=3, epochs=1, batch_size=10, seed=0)
    params, _ = train(TrainSet(x_train=x, y_train=y), build_topology(2, 1, hyper, beta=2.22), hyper)
    params.weights[-1][...] = 1e300
    out = evaluate(params, x, y)
    assert out.mse == math.inf and np.isfinite(out.mape).all()


def test_write_epoch_log_format(tmp_path):
    x, y = toy_linear_data(n=30, seed=23)
    data = TrainSet(x_train=x[:24], y_train=y[:24], x_test=x[24:], y_test=y[24:])
    hyper = Hyperparams(hidden_layers=1, hidden_size=3, epochs=2, batch_size=8, seed=0)
    _, report = train(data, build_topology(2, 1, hyper, beta=2.22), hyper)
    path = tmp_path / "log.csv"
    write_epoch_log(report, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "epoch,train_mse,val_mse"
    assert len(lines) == 3
    for i, line in enumerate(lines[1:]):
        epoch, tr, val = line.split(",")
        assert int(epoch) == i + 1
        assert float(tr) == report.train_mse[i]
        assert float(val) == report.test_mse[i]


def test_write_epoch_log_without_test_set(tmp_path):
    x, y = toy_linear_data(n=20, seed=24)
    hyper = Hyperparams(hidden_layers=1, hidden_size=3, epochs=2, batch_size=8, seed=0)
    _, report = train(TrainSet(x_train=x, y_train=y),
                      build_topology(2, 1, hyper, beta=2.22), hyper)
    path = tmp_path / "log.csv"
    write_epoch_log(report, path)
    lines = path.read_text().splitlines()
    assert lines[1].endswith(",") and lines[2].endswith(",")


def test_model_round_trip_is_byte_identical(tmp_path):
    topo = LayerTopology((3, 6, 2), beta=2.78, output_beta=None, use_bias=True)
    params = glorot_init(topo, seed=13)
    scalers = {"inputs": {"kind": "minmax", "lo": [0.0], "hi": [1.0]}, "targets": None}
    first = tmp_path / "model.json"
    second = tmp_path / "again.json"
    save_model(params, scalers, first)
    loaded, got_scalers = load_model(first)
    save_model(loaded, got_scalers, second)
    assert first.read_bytes() == second.read_bytes()
    assert got_scalers == scalers
    x = np.random.default_rng(14).normal(size=(5, 3))
    assert np.array_equal(forward(params, x)[-1], forward(loaded, x)[-1])


def test_load_model_rejects_truncation_and_versions(tmp_path):
    topo = LayerTopology((2, 2), beta=2.22)
    params = glorot_init(topo, seed=0)
    path = tmp_path / "model.json"
    save_model(params, None, path)
    text = path.read_text()

    broken = tmp_path / "broken.json"
    broken.write_text(text[: len(text) // 2])
    with pytest.raises(ParseError):
        load_model(broken)

    doc = json.loads(text)
    doc["format_version"] = 99
    stale = tmp_path / "stale.json"
    stale.write_text(json.dumps(doc))
    with pytest.raises(VersionMismatch):
        load_model(stale)

    del doc["format_version"]
    missing = tmp_path / "missing.json"
    missing.write_text(json.dumps(doc))
    with pytest.raises(VersionMismatch):
        load_model(missing)


# ---------------------------------------------------------------------------
# initialization


def test_glorot_bounds_and_moments():
    topo = LayerTopology((300, 300), beta=2.22)
    params = glorot_init(topo, seed=17)
    w = params.weights[0]
    limit = np.sqrt(6.0 / 600.0)
    assert np.abs(w).max() <= limit
    assert w.min() < -0.9 * limit and w.max() > 0.9 * limit
    assert abs(w.mean()) < 5.0 * limit / np.sqrt(3.0 * w.size)
    assert np.var(w) == pytest.approx(limit**2 / 3.0, rel=0.02)
    assert np.all(params.biases[0] == 0.0)


def test_glorot_is_seeded():
    topo = LayerTopology((4, 3), beta=2.22)
    a = glorot_init(topo, seed=1)
    b = glorot_init(topo, seed=1)
    c = glorot_init(topo, seed=2)
    assert np.array_equal(a.weights[0], b.weights[0])
    assert not np.array_equal(a.weights[0], c.weights[0])


# ---------------------------------------------------------------------------
# per-layer reference: forward, backward, optimizer step and training loop on
# separate per-layer weight and bias arrays, with the moments as four lists,
# tanh' recomputed from the pre-activations and every step a new array. The
# flat-vector, in-place path must reproduce it bit for bit.


def ref_forward(topo, weights, biases, x):
    """Input batch, pre-activations and activations of every layer."""
    out = np.atleast_2d(np.asarray(x, dtype=float))
    x0, pre, post = out, [], []
    last = topo.n_layers - 1
    for l, (w, b) in enumerate(zip(weights, biases)):
        z = out @ w.T
        if topo.use_bias:
            z = z + b
        pre.append(z)
        if l < last:
            out = np.tanh(topo.beta * z)
        elif topo.output_beta is not None:
            out = np.tanh(topo.output_beta * z)
        else:
            out = z
        post.append(out)
    return x0, pre, post


def ref_deriv(z, beta):
    b = float(beta)
    t = np.tanh(b * z)
    return b * (1.0 - t * t)


def ref_backward(topo, weights, biases, trace, targets, l1, l2):
    x0, pre, post = trace
    t = np.atleast_2d(targets)
    y = post[-1]
    delta = (y - t) * (2.0 / (y.shape[0] * topo.n_outputs))
    if topo.output_beta is not None:
        delta = delta * ref_deriv(pre[-1], topo.output_beta)
    g_w, g_b = [None] * topo.n_layers, [None] * topo.n_layers
    for l in range(topo.n_layers - 1, -1, -1):
        prev = x0 if l == 0 else post[l - 1]
        g_w[l] = delta.T @ prev
        g_b[l] = delta.sum(axis=0) if topo.use_bias else np.zeros_like(biases[l])
        if l > 0:
            delta = (delta @ weights[l]) * ref_deriv(pre[l - 1], topo.beta)
    if l1 or l2:
        for l, w in enumerate(weights):
            g_w[l] = g_w[l] + l1 * np.sign(w) + 2.0 * l2 * w
    return g_w, g_b


def ref_update(kind, t, g, m, v):
    """The optimizer formulas written out, each delta a new array."""
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
    m_hat = m / (1.0 - b1 ** (t + 1))
    g_hat = g / (1.0 - b1**t)
    return -lr * (b1 * m_hat + (1.0 - b1) * g_hat) / (np.sqrt(v_hat) + eps)


def ref_optimizer_step(kind, state, topo, weights, biases, g_w, g_b, t):
    m_w, v_w, m_b, v_b = state
    for l in range(topo.n_layers):
        weights[l] += ref_update(kind, t, g_w[l], m_w[l], v_w[l])
        if topo.use_bias:
            biases[l] += ref_update(kind, t, g_b[l], m_b[l], v_b[l])


def ref_train(data, topo, hyper):
    """Per-layer weights, biases, and train and test MSE after every epoch."""
    init = glorot_init(topo, hyper.seed)
    weights = [w.copy() for w in init.weights]
    biases = [b.copy() for b in init.biases]
    state = tuple([np.zeros_like(a) for a in arrs] for arrs in (weights, weights, biases, biases))
    kind = OptimizerKind(hyper.optimizer, learning_rate=hyper.learning_rate)
    shuffle_rng = np.random.default_rng([hyper.seed, 1])
    x, y = data.x_train, data.y_train
    train_log, test_log = [], []
    t = 0
    for _ in range(hyper.epochs):
        perm = shuffle_rng.permutation(x.shape[0])
        for lo in range(0, x.shape[0], hyper.batch_size):
            sel = perm[lo: lo + hyper.batch_size]
            trace = ref_forward(topo, weights, biases, x[sel])
            g_w, g_b = ref_backward(topo, weights, biases, trace, y[sel], hyper.l1, hyper.l2)
            t += 1
            ref_optimizer_step(kind, state, topo, weights, biases, g_w, g_b, t)
        train_log.append(mse(ref_forward(topo, weights, biases, x)[2][-1], y))
        test_log.append(mse(ref_forward(topo, weights, biases, data.x_test)[2][-1], data.y_test))
    return weights, biases, train_log, test_log


def assert_training_matches_reference(data, topo, hyper):
    params, report = train(data, topo, hyper)
    weights, biases, train_log, test_log = ref_train(data, topo, hyper)
    for got, want in zip(params.weights + params.biases, weights + biases):
        assert got.tobytes() == want.tobytes()
    assert report.train_mse == train_log
    assert report.test_mse == test_log


@pytest.mark.parametrize("optimizer", OPTIMIZER_NAMES)
@pytest.mark.parametrize("use_bias", [True, False], ids=["bias", "no-bias"])
@pytest.mark.parametrize("output_beta", [None, 1.5], ids=["linear-out", "tanh-out"])
@pytest.mark.parametrize("penalty", [0.0, 1e-4], ids=["plain", "l1l2"])
def test_training_bitwise_equals_per_layer_reference(optimizer, use_bias, output_beta, penalty):
    rng = np.random.default_rng(40)
    x = rng.uniform(-1.0, 1.0, size=(45, 3))
    y = 0.8 * np.tanh(x @ rng.normal(size=(3, 2)))
    data = TrainSet(x_train=x[:37], y_train=y[:37], x_test=x[37:], y_test=y[37:])
    hyper = Hyperparams(hidden_layers=2, hidden_size=6, epochs=4, batch_size=10,
                        optimizer=optimizer, l1=penalty, l2=penalty, seed=2)
    topo = build_topology(3, 2, hyper, beta=3.33, output_beta=output_beta, use_bias=use_bias)
    assert_training_matches_reference(data, topo, hyper)


@pytest.mark.parametrize("optimizer, hidden_layers, penalty",
                         [("adam", 7, 0.0), ("adamax", 10, 1e-4)])
def test_training_bitwise_equals_per_layer_reference_at_table3_shape(optimizer, hidden_layers,
                                                                     penalty):
    # the benchmark's shape: 10 inputs, 10-unit hidden layers, 5 outputs,
    # batch 50; 160 rows leave a remainder batch of 10
    rng = np.random.default_rng(41)
    x = rng.uniform(-1.0, 1.0, size=(190, 10))
    y = 0.8 * np.tanh(x @ rng.normal(size=(10, 5)) / 3.0)
    data = TrainSet(x_train=x[:160], y_train=y[:160], x_test=x[160:], y_test=y[160:])
    hyper = Hyperparams(hidden_layers=hidden_layers, hidden_size=10, epochs=3, batch_size=50,
                        optimizer=optimizer, l1=penalty, l2=penalty, seed=3)
    topo = build_topology(10, 5, hyper, beta=2.22)
    assert_training_matches_reference(data, topo, hyper)


def test_topology_runs_group_consecutive_equal_widths():
    assert LayerTopology((10, *[10] * 7, 5)).runs == ((0, 7),)
    assert LayerTopology((3, 5, 4, 2)).runs == ((0, 1), (1, 1))
    assert LayerTopology((3, 6, 5, 5, 4, 4, 4, 2)).runs == ((0, 1), (1, 2), (3, 3))
    assert LayerTopology((3, 4, 3, 4, 4, 2)).runs == ((0, 1), (1, 1), (2, 2))
    assert LayerTopology((3, 2)).runs == ()


# hidden runs of 1, 2 and 3 layers; 37 rows in batches of 10 leave a remainder of 7
MIXED_RUNS = (3, 6, 5, 5, 4, 4, 4, 2)


def mixed_data(seed=43):
    rng = np.random.default_rng(seed)
    x = rng.uniform(-1.0, 1.0, size=(45, 3))
    y = 0.8 * np.tanh(x @ rng.normal(size=(3, 2)))
    return TrainSet(x_train=x[:37], y_train=y[:37], x_test=x[37:], y_test=y[37:])


@pytest.mark.parametrize("optimizer", OPTIMIZER_NAMES)
@pytest.mark.parametrize("use_bias", [True, False], ids=["bias", "no-bias"])
@pytest.mark.parametrize("output_beta", [None, 1.5], ids=["linear-out", "tanh-out"])
@pytest.mark.parametrize("penalty", [0.0, 1e-4], ids=["plain", "l1l2"])
def test_stacked_runs_bitwise_equal_per_layer_reference(optimizer, use_bias, output_beta, penalty):
    # train and ref_train take the layer sizes from the topology, not hyper
    hyper = Hyperparams(hidden_layers=1, hidden_size=1, epochs=4, batch_size=10,
                        optimizer=optimizer, l1=penalty, l2=penalty, seed=4)
    topo = LayerTopology(MIXED_RUNS, beta=2.78, output_beta=output_beta, use_bias=use_bias)
    assert_training_matches_reference(mixed_data(), topo, hyper)


def test_training_without_hidden_layers_bitwise_equals_reference():
    hyper = Hyperparams(hidden_layers=1, hidden_size=1, epochs=3, batch_size=10, seed=5)
    assert_training_matches_reference(mixed_data(), LayerTopology((3, 2), beta=2.22), hyper)


# shapes where a 2-D product may leave gemm for gemv, dot or a scalar product:
# sizes, training rows (of mixed_data's 37) and batch size; 31 rows in
# batches of 10 leave a 1-row remainder batch
EDGE_SHAPES = {
    "one-output": ((3, 4, 1), 31, 10),
    "width-1": ((3, 1, 1, 2), 31, 10),
    "1-row-remainder": (MIXED_RUNS, 31, 10),
    "batch-over-split": (MIXED_RUNS, 37, 50),
}


@pytest.mark.parametrize("shape", EDGE_SHAPES)
@pytest.mark.parametrize("optimizer", OPTIMIZER_NAMES)
@pytest.mark.parametrize("use_bias", [True, False], ids=["bias", "no-bias"])
@pytest.mark.parametrize("output_beta", [None, 1.5], ids=["linear-out", "tanh-out"])
@pytest.mark.parametrize("penalty", [0.0, 1e-4], ids=["plain", "l1l2"])
def test_edge_shapes_bitwise_equal_per_layer_reference(shape, optimizer, use_bias, output_beta,
                                                       penalty):
    sizes, rows, batch_size = EDGE_SHAPES[shape]
    data = mixed_data(seed=46)
    data.x_train, data.y_train = data.x_train[:rows], data.y_train[:rows, :sizes[-1]]
    data.y_test = data.y_test[:, :sizes[-1]]
    hyper = Hyperparams(hidden_layers=1, hidden_size=1, epochs=3, batch_size=batch_size,
                        optimizer=optimizer, l1=penalty, l2=penalty, seed=8)
    topo = LayerTopology(sizes, beta=2.78, output_beta=output_beta, use_bias=use_bias)
    assert_training_matches_reference(data, topo, hyper)


@pytest.mark.parametrize("optimizer, output_beta", [("sgd", None), ("nadam", 1.5)])
def test_stacked_run_bitwise_equals_reference_at_table3_shape(optimizer, output_beta):
    # one run of 7 hidden layers; 160 rows leave a remainder batch of 10
    rng = np.random.default_rng(44)
    x = rng.uniform(-1.0, 1.0, size=(190, 10))
    y = 0.8 * np.tanh(x @ rng.normal(size=(10, 5)) / 3.0)
    data = TrainSet(x_train=x[:160], y_train=y[:160], x_test=x[160:], y_test=y[160:])
    hyper = Hyperparams(hidden_layers=7, hidden_size=10, epochs=3, batch_size=50,
                        optimizer=optimizer, seed=6)
    assert_training_matches_reference(data, build_topology(10, 5, hyper, beta=2.22,
                                                           output_beta=output_beta), hyper)


@pytest.mark.parametrize("rows", [6, 1])
@pytest.mark.parametrize("use_bias", [True, False], ids=["bias", "no-bias"])
def test_reused_step_buffers_equal_fresh_ones(use_bias, rows):
    # two steps through one buffer set, whose gradient vector the second step
    # overwrites, against two steps on new arrays; without biases the bias
    # gradient must stay +0.0 bit for bit
    topo = LayerTopology(MIXED_RUNS, beta=3.33, output_beta=1.5, use_bias=use_bias)
    reused, fresh = glorot_init(topo, seed=7), glorot_init(topo, seed=7)
    buffers = neuralnet._StepBuffers(reused, rows, np.zeros(reused.flat.shape))
    states = init_optimizer_state(reused), init_optimizer_state(fresh)
    rng = np.random.default_rng(45)
    for t in (1, 2):
        x, y = rng.normal(size=(rows, 3)), rng.normal(size=(rows, 2))
        acts = forward(reused, x, buffers)
        got = backward(reused, acts, y, l1=1e-4, l2=1e-4, buffers=buffers)
        want = backward(fresh, forward(fresh, x), y, l1=1e-4, l2=1e-4)
        assert got is buffers.grad and got.tobytes() == want.tobytes()
        if not use_bias:
            assert got[topo.n_weights:].tobytes() == bytes(8 * (got.size - topo.n_weights))
        optimizer_step(OptimizerKind("adam"), states[0], reused, got, t)
        optimizer_step(OptimizerKind("adam"), states[1], fresh, want, t)
        assert reused.flat.tobytes() == fresh.flat.tobytes()


def test_buffered_step_allocates_less_than_one_parameter_vector():
    # table4's shape and penalties: after one warm step, forward, backward and
    # the adamax update write only into the step's buffers and the optimizer's
    # scratch, so no step allocates a parameter-sized array, not even one the
    # size of the weight slice (the l1/l2 term)
    hyper = preset("table4")
    topo = build_topology(10, 5, hyper, beta=2.22)
    params = glorot_init(topo, seed=9)
    rng = np.random.default_rng(47)
    x, y = rng.normal(size=(hyper.batch_size, 10)), rng.normal(size=(hyper.batch_size, 5))
    buffers = neuralnet._StepBuffers(params, hyper.batch_size, np.zeros(params.flat.shape))
    kind, state = OptimizerKind(hyper.optimizer), init_optimizer_state(params)

    def step(t):
        acts = forward(params, x, buffers)
        grad = backward(params, acts, y, l1=hyper.l1, l2=hyper.l2, buffers=buffers)
        optimizer_step(kind, state, params, grad, t)

    step(1)
    tracemalloc.start()
    try:
        for t in (2, 3, 4):
            step(t)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < params.flat[:topo.n_weights].nbytes < params.flat.nbytes


@pytest.mark.parametrize("optimizer", OPTIMIZER_NAMES)
def test_training_step_leaves_its_inputs_and_views_intact(optimizer):
    # forward, backward and the optimizer work in place on arrays of their
    # own; none may write into its inputs or hand out a shared buffer
    topo = LayerTopology((3, 5, 4, 2), beta=2.78, output_beta=1.5)
    params = glorot_init(topo, seed=4)
    rng = np.random.default_rng(42)
    x, y = rng.normal(size=(6, 3)), rng.normal(size=(6, 2))
    x_bytes, flat_bytes = x.tobytes(), params.flat.tobytes()
    acts = forward(params, x)
    assert x.tobytes() == x_bytes and params.flat.tobytes() == flat_bytes
    acts_bytes = [a.tobytes() for a in acts]
    first = backward(params, acts, y, l1=1e-4, l2=1e-4)
    first_bytes = first.tobytes()
    assert [a.tobytes() for a in acts] == acts_bytes
    second = backward(params, forward(params, x[::-1]), y, l1=1e-4, l2=1e-4)
    assert not np.shares_memory(first, second) and not np.array_equal(first, second)
    assert first.tobytes() == first_bytes and params.flat.tobytes() == flat_bytes
    state = init_optimizer_state(params)
    for t in (1, 2):
        optimizer_step(OptimizerKind(optimizer), state, params, first, t)
    assert first.tobytes() == first_bytes and params.flat.tobytes() != flat_bytes
    for got, want in zip(params.weights + params.biases, sum(params.unflatten(params.flat), [])):
        assert np.shares_memory(got, params.flat) and got.tobytes() == want.tobytes()


def test_train_reaches_the_step_functions_through_module_globals(monkeypatch):
    # the benchmark's spans wrap neuralnet.forward/backward/optimizer_step as
    # module attributes, so train must look them up there on every call
    counts = dict.fromkeys(("forward", "backward", "optimizer_step"), 0)
    for name in counts:
        def counted(*args, _name=name, _fn=getattr(neuralnet, name), **kwargs):
            counts[_name] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(neuralnet, name, counted)
    x, y = toy_linear_data(n=57)
    data = TrainSet(x_train=x[:47], y_train=y[:47], x_test=x[47:], y_test=y[47:])
    epochs, steps = 3, 5  # 47 rows in batches of 10
    hyper = Hyperparams(hidden_layers=2, hidden_size=4, epochs=epochs, batch_size=10, seed=0)
    train(data, build_topology(2, 1, hyper, beta=2.22), hyper)
    # initial MSE, one per step, train and test MSE per epoch, final evaluate
    assert counts == {"forward": 1 + epochs * steps + 2 * epochs + 1,
                      "backward": epochs * steps, "optimizer_step": epochs * steps}


@pytest.mark.parametrize("field, bad", [("sizes", [2, 3.7, 1]), ("sizes", [2, True, 1]),
                                        ("sizes", [2, "3", 1]), ("use_bias", "no"),
                                        ("use_bias", 1), ("beta", True), ("output_beta", True)])
def test_load_model_rejects_malformed_topology(field, bad, tmp_path):
    path = tmp_path / "model.json"
    save_model(glorot_init(LayerTopology((2, 3, 1), beta=2.22), seed=0), None, path)
    doc = json.loads(path.read_text())
    doc["topology"][field] = bad
    path.write_text(json.dumps(doc))
    with pytest.raises(ParseError, match="model.json"):
        load_model(path)


def test_load_model_weight_shape_error_names_the_file(tmp_path):
    path = tmp_path / "model.json"
    save_model(glorot_init(LayerTopology((2, 3, 1), beta=2.22), seed=0), None, path)
    doc = json.loads(path.read_text())
    doc["weights"][0] = doc["weights"][0][:-1]
    path.write_text(json.dumps(doc))
    with pytest.raises(ShapeMismatch, match=r"model\.json: layer 0: weight shape \(2, 2\)"):
        load_model(path)


@pytest.mark.parametrize("field, bad", [("weights", math.nan), ("biases", -math.inf),
                                        ("beta", math.inf)])
def test_load_model_rejects_non_finite_numbers(field, bad, tmp_path):
    path = tmp_path / "model.json"
    save_model(glorot_init(LayerTopology((2, 3, 1), beta=2.22), seed=0), None, path)
    doc = json.loads(path.read_text())
    if field == "weights":
        doc["weights"][1][0][2] = bad
    elif field == "biases":
        doc["biases"][0][1] = bad
    else:
        doc["topology"]["beta"] = bad
    path.write_text(json.dumps(doc))
    with pytest.raises(ParseError, match="model.json"):
        load_model(path)
