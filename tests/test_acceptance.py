"""End-to-end acceptance checks.

Each test covers one numbered criterion and prints a single pass/fail line
(visible with pytest -s or in the captured output of a failing run). The
expensive artifacts (transfer curves, the training grid) are computed once
per module and shared.
"""
import math
import time
from dataclasses import replace

import numpy as np
import pytest

from conftest import NETWORK_PATH
from test_neuralnet import fd_grads, grad_rel_error
from test_powerflow import fd_jacobian, max_rel_error, random_state

from qnpflow.activation import fit_beta
from qnpflow.dataset import fit_scaler, generate
from qnpflow.grid import NetworkModel, load_network
from qnpflow.neuralnet import (
    LayerTopology,
    TrainSet,
    backward,
    forward,
    glorot_init,
    preset,
    save_model,
    train,
    write_epoch_log,
)
from qnpflow.powerflow import (
    SolveOptions,
    StateVector,
    gauss_seidel_oracle,
    jacobian,
    mismatch,
    solve,
)
from qnpflow.qsim import (
    CollisionParams,
    DensityMatrix,
    PropagatorMode,
    ReservoirSpec,
    collide_once,
    collision_unitary,
    evolve_collisions,
    excited_state,
    ground_state,
    plus_state,
    steady_state_closed_form,
    transfer_curve,
)

BETAS = [2.22, 2.78, 3.33, 4.1]
PAPER_BETA_BY_SPIN = {0.5: 2.22, 1.0: 2.78, 1.5: 3.33, 2.5: 4.1}


def report(n, ok, detail):
    print(f"criterion {n}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {n}: {detail}"


@pytest.fixture(scope="module")
def net():
    return load_network(NETWORK_PATH)


# ---------------------------------------------------------------- 1


def test_criterion_1_base_case_power_flow(net):
    t0 = time.perf_counter()
    sol = solve(net, SolveOptions(tol=1e-8, max_iter=20))
    elapsed = time.perf_counter() - t0
    ref = gauss_seidel_oracle(net, tol=1e-12)
    dv = float(np.abs(sol.v_mag - ref.v_mag).max())
    dd = float(np.abs(sol.delta - ref.delta).max())
    ok = (sol.converged and sol.iterations <= 5
          and sol.mismatch_history[-1] < 1e-8
          and dv < 1e-6 and dd < 1e-6 and elapsed < 0.1)
    report(1, ok, f"{sol.iterations} iterations, final mismatch "
                  f"{sol.mismatch_history[-1]:.2e}, oracle |dV|={dv:.2e} pu, "
                  f"|dd|={dd:.2e} rad, {elapsed * 1e3:.1f} ms")


# ---------------------------------------------------------------- 2


def test_criterion_2_jacobian_vs_finite_differences(net):
    rng = np.random.default_rng(2)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(100):
        state = random_state(net, rng)
        err = max_rel_error(jacobian(state, net), fd_jacobian(state, net))
        worst = max(worst, float(err))
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-5 and elapsed < 5.0
    report(2, ok, f"100 states, worst relative entry error {worst:.2e}, {elapsed:.2f} s")


# ---------------------------------------------------------------- 3


def test_criterion_3_cptp_invariants():
    rng = np.random.default_rng(3)
    params = CollisionParams(tau=3.0, n_collisions=1, gamma=0.0,
                             propagator_mode=PropagatorMode.EXACT_EXPONENTIAL)
    worst_trace = 0.0
    worst_herm = 0.0
    eig_floor = np.inf
    for _ in range(1000):
        spec = ReservoirSpec(
            theta=rng.uniform(0.0, math.pi),
            phi=rng.uniform(0.0, 2.0 * math.pi),
            spin_j=rng.choice([0.5, 1.0, 1.5, 2.5]),
            g=rng.uniform(0.0, 0.05 / params.tau),
        )
        a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        rho = a @ a.conj().T
        probe = DensityMatrix(rho / np.trace(rho).real)
        u = collision_unitary(spec.g, spec.spin_j, params)
        out = collide_once(probe, spec, u, params).entries
        tr = np.trace(out)
        worst_trace = max(worst_trace, abs(float(tr.real) - 1.0), abs(float(tr.imag)))
        worst_herm = max(worst_herm, float(np.abs(out - out.conj().T).max()))
        eig_floor = min(eig_floor, float(np.linalg.eigvalsh(out).min()))
    ok = worst_trace < 1e-9 and worst_herm < 1e-10 and eig_floor >= -1e-9
    report(3, ok, f"1000 collisions: trace defect {worst_trace:.1e}, hermiticity "
                  f"defect {worst_herm:.1e}, eigenvalue floor {eig_floor:.1e}")


# ---------------------------------------------------------------- 4


def test_criterion_4_steady_state_closed_form():
    g = 0.01
    params = CollisionParams(tau=3.0, n_collisions=20000, gamma=0.0)
    t0 = time.perf_counter()

    configs = {
        "single theta=0": [ReservoirSpec(theta=0.0, g=g)],
        "single theta=pi": [ReservoirSpec(theta=math.pi, g=g)],
        "pair balanced": [ReservoirSpec(theta=0.0, g=g * math.sqrt(0.5)),
                          ReservoirSpec(theta=math.pi, g=g * math.sqrt(0.5))],
        "pair 0.8/0.2": [ReservoirSpec(theta=0.0, g=g * math.sqrt(0.8)),
                         ReservoirSpec(theta=math.pi, g=g * math.sqrt(0.2))],
    }
    worst_closed = 0.0
    for label, reservoirs in configs.items():
        result, _ = evolve_collisions(plus_state(), reservoirs, params)
        err = abs(result.sigma_z - steady_state_closed_form(reservoirs))
        worst_closed = max(worst_closed, err)

    # the asymmetric pair again from each starting state
    pair = configs["pair 0.8/0.2"]
    target = steady_state_closed_form(pair)
    finals = []
    for init in (excited_state(), ground_state(), plus_state()):
        result, _ = evolve_collisions(init, pair, params)
        finals.append(result.sigma_z)
    worst_init = max(abs(v - target) for v in finals)
    spread = max(finals) - min(finals)
    elapsed = time.perf_counter() - t0

    ok = worst_closed < 1e-3 and worst_init < 2e-3 and spread < 2e-3 and elapsed < 30.0
    report(4, ok, f"closed-form error {worst_closed:.2e}, init spread {spread:.2e}, "
                  f"worst init error {worst_init:.2e}, {elapsed:.1f} s")


# ---------------------------------------------------------------- 5


@pytest.fixture(scope="module")
def spin_curves():
    params = CollisionParams(tau=3.0, n_collisions=20000, gamma=0.0)
    t0 = time.perf_counter()
    curves = {j: transfer_curve(j, params, n_points=41, g=0.01)
              for j in (0.5, 1.0, 1.5, 2.5)}
    return curves, time.perf_counter() - t0


def test_criterion_5_steepness_ordering(spin_curves):
    curves, elapsed = spin_curves
    fits = {j: fit_beta(curves[j]).beta for j in sorted(curves)}
    values = [fits[j] for j in sorted(fits)]
    increasing = all(a < b for a, b in zip(values, values[1:]))
    soft_hits = sum(
        abs(fits[j] - PAPER_BETA_BY_SPIN[j]) <= 0.25 * PAPER_BETA_BY_SPIN[j]
        for j in fits
    )
    ok = increasing and elapsed < 300.0
    detail = ("fitted beta " + ", ".join(f"J={j}: {fits[j]:.4f}" for j in sorted(fits))
              + f"; strictly increasing={increasing}, soft targets hit {soft_hits}/4, "
              + f"{elapsed:.0f} s")
    report(5, ok, detail)


# ---------------------------------------------------------------- 6


def test_criterion_6_backprop_finite_differences():
    rng = np.random.default_rng(6)
    t0 = time.perf_counter()
    worst = 0.0
    for beta in (2.22, 4.1, 8.0):
        for l1, l2 in ((0.0, 0.0), (1e-4, 1e-4)):
            topo = LayerTopology((10, 50, 5), beta=beta)
            params = glorot_init(topo, seed=60)
            x = rng.normal(size=(8, 10))
            y = rng.normal(size=(8, 5))
            grads = backward(params, forward(params, x), y, l1=l1, l2=l2)
            err = grad_rel_error(grads, fd_grads(params, x, y, l1=l1, l2=l2))
            worst = max(worst, err)
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-6 and elapsed < 10.0
    report(6, ok, f"10-50-5 network, 6 configurations, worst relative error "
                  f"{worst:.2e}, {elapsed:.1f} s")


# ---------------------------------------------------------------- 7 and 9


def run_training_grid():
    """Criterion 7's full run: fixed dataset, minmax inputs, raw targets,
    table3 preset at 50 epochs, betas x seeds 0-4."""
    network = load_network(NETWORK_PATH)
    samples, _ = generate(network, 500, mult_range=(0.8, 1.2), seed=42)
    usable = samples[samples.converged]
    x, y = usable.inputs, usable.targets
    xs = fit_scaler(x, "minmax").transform(x)
    runs = {}
    for beta in BETAS:
        for seed in range(5):
            hyper = replace(preset("table3"), epochs=50, seed=seed)
            topo = LayerTopology(
                (xs.shape[1], *([hyper.hidden_size] * hyper.hidden_layers), y.shape[1]),
                beta=beta,
            )
            runs[(beta, seed)] = train(TrainSet(x_train=xs, y_train=y), topo, hyper)
    return runs


@pytest.fixture(scope="module")
def training_grid():
    t0 = time.perf_counter()
    runs = run_training_grid()
    return runs, time.perf_counter() - t0


def test_criterion_7_learning_at_desk_scale(training_grid):
    runs, elapsed = training_grid
    reduction_ok = all(
        report_.final_train_mse < report_.initial_train_mse / 10.0
        for _, report_ in runs.values()
    )
    medians = {
        beta: float(np.median([runs[(beta, s)][1].final_train_mse for s in range(5)]))
        for beta in BETAS
    }
    ordering_ok = medians[4.1] <= medians[2.22]
    ok = reduction_ok and ordering_ok and elapsed < 300.0
    detail = ("median final MSE " +
              ", ".join(f"beta={b}: {medians[b]:.3e}" for b in BETAS) +
              f"; >10x reduction everywhere={reduction_ok}, "
              f"median(4.1) <= median(2.22)={ordering_ok}, {elapsed:.0f} s")
    report(7, ok, detail)


# ---------------------------------------------------------------- 8


def test_criterion_8_dataset_targets_solve_the_power_flow(net):
    samples, _ = generate(net, 100, mult_range=(0.8, 1.2), seed=8)
    n = net.n
    pq = list(net.pq_indices)
    ns = list(net.non_slack_indices)
    tol = SolveOptions().tol
    worst = 0.0
    for s in samples:
        assert s.converged
        buses = list(net.buses)
        for i in range(n):
            buses[i] = replace(buses[i],
                               p_load=net.base.from_pu(s.inputs[i]),
                               q_load=net.base.from_pu(s.inputs[n + i]))
        case = NetworkModel(buses=tuple(buses), ybus=net.ybus, base=net.base)
        v = np.array([b.v_mag if b.v_mag is not None else 1.0 for b in case.buses])
        v[pq] = s.targets[: len(pq)]
        delta = np.zeros(n)
        delta[ns] = s.targets[len(pq):]
        worst = max(worst, np.abs(mismatch(StateVector(delta, v), case)).max())
    ok = worst < tol
    report(8, ok, f"100 samples, worst re-evaluated mismatch {worst:.2e} < {tol:.0e}")


# ---------------------------------------------------------------- 9


def test_criterion_9_determinism(training_grid, tmp_path):
    first, _ = training_grid
    second = run_training_grid()
    identical = True
    for key in first:
        tag = f"{key[0]}_{key[1]}"
        for label, (params, rep) in (("a", first[key]), ("b", second[key])):
            save_model(params, None, tmp_path / f"model_{tag}_{label}.json")
            write_epoch_log(rep, tmp_path / f"epochs_{tag}_{label}.csv")
        if (tmp_path / f"model_{tag}_a.json").read_bytes() != \
           (tmp_path / f"model_{tag}_b.json").read_bytes():
            identical = False
        if (tmp_path / f"epochs_{tag}_a.csv").read_bytes() != \
           (tmp_path / f"epochs_{tag}_b.csv").read_bytes():
            identical = False
    report(9, identical, f"{len(first)} runs repeated: model and epoch-log bytes "
                         f"{'identical' if identical else 'differ'}")
