import dataclasses
import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference import block_jacobian, gauss_seidel_oracle, masked_solve_batch

from qnpflow import dataset, powerflow
from qnpflow.errors import DimensionMismatch, NotConverged, SingularJacobian, TooFewConverged, ValidationError
from qnpflow.grid import AdmittanceMatrix, BusKind, BusRecord, NetworkModel, PerUnitBase
from qnpflow.powerflow import (
    PIVOT_TOL,
    SolveOptions,
    StateVector,
    calc_injections,
    initial_state,
    jacobian,
    mismatch,
    nr_step,
    solve,
    solve_batch,
)


def polar_injections(state, net):
    """Reference for the complex form: the polar power equations as trig sums.

    P_i = sum_n |V_i V_n Y_in| cos(Theta_in + d_n - d_i)
    Q_i = -sum_n |V_i V_n Y_in| sin(Theta_in + d_n - d_i)
    """
    y = net.ybus.entries
    t = np.angle(y) + state.delta[None, :] - state.delta[:, None]
    a = state.v_mag[:, None] * state.v_mag[None, :] * np.abs(y)
    return (a * np.cos(t)).sum(axis=1), -(a * np.sin(t)).sum(axis=1)


def polar_jacobian(state, net):
    """Reference mismatch Jacobian from the four trig blocks, assembled."""
    y, v = net.ybus.entries, state.v_mag
    t = np.angle(y) + state.delta[None, :] - state.delta[:, None]
    a = v[:, None] * v[None, :] * np.abs(y)
    s = a * np.sin(t)
    c = a * np.cos(t)
    off_s = s.sum(axis=1) - np.diag(s)
    off_c = c.sum(axis=1) - np.diag(c)

    dp_dd = -s.copy()
    np.fill_diagonal(dp_dd, off_s)
    dp_dv = c.copy()
    np.fill_diagonal(dp_dv, 2.0 * v**2 * np.diag(y.real) + off_c)
    dq_dd = -c.copy()
    np.fill_diagonal(dq_dd, off_c)
    dq_dv = -s.copy()
    np.fill_diagonal(dq_dv, -2.0 * v**2 * np.diag(y.imag) - off_s)

    ns, pq = list(net.non_slack_indices), list(net.pq_indices)
    return -np.block([[dp_dd[np.ix_(ns, ns)], dp_dv[np.ix_(ns, pq)]],
                      [dq_dd[np.ix_(pq, ns)], dq_dv[np.ix_(pq, pq)]]])


def assert_matches_polar_reference(state, net, atol=1e-12):
    p, q = calc_injections(state, net)
    p_ref, q_ref = polar_injections(state, net)
    assert np.abs(p - p_ref).max() < atol
    assert np.abs(q - q_ref).max() < atol
    assert np.abs(jacobian(state, net) - polar_jacobian(state, net)).max() < atol


def make_net(buses, ybus, s_base=100.0):
    return NetworkModel(buses=tuple(buses), ybus=AdmittanceMatrix(np.array(ybus, dtype=complex)),
                        base=PerUnitBase(s_base=s_base))


def slack(i, v=1.0):
    return BusRecord(id=i, kind=BusKind.SLACK, p_load=0.0, q_load=0.0, v_mag=v, v_angle=0.0)


def pq(i, p=0.0, q=0.0):
    return BusRecord(id=i, kind=BusKind.PQ, p_load=p, q_load=q, v_mag=1.0, v_angle=0.0,
                     p_gen=0.0, q_gen=0.0)


def pv(i, p_gen=30.0, v=1.02):
    return BusRecord(id=i, kind=BusKind.PV, p_load=0.0, q_load=0.0, v_mag=v, v_angle=0.0,
                     p_gen=p_gen)


@pytest.fixture()
def two_bus():
    y = 4.0 - 8.0j
    return make_net([slack(1), pq(2, p=50.0, q=20.0)], [[y, -y], [-y, y]])


def random_state(net, rng):
    delta = np.zeros(net.n)
    v = np.array([b.v_mag for b in net.buses])
    delta[list(net.non_slack_indices)] = rng.uniform(-0.3, 0.3, len(net.non_slack_indices))
    v[list(net.pq_indices)] = rng.uniform(0.9, 1.1, len(net.pq_indices))
    return StateVector(delta=delta, v_mag=v)


# ------------------------------------------------------------ injections

def test_flat_start_matches_polar_reference(base_net):
    assert_matches_polar_reference(initial_state(base_net), base_net)


def test_random_states_match_polar_reference(base_net):
    rng = np.random.default_rng(11)
    for _ in range(50):
        assert_matches_polar_reference(random_state(base_net, rng), base_net)


def test_two_bus_matches_polar_reference(two_bus):
    rng = np.random.default_rng(5)
    for _ in range(50):
        assert_matches_polar_reference(random_state(two_bus, rng), two_bus)


@given(st.integers(min_value=2, max_value=6), st.integers(min_value=0, max_value=2**31 - 1))
@settings(max_examples=25, deadline=None)
def test_random_networks_match_polar_reference(n, seed):
    rng = np.random.default_rng(seed)
    m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    net = make_net([slack(1), *(pq(i) for i in range(2, n + 1))], m + m.T)
    assert_matches_polar_reference(random_state(net, rng), net)


def test_diagonal_ybus_injections():
    net = make_net([slack(1), pq(2)], [[4.0 - 8.0j, 0], [0, 3.0 - 6.0j]])
    state = StateVector(delta=np.array([0.0, 0.7]), v_mag=np.array([1.0, 1.0]))
    p, q = calc_injections(state, net)
    assert p == pytest.approx([4.0, 3.0])
    assert q == pytest.approx([8.0, 6.0])


def test_zero_ybus_injections(base_net):
    net = make_net(list(base_net.buses), np.zeros((4, 4)))
    p, q = calc_injections(initial_state(net), net)
    assert np.all(p == 0) and np.all(q == 0)


def test_injections_dimension_mismatch(base_net):
    bad = StateVector(delta=np.zeros(3), v_mag=np.ones(3))
    with pytest.raises(DimensionMismatch):
        calc_injections(bad, base_net)


# ------------------------------------------------------------ mismatch

def test_mismatch_order_and_value_at_flat(base_net):
    state = initial_state(base_net)
    m = mismatch(state, base_net)
    assert m.shape == (5,)
    p_ref, q_ref = polar_injections(state, base_net)
    sched_p = np.array([-1.70, -2.00, 2.38])
    sched_q = np.array([-1.0535, -1.2394])
    assert m[:3] == pytest.approx(sched_p - p_ref[1:], abs=1e-12)
    assert m[3:] == pytest.approx(sched_q - q_ref[1:3], abs=1e-12)


def test_mismatch_zero_at_solution(base_net):
    sol = solve(base_net)
    state = StateVector(delta=sol.delta, v_mag=sol.v_mag)
    assert np.abs(mismatch(state, base_net)).max() < 1e-8


def test_mismatch_zero_injection_network():
    y = 2.0 - 4.0j
    net = make_net([slack(1), pq(2)], [[y, -y], [-y, y]])
    m = mismatch(initial_state(net), net)
    assert np.all(m == pytest.approx(0.0, abs=1e-15))


# ------------------------------------------------------------ jacobian

def fd_jacobian(state, net, h=1e-6):
    """Central finite differences of the stacked mismatch; the |V| block uses
    a multiplicative perturbation to match the |V| d/d|V| scaling."""
    ns, pqi = list(net.non_slack_indices), list(net.pq_indices)
    cols = []
    for j in ns:
        dplus, dminus = state.delta.copy(), state.delta.copy()
        dplus[j] += h
        dminus[j] -= h
        fp = mismatch(StateVector(dplus, state.v_mag.copy()), net)
        fm = mismatch(StateVector(dminus, state.v_mag.copy()), net)
        cols.append((fp - fm) / (2 * h))
    for j in pqi:
        vplus, vminus = state.v_mag.copy(), state.v_mag.copy()
        vplus[j] *= 1 + h
        vminus[j] *= 1 - h
        fp = mismatch(StateVector(state.delta.copy(), vplus), net)
        fm = mismatch(StateVector(state.delta.copy(), vminus), net)
        cols.append((fp - fm) / (2 * h))
    return np.column_stack(cols)


def max_rel_error(j, fd):
    floor = 1e-3 * np.abs(fd).max()
    return (np.abs(j - fd) / np.maximum(np.abs(fd), floor)).max()


def test_jacobian_matches_fd_at_flat(base_net):
    state = initial_state(base_net)
    assert max_rel_error(jacobian(state, base_net), fd_jacobian(state, base_net)) < 1e-5


def test_two_bus_hand_derived_jacobian(two_bus):
    # closed form at delta2=-0.05, v2=0.95 with line y=4-8j:
    #   dP2/dd2   =  v |Y21| sin(Th21 - d2)
    #   v dP2/dv2 =  v (2 v G22 + |Y21| cos(Th21 - d2))
    #   dQ2/dd2   =  v |Y21| cos(Th21 - d2)
    #   v dQ2/dv2 =  v (-2 v B22 - |Y21| sin(Th21 - d2))
    # and the mismatch Jacobian is the negation of each.
    state = StateVector(delta=np.array([0.0, -0.05]), v_mag=np.array([1.0, 0.95]))
    j = jacobian(state, two_bus)
    assert j[0, 0] == pytest.approx(-7.400581135773167, rel=1e-12)
    assert j[0, 1] == pytest.approx(-3.044907324041974, rel=1e-12)
    assert j[1, 0] == pytest.approx(4.175092675958026, rel=1e-12)
    assert j[1, 1] == pytest.approx(-7.039418864226832, rel=1e-12)


def test_diagonal_ybus_kills_angle_blocks():
    net = make_net([slack(1), pq(2), pq(3)],
                   np.diag([4.0 - 8.0j, 3.0 - 6.0j, 2.0 - 4.0j]))
    state = StateVector(delta=np.array([0.0, 0.3, -0.2]),
                        v_mag=np.array([1.0, 0.97, 1.03]))
    j = jacobian(state, net)
    assert np.all(j[:2, :2] == 0)
    assert np.all(j[2:, :2] == 0)


# ------------------------------------------------------------ nr_step

def test_nr_step_fixed_point(base_net):
    sol = solve(base_net, SolveOptions(tol=1e-12, max_iter=20))
    state = StateVector(delta=sol.delta.copy(), v_mag=sol.v_mag.copy())
    new_state, _ = nr_step(state, base_net)
    assert np.abs(new_state.delta - state.delta).max() < 1e-9
    assert np.abs(new_state.v_mag - state.v_mag).max() < 1e-9


def test_nr_step_reduces_mismatch(base_net):
    state = initial_state(base_net)
    norm0 = np.abs(mismatch(state, base_net)).max()
    new_state, reported = nr_step(state, base_net)
    assert reported == pytest.approx(norm0)
    assert np.abs(mismatch(new_state, base_net)).max() < norm0


def test_singular_jacobian():
    net = make_net([slack(1), pq(2)], np.zeros((2, 2)))
    with pytest.raises(SingularJacobian):
        nr_step(initial_state(net), net)


# ------------------------------------------------------------ pivot check

def reference_pivots(a):
    """Partial-pivot elimination of one matrix, one scalar at a time: the
    first row of largest magnitude pivots each column, a NaN counting as
    largest (numpy's argmax). IEEE scalars, so a zero pivot gives inf or NaN
    after it."""
    a = [[np.float64(x) for x in row] for row in a]
    m = len(a)
    pivots = []
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for k in range(m):
            p = max(range(k, m), key=lambda i: (np.isnan(a[i][k]), abs(a[i][k])))
            a[k], a[p] = a[p], a[k]
            pivots.append(a[k][k])
            for i in range(k + 1, m):
                factor = a[i][k] / a[k][k]
                for j in range(k + 1, m):
                    a[i][j] -= factor * a[k][j]
    return np.array(pivots)


def assert_pivots_match_reference(stack):
    pivots = powerflow._lu_pivots(stack)
    assert pivots.shape == stack.shape[:-1]
    for a, piv in zip(stack, pivots):
        ref = reference_pivots(a)
        assert np.all(np.abs(piv - ref) <= 1e-12 * np.abs(ref))
        assert abs(np.prod(piv)) == pytest.approx(abs(np.linalg.det(a)), rel=1e-9)


def test_pivot_scan_matches_reference_on_jacobians(base_net):
    rng = np.random.default_rng(23)
    states = [random_state(base_net, rng) for _ in range(200)]
    stack = StateVector(np.array([s.delta for s in states]), np.array([s.v_mag for s in states]))
    assert_pivots_match_reference(jacobian(stack, base_net))


@given(st.integers(min_value=1, max_value=4), st.integers(min_value=1, max_value=6),
       st.integers(min_value=0, max_value=2**31 - 1))
@settings(max_examples=50, deadline=None)
def test_pivot_scan_matches_reference_on_random_stacks(b, m, seed):
    assert_pivots_match_reference(np.random.default_rng(seed).normal(size=(b, m, m)))


def test_pivot_scan_takes_first_of_tied_rows():
    stack = np.array([[[1.0, 2.0], [-1.0, 3.0]], [[-1.0, 3.0], [1.0, 2.0]]])
    assert powerflow._lu_pivots(stack).tolist() == [[1.0, 5.0], [-1.0, 5.0]]
    assert_pivots_match_reference(stack)


def test_newton_update_flags_any_pivot_below_tol(base_net, monkeypatch):
    stack = np.random.default_rng(29).normal(size=(3, 5, 5))
    stack[1, :, 2] = 0.0  # all-zero column: one exact zero pivot, NaN after it
    stack[2, 3, 1] = np.nan  # NaN pivots, none below PIVOT_TOL
    monkeypatch.setattr(powerflow, "jacobian", lambda state, net, v: stack)
    start = initial_state(base_net)
    states = StateVector(np.tile(start.delta, (3, 1)), np.tile(start.v_mag, (3, 1)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        pivots = powerflow._lu_pivots(stack)
        _, ok = powerflow._newton_update(states, base_net, np.ones((3, 5)), powerflow._voltages(states))
    assert ok.tolist() == [True, False, True]
    assert np.isnan(pivots[1]).any() and np.isnan(pivots[2]).any()
    assert not np.min(np.abs(pivots[1])) < PIVOT_TOL  # why the check takes any(), not min()


def pivot_check(stack):
    """_pivots_reach_tol on a stack, with the rows that reached the scan."""
    scanned = []
    original = powerflow._lu_pivots

    def spy(a):
        scanned.append(len(a))
        return original(a)

    with pytest.MonkeyPatch.context() as mp, warnings.catch_warnings():
        warnings.simplefilter("error")
        mp.setattr(powerflow, "_lu_pivots", spy)
        mask = powerflow._pivots_reach_tol(stack)
    return mask, sum(scanned)


def assert_check_matches_reference(stack):
    """The mask is the reference scan's `no pivot below PIVOT_TOL`, row for
    row; returns how many rows the determinant bound cleared."""
    mask, scanned = pivot_check(stack)
    ref = [not np.any(np.abs(reference_pivots(a)) < PIVOT_TOL) for a in stack]
    assert mask.tolist() == ref
    return len(stack) - scanned


def plu_stack(rng, m, pivots):
    """P L U with |l_ij| < 1, so partial pivoting meets the pivots of U."""
    lower = np.tril(rng.uniform(-0.9, 0.9, (m, m)), -1) + np.eye(m)
    upper = np.triu(rng.normal(size=(m, m)), 1) + np.diag(pivots)
    return rng.permutation(np.eye(m)) @ lower @ upper


@pytest.mark.parametrize("factor", [0.5, 1.0, 2.0, 1e3, 1e6, 1e7])
def test_pivot_check_near_tol_matches_reference(factor):
    rng = np.random.default_rng(int(factor * 8))
    stack = []
    for m in (2, 5):
        for position in range(m):
            for _ in range(4):
                pivots = rng.choice([-1, 1], m) * rng.uniform(0.5, 2.0, m)
                pivots[position] = PIVOT_TOL * factor * rng.choice([-1, 1])
                stack.append(plu_stack(rng, m, pivots)[None])
    for a in stack:
        assert_check_matches_reference(a)
    if factor == 1.0:  # the rounded pivot lands on both sides of the tolerance
        assert {pivot_check(a)[0][0] for a in stack} == {True, False}


def test_pivot_check_over_scales_matches_reference():
    rng = np.random.default_rng(43)
    cleared = 0
    for scale in 10.0 ** np.arange(-6, 7):
        for m in (1, 3, 5):
            cleared += assert_check_matches_reference(scale * rng.normal(size=(20, m, m)))
    assert 0 < cleared < 13 * 3 * 20  # both the bound and the scan decide rows


def test_pivot_check_on_singular_and_non_finite_matrices():
    rng = np.random.default_rng(47)
    a = rng.normal(size=(5, 5))
    singular = a.copy()
    singular[3] = singular[1]  # exactly singular: elimination leaves a zero row
    stack = [np.zeros((5, 5)), singular, 1e6 * singular]
    for bad in (np.nan, np.inf, -np.inf):
        for i, j in ((0, 0), (4, 1), (2, 4)):
            b = a.copy()
            b[i, j] = bad
            stack.append(b)
    stack = np.array(stack)
    assert assert_check_matches_reference(stack) == 0
    assert not pivot_check(stack[:3])[0].any()

    # a last row that combines the others: at large scale the determinant's
    # rounding noise beats PIVOT_TOL, while the scan meets a pivot below it
    dependent = rng.normal(size=(40, 5, 5))
    dependent[:, 4] = np.einsum("bi,bij->bj", rng.normal(size=(40, 4)), dependent[:, :4])
    for scale in (1e17, 1e20):
        assert_check_matches_reference(scale * dependent)
        assert not pivot_check(scale * dependent)[0].all()


def test_pivot_check_on_flat_start_jacobians(base_net):
    # bus 2 hangs on bus 3 alone, so each delta column's largest magnitudes tie
    y = np.array([[2 - 6j, 0, -2 + 6j], [0, 1 - 4j, -1 + 4j], [-2 + 6j, -1 + 4j, 3 - 10j]])
    chain = make_net([slack(1), pq(2, 20.0, 5.0), pq(3, 10.0, 2.0)], y)
    for net in (base_net, chain):
        jac = jacobian(initial_state(net), net)[None]
        assert assert_check_matches_reference(jac) == 1
    col = np.abs(jac[0, :, 0])
    assert np.sum(col == col.max()) == 2


def test_ordinary_jacobians_never_reach_the_scan(base_net, monkeypatch):
    calls = []
    monkeypatch.setattr(powerflow, "_lu_pivots", lambda a: calls.append(len(a)))
    rng = np.random.default_rng(53)
    states = [random_state(base_net, rng) for _ in range(200)]
    stack = StateVector(np.array([s.delta for s in states]), np.array([s.v_mag for s in states]))
    assert powerflow._pivots_reach_tol(jacobian(stack, base_net)).all()
    solve(base_net)
    _, _, p_sched, q_sched = perturbed_schedules(base_net, rng, 200)
    assert solve_batch(base_net, p_sched, q_sched, SolveOptions()).converged.all()
    assert calls == []


def test_cli_import_loads_no_scipy():
    src = str(Path(__file__).resolve().parents[1] / "src")
    code = "import sys, qnpflow.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    res = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))},
    )
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip() == "[]"


# ------------------------------------------------------------ solve

def test_zero_injection_network_flat_solution():
    y = 2.0 - 4.0j
    net = make_net([slack(1), pq(2)], [[y, -y], [-y, y]])
    sol = solve(net)
    assert sol.converged
    assert sol.iterations <= 1
    assert sol.v_mag == pytest.approx([1.0, 1.0])
    assert sol.delta == pytest.approx([0.0, 0.0])


def test_not_converged_carries_history(base_net):
    with pytest.raises(NotConverged) as err:
        solve(base_net, SolveOptions(tol=1e-12, max_iter=1))
    assert len(err.value.history) == 1


def test_quadratic_convergence(base_net):
    sol = solve(base_net, SolveOptions(tol=1e-8, max_iter=20))
    norms = [np.abs(mismatch(initial_state(base_net), base_net)).max(), *sol.mismatch_history]
    for prev, nxt in zip(norms, norms[1:]):
        if prev < 1e-2:
            assert nxt < 10 * prev * prev


def test_power_balance_nonnegative_loss(base_net):
    sol = solve(base_net)
    loss = sol.p_calc.sum()
    assert 0.0 <= loss < 0.1


def test_converged_flags_and_injections(base_net):
    sol = solve(base_net)
    state = StateVector(delta=sol.delta, v_mag=sol.v_mag)
    p_ref, q_ref = polar_injections(state, base_net)
    assert sol.p_calc == pytest.approx(p_ref, abs=1e-12)
    assert sol.q_calc == pytest.approx(q_ref, abs=1e-12)
    assert sol.v_mag[3] == pytest.approx(1.02)  # PV setpoint held
    assert sol.delta[0] == 0.0


def test_solve_evaluates_injections_once_per_state(base_net, monkeypatch):
    states = []
    original = powerflow.calc_injections

    def counting(state, net, v):
        states.append(len(np.atleast_2d(state.delta)))
        return original(state, net, v)

    monkeypatch.setattr(powerflow, "calc_injections", counting)
    sol = solve(base_net)
    assert sol.iterations == 3
    assert sum(states) == sol.iterations + 1


# ------------------------------------------------------------ batched solve

def perturbed_schedules(net, rng, b, mult_range=(0.8, 1.2)):
    """Schedules (B, n) of `net` with every load scaled by a draw in `mult_range`."""
    p_load = np.array([bus.p_load for bus in net.buses]) * rng.uniform(*mult_range, (b, net.n))
    q_load = np.array([bus.q_load for bus in net.buses]) * rng.uniform(*mult_range, (b, net.n))
    return p_load, q_load, *net.schedule(p_load, q_load)


def test_batch_retires_singular_and_capped_cases(base_net, monkeypatch):
    # stressed cases take 4 or more steps, so at a cap of 4 some converge and
    # some run to the cap; the patched Jacobian makes others singular
    b, opts = 12, SolveOptions(max_iter=4)
    p_load, q_load, p_sched, q_sched = perturbed_schedules(
        base_net, np.random.default_rng(0), b, (1.0, 5.5))
    monkeypatch.setattr(powerflow, "jacobian", zero_pivot_jacobian(powerflow.jacobian))
    res = solve_batch(base_net, p_sched, q_sched, opts)

    capped = ~res.converged & ~res.singular
    assert res.singular.any() and capped.any() and res.converged.any()
    assert not res.converged[res.singular].any()
    assert (res.iterations[res.singular] < 4).all() and (res.iterations[capped] == 4).all()
    for i in range(b):
        one = solve_batch(base_net, p_sched[i:i + 1], q_sched[i:i + 1], opts)
        for name in ("delta", "v_mag", "p_calc", "q_calc", "iterations", "converged", "singular"):
            assert np.array_equal(getattr(res, name)[i], getattr(one, name)[0], equal_nan=True), name
        assert res.history(i) == one.history(0)
        assert np.isnan(res.norms[i, res.iterations[i] + 1:]).all()

    # the failing cases raise from solve() as their own networks
    def case(i):
        buses = [replace(bus, p_load=p_load[i, k], q_load=q_load[i, k])
                 for k, bus in enumerate(base_net.buses)]
        return NetworkModel(buses=tuple(buses), ybus=base_net.ybus, base=base_net.base)

    singular_case, capped_case, converged_case = (
        np.flatnonzero(mask)[0] for mask in (res.singular, capped, res.converged))
    with pytest.raises(SingularJacobian):
        solve(case(singular_case), opts)
    with pytest.raises(NotConverged) as err:
        solve(case(capped_case), opts)
    assert err.value.history == res.history(capped_case)
    sol = solve(case(converged_case), opts)
    assert np.array_equal(sol.v_mag, res.v_mag[converged_case])
    assert np.array_equal(sol.delta, res.delta[converged_case])
    assert sol.iterations == res.iterations[converged_case]


def test_batch_starts_every_case_from_the_configured_start(base_net):
    # a PQ bus at |V| = 0 in the bus data: singular there, while the flat start solves
    k = base_net.pq_indices[0]
    buses = [*base_net.buses[:k], replace(base_net.buses[k], v_mag=0.0), *base_net.buses[k + 1:]]
    net = NetworkModel(buses=tuple(buses), ybus=base_net.ybus, base=base_net.base)
    p_sched, q_sched = np.tile(net.p_sched, (2, 1)), np.tile(net.q_sched, (2, 1))
    res = solve_batch(net, p_sched, q_sched, SolveOptions(flat_start=False))
    start = initial_state(net, flat_start=False)
    assert res.singular.all() and not res.iterations.any()
    assert np.array_equal(res.v_mag, np.tile(start.v_mag, (2, 1)))
    assert np.array_equal(res.delta, np.tile(start.delta, (2, 1)))
    assert solve_batch(net, p_sched, q_sched, SolveOptions()).converged.all()


def test_batch_overflowing_case_fails_alone_without_a_warning(base_net):
    # pyproject.toml turns warnings into errors, so an overflow that numpy
    # warns of ends the solve in an exception here
    p_load, q_load, _, _ = perturbed_schedules(base_net, np.random.default_rng(4), 3)
    p_load[1], q_load[1] = p_load[1] * 1e200, q_load[1] * 1e200
    p_sched, q_sched = base_net.schedule(p_load, q_load)
    res = solve_batch(base_net, p_sched, q_sched, SolveOptions())
    assert res.converged.tolist() == [True, False, True]
    for i in (0, 2):
        one = solve_batch(base_net, p_sched[i:i + 1], q_sched[i:i + 1], SolveOptions())
        assert np.array_equal(res.v_mag[i], one.v_mag[0]) and res.history(i) == one.history(0)


def test_batch_cap_of_one_stops_every_case_after_one_newton_step(base_net):
    # stressed cases take 4 or more steps, so at a cap of 1 none converges
    b = 3
    p_load, q_load, p_sched, q_sched = perturbed_schedules(
        base_net, np.random.default_rng(59), b, (1.0, 5.5))
    res = solve_batch(base_net, p_sched, q_sched, SolveOptions(max_iter=1))
    assert res.iterations.tolist() == [1] * b and res.norms.shape == (b, 2)
    assert not res.converged.any() and not res.singular.any()
    for i in range(b):
        buses = tuple(replace(bus, p_load=p_load[i, k], q_load=q_load[i, k])
                      for k, bus in enumerate(base_net.buses))
        net = NetworkModel(buses=buses, ybus=base_net.ybus, base=base_net.base)
        state, start_norm = nr_step(initial_state(net), net)
        assert np.array_equal(res.delta[i], state.delta)
        assert np.array_equal(res.v_mag[i], state.v_mag)
        p_calc, q_calc = calc_injections(state, net)
        assert np.array_equal(res.p_calc[i], p_calc)
        assert np.array_equal(res.q_calc[i], q_calc)
        assert res.norms[i, 0] == start_norm
        assert res.history(i) == res.norms[i, 1:].tolist()
        assert res.norms[i, 1] == np.max(np.abs(mismatch(state, net)))


def generate_schedules(net, n, mult_range, seed=5):
    """The (B, n) schedules that dataset.generate solves."""
    calls = []

    def capture(net, p_sched, q_sched, opts):
        calls.append((p_sched, q_sched))
        return solve_batch(net, p_sched, q_sched, opts)

    with pytest.MonkeyPatch.context() as monkeypatch:
        monkeypatch.setattr(dataset, "solve_batch", capture)
        try:
            dataset.generate(net, n, mult_range=mult_range, seed=seed)
        except TooFewConverged:
            pass
    (call,) = calls
    return call


def assert_same_batch(res, ref):
    """Every field of two BatchSolutions equal bit for bit."""
    for name in ("delta", "v_mag", "p_calc", "q_calc", "norms"):
        got, want = getattr(res, name), getattr(ref, name)
        assert got.shape == want.shape and np.array_equal(got.view(np.int64), want.view(np.int64)), name
    for name in ("iterations", "converged", "singular"):
        got, want = getattr(res, name), getattr(ref, name)
        assert got.dtype == want.dtype and np.array_equal(got, want), name


@pytest.mark.parametrize("mult_range", [(0.8, 1.2), (1.0, 5.5), (3.0, 7.0)],
                         ids=["nominal", "stressed", "collapse"])
def test_compacted_batch_bitwise_equals_masked_reference(base_net, mult_range):
    p_sched, q_sched = generate_schedules(base_net, 500, mult_range)
    steps, capped = set(), False
    for tol in (1e-8, 1e-12):
        for cap in (1, 2, 3, 7, 20):
            opts = SolveOptions(tol=tol, max_iter=cap)
            res = solve_batch(base_net, p_sched, q_sched, opts)
            assert_same_batch(res, masked_solve_batch(base_net, p_sched, q_sched, opts))
            steps.update(res.iterations.tolist())
            capped |= np.any(~res.converged & (res.iterations == cap))
    # the batches retire cases at several steps, some at the cap
    assert len(steps) > 3 and capped


def test_compacted_batch_bitwise_equals_masked_reference_on_edge_batches(base_net):
    p_sched, q_sched = generate_schedules(base_net, 6, (1.0, 5.5))
    q_sched = q_sched.copy()
    q_sched[2, base_net.pq_indices[0]] = np.nan  # a NaN norm never drops below tol
    for rows in (slice(0, 0), slice(0, 1), slice(2, 3), slice(None)):
        for cap in (1, 3, 7, 20):
            opts = SolveOptions(max_iter=cap)
            res = solve_batch(base_net, p_sched[rows], q_sched[rows], opts)
            assert_same_batch(res, masked_solve_batch(base_net, p_sched[rows], q_sched[rows], opts))
            assert len(res.norms) == len(res.iterations) == len(p_sched[rows])
    res = solve_batch(base_net, p_sched, q_sched, SolveOptions(max_iter=9))
    assert res.iterations[2] == 9 and np.isnan(res.norms[2]).all()
    assert not res.converged[2] and not res.singular[2]


def zero_pivot_hit(state):
    """A pseudo-random eighth of the states, none of them the flat start."""
    return state.delta[..., 1].view(np.int64) % 8 == 1


def zero_pivot_jacobian(original):
    """`original` with an all-zero column, so a zero pivot, at the states of
    zero_pivot_hit."""
    def patched(state, net, v=None):
        jac = original(state, net, v)
        jac[zero_pivot_hit(state), :, 0] = 0.0
        return jac
    return patched


def test_compacted_batch_retires_singular_cases_at_their_last_state(base_net, monkeypatch):
    p_sched, q_sched = generate_schedules(base_net, 500, (1.0, 5.5))
    monkeypatch.setattr(powerflow, "jacobian", zero_pivot_jacobian(powerflow.jacobian))
    opts = SolveOptions(tol=1e-12)
    res = solve_batch(base_net, p_sched, q_sched, opts)
    assert_same_batch(res, masked_solve_batch(base_net, p_sched, q_sched, opts))
    rows = np.flatnonzero(res.singular)
    assert len(np.unique(res.iterations[rows])) > 3  # singular at different steps
    assert not res.converged[rows].any()
    last = StateVector(res.delta[rows], res.v_mag[rows])
    assert zero_pivot_hit(last).all()  # the state whose Jacobian failed
    p, q = calc_injections(last, base_net)
    assert np.array_equal(p, res.p_calc[rows]) and np.array_equal(q, res.q_calc[rows])


@pytest.mark.parametrize("zero_pivots", [False, True], ids=["stressed", "singular"])
def test_batch_evaluates_each_state_once(base_net, monkeypatch, zero_pivots):
    counts = {"_voltages": 0, "calc_injections": 0, "jacobian": 0}

    def counting(name):
        original = getattr(powerflow, name)

        def count(state, *args):
            counts[name] += len(state.delta)
            return original(state, *args)
        return count

    # at 2000 samples, as in the paper, both schedules hold a case that runs
    # to the 20-step cap; at 500 the zero-pivot one holds none
    p_sched, q_sched = generate_schedules(base_net, 2000, (1.0, 5.5))
    if zero_pivots:
        monkeypatch.setattr(powerflow, "jacobian", zero_pivot_jacobian(powerflow.jacobian))
    for name in counts:
        monkeypatch.setattr(powerflow, name, counting(name))
    res = solve_batch(base_net, p_sched, q_sched, SolveOptions())
    assert (~res.converged).sum() > 0 and res.iterations.max() == 20
    assert res.singular.any() == zero_pivots
    # every state's voltages and injections once; a Jacobian at every state
    # that took a step, and at the one where each singular case stopped
    assert counts["_voltages"] == counts["calc_injections"] == len(p_sched) + res.iterations.sum()
    assert counts["jacobian"] == res.iterations.sum() + res.singular.sum()


@pytest.mark.parametrize("scale", [1.0, 1e200], ids=["stressed", "overflow"])
def test_batch_bitwise_equals_block_jacobian_batch(base_net, monkeypatch, scale):
    # at 2000 stressed samples some cases run to the 20-step cap; scaled by
    # 1e200 the injections overflow after the first step
    p_sched, q_sched = generate_schedules(base_net, 2000, (1.0, 5.5))
    p_sched, q_sched = p_sched * scale, q_sched * scale
    res = solve_batch(base_net, p_sched, q_sched, SolveOptions())
    monkeypatch.setattr(powerflow, "jacobian", block_jacobian)
    assert_same_batch(res, solve_batch(base_net, p_sched, q_sched, SolveOptions()))
    assert res.iterations.max() == 20
    if scale > 1:
        assert not res.converged.any() and not np.isfinite(res.p_calc).all()


def test_jacobian_peak_memory_at_paper_batch(base_net):
    b, n = 2000, base_net.n
    rng = np.random.default_rng(43)
    stack = StateVector(rng.normal(0.0, 0.1, (b, n)), rng.uniform(0.9, 1.1, (b, n)))
    jacobian(stack, base_net)  # the network's tables are made on first read
    tracemalloc.start()
    try:
        jacobian(stack, base_net)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the stacked derivatives took about 6.25 of these
    assert peak <= 5 * b * n * n * 16


def test_batched_calls_match_single_states(base_net):
    rng = np.random.default_rng(17)
    states = [random_state(base_net, rng) for _ in range(8)]
    stack = StateVector(np.array([s.delta for s in states]), np.array([s.v_mag for s in states]))
    p, q = calc_injections(stack, base_net)
    jac = jacobian(stack, base_net)
    for i, state in enumerate(states):
        p_i, q_i = calc_injections(state, base_net)
        assert np.array_equal(p[i], p_i) and np.array_equal(q[i], q_i)
        assert np.array_equal(jac[i], jacobian(state, base_net))


def random_ybus(rng, n):
    m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return m + m.T


@pytest.mark.parametrize("kind", ["paper4bus", "no_pv", "no_pq"])
def test_jacobian_gather_bitwise_equals_block_reference(base_net, kind):
    rng = np.random.default_rng(41)
    net = {
        "paper4bus": base_net,
        "no_pv": make_net([slack(1), pq(2, 50.0, 20.0), pq(3, 30.0, 10.0)], random_ybus(rng, 3)),
        "no_pq": make_net([slack(1), pv(2), pv(3, 20.0, 0.99)], random_ybus(rng, 3)),
    }[kind]
    assert len(net.pq_indices) == 0 if kind == "no_pq" else len(net.pq_indices) > 0
    assert len(net.pv_indices) == 0 if kind == "no_pv" else len(net.pv_indices) > 0
    m = len(net.non_slack_indices) + len(net.pq_indices)
    states = [initial_state(net), *(random_state(net, rng) for _ in range(20))]
    stack = StateVector(np.array([s.delta for s in states]), np.array([s.v_mag for s in states]))
    for state in (*states, stack):
        jac, ref = jacobian(state, net), block_jacobian(state, net)
        assert jac.shape == ref.shape == (*state.delta.shape[:-1], m, m)
        assert np.array_equal(jac.view(np.int64), ref.view(np.int64))


# ------------------------------------------------------------ oracle equivalence

def test_gauss_seidel_zero_injection_network():
    y = 2.0 - 4.0j
    net = make_net([slack(1), pq(2)], [[y, -y], [-y, y]])
    sol = gauss_seidel_oracle(net)
    assert sol.converged
    assert sol.v_mag == pytest.approx([1.0, 1.0])


def test_oracles_agree_on_perturbed_loads(base_net):
    rng = np.random.default_rng(7)
    for _ in range(15):
        buses = []
        for b in base_net.buses:
            if b.kind is BusKind.PQ:
                b = replace(b, p_load=b.p_load * rng.uniform(0.8, 1.2),
                            q_load=b.q_load * rng.uniform(0.8, 1.2))
            buses.append(b)
        net = NetworkModel(buses=tuple(buses), ybus=base_net.ybus, base=base_net.base)
        nr = solve(net, SolveOptions(tol=1e-10, max_iter=20))
        gs = gauss_seidel_oracle(net, tol=1e-12, max_iter=10000)
        assert np.abs(nr.v_mag - gs.v_mag).max() < 1e-6
        assert np.abs(nr.delta - gs.delta).max() < 1e-6


# ------------------------------------------------------------ options

@given(st.floats(min_value=1e-12, max_value=1e-2), st.integers(min_value=1, max_value=50))
@settings(max_examples=25, deadline=None)
def test_solve_options_accept_valid(tol, max_iter):
    SolveOptions(tol=tol, max_iter=max_iter)


@pytest.mark.parametrize("kwargs", [{"tol": 0.0}, {"tol": -1e-8}, {"max_iter": 0}, {"max_iter": -3},
                                    {"tol": math.inf}, {"tol": math.nan}])
def test_solve_options_reject_invalid(kwargs):
    with pytest.raises(ValidationError):
        SolveOptions(**kwargs)


def test_solve_options_are_frozen():
    with pytest.raises(dataclasses.FrozenInstanceError):
        SolveOptions().tol = 1e-6


@pytest.mark.parametrize("kwargs", [{"tol": 0.0}, {"tol": -1.0}, {"tol": math.nan},
                                    {"tol": math.inf}, {"max_iter": -1}])
def test_solve_options_check_a_replaced_copy(kwargs):
    # a frozen record changes only by a copy, and the copy is checked anew,
    # so solve_batch never receives these settings
    with pytest.raises(ValidationError):
        replace(SolveOptions(tol=1e-10, max_iter=7, flat_start=False), **kwargs)


def test_solve_hands_its_options_to_solve_batch(base_net, monkeypatch):
    calls = []
    original = powerflow.solve_batch

    def capture(net, p_sched, q_sched, opts):
        calls.append(opts)
        return original(net, p_sched, q_sched, opts)

    monkeypatch.setattr(powerflow, "solve_batch", capture)
    opts = SolveOptions(tol=1e-10, max_iter=7, flat_start=False)
    solve(base_net, opts)
    solve(base_net)
    assert calls[0] is opts and calls[1] == SolveOptions()


@pytest.mark.parametrize("kwargs", [{"tol": 0.0}, {"tol": -1e-8}, {"tol": math.nan},
                                    {"max_iter": 0}, {"max_iter": -3}])
def test_gauss_seidel_rejects_invalid(base_net, kwargs):
    with pytest.raises(ValidationError):
        gauss_seidel_oracle(base_net, **kwargs)
