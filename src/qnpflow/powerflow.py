"""Newton-Raphson AC power flow, plus a Gauss-Seidel cross-check solver.

State convention: the state is polar, angles in radians and magnitudes in
per-unit. Injections and their derivatives are taken in complex form,
S = V conj(Y V), with MATPOWER's dS/d(delta) and dS/d|V| (Zimmerman, MATPOWER
Technical Note 2, 2010). The Jacobian is the derivative of the mismatch vector
(scheduled minus calculated), so the Newton correction solves J dx = -F and
the analytic blocks can be checked directly against finite differences of
mismatch().
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import DimensionMismatch, NotConverged, SingularJacobian, ValidationError
from .grid import NetworkModel

PIVOT_TOL = 1e-12


@dataclass
class SolveOptions:
    tol: float = 1e-8
    max_iter: int = 20
    flat_start: bool = True

    def __post_init__(self):
        if not self.tol > 0:
            raise ValidationError(f"tol must be positive, got {self.tol}")
        if self.max_iter < 1:
            raise ValidationError(f"max_iter must be at least 1, got {self.max_iter}")


@dataclass
class StateVector:
    """Bus voltage state: full-length arrays with slack/PV entries held fixed."""

    delta: np.ndarray
    v_mag: np.ndarray

    def __post_init__(self):
        self.delta = np.asarray(self.delta, dtype=float)
        self.v_mag = np.asarray(self.v_mag, dtype=float)
        if self.delta.shape != self.v_mag.shape or self.delta.ndim != 1:
            raise DimensionMismatch(
                f"state arrays must be 1-D and equal length, got {self.delta.shape} and {self.v_mag.shape}"
            )

    def copy(self) -> "StateVector":
        return StateVector(self.delta.copy(), self.v_mag.copy())


@dataclass
class MismatchVector:
    """Power mismatches: dp over non-slack buses, dq over PQ buses, in bus order."""

    dp: np.ndarray
    dq: np.ndarray

    @property
    def stacked(self) -> np.ndarray:
        return np.concatenate([self.dp, self.dq])

    @property
    def inf_norm(self) -> float:
        s = self.stacked
        return float(np.max(np.abs(s))) if s.size else 0.0


@dataclass
class JacobianBlocks:
    """Mismatch derivatives. j12/j22 carry the |V| d/d|V| scaling that pairs
    with the multiplicative dV/|V| update."""

    j11: np.ndarray
    j12: np.ndarray
    j21: np.ndarray
    j22: np.ndarray

    @property
    def assembled(self) -> np.ndarray:
        return np.block([[self.j11, self.j12], [self.j21, self.j22]])


@dataclass
class PowerFlowSolution:
    v_mag: np.ndarray
    delta: np.ndarray
    p_calc: np.ndarray
    q_calc: np.ndarray
    iterations: int
    mismatch_history: list[float]
    converged: bool


def initial_state(net: NetworkModel, flat_start: bool = True) -> StateVector:
    """Flat start: zero angles and unit PQ magnitudes; fixed values elsewhere."""
    ang = np.array([math.radians(b.v_angle) for b in net.buses])
    vm = np.array([b.v_mag for b in net.buses])
    if not flat_start:
        return StateVector(ang, vm)
    delta = np.zeros(net.n)
    delta[net.slack_index] = ang[net.slack_index]
    v = np.ones(net.n)
    fixed = np.append(net.pv_indices, net.slack_index)
    v[fixed] = vm[fixed]
    return StateVector(delta, v)


def _check_state(state: StateVector, net: NetworkModel):
    if state.delta.shape[0] != net.n:
        raise DimensionMismatch(f"state has {state.delta.shape[0]} buses, network has {net.n}")


def _voltages(state: StateVector) -> np.ndarray:
    return state.v_mag * np.exp(1j * state.delta)


def calc_injections(state: StateVector, net: NetworkModel) -> tuple[np.ndarray, np.ndarray]:
    """Net injected (P, Q) per bus: S = V conj(Y V) with V = |V| exp(j delta)."""
    _check_state(state, net)
    v = _voltages(state)
    s = v * np.conj(net.ybus.entries @ v)
    return s.real, s.imag


def mismatch(state: StateVector, net: NetworkModel) -> MismatchVector:
    """Scheduled minus calculated power, over the solvable equations only."""
    p_calc, q_calc = calc_injections(state, net)
    ns, pq = net.non_slack_indices, net.pq_indices
    return MismatchVector(dp=net.p_sched[ns] - p_calc[ns], dq=net.q_sched[pq] - q_calc[pq])


def jacobian(state: StateVector, net: NetworkModel) -> JacobianBlocks:
    """Analytic mismatch Jacobian: the negated injection derivatives.

    With vy[i, k] = V_i conj(Y_ik V_k), whose row sums are S:
        dS/d(delta)  = j (diag(S) - vy)
        |V| dS/d|V|  = diag(S) + vy
    P is the real part and Q the imaginary part of each.
    """
    _check_state(state, net)
    v = _voltages(state)
    vy = v[:, None] * np.conj(net.ybus.entries * v)
    s = np.diag(vy.sum(axis=1))
    ds_dd = 1j * (s - vy)
    ds_dv = s + vy
    ns, pq = net.non_slack_indices, net.pq_indices
    return JacobianBlocks(
        j11=-ds_dd.real[np.ix_(ns, ns)],
        j12=-ds_dv.real[np.ix_(ns, pq)],
        j21=-ds_dd.imag[np.ix_(pq, ns)],
        j22=-ds_dv.imag[np.ix_(pq, pq)],
    )


def nr_step(state: StateVector, net: NetworkModel) -> tuple[StateVector, float]:
    """One Newton correction: solve J dx = -F, apply the angle/magnitude update.

    Returns the new state and the mismatch infinity norm at the input state.
    """
    mm = mismatch(state, net)
    jac = jacobian(state, net).assembled
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        lu, piv = scipy.linalg.lu_factor(jac)
    if np.min(np.abs(np.diag(lu))) < PIVOT_TOL:
        raise SingularJacobian(f"pivot below {PIVOT_TOL} in Newton linear solve")
    dx = scipy.linalg.lu_solve((lu, piv), -mm.stacked)
    ns, pq = net.non_slack_indices, net.pq_indices
    new = state.copy()
    new.delta[ns] += dx[: len(ns)]
    new.v_mag[pq] *= 1.0 + dx[len(ns):]
    return new, mm.inf_norm


def _solution(net, state, iterations, history, converged) -> PowerFlowSolution:
    p_calc, q_calc = calc_injections(state, net)
    return PowerFlowSolution(
        v_mag=state.v_mag.copy(),
        delta=state.delta.copy(),
        p_calc=p_calc,
        q_calc=q_calc,
        iterations=iterations,
        mismatch_history=list(history),
        converged=converged,
    )


def solve(net: NetworkModel, opts: SolveOptions | None = None) -> PowerFlowSolution:
    """Newton-Raphson from the configured start until the mismatch infinity
    norm drops below tol. Raises NotConverged (with norm history) otherwise."""
    opts = opts if opts is not None else SolveOptions()
    state = initial_state(net, flat_start=opts.flat_start)
    norm = mismatch(state, net).inf_norm
    if norm < opts.tol:
        return _solution(net, state, 0, [norm], True)
    history: list[float] = []
    for k in range(1, opts.max_iter + 1):
        state, _ = nr_step(state, net)
        norm = mismatch(state, net).inf_norm
        history.append(norm)
        if norm < opts.tol:
            return _solution(net, state, k, history, True)
    raise NotConverged(
        f"mismatch norm {norm:.3e} after {opts.max_iter} iterations (tol {opts.tol:.1e})",
        history,
    )


def gauss_seidel_oracle(
    net: NetworkModel, tol: float = 1e-10, max_iter: int = 10000
) -> PowerFlowSolution:
    """Plain Gauss-Seidel sweep solver kept as an independent cross-check.

    PV buses substitute their calculated reactive power and renormalize the
    voltage magnitude to the setpoint after each update. Convergence uses the
    same mismatch metric as solve(). Not used by solve() itself.
    """
    p_sch, q_sch = net.p_sched, net.q_sched
    y = net.ybus.entries
    volt = _voltages(initial_state(net, flat_start=True))
    pv = set(net.pv_indices)
    vset = {i: net.buses[i].v_mag for i in net.pv_indices}
    history: list[float] = []
    for k in range(1, max_iter + 1):
        for i in net.non_slack_indices:
            current = y[i] @ volt
            if i in pv:
                q_i = -np.imag(np.conj(volt[i]) * current)
            else:
                q_i = q_sch[i]
            s_conj = p_sch[i] - 1j * q_i
            volt[i] = (s_conj / np.conj(volt[i]) - (current - y[i, i] * volt[i])) / y[i, i]
            if i in pv:
                volt[i] = vset[i] * volt[i] / abs(volt[i])
        state = StateVector(np.angle(volt), np.abs(volt))
        norm = mismatch(state, net).inf_norm
        history.append(norm)
        if norm < tol:
            return _solution(net, state, k, history, True)
    raise NotConverged(
        f"Gauss-Seidel mismatch norm {norm:.3e} after {max_iter} sweeps", history
    )
