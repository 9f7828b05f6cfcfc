"""Reference solvers that the tests check the package against."""
import numpy as np

from qnpflow.errors import NotConverged
from qnpflow.grid import NetworkModel
from qnpflow.powerflow import (
    PowerFlowSolution,
    SolveOptions,
    StateVector,
    _inf_norms,
    _voltages,
    calc_injections,
    initial_state,
    mismatch,
)
from qnpflow.qsim import BLOCK_CYCLES, STEADY_TOL


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


def gauss_seidel_oracle(
    net: NetworkModel, tol: float = 1e-10, max_iter: int = 10000
) -> PowerFlowSolution:
    """Plain Gauss-Seidel sweep solver, an independent cross-check of solve().

    PV buses substitute their calculated reactive power and renormalize the
    voltage magnitude to the setpoint after each update. Convergence uses the
    same mismatch metric as solve(). tol and max_iter are checked as
    SolveOptions checks them.
    """
    SolveOptions(tol=tol, max_iter=max_iter)
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
        norm = float(_inf_norms(mismatch(state, net)))
        history.append(norm)
        if norm < tol:
            return _solution(net, state, k, history, True)
    raise NotConverged(
        f"Gauss-Seidel mismatch norm {norm:.3e} after {max_iter} sweeps", history
    )


def settle_cycles_per_block(r0: np.ndarray, lam: np.ndarray, parts: np.ndarray,
                            max_cycles: int) -> np.ndarray:
    """qsim._settle_cycles one block of BLOCK_CYCLES cycles at a time.

    Each block takes the power table's first rows times the readouts scaled
    to the block's start, and settled points leave after every block.
    """
    cycles = np.zeros(lam.shape[0], dtype=int)
    active = np.arange(lam.shape[0])
    table = lam[:, None, :] ** np.arange(1, BLOCK_CYCLES + 1)[:, None]   # lam^k
    readout = parts[:, [0, 3], :].swapaxes(1, 2)                         # (B, modes, 2)
    base = np.ones_like(lam)                                             # lam^start
    prev = np.full(lam.shape[0], r0[3] / r0[0])
    start = 0
    while active.size and start < max_cycles:
        size = min(BLOCK_CYCLES, max_cycles - start)
        ends = (table[:, :size] @ (base[:, :, None] * readout)).real
        values = ends[..., 1] / ends[..., 0]
        small = np.abs(np.diff(values, axis=1, prepend=prev[:, None])) < STEADY_TOL
        hit = small.any(axis=1)
        cycles[active[hit]] = start + small[hit].argmax(axis=1) + 1
        base, prev = base * table[:, size - 1], values[:, -1]
        if hit.any():
            keep = ~hit
            active, table, readout, base, prev = (
                x[keep] for x in (active, table, readout, base, prev))
        start += size
    return cycles
