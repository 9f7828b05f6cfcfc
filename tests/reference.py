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
