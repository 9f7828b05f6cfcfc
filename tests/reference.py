"""Reference solvers that the tests check the package against."""
import math
import struct

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
from qnpflow.qsim import (
    BLOCK_CYCLES,
    PAULI,
    STEADY_TOL,
    CollisionParams,
    DensityMatrix,
    PropagatorMode,
    ReservoirSpec,
    _check_spin,
    _damping_kraus,
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


def settle_cycles_per_block(r0: np.ndarray, lam: np.ndarray, parts: np.ndarray,
                            max_cycles: int) -> np.ndarray:
    """qsim._settle_cycles one block of BLOCK_CYCLES cycles at a time.

    Each block takes the power table's first rows times the readouts scaled
    to the block's start, and settled points leave after every block. The
    table holds the running products of mu = lam / radius, as the scan's does.
    """
    cycles = np.zeros(lam.shape[0], dtype=int)
    active = np.arange(lam.shape[0])
    mu = lam / np.abs(lam).max(axis=1, keepdims=True)
    table = np.cumprod(np.repeat(mu[:, None, :], BLOCK_CYCLES, axis=1), axis=1)   # mu^k
    readout = parts[:, [0, 3], :].swapaxes(1, 2)                                  # (B, modes, 2)
    base = np.ones_like(mu)                                                       # mu^start
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


SIGMA_PLUS = np.array([[0.0, 1.0], [0.0, 0.0]])
SIGMA_MINUS = SIGMA_PLUS.T.copy()

# Complex entries of the (4, 2d, 2d) joint states that transfer_matrices
# stacks at once (4 MB), so a curve's reservoirs go through in chunks.
MAP_CHUNK_ELEMENTS = 2**18


def spin_ladder(spin_j: float) -> np.ndarray:
    """Real raising operator J+ in the |J, m> basis ordered m = J down to -J,
    so J- = J+.T.

    <m+1| J+ |m> = sqrt(J(J+1) - m(m+1)).
    """
    j = _check_spin(spin_j)
    dim = int(round(2 * j + 1))
    m = j - np.arange(dim)
    j_plus = np.zeros((dim, dim))
    for k in range(1, dim):
        j_plus[k - 1, k] = math.sqrt(j * (j + 1) - m[k] * (m[k] + 1))
    return j_plus


def reservoir_unit_state(spec: ReservoirSpec) -> DensityMatrix:
    """Spin-coherent pure state |theta, phi> of one reservoir unit, one
    amplitude at a time: sqrt(C(2J, k)) cos(theta/2)^(2J-k)
    (e^{i phi} sin(theta/2))^k on m = J - k."""
    two_j = int(round(2 * _check_spin(spec.spin_j)))
    cos_h = math.cos(spec.theta / 2.0)
    sin_h = math.sin(spec.theta / 2.0)
    phase = complex(math.cos(spec.phi), math.sin(spec.phi))
    amps = np.array(
        [
            math.sqrt(math.comb(two_j, k)) * cos_h ** (two_j - k) * (phase * sin_h) ** k
            for k in range(two_j + 1)
        ]
    )
    return DensityMatrix(np.outer(amps, amps.conj()))


def collision_unitary(g, spin_j: float, params: CollisionParams) -> np.ndarray:
    """Joint probe-unit propagator of one collision, for couplings g of any
    shape at one spin, stacked along g's axes.

    ExactExponential diagonalizes H = g (sigma+ J- + sigma- J+) and
    exponentiates the spectrum. SecondOrderTruncation keeps the literal
    polynomial 1 - i tau H - (tau^2/2) H^2.
    """
    g = np.asarray(g)
    j_plus = spin_ladder(spin_j)
    ham = g[..., None, None] * (np.kron(SIGMA_PLUS, j_plus.T) + np.kron(SIGMA_MINUS, j_plus))
    if params.propagator_mode is PropagatorMode.SECOND_ORDER_TRUNCATION:
        eye = np.eye(ham.shape[-1], dtype=complex)
        return eye - 1j * params.tau * ham - 0.5 * params.tau**2 * (ham @ ham)
    w, v = np.linalg.eigh(ham)
    return (v * np.exp(-1j * w * params.tau)[..., None, :]) @ v.conj().swapaxes(-1, -2)


def collide(probe_arr: np.ndarray, unit_arr: np.ndarray, u: np.ndarray, kraus) -> np.ndarray:
    """Probe state after one collision: the joint state kron(probe, unit)
    conjugated by u, the unit traced out, then the damping Kraus pair.
    Leading axes of the probe (..., 2, 2), unit (..., d, d) and u
    (..., 2d, 2d) arrays broadcast against each other."""
    dim = unit_arr.shape[-1]
    joint = probe_arr[..., :, None, :, None] * unit_arr[..., None, :, None, :]
    joint = joint.reshape(joint.shape[:-4] + (2 * dim, 2 * dim))
    evolved = u @ joint @ u.conj().swapaxes(-1, -2)
    reduced = np.einsum("...ikjk->...ij", evolved.reshape(evolved.shape[:-2] + (2, dim, 2, dim)))
    if kraus is not None:
        k0, k1 = kraus
        reduced = k0 @ reduced @ k0.conj().T + k1 @ reduced @ k1.conj().T
    return reduced


def transfer_matrices(specs: list[ReservoirSpec], params: CollisionParams) -> np.ndarray:
    """qsim._transfer_matrices through the joint probe-unit state: column k
    of a reservoir's map is the Pauli vector of collide applied to P_k with
    collision_unitary(r.g, r.spin_j, params). Reservoirs of one spin go
    through as stacks of at most MAP_CHUNK_ELEMENTS joint-state entries, each
    distinct unit state built once per chunk."""
    kraus = _damping_kraus(params)
    maps = np.empty((len(specs), 4, 4))
    for spin_j in sorted({r.spin_j for r in specs}):
        idx = [i for i, r in enumerate(specs) if r.spin_j == spin_j]
        dim = 2 * int(round(2 * spin_j)) + 2
        chunk = max(1, MAP_CHUNK_ELEMENTS // (4 * dim * dim))
        for part in (idx[lo:lo + chunk] for lo in range(0, len(idx), chunk)):
            u = collision_unitary(np.array([specs[i].g for i in part]), spin_j, params)
            keys = [struct.pack("dd", specs[i].theta, specs[i].phi) for i in part]
            states = {key: reservoir_unit_state(specs[i]).entries
                      for key, i in dict(zip(keys, part)).items()}
            units = np.array([states[key] for key in keys])
            images = collide(PAULI, units[:, None], u[:, None], kraus)
            maps[part] = np.einsum("jab,nkba->njk", PAULI, images).real / 2
    return maps
