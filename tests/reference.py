"""Reference solvers that the tests check the package against."""
import math
import struct

import numpy as np

from qnpflow import powerflow, qsim
from qnpflow.errors import NoCoupling, NotConverged, ValidationError
from qnpflow.grid import NetworkModel
from qnpflow.powerflow import (
    BatchSolution,
    PowerFlowSolution,
    SolveOptions,
    StateVector,
    _check_tol,
    _equations,
    _inf_norms,
    _voltages,
    calc_injections,
    initial_state,
    mismatch,
)
from qnpflow.qsim import (
    BLOCK_CYCLES,
    PAULI,
    CollisionParams,
    DensityMatrix,
    PropagatorMode,
    ReservoirSpec,
    _check_finite,
    _check_spin,
    _damping_kraus,
    _prefix_products,
    _transfer_matrices,
    plus_state,
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


def block_jacobian(state: StateVector, net: NetworkModel, v: np.ndarray | None = None) -> np.ndarray:
    """The mismatch Jacobian as the np.block assembly of four fancy-indexed
    slices of the stacked bus derivatives dS/d(delta) = j (diag(S) - vy) and
    |V| dS/d|V| = diag(S) + vy, with vy[i, k] = V_i conj(Y_ik V_k): the form
    that powerflow.jacobian's one gather replaced. V is formed from the
    state, whatever `v` is passed, so a stale `v` shows."""
    v = _voltages(state)
    vy = v[..., :, None] * np.conj(net.ybus.entries * v[..., None, :])
    s = np.zeros_like(vy)
    diag = np.arange(net.n)
    s[..., diag, diag] = vy.sum(axis=-1)
    ds_dd = 1j * (s - vy)
    ds_dv = s + vy
    ns, pq = net.non_slack_indices, net.pq_indices
    return np.block([[-ds_dd.real[..., ns[:, None], ns], -ds_dv.real[..., ns[:, None], pq]],
                     [-ds_dd.imag[..., pq[:, None], ns], -ds_dv.imag[..., pq[:, None], pq]]])


def masked_newton_update(state: StateVector, net: NetworkModel, f: np.ndarray) -> tuple[StateVector, np.ndarray]:
    """The Newton update that gathers the Jacobian, mismatch and state
    through the pivot mask on every step, even when every pivot passes."""
    jac = powerflow.jacobian(state, net)
    ok = powerflow._pivots_reach_tol(jac)
    dx = np.linalg.solve(jac[ok], -f[ok][..., None])[..., 0]
    ns, pq = net.non_slack_indices, net.pq_indices
    delta, v_mag = state.delta[ok], state.v_mag[ok]
    delta[:, ns] += dx[:, :len(ns)]
    v_mag[:, pq] *= 1.0 + dx[:, len(ns):]
    return StateVector(delta, v_mag), ok


def masked_solve_batch(
    net: NetworkModel,
    start: StateVector,
    p_sched: np.ndarray,
    q_sched: np.ndarray,
    tol: float,
    max_iter: int | np.ndarray,
) -> BatchSolution:
    """solve_batch as a loop over full-size arrays: every step gathers the
    active cases' rows by index and scatters their new state, injections,
    mismatch and norms back. Jacobians and injections are taken through the
    powerflow module, so a patched `jacobian` or `calc_injections` reaches
    both solvers."""
    _check_tol(tol)
    b = len(p_sched)
    caps = np.broadcast_to(max_iter, (b,))
    if np.any(caps < 0):
        raise ValidationError(f"step caps must be non-negative, got {caps.min()}")
    state = StateVector(np.broadcast_to(start.delta, p_sched.shape).copy(),
                        np.broadcast_to(start.v_mag, p_sched.shape).copy())
    p, q = powerflow.calc_injections(state, net)
    f = _equations(p_sched, q_sched, net) - _equations(p, q, net)
    norms = np.full((b, int(caps.max(initial=0)) + 1), np.nan)
    norms[:, 0] = _inf_norms(f)
    iterations = np.zeros(b, dtype=int)
    singular = np.zeros(b, dtype=bool)
    active = np.flatnonzero(~(norms[:, 0] < tol) & (caps > 0))
    k = 0
    while active.size:
        k += 1
        new, ok = masked_newton_update(StateVector(state.delta[active], state.v_mag[active]), net, f[active])
        singular[active[~ok]] = True
        active = active[ok]
        state.delta[active], state.v_mag[active] = new.delta, new.v_mag
        p[active], q[active] = powerflow.calc_injections(new, net)
        f[active] = _equations(p_sched[active], q_sched[active], net) - _equations(p[active], q[active], net)
        norms[active, k] = _inf_norms(f[active])
        iterations[active] = k
        active = active[~(norms[active, k] < tol) & (k < caps[active])]
    # solve_batch keeps the columns up to the most steps taken; the others hold no norm
    width = iterations.max(initial=0) + 1
    assert np.isnan(norms[:, width:]).all()
    norms = norms[:, :width]
    converged = norms[np.arange(b), iterations] < tol
    return BatchSolution(state.delta, state.v_mag, p, q, iterations, norms, converged, singular)


# r of |+>, where every chain of steady_states starts.
PLUS_PAULI = np.einsum("kab,ba->k", PAULI, plus_state().entries).real

# Eigenvalues of a cycle map count as one when they differ by at most
# MODE_TOL, and as of equal modulus when their moduli do.
MODE_TOL = 1e-12


def steady_states(
    reservoir_sets: list[list[ReservoirSpec]],
    params: CollisionParams | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Exact steady states of many collision chains started from |+>, one per
    reservoir set, through the eigenmodes of their 4x4 cycle maps: arrays
    sigma_z, collisions_used and converged, one entry per set. Units may sit
    at any theta and phi; qsim.transfer_curve solves its pole units on their
    2x2 population chain instead.

    Every set holds the same number n of reservoirs, so one schedule cycle is
    n collisions in round-robin order, and the cycle map is C = S_n...S_1.
    sigma_z averages the within-cycle prefixes applied to the fixed point of
    C, as evolve_collisions averages the final cycle; it does not depend on
    the cap.

    collisions_used and converged are those of stepping the collisions one
    at a time, as evolve_collisions does: the first cycle k at which
    |sigma_z(C^k r0) - sigma_z(C^(k-1) r0)| drops below STEADY_TOL, capped at
    params.n_collisions. Raises ValidationError when sigma_z has no limit,
    or when g and tau are so large that a collision map overflows a float.
    """
    params = params if params is not None else CollisionParams()
    sizes = {len(rs) for rs in reservoir_sets}
    if not sizes or 0 in sizes:
        raise ValidationError("at least one reservoir is required")
    if len(sizes) > 1:
        raise ValidationError(f"reservoir sets must all have one length, got {sorted(sizes)}")
    if any(all(r.g == 0 for r in rs) for rs in reservoir_sets):
        raise NoCoupling("all reservoir couplings are zero")

    cycle = sizes.pop()
    specs = [r for rs in reservoir_sets for r in rs]
    with np.errstate(over="ignore", invalid="ignore"):
        prefixes = _prefix_products(_transfer_matrices(specs, params).reshape(-1, cycle, 4, 4))
    _check_finite(prefixes, max(r.g for r in specs), params.tau)

    lam, parts, fixed = _cycle_modes(PLUS_PAULI, prefixes)
    states = (prefixes @ fixed[:, None, :, None])[..., 0]
    sigma_z = np.mean(states[..., 3] / states[..., 0], axis=1)
    settle = _settle_cycles(PLUS_PAULI, lam, parts, params.n_collisions // cycle)
    converged = settle > 0
    return sigma_z, np.where(converged, settle * cycle, params.n_collisions), converged


def _cycle_modes(r0: np.ndarray, prefixes: np.ndarray):
    """Eigenmodes of the cycle maps prefixes[:, -1] as seen from r0, and the
    fixed points they lead to.

    Returns the eigenvalues (B, 4), the modes parts[b, :, i] = c_i v_i with
    r0 = sum_i c_i v_i, and the real fixed points (B, 4): r0 projected onto
    every mode at the positive eigenvalue of maximal modulus. Raises
    ValidationError when another mode of that modulus moves r_0 or r_3 under
    some prefix, since sigma_z then oscillates without a limit. Also raises
    when the coupling is too weak for eig: when a mode outside the fixed ones
    that moves r_0 or r_3 lies so near the fixed eigenvalue that eig's
    rounding of the fixed point (about eps / gap, relative) exceeds
    STEADY_TOL, or when every mode counts as fixed, which would return r0.
    """
    lam, vecs = np.linalg.eig(prefixes[:, -1])    # real where every eigenvalue is
    coef = np.linalg.solve(vecs, np.broadcast_to(r0[:, None], vecs.shape[:-1] + (1,)))
    parts = vecs * coef[..., 0][:, None, :]
    radius = np.abs(lam).max(axis=1, keepdims=True)
    gap = np.abs(lam - radius)
    fixed = gap <= MODE_TOL
    moving = (np.abs(np.abs(lam) - radius) <= MODE_TOL) & ~fixed
    readout = np.abs(prefixes @ parts[:, None])[:, :, [0, 3], :]
    reaches = np.any(readout > MODE_TOL * np.abs(r0).max(), axis=(1, 2))
    if np.any(moving & reaches) or not np.all(fixed.any(axis=1)):
        raise ValidationError("sigma_z has no limit: a cycle map has modes of equal "
                              "modulus and different eigenvalues that reach the readout")
    blurred = (reaches & (np.finfo(float).eps * radius > qsim.STEADY_TOL * gap)
               & (~fixed | fixed.all(axis=1, keepdims=True)))
    if blurred.any():
        raise ValidationError(
            f"coupling too weak to resolve: a cycle-map mode that moves sigma_z lies within "
            f"{(gap / radius)[blurred].max():.1e} of the fixed one, too near for eig to "
            f"separate them; raise g or tau")
    return lam, parts, (parts * fixed[:, None, :]).sum(axis=2).real


def _settle_cycles(r0: np.ndarray, lam: np.ndarray, parts: np.ndarray,
                   max_cycles: int) -> np.ndarray:
    """First cycle k <= max_cycles at which sigma_z of C^k r0 moves by less
    than STEADY_TOL from C^(k-1) r0, with C^k r0 = sum_i lam_i^k c_i v_i.

    sigma_z is a ratio, so the scan reads mu = lam / radius in place of lam,
    which keeps every power within [0, 1] in modulus. Every point starts at
    cycle 0 and the scan reads BLOCK_CYCLES cycles per block: the power
    table's first rows, the running products of mu, times the readouts scaled
    by mu^start. Settled points leave after every block. Returns k per point,
    0 where it does not settle.
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
        small = np.abs(np.diff(values, axis=1, prepend=prev[:, None])) < qsim.STEADY_TOL
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
