"""Newton-Raphson AC power flow.

State convention: the state is polar, angles in radians and magnitudes in
per-unit, with the buses along the last axis; leading axes stack load cases
of one network. solve_batch runs Newton on such a stack, and solve() is its
one-case form. Injections and their derivatives are taken in complex form,
S = V conj(Y V), with MATPOWER's dS/d(delta) and dS/d|V| (Zimmerman, MATPOWER
Technical Note 2, 2010). The Jacobian is the derivative of the mismatch vector
(scheduled minus calculated), so the Newton correction solves J dx = -F and
the analytic blocks can be checked directly against finite differences of
mismatch().
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, NotConverged, SingularJacobian, ValidationError
from .grid import NetworkModel

PIVOT_TOL = 1e-12
PIVOT_MARGIN = 1e6  # see _pivots_reach_tol


def _check_tol(tol: float) -> None:
    if not 0 < tol < math.inf:
        raise ValidationError(f"tol must be finite and positive, got {tol}")


@dataclass
class SolveOptions:
    tol: float = 1e-8
    max_iter: int = 20
    flat_start: bool = True

    def __post_init__(self):
        _check_tol(self.tol)
        if self.max_iter < 1:
            raise ValidationError(f"max_iter must be at least 1, got {self.max_iter}")


@dataclass
class StateVector:
    """Bus voltage state: full-length arrays with slack/PV entries held fixed.

    The arrays are (n,) for one case or (B, n) for a stack of B cases.
    """

    delta: np.ndarray
    v_mag: np.ndarray

    def __post_init__(self):
        self.delta = np.asarray(self.delta, dtype=float)
        self.v_mag = np.asarray(self.v_mag, dtype=float)
        if self.delta.shape != self.v_mag.shape or self.delta.ndim not in (1, 2):
            raise DimensionMismatch(
                f"state arrays must be 1-D or 2-D and equal shape, got {self.delta.shape} and {self.v_mag.shape}"
            )


@dataclass
class PowerFlowSolution:
    v_mag: np.ndarray
    delta: np.ndarray
    p_calc: np.ndarray
    q_calc: np.ndarray
    iterations: int
    mismatch_history: list[float]
    converged: bool


@dataclass
class BatchSolution:
    """Per-case results of solve_batch, stacked along the first axis.

    `norms[b, k]` is case b's mismatch norm after k Newton steps (column 0 at
    the start state), NaN past its last state, with columns up to the most
    steps any case took; `iterations[b]` counts its steps. The state and
    injections are those of the last state reached. A case is `singular`
    when it stopped at a pivot below PIVOT_TOL.
    """

    delta: np.ndarray
    v_mag: np.ndarray
    p_calc: np.ndarray
    q_calc: np.ndarray
    iterations: np.ndarray
    norms: np.ndarray
    converged: np.ndarray
    singular: np.ndarray

    def history(self, b: int) -> list[float]:
        """Case b's norms after each step, or its start norm if it took none."""
        k = int(self.iterations[b])
        return self.norms[b, 1:k + 1].tolist() if k else self.norms[b, :1].tolist()


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
    if state.delta.shape[-1] != net.n:
        raise DimensionMismatch(f"state has {state.delta.shape[-1]} buses, network has {net.n}")


def _voltages(state: StateVector) -> np.ndarray:
    return state.v_mag * np.exp(1j * state.delta)


def calc_injections(state: StateVector, net: NetworkModel,
                    v: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Net injected (P, Q) per bus: S = V conj(Y V) with V = |V| exp(j delta),
    or the state's voltages `v` where given."""
    _check_state(state, net)
    if v is None:
        v = _voltages(state)
    s = v * np.conj((net.ybus.entries @ v[..., None])[..., 0])
    return s.real, s.imag


def _equations(p, q, net: NetworkModel) -> np.ndarray:
    """The entries (..., m) of the solvable equations: P at the non-slack
    buses, then Q at the PQ buses, each in bus order."""
    return np.concatenate([p[..., net.non_slack_indices], q[..., net.pq_indices]], axis=-1)


def _inf_norms(f: np.ndarray) -> np.ndarray:
    return np.abs(f).max(axis=-1, initial=0.0)


def mismatch(state: StateVector, net: NetworkModel) -> np.ndarray:
    """Scheduled minus calculated power over the solvable equations, (..., m):
    P at the non-slack buses, then Q at the PQ buses, each in bus order."""
    p_calc, q_calc = calc_injections(state, net)
    return _equations(net.p_sched, net.q_sched, net) - _equations(p_calc, q_calc, net)


def jacobian(state: StateVector, net: NetworkModel, v: np.ndarray | None = None) -> np.ndarray:
    """Analytic mismatch Jacobian (..., m, m): the negated injection derivatives.

    Rows follow mismatch() (P at the non-slack buses, then Q at the PQ
    buses); columns are delta at the non-slack buses, then |V| at the PQ
    buses. The |V| columns carry the |V| d/d|V| scaling that pairs with the
    multiplicative dV/|V| update. With vy[i, k] = V_i conj(Y_ik) conj(V_k),
    whose row sums are S:
        dS/d(delta)  = j (diag(S) - vy)
        |V| dS/d|V|  = diag(S) + vy
    P is the real part and Q the imaginary part of each. `v` is the state's
    voltages, formed here where not given.

    Entry rule: entry = -(sign * x + 0.0), where one gather
    (NetworkModel.jacobian_index) reads x from vy off the diagonal and from
    S - vy_ii (delta columns) or S + vy_ii (|V| columns) on it.
    -0.0 rule: the + 0.0 turns x = -0.0 into +0.0, so every zero entry is
    -0.0, as the two derivatives stacked in full give at each zero entry of
    Y. The stacked form agrees bit for bit except at three kinds of entry:
    an off-diagonal vy that is exactly real and positive, and an exactly
    zero part of S -/+ vy_ii, where its zero takes the other sign; and a
    part that is inf or NaN, where its j (diag(S) - vy) gives NaN for the
    other part too.
    """
    _check_state(state, net)
    if v is None:
        v = _voltages(state)
    n = net.n
    table = np.empty((*v.shape[:-1], n + 1, n), dtype=complex)
    vy = table[..., :n, :]
    np.multiply(net.ybus_conj, np.conj(v)[..., None, :], out=vy)
    np.multiply(v[..., :, None], vy, out=vy)
    s = vy.sum(axis=-1)
    diag = np.arange(n)
    vy_diag = vy[..., diag, diag]
    table[..., n, :] = s + vy_diag
    vy[..., diag, diag] = s - vy_diag
    position, sign = net.jacobian_index
    jac = np.take(table.reshape(*v.shape[:-1], -1).view(float), position, axis=-1)
    jac *= sign
    jac += 0.0
    return np.negative(jac, out=jac)


def _lu_pivots(a: np.ndarray) -> np.ndarray:
    """Pivots of partial-pivot LU on a stack (B, m, m): the diagonal of U.

    Each column takes the first row of largest magnitude, as LAPACK's getrf
    does. After an exact zero pivot the later pivots are inf or NaN.
    """
    a = a.copy()
    m = a.shape[-1]
    rows = np.arange(len(a))
    piv = np.empty(a.shape[:-1])
    with np.errstate(divide="ignore", invalid="ignore"):
        for k in range(m):
            p = k + np.abs(a[:, k:, k]).argmax(axis=-1)
            pivot_rows = a[rows, p]
            a[rows, p] = a[:, k]
            a[:, k] = pivot_rows
            piv[:, k] = pivot_rows[:, k]
            if k + 1 < m:
                a[:, k + 1:, k + 1:] -= a[:, k + 1:, k:k + 1] / a[:, k:k + 1, k:k + 1] * a[:, k:k + 1, k + 1:]
    return piv


def _pivots_reach_tol(jac: np.ndarray) -> np.ndarray:
    """Mask of the matrices in a stack (B, m, m) whose partial-pivot LU
    pivots (_lu_pivots) all reach PIVOT_TOL in magnitude.

    Most rows are settled by one determinant. With alpha = max |J_ij|,
    partial pivoting keeps |u_kk| <= 2^(k-1) alpha (Wilkinson 1961; Higham,
    Accuracy and Stability of Numerical Algorithms, 9.3), so every pivot is
    at least |det J| / (2^(m(m-1)/2) alpha^(m-1)). A row is cleared when
    this bound exceeds PIVOT_MARGIN times both PIVOT_TOL and eps * alpha.
    Why the margin suffices: the scan's rounded pivots and det's are exact
    for J + E and J + F with |E|, |F| < m^3 2^m eps alpha (Higham, Thm 9.3).
    With the bound above 1e6 eps alpha, ||(J + F)^-1 (E - F)|| < 0.04 for
    every m (the worst is m = 6), so |det(J + E)| is at least 3/4 of the
    computed |det J| and every pivot of the scan at least 3/4 of the bound:
    far above PIVOT_TOL. The eps term keeps a singular matrix, whose
    |det(J / alpha)| is rounding noise up to ~1e-16, from being cleared at
    large alpha. The comparison is strict, so rows with alpha = 0, NaN or
    inf fall through. Only the rows not cleared run the scan, so the mask is
    the scan's, row for row.
    """
    m = jac.shape[-1]
    alpha = np.abs(jac).max(axis=(-2, -1), initial=0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        bound = np.ldexp(np.abs(np.linalg.det(jac / alpha[:, None, None])) * alpha, -(m * (m - 1) // 2))
        ok = bound > PIVOT_MARGIN * np.maximum(PIVOT_TOL, np.finfo(float).eps * alpha)
    if not ok.all():
        # any(), not min(): the pivots after an exact zero are NaN
        ok[~ok] = ~np.any(np.abs(_lu_pivots(jac[~ok])) < PIVOT_TOL, axis=-1)
    return ok


def _newton_update(state: StateVector, net: NetworkModel, f: np.ndarray,
                   v: np.ndarray | None = None) -> tuple[StateVector, np.ndarray]:
    """Newton corrections for a stack of states (B, n) with stacked mismatches
    f (B, m) and, where given, voltages v (B, n): solve J dx = -F and apply
    the angle/magnitude update.

    Returns the corrected states of the cases whose LU pivots all reach
    PIVOT_TOL, as new arrays, and the mask of those cases. The steps come
    from np.linalg.solve; the pivots serve only the check. Only a failed
    pivot costs a gather.
    """
    jac = jacobian(state, net, v)
    ok = _pivots_reach_tol(jac)
    if ok.all():
        delta, v_mag = state.delta.copy(), state.v_mag.copy()
    else:
        jac, f, delta, v_mag = jac[ok], f[ok], state.delta[ok], state.v_mag[ok]
    dx = np.linalg.solve(jac, -f[..., None])[..., 0]
    ns, pq = net.non_slack_indices, net.pq_indices
    delta[:, ns] += dx[:, :len(ns)]
    v_mag[:, pq] *= 1.0 + dx[:, len(ns):]
    return StateVector(delta, v_mag), ok


def nr_step(state: StateVector, net: NetworkModel) -> tuple[StateVector, float]:
    """One Newton correction: solve J dx = -F, apply the angle/magnitude update.

    Returns the new state and the mismatch infinity norm at the input state.
    """
    f = mismatch(state, net)
    new, ok = _newton_update(StateVector(state.delta[None], state.v_mag[None]), net, f[None])
    if not ok[0]:
        raise SingularJacobian(f"pivot below {PIVOT_TOL} in Newton linear solve")
    return StateVector(new.delta[0], new.v_mag[0]), float(_inf_norms(f))


def solve_batch(
    net: NetworkModel,
    start: StateVector,
    p_sched: np.ndarray,
    q_sched: np.ndarray,
    tol: float,
    max_iter: int | np.ndarray,
) -> BatchSolution:
    """Newton-Raphson on B load cases of one network at once.

    Row b of `p_sched`/`q_sched` (B, n) is case b's per-unit schedule, NaN
    where unknown. `start` and the step cap `max_iter` broadcast to the
    cases. A case leaves the active set when its mismatch infinity norm drops
    below tol, when its Jacobian has a pivot below PIVOT_TOL, or at its cap;
    the others step on. A case with cap 0 keeps its start state; a negative
    cap, or a tol that is not finite and positive, raises ValidationError.
    Voltages V = |V| exp(j delta) and injections are formed once per state,
    and V is handed to jacobian; the schedule's entries at the solvable
    equations are gathered once per call. Each row of the result is bit for
    bit what a batch of that case alone gives.

    The cases still stepping keep their state, voltages, injections,
    mismatch, schedule and cap in working rows, which shrink only when a case
    retires; each retired case's row of the result is written once.
    """
    _check_tol(tol)
    b = len(p_sched)
    caps = np.broadcast_to(max_iter, (b,))
    if np.any(caps < 0):
        raise ValidationError(f"step caps must be non-negative, got {caps.min()}")
    state = StateVector(np.broadcast_to(start.delta, p_sched.shape).copy(),
                        np.broadcast_to(start.v_mag, p_sched.shape).copy())
    sched = _equations(p_sched, q_sched, net)
    v = _voltages(state)
    p, q = calc_injections(state, net, v)
    f = sched - _equations(p, q, net)
    norms = [_inf_norms(f)]  # column k: each case's norm after k steps, NaN if it took fewer
    iterations = np.zeros(b, dtype=int)
    singular = np.zeros(b, dtype=bool)
    rows = np.flatnonzero(~(norms[0] < tol) & (caps > 0))
    live = StateVector(state.delta[rows], state.v_mag[rows])
    live_v, live_p, live_q, live_f = v[rows], p[rows], q[rows], f[rows]
    live_sched, live_caps = sched[rows], caps[rows]

    def write(done, k):
        """The working rows where `done` is set are their cases' result, at k steps."""
        out = rows[done]
        state.delta[out], state.v_mag[out] = live.delta[done], live.v_mag[done]
        p[out], q[out], iterations[out] = live_p[done], live_q[done], k

    k = 0
    with np.errstate(over="ignore", invalid="ignore"):  # a NaN norm never drops below tol
        while rows.size:
            k += 1
            new, ok = _newton_update(live, net, live_f, live_v)
            if not ok.all():  # a singular case keeps its last state
                singular[rows[~ok]] = True
                write(~ok, k - 1)
                rows, live_sched, live_caps = rows[ok], live_sched[ok], live_caps[ok]
            live = new
            live_v = _voltages(live)
            live_p, live_q = calc_injections(live, net, live_v)
            live_f = live_sched - _equations(live_p, live_q, net)
            norms.append(np.full(b, np.nan))
            norms[k][rows] = live_norms = _inf_norms(live_f)
            stop = (live_norms < tol) | (k >= live_caps)
            if stop.any():
                write(stop, k)
                keep = ~stop
                rows, live_sched, live_caps = rows[keep], live_sched[keep], live_caps[keep]
                live = StateVector(live.delta[keep], live.v_mag[keep])
                live_v, live_p, live_q, live_f = live_v[keep], live_p[keep], live_q[keep], live_f[keep]
    norms = np.stack(norms, axis=1)[:, :iterations.max(initial=0) + 1]
    converged = norms[np.arange(b), iterations] < tol
    return BatchSolution(state.delta, state.v_mag, p, q, iterations, norms, converged, singular)


def solve(net: NetworkModel, opts: SolveOptions | None = None) -> PowerFlowSolution:
    """Newton-Raphson from the configured start until the mismatch infinity
    norm drops below tol: solve_batch on the one case. Raises NotConverged
    (with norm history) or SingularJacobian otherwise."""
    opts = opts if opts is not None else SolveOptions()
    start = initial_state(net, flat_start=opts.flat_start)
    res = solve_batch(net, start, net.p_sched[None], net.q_sched[None], opts.tol, opts.max_iter)
    if res.singular[0]:
        raise SingularJacobian(f"pivot below {PIVOT_TOL} in Newton linear solve")
    history = res.history(0)
    if not res.converged[0]:
        raise NotConverged(
            f"mismatch norm {history[-1]:.3e} after {opts.max_iter} iterations (tol {opts.tol:.1e})",
            history,
        )
    return PowerFlowSolution(
        v_mag=res.v_mag[0],
        delta=res.delta[0],
        p_calc=res.p_calc[0],
        q_calc=res.q_calc[0],
        iterations=int(res.iterations[0]),
        mismatch_history=history,
        converged=True,
    )
