"""Collision-model simulation of a qubit probe coupled to spin-J information reservoirs.

The probe repeatedly interacts with fresh reservoir units prepared in
spin-coherent states. Each collision is a joint unitary generated by the
exchange Hamiltonian H = g (sigma+ J- + sigma- J+), followed by a partial
trace over the unit and optional amplitude damping of the probe.

Probe basis convention: index 0 is excited, index 1 is ground, so
sigma_z = diag(+1, -1) and a unit at theta=0 pumps the probe toward +1.
Unit index k holds m = J - k.
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .activation import ActivationCurve
from .errors import InvalidDensityMatrix, InvalidSpin, NoCoupling, ValidationError

STEADY_TOL = 1e-9

# Collision caps must fit the int64 counts that transfer_curve reports.
MAX_COLLISIONS = 2**63 - 1

# The most curve points: transfer_curve's widest array holds five floats per
# point, and numpy indexes no array of more bytes than np.intp holds.
MAX_POINTS = np.iinfo(np.intp).max // 40

# The largest spin whose binomials C(2J, k), which the unit states' amplitudes
# take the square roots of, fit a float: C(1030, 515) exceeds 1.8e308.
MAX_SPIN = 514.5


class PropagatorMode(enum.Enum):
    """How the per-collision propagator is built from the exchange Hamiltonian."""

    EXACT_EXPONENTIAL = "exact"
    SECOND_ORDER_TRUNCATION = "truncated"


def _check_spin(spin_j: float) -> float:
    two_j = 2.0 * spin_j
    if not math.isfinite(two_j) or abs(two_j - round(two_j)) > 1e-9 or spin_j < 0.5:
        raise InvalidSpin(f"spin must be a half-integer >= 1/2, got {spin_j}")
    if spin_j > MAX_SPIN:
        raise InvalidSpin(f"spin {spin_j} is too large: the largest spin accepted is {MAX_SPIN}")
    return spin_j


def _check_coupling(g: float) -> None:
    if not 0 <= g < math.inf:
        raise ValidationError(f"coupling g must be finite and non-negative, got {g}")


@dataclass(frozen=True)
class ReservoirSpec:
    """One information reservoir: unit state angles, spin size, coupling."""

    theta: float
    phi: float = 0.0
    spin_j: float = 0.5
    g: float = 0.01

    def __post_init__(self):
        _check_spin(self.spin_j)
        if not 0.0 <= self.theta <= math.pi:
            raise ValidationError(f"theta must lie in [0, pi], got {self.theta}")
        if not math.isfinite(self.phi):
            raise ValidationError(f"phi must be finite, got {self.phi}")
        _check_coupling(self.g)


@dataclass(frozen=True)
class CollisionParams:
    tau: float = 3.0
    n_collisions: int = 20000
    gamma: float = 0.0
    propagator_mode: PropagatorMode = PropagatorMode.EXACT_EXPONENTIAL

    def __post_init__(self):
        if not 0 < self.tau < math.inf:
            raise ValidationError(f"tau must be finite and positive, got {self.tau}")
        n = self.n_collisions
        integral = isinstance(n, (int, np.integer)) and not isinstance(n, bool)
        if not (integral and 1 <= n <= MAX_COLLISIONS):
            raise ValidationError(f"n_collisions must be an integer in [1, {MAX_COLLISIONS}], "
                                  f"got {n!r}")
        if not 0 <= self.gamma < math.inf:
            raise ValidationError(f"gamma must be finite and non-negative, got {self.gamma}")
        try:     # a mode or its value, such as "truncated"
            object.__setattr__(self, "propagator_mode", PropagatorMode(self.propagator_mode))
        except ValueError:
            raise ValidationError(f"propagator_mode must be a PropagatorMode or its value, "
                                  f"got {self.propagator_mode!r}") from None


@dataclass(frozen=True)
class DensityMatrix:
    """Read-only square complex matrix with finite entries."""

    entries: np.ndarray

    def __post_init__(self):
        arr = np.array(self.entries, dtype=complex)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise InvalidDensityMatrix(f"expected a square matrix, got shape {arr.shape}")
        if not np.all(np.isfinite(arr.view(float))):
            raise InvalidDensityMatrix("matrix contains non-finite entries")
        arr.setflags(write=False)
        object.__setattr__(self, "entries", arr)


def pure_state(vector: np.ndarray) -> DensityMatrix:
    v = np.asarray(vector, dtype=complex)
    v = v / np.linalg.norm(v)
    return DensityMatrix(np.outer(v, v.conj()))


def plus_state() -> DensityMatrix:
    """(|e> + |g>)/sqrt(2), the probe initialization used throughout."""
    return pure_state(np.array([1.0, 1.0]))


def unit_amplitudes(theta: np.ndarray, phi: np.ndarray, spin_j: float) -> np.ndarray:
    """Spin-coherent amplitudes |theta, phi> of reservoir units of one spin,
    shape theta.shape + (2J + 1,) for angle arrays of one shape.

    Amplitude on m = J - k is sqrt(C(2J, k)) cos(theta/2)^(2J-k)
    (e^{i phi} sin(theta/2))^k, which gives <J_z> = J cos(theta).
    """
    two_j = int(round(2 * _check_spin(spin_j)))
    k = np.arange(two_j + 1)
    binom = np.array([math.sqrt(math.comb(two_j, i)) for i in range(two_j + 1)])
    half = np.asarray(theta, dtype=float)[..., None] / 2
    phase = np.exp(1j * np.asarray(phi, dtype=float))[..., None]
    return binom * np.cos(half) ** (two_j - k) * (phase * np.sin(half)) ** k


def _damping_kraus(params: CollisionParams) -> tuple[np.ndarray, np.ndarray] | None:
    if params.gamma <= 0:
        return None
    p = 1.0 - math.exp(-params.gamma * params.tau)
    k0 = np.array([[math.sqrt(1.0 - p), 0.0], [0.0, 1.0]], dtype=complex)
    k1 = np.array([[0.0, 0.0], [math.sqrt(p), 0.0]], dtype=complex)
    return k0, k1


@dataclass
class SteadyStateResult:
    sigma_z: float
    rho: DensityMatrix
    collisions_used: int
    converged: bool


# Pauli basis I, X, Y, Z: the probe is carried as r = (tr rho, <X>, <Y>, <Z>)
# (unnormalized), so rho = sum_k r_k P_k / 2 and sigma_z = r_3 / r_0.
PAULI = np.array([np.eye(2), [[0, 1], [1, 0]], [[0, -1j], [1j, 0]], np.diag([1, -1])],
                 dtype=complex)

# A channel acts on the row-major vec(rho), vec(rho)[2a + c] = rho[a, c], as a
# 4x4 Liouville matrix; these take it to and from the Pauli basis, so that
# T = Re(TO_PAULI @ L @ FROM_PAULI) with T[j, l] = tr(P_j Phi(P_l)) / 2.
FROM_PAULI = PAULI.reshape(4, 4).T
TO_PAULI = PAULI.swapaxes(1, 2).reshape(4, 4) / 2

# Schedule cycles per block in evolve_collisions, where a block is one pair of
# numpy calls.
BLOCK_CYCLES = 256


def _liouville(kraus: np.ndarray) -> np.ndarray:
    """Liouville matrix sum_k K_k (x) conj(K_k) of Kraus operators given as
    (..., 4, n) with K_k[a, b] in row 2a + b, shape (..., 4, 4)."""
    lv = kraus @ kraus.conj().swapaxes(-1, -2)                 # rows ab, columns cd
    return lv.reshape(lv.shape[:-2] + (2, 2, 2, 2)).swapaxes(-3, -2).reshape(lv.shape)


def _transfer_matrices(specs: list[ReservoirSpec], params: CollisionParams) -> np.ndarray:
    """Transfer matrices of many reservoirs, shape (len(specs), 4, 4): column
    l of a reservoir's real 4x4 map T (r' = T r) is the Pauli vector of one
    collision applied to P_l.

    H = g (sigma+ J- + sigma- J+) conserves the excitation number: it couples
    only |1, k> with |0, k+1>, through c_k = <k|J+|k+1>, and leaves |0, 0> and
    |1, d-1> alone (d = 2J + 1). So the collision unitary is a direct sum of
    2x2 blocks with C_k = cos(g tau c_k) on the diagonal and -i S_k =
    -i sin(g tau c_k) off it. The truncated propagator 1 - i tau H - (tau^2/2)
    H^2 has C_k = 1 - (g tau c_k)^2 / 2 and S_k = g tau c_k, since H^2 =
    (g c_k)^2 on each block; it is not trace preserving, so T then changes
    r_0, which readouts divide out. The unit is pure, with amplitudes psi, so
    tracing it out leaves the probe d Kraus operators K_k = <k|U|psi>:
        K_k = [[C_(k-1) psi_k, -i S_(k-1) psi_(k-1)],
               [-i S_k psi_(k+1), C_k psi_k]],
    with C padded by 1, S and psi by 0 at both ends. The damping Kraus pair
    follows. Reservoirs of one spin go through as one stack.
    """
    kraus = _damping_kraus(params)
    to_pauli = TO_PAULI
    if kraus is not None:
        to_pauli = TO_PAULI @ _liouville(np.array(kraus).reshape(2, 4).T)
    maps = np.empty((len(specs), 4, 4))
    for spin_j in sorted({r.spin_j for r in specs}):
        idx = [i for i, r in enumerate(specs) if r.spin_j == spin_j]
        g, theta, phi = np.array([(specs[i].g, specs[i].theta, specs[i].phi) for i in idx]).T
        n, d = len(idx), int(round(2 * spin_j)) + 1
        m = spin_j - np.arange(1, d)                                # m of unit index k + 1
        angle = params.tau * g[:, None] * np.sqrt(spin_j * (spin_j + 1) - m * (m + 1))
        c, s = np.ones((n, d + 1)), np.zeros((n, d + 1), dtype=complex)
        if params.propagator_mode is PropagatorMode.SECOND_ORDER_TRUNCATION:
            c[:, 1:-1], s[:, 1:-1] = 1 - angle**2 / 2, -1j * angle
        else:
            c[:, 1:-1], s[:, 1:-1] = np.cos(angle), -1j * np.sin(angle)
        psi = np.zeros((n, d + 2), dtype=complex)
        psi[:, 1:-1] = unit_amplitudes(theta, phi, spin_j)
        ops = np.stack([c[:, :-1] * psi[:, 1:-1], s[:, :-1] * psi[:, :-2],
                        s[:, 1:] * psi[:, 2:], c[:, 1:] * psi[:, 1:-1]], axis=1)
        maps[idx] = (to_pauli @ _liouville(ops) @ FROM_PAULI).real
    return maps


def _check_finite(values: np.ndarray, g: float, tau: float) -> None:
    """Raise ValidationError when a collision overflowed a float into values."""
    if not np.isfinite(values).all():
        raise ValidationError(f"collision maps overflow a float at g = {g:g} and tau = {tau:g}; "
                              f"lower g or tau")


def _prefix_products(maps: np.ndarray) -> np.ndarray:
    """Within-cycle prefix products S_j...S_1 of maps (B, n, 4, 4), same shape."""
    prefixes = [maps[:, 0]]
    for j in range(1, maps.shape[1]):
        prefixes.append(maps[:, j] @ prefixes[-1])
    return np.stack(prefixes, axis=1)


def evolve_collisions(
    probe: DensityMatrix,
    reservoirs: list[ReservoirSpec],
    params: CollisionParams | None = None,
) -> tuple[SteadyStateResult, np.ndarray]:
    """Drive the probe with round-robin collisions until <sigma_z> settles.

    Steady state is declared when the change in <sigma_z> across one full
    schedule cycle drops below STEADY_TOL, capped at params.n_collisions.
    The reported sigma_z averages the final cycle, which removes the
    within-cycle readout bias of multi-reservoir schedules. Returns the
    result plus the full per-collision <sigma_z> trajectory.

    Each collision acts on the probe's Pauli vector through its reservoir's
    transfer matrix. Steps run in blocks of BLOCK_CYCLES cycles, each from
    two matrix products: cycle-map powers times the within-cycle prefix
    products.
    """
    params = params if params is not None else CollisionParams()
    if not reservoirs:
        raise ValidationError("at least one reservoir is required")
    if all(r.g == 0 for r in reservoirs):
        raise NoCoupling("all reservoir couplings are zero")

    cycle = len(reservoirs)
    n_total = params.n_collisions
    with np.errstate(over="ignore", invalid="ignore"):
        prefixes = _prefix_products(_transfer_matrices(reservoirs, params)[None])[0]
    _check_finite(prefixes, max(r.g for r in reservoirs), params.tau)
    # the powers come from the cycle map scaled by a power of two near
    # 1 / radius, and r is rescaled to r_0 in [1/2, 1) at each block, so
    # large radii cannot overflow; the scaling is exact and every readout is
    # a ratio, so the readouts are those of the unscaled powers wherever
    # those stay in range
    radius = np.abs(np.linalg.eigvals(prefixes[-1])).max()
    step = np.ldexp(prefixes[-1], -round(math.log2(radius)))
    powers = [np.eye(4)]
    for _ in range(BLOCK_CYCLES - 1):
        powers.append(step @ powers[-1])
    powers = np.array(powers)

    # Blocks hold whole cycles, so every block starts on a cycle boundary and
    # the steady-state test looks at each block's cycle ends in turn.
    r = np.einsum("kab,ba->k", PAULI, probe.entries).real
    prev_cycle_value = r[3] / r[0]
    chunks: list[np.ndarray] = []
    used = 0
    converged = False
    while used < n_total and not converged:
        size = min(BLOCK_CYCLES * cycle, n_total - used)
        r = np.ldexp(r, -np.frexp(r[0])[1])
        cycle_starts = powers[: -(-size // cycle)] @ r
        states = np.einsum("jab,kb->kja", prefixes, cycle_starts).reshape(-1, 4)[:size]
        values = states[:, 3] / states[:, 0]
        ends = values[cycle - 1::cycle]
        settled = np.flatnonzero(np.abs(np.diff(ends, prepend=prev_cycle_value)) < STEADY_TOL)
        if settled.size:
            converged = True
            values = values[: (settled[0] + 1) * cycle]
        elif ends.size:
            prev_cycle_value = ends[-1]
        chunks.append(values)
        used += len(values)
        r = states[len(values) - 1]

    trajectory = np.concatenate(chunks)
    tail = trajectory[-cycle:]
    result = SteadyStateResult(
        sigma_z=float(np.mean(tail)),
        rho=DensityMatrix(np.einsum("k,kab->ab", r / r[0], PAULI) / 2),
        collisions_used=used,
        converged=converged,
    )
    return result, trajectory


def steady_state_closed_form(reservoirs: list[ReservoirSpec]) -> float:
    """Mean of the unit magnetizations, each with weight g_i^2:
    sum_i g_i^2 cos(theta_i) / sum_i g_i^2."""
    total = sum(r.g**2 for r in reservoirs)
    if total == 0:
        raise NoCoupling("all reservoir couplings are zero")
    return sum(r.g**2 * math.cos(r.theta) for r in reservoirs) / total


def _pole_unit(x: np.ndarray, mode: PropagatorMode):
    """Population weights (f, y, stay) of one collision with a pole unit at
    x = g tau sqrt(2J).

    The unit can flip the probe one way only: f is the weight of the flipped
    population that moves and stay = 1 - y that of the population that stays,
    with y given apart so that weak couplings keep their digits. The exact
    propagator has f = y = sin^2 x; the truncated one has f = x^2 and
    stay = (1 - x^2/2)^2, which is not 1 - f.
    """
    if mode is PropagatorMode.SECOND_ORDER_TRUNCATION:
        f = x * x
        return f, f * (1 - f / 4), (1 - f / 2) ** 2
    sin = np.sin(x)
    # x carries a few ulps of rounding, so a sine below that may belong to a
    # multiple of pi, where nothing flips
    sin[np.abs(sin) <= 4 * np.finfo(float).eps * x] = 0.0
    return sin * sin, sin * sin, np.cos(x) ** 2


def _pole_steady_states(x: np.ndarray, params: CollisionParams):
    """sigma_z and the settle cycle of the chains started from |+> whose
    units sit at theta = 0 and theta = pi with angles x[0] and x[1]; see
    transfer_curve. NaN where a collision overflows a float."""
    f1, y1, stay1 = _pole_unit(x[0], params.propagator_mode)
    f2, y2, stay2 = _pole_unit(x[1], params.propagator_mode)
    q = math.exp(-params.gamma * params.tau)
    p, loss = -math.expm1(-params.gamma * params.tau), -math.expm1(-2 * params.gamma * params.tau)
    # the cycle map C on (p_e, p_g): every entry is >= 0, and c11 - c22 is
    # written without the 1s that cancel
    c11 = q * q * stay2
    c12 = c11 * f1
    c21 = q * (p * stay2 + f2) + p
    c22 = f1 * c21 + stay1
    h = (y1 - f1 * c21 - loss - q * q * y2) / 2
    root = np.sqrt(c12) * np.sqrt(c21)
    r = np.hypot(h, root)                                 # (mu1 - mu2) / 2
    still = r == 0                                        # no population moves
    if np.any(still & (c12 + c21 > 0)):
        raise ValidationError("a cycle map is a Jordan block, which sigma_z approaches with no "
                              "geometric rate; change g or tau")
    big = np.abs(h) + r
    small = root * (root / big)                           # r - |h| = c12 c21 / (r + |h|)
    plus, minus = np.where(h >= 0, big, small), np.where(h >= 0, small, big)    # r + h, r - h
    # C - mu2 = [[r + h, c12], [c21, r - h]] has rank one, so its column sum
    # is the fixed point; the first collision of the next cycle moves it on
    ve, vg = plus + c12, minus + c21
    e1, g1 = q * (ve + f1 * vg), p * ve + (p * f1 + stay1) * vg
    sigma_z = np.where(still, 0.0, ((ve - vg) / (ve + vg) + (e1 - g1) / (e1 + g1)) / 2)

    mu1 = (c11 + c22) / 2 + r
    m = q * q * stay1 * stay2 / mu1 / mu1                  # mu2 / mu1 = det C / mu1^2
    gap = 2 * r / mu1                                     # 1 - m
    log_m = np.where(m < 0.5, np.log(m), np.log1p(-gap))
    # |+> = (1, 1) / 2 splits into the fixed mode, read as (r_3, r_0) =
    # (amp, lead), and the other, read as (-amp, 1 - lead)
    amp = np.abs(plus - minus + c12 - c21) / (4 * r)
    lead = (2 * r + c12 + c21) / (4 * r)
    if params.propagator_mode is PropagatorMode.EXACT_EXPONENTIAL:
        lead = np.ones_like(r)                            # the maps keep the trace

    def change(t):      # |sigma_z(k) - sigma_z(k - 1)| at t = m^(k - 1)
        return amp * gap * t / ((lead + (1 - lead) * m * t) * (lead + (1 - lead) * t))

    # change < tol where the quadratic tol (lead + (1 - lead) m t)(lead +
    # (1 - lead) t) - amp gap t is positive; its smaller root t1 ends the
    # cycles that cannot settle when the first cannot, and one logarithm
    # turns it into a cycle, checked with its neighbours
    tol = STEADY_TOL
    c0, c1 = tol * lead**2, tol * lead * (1 - lead) * (1 + m) - amp * gap
    t1 = 2 * c0 / (np.sqrt(np.maximum(c1 * c1 - 4 * c0 * tol * (1 - lead)**2 * m, 0)) - c1)
    ks = np.maximum(np.floor(np.log(t1) / log_m), 1) + np.arange(5)[:, None]
    hit = change(np.exp(np.where(ks > 1, (ks - 1) * log_m, 0.0))) < tol
    settle = ks[hit.argmax(axis=0), np.arange(ks.shape[1])]
    settle = np.where(still | (change(1.0) < tol), 1.0, settle)
    return sigma_z, np.where(np.isfinite(c12 + c21 + c22), settle, np.nan)


def transfer_curve(
    spin_j: float,
    params: CollisionParams | None = None,
    n_points: int = 41,
    g: float = 0.01,
) -> ActivationCurve:
    """Steady-state response of the probe versus the coupling imbalance u.

    For each u in [-1, 1], two reservoirs at theta = 0 and theta = pi split
    the total coupling as g1^2 = g^2 (1+u)/2, g2^2 = g^2 (1-u)/2, and the
    probe starts in |+>.

    The units are |J, J> and |J, -J>, so a collision moves at most one
    excitation between probe and unit and populations never feed coherences:
    sigma_z follows the probe's populations (p_e, p_g) through 2x2 maps. The
    first unit lifts p_g by f1 and keeps stay1 of it, the second drops p_e by
    f2 and keeps stay2 (see _pole_unit), and damping moves 1 - e^(-gamma tau)
    of p_e down after each collision. The cycle map C has eigenvalues
    mu1 > mu2 >= 0, so sigma_z at the end of cycle k is a ratio
    (a + b m^k) / (c + d m^k) in m = mu2 / mu1, with d = 0 in exact mode, where
    the maps keep the trace. sigma_z is the mean over the cycle's two
    prefixes of C's fixed point. collisions_used and converged are those of
    stepping the collisions one at a time: the first cycle k at which
    sigma_z(k) moves by less than STEADY_TOL from sigma_z(k - 1), capped at
    params.n_collisions.
    """
    params = params if params is not None else CollisionParams()
    _check_spin(spin_j)
    _check_coupling(g)
    if not 5 <= n_points <= MAX_POINTS or n_points % 2 == 0:
        raise ValidationError(f"n_points must be odd and in [5, {MAX_POINTS}], got {n_points}")
    if g == 0:
        raise NoCoupling("all reservoir couplings are zero")
    us = np.linspace(-1.0, 1.0, n_points)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        x = params.tau * (g * np.sqrt([(1.0 + us) / 2.0, (1.0 - us) / 2.0])) * math.sqrt(2 * spin_j)
        if np.any((x > 0) & (x < math.sqrt(np.finfo(float).tiny))):
            raise ValidationError(f"coupling too weak to resolve: g tau sqrt(2J) = "
                                  f"{x[x > 0].min():.1e} squares below the smallest normal float; "
                                  f"raise g or tau")
        sigma_z, settle = _pole_steady_states(x, params)
    _check_finite(np.concatenate([sigma_z, settle]), g, params.tau)
    converged = settle <= params.n_collisions // 2
    collisions_used = np.full(n_points, params.n_collisions, dtype=np.int64)
    collisions_used[converged] = 2 * settle[converged].astype(np.int64)
    return ActivationCurve(
        inputs=us,
        outputs=sigma_z,
        spin_j=spin_j,
        collisions_used=collisions_used,
        converged=converged,
    )
