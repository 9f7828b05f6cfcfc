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

# Collision caps must fit the int64 counts that steady_states reports.
MAX_COLLISIONS = 2**63 - 1

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

# r of |+>, where every chain of steady_states starts.
PLUS_PAULI = np.einsum("kab,ba->k", PAULI, plus_state().entries).real

# A channel acts on the row-major vec(rho), vec(rho)[2a + c] = rho[a, c], as a
# 4x4 Liouville matrix; these take it to and from the Pauli basis, so that
# T = Re(TO_PAULI @ L @ FROM_PAULI) with T[j, l] = tr(P_j Phi(P_l)) / 2.
FROM_PAULI = PAULI.reshape(4, 4).T
TO_PAULI = PAULI.swapaxes(1, 2).reshape(4, 4) / 2

# Schedule cycles per block in evolve_collisions, where a block is one pair of
# numpy calls, and in the settle test of steady_states, where a block is one
# (BLOCK_CYCLES, modes) power table times its scaled readouts.
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
    prefixes = _prefix_products(_transfer_matrices(reservoirs, params)[None])[0]
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


# Eigenvalues of a cycle map count as one when they differ by at most
# MODE_TOL, and as of equal modulus when their moduli do.
MODE_TOL = 1e-12


def steady_states(
    reservoir_sets: list[list[ReservoirSpec]],
    params: CollisionParams | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Exact steady states of many collision chains started from |+>, one per
    reservoir set: arrays sigma_z, collisions_used and converged, one entry
    per set.

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
    if not np.isfinite(prefixes).all():        # a non-finite map entry spreads to its prefixes
        raise ValidationError(f"collision maps overflow a float at g = {max(r.g for r in specs):g} "
                              f"and tau = {params.tau:g}; lower g or tau")

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
    blurred = (reaches & (np.finfo(float).eps * radius > STEADY_TOL * gap)
               & (~fixed | fixed.all(axis=1, keepdims=True)))
    if blurred.any():
        raise ValidationError(
            f"coupling too weak to resolve: a cycle-map mode that moves sigma_z lies within "
            f"{(gap / radius)[blurred].max():.1e} of the fixed one, too near for eig to "
            f"separate them; raise g or tau")
    return lam, parts, (parts * fixed[:, None, :]).sum(axis=2).real


# Slack between STEADY_TOL and the certified lower bound on a cycle's change
# of sigma_z, which covers the settle scan's own rounding.
SETTLE_MARGIN = 1e-11


def _settle_starts(lam: np.ndarray, parts: np.ndarray, max_cycles: int) -> np.ndarray:
    """The block of BLOCK_CYCLES cycles at which the settle scan of each point
    starts; -1 where no cycle up to max_cycles can settle.

    With mu = lam / radius, a and b the modes' r_3 and r_0 parts, d* the sum
    of b over the modes at mu = 1 exactly, beta the sum of |b| and A the sum
    of |a| over the others, and j the mode of largest |a_j (mu_j - 1)|, the
    change of sigma_z at cycle k is at least
        (|Re a_j| |mu_j - 1| |mu_j|^(k-1) - sum_(i != j) |a_i (mu_i - 1)|)
        / (|d*| + beta) - 2 A beta / (|d*| - beta)^2
    when mu_j is real, 0 < |mu_j| < 1 and beta < |d*|. The bound falls with
    k, so the cycles before the one where it reaches STEADY_TOL +
    SETTLE_MARGIN cannot settle; that count comes from one logarithm. A
    point starts one block before its first block that may settle, so that
    the scanned block gives the next one its previous value; points without
    the bound start at block 0.
    """
    mu = lam / np.abs(lam).max(axis=1, keepdims=True)
    one = mu == 1
    a, b = parts[:, 3], parts[:, 0]
    pull = np.abs(a * (mu - 1))                                 # 0 where mu = 1
    rows, j = np.arange(lam.shape[0]), pull.argmax(axis=1)
    mu_j = mu[rows, j]
    rho = np.abs(mu_j)
    lead = np.abs(a[rows, j].real) * np.abs(mu_j - 1)
    rest = pull.sum(axis=1) - pull[rows, j]
    d_star = np.abs(np.sum(b.real, axis=1, where=one))
    beta = np.sum(np.abs(b), axis=1, where=~one)
    bounded = (mu_j.imag == 0) & (0 < rho) & (rho < 1) & (beta < d_star)
    gap = np.where(bounded, d_star - beta, 1.0)
    floor = rest + (d_star + beta) * (STEADY_TOL + SETTLE_MARGIN
                                      + 2 * np.abs(a).sum(axis=1) * beta / gap**2)
    bounded &= lead > floor
    starts = np.full(lam.shape[0], 0 if max_cycles else -1, dtype=np.int64)
    if bounded.any():
        # the bound exceeds the floor at every cycle k with k - 1 < reach
        reach = np.log(floor[bounded] / lead[bounded]) / np.log(rho[bounded])
        cleared = np.minimum(np.ceil(reach), max_cycles)
        starts[bounded] = np.where(cleared >= max_cycles, -1,
                                   np.maximum(cleared // BLOCK_CYCLES - 1, 0))
    return starts


def _settle_cycles(r0: np.ndarray, lam: np.ndarray, parts: np.ndarray,
                   max_cycles: int) -> np.ndarray:
    """First cycle k <= max_cycles at which sigma_z of C^k r0 moves by less
    than STEADY_TOL from C^(k-1) r0, with C^k r0 = sum_i lam_i^k c_i v_i.

    sigma_z is a ratio, so the scan reads mu = lam / radius in place of lam,
    which keeps every power within [0, 1] in modulus. Cycles run in blocks of
    BLOCK_CYCLES, and each point starts at the block that _settle_starts
    gives it. Each pass reads one block for every point not yet settled:
    (mu^1..mu^BLOCK_CYCLES) @ (mu^start c_i v_i), one stacked matmul against
    the scaled readouts. The power table is the running product of mu along
    its rows, and mu^start is the chain of products by mu^BLOCK_CYCLES from
    the first block on, whether scanned or not. Settled points leave after
    every pass. Returns k per point, 0 where it does not settle.
    """
    cycles = np.zeros(lam.shape[0], dtype=int)
    first = _settle_starts(lam, parts, max_cycles)
    order = np.argsort(-first)          # later starts first, so each base grows as a prefix
    active = order[first[order] >= 0]
    first = first[active]
    mu = lam[active] / np.abs(lam[active]).max(axis=1, keepdims=True)
    table = np.cumprod(np.broadcast_to(mu[:, None], (mu.shape[0], BLOCK_CYCLES, mu.shape[1])),
                       axis=1)                                                # mu^k
    readout = parts[active][:, [0, 3], :].swapaxes(1, 2)                      # (B, modes, 2)
    base = np.ones_like(mu)                                                   # mu^start
    for step in range(first.max(initial=0)):
        n = np.count_nonzero(first > step)
        base[:n] = base[:n] * table[:n, -1]
    # a scan from block 0 compares its first cycle with r0; a later start
    # compares with nothing, since its first block cannot settle
    prev = np.where(first == 0, r0[3] / r0[0], np.nan)
    start = first * BLOCK_CYCLES
    while active.size:
        size = np.minimum(BLOCK_CYCLES, max_cycles - start)
        ends = (table @ (base[:, :, None] * readout)).real        # (B, BLOCK_CYCLES, 2)
        values = np.column_stack([prev, ends[..., 1] / ends[..., 0]])   # prev, then the block
        small = np.abs(np.diff(values, axis=1)) < STEADY_TOL
        small &= np.arange(BLOCK_CYCLES) < size[:, None]
        hit = small.any(axis=1)
        cycles[active[hit]] = start[hit] + small[hit].argmax(axis=1) + 1
        prev = values[np.arange(active.size), size]
        start = start + size
        base = base * table[:, -1]
        keep = ~hit & (start < max_cycles)
        active, table, readout, base, prev, start = (
            x[keep] for x in (active, table, readout, base, prev, start))
    return cycles


def steady_state_closed_form(reservoirs: list[ReservoirSpec]) -> float:
    """Mean of the unit magnetizations, each with weight g_i^2:
    sum_i g_i^2 cos(theta_i) / sum_i g_i^2."""
    total = sum(r.g**2 for r in reservoirs)
    if total == 0:
        raise NoCoupling("all reservoir couplings are zero")
    return sum(r.g**2 * math.cos(r.theta) for r in reservoirs) / total


def transfer_curve(
    spin_j: float,
    params: CollisionParams | None = None,
    n_points: int = 41,
    g: float = 0.01,
    seed: int | None = None,
) -> ActivationCurve:
    """Steady-state response of the probe versus the coupling imbalance u.

    For each u in [-1, 1], two reservoirs at theta = 0 and theta = pi split
    the total coupling as g1^2 = g^2 (1+u)/2, g2^2 = g^2 (1-u)/2, and the
    probe starts in |+>. All points are solved exactly by one steady_states
    call; seed is recorded in the provenance and changes nothing.
    """
    params = params if params is not None else CollisionParams()
    _check_spin(spin_j)
    _check_coupling(g)
    if seed is not None and seed < 0:
        raise ValidationError(f"seed must be non-negative, got {seed}")
    if n_points < 5 or n_points % 2 == 0:
        raise ValidationError(f"n_points must be odd and at least 5, got {n_points}")
    us = np.linspace(-1.0, 1.0, n_points)
    reservoir_sets = [
        [ReservoirSpec(theta=0.0, phi=0.0, spin_j=spin_j, g=g * math.sqrt((1.0 + u) / 2.0)),
         ReservoirSpec(theta=math.pi, phi=0.0, spin_j=spin_j, g=g * math.sqrt((1.0 - u) / 2.0))]
        for u in us
    ]
    sigma_z, collisions_used, converged = steady_states(reservoir_sets, params)
    return ActivationCurve(
        inputs=us,
        outputs=sigma_z,
        spin_j=spin_j,
        collisions_used=collisions_used,
        converged=converged,
        provenance={
            "g": g,
            "tau": params.tau,
            "gamma": params.gamma,
            "n_collisions": params.n_collisions,
            "mode": params.propagator_mode.value,
            "seed": seed,
        },
    )
