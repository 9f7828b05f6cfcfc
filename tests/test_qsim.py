import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference import settle_cycles_per_block

from qnpflow import qsim
from qnpflow.errors import InvalidDensityMatrix, InvalidSpin, NoCoupling, ValidationError
from qnpflow.qsim import (
    BLOCK_CYCLES,
    MAX_COLLISIONS,
    PAULI,
    PLUS_PAULI,
    SETTLE_GROUP_ROWS,
    CollisionParams,
    DensityMatrix,
    _collide,
    _cycle_modes,
    _damping_kraus,
    _prefix_products,
    _settle_cycles,
    _transfer_matrices,
    PropagatorMode,
    ReservoirSpec,
    collision_unitary,
    evolve_collisions,
    plus_state,
    pure_state,
    reservoir_unit_state,
    spin_ladder,
    steady_state_closed_form,
    steady_states,
    transfer_curve,
)

EXACT = PropagatorMode.EXACT_EXPONENTIAL
TRUNCATED = PropagatorMode.SECOND_ORDER_TRUNCATION

SIGMA_Z = np.diag([1.0, -1.0])
EXCITED = pure_state(np.array([1.0, 0.0]))
GROUND = pure_state(np.array([0.0, 1.0]))

spins = st.sampled_from([0.5, 1.0, 1.5, 2.0, 2.5])
thetas = st.floats(min_value=0.0, max_value=math.pi)
phis = st.floats(min_value=-math.pi, max_value=math.pi)


def expect(rho, op):
    """Normalized expectation value tr(rho op) / tr(rho)."""
    return float((np.trace(rho.entries @ op) / np.trace(rho.entries)).real)


def collide(probe, spec, u, params):
    """The probe after one collision with a fresh unit of spec."""
    unit = reservoir_unit_state(spec).entries
    return DensityMatrix(_collide(probe.entries, unit, u, _damping_kraus(params)))


def spin_z(spin_j):
    """J_z = diag(J, J - 1, ..., -J), the basis order of spin_ladder."""
    return np.diag(spin_j - np.arange(int(round(2 * spin_j + 1))))


def run_to_cap(probe, reservoirs, params):
    """evolve_collisions with its settle test off, so it takes every collision."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(qsim, "STEADY_TOL", 0.0)
        return evolve_collisions(probe, reservoirs, params)


# ------------------------------------------------------------ states

def test_reservoir_state_poles():
    up = reservoir_unit_state(ReservoirSpec(theta=0.0))
    down = reservoir_unit_state(ReservoirSpec(theta=math.pi))
    assert np.allclose(up.entries, np.diag([1.0, 0.0]), atol=1e-15)
    assert np.allclose(down.entries, np.diag([0.0, 1.0]), atol=1e-15)
    assert expect(up, SIGMA_Z) == pytest.approx(1.0)
    assert expect(down, SIGMA_Z) == pytest.approx(-1.0)


def test_reservoir_state_equator():
    rho = reservoir_unit_state(ReservoirSpec(theta=math.pi / 2, phi=0.0))
    assert np.allclose(rho.entries, 0.5 * np.ones((2, 2)), atol=1e-15)
    assert np.trace(rho.entries @ rho.entries).real == pytest.approx(1.0)


@given(spins, thetas, phis)
@settings(max_examples=60, deadline=None)
def test_spin_coherent_magnetization(spin_j, theta, phi):
    rho = reservoir_unit_state(ReservoirSpec(theta=theta, phi=phi, spin_j=spin_j))
    assert abs(np.trace(rho.entries) - 1.0) < 1e-10
    assert np.abs(rho.entries - rho.entries.conj().T).max() < 1e-10
    assert np.linalg.eigvalsh(rho.entries).min() >= -1e-9
    assert expect(rho, spin_z(spin_j)) == pytest.approx(spin_j * math.cos(theta), abs=1e-10)


def test_pure_state_helpers():
    assert np.allclose(plus_state().entries, 0.5 * np.ones((2, 2)))


def test_density_matrix_validation():
    with pytest.raises(InvalidDensityMatrix):
        DensityMatrix(np.ones((2, 3)))
    with pytest.raises(InvalidDensityMatrix):
        DensityMatrix(np.diag([1.0, math.nan]))
    with pytest.raises(InvalidDensityMatrix):
        DensityMatrix(np.array([[0.5, complex(0.0, math.inf)], [0.0, 0.5]]))


# ------------------------------------------------------------ ladder operators

def test_spin_half_ladder():
    j_plus = spin_ladder(0.5)
    assert np.allclose(j_plus, [[0, 1], [0, 0]])
    assert np.allclose(spin_z(0.5), 0.5 * np.diag([1, -1]))


def test_spin_one_ladder():
    j_plus = spin_ladder(1.0)
    nz = j_plus[j_plus != 0]
    assert np.allclose(nz, [math.sqrt(2), math.sqrt(2)])


@given(spins)
def test_ladder_identities(spin_j):
    j_plus, j_z = spin_ladder(spin_j), spin_z(spin_j)
    assert np.array_equal(j_plus.conj().T, j_plus.T)    # real, so J- = J+.T
    comm = j_z @ j_plus - j_plus @ j_z
    assert np.allclose(comm, j_plus, atol=1e-12)
    assert np.allclose(j_plus @ j_plus.T - j_plus.T @ j_plus, 2 * j_z, atol=1e-12)
    # matrix elements <m+1|J+|m> = sqrt(J(J+1) - m(m+1))
    dim = int(2 * spin_j + 1)
    for k in range(1, dim):
        m = spin_j - k
        expect = math.sqrt(spin_j * (spin_j + 1) - m * (m + 1))
        assert j_plus[k - 1, k] == pytest.approx(expect, rel=1e-12)


@pytest.mark.parametrize("bad", [0.0, -0.5, 0.75, 1.2, math.nan, math.inf])
def test_invalid_spin_rejected(bad):
    with pytest.raises(InvalidSpin):
        spin_ladder(bad)


# ------------------------------------------------------------ collision unitary

def test_tiny_tau_is_identity():
    spec = ReservoirSpec(theta=0.0, spin_j=0.5, g=0.01)
    for mode in (EXACT, TRUNCATED):
        params = CollisionParams(tau=1e-12, propagator_mode=mode)
        u = collision_unitary(spec.g, spec.spin_j, params)
        assert np.abs(u - np.eye(4)).max() < 1e-12


def test_exact_mode_unitary():
    spec = ReservoirSpec(theta=0.0, spin_j=0.5, g=0.01)
    u = collision_unitary(spec.g, spec.spin_j, CollisionParams(tau=3.0, propagator_mode=EXACT))
    assert np.abs(u @ u.conj().T - np.eye(4)).max() < 1e-12


def test_truncated_mode_unitarity_defect():
    spec = ReservoirSpec(theta=0.0, spin_j=0.5, g=0.01)
    u = collision_unitary(spec.g, spec.spin_j, CollisionParams(tau=3.0, propagator_mode=TRUNCATED))
    defect = np.abs(u @ u.conj().T - np.eye(4)).max()
    assert 0 < defect < 1e-4  # bounded by c (g tau)^3 at g tau = 0.03


@given(spins, st.floats(min_value=1e-3, max_value=0.05))
@settings(max_examples=30, deadline=None)
def test_exact_mode_unitary_random(spin_j, gtau):
    spec = ReservoirSpec(theta=0.0, spin_j=spin_j, g=gtau / 3.0)
    u = collision_unitary(spec.g, spec.spin_j, CollisionParams(tau=3.0, propagator_mode=EXACT))
    dim = int(2 * (2 * spin_j + 1))
    assert np.abs(u @ u.conj().T - np.eye(dim)).max() < 1e-12


# ------------------------------------------------------------ single collisions

def test_collide_zero_coupling_is_identity():
    spec = ReservoirSpec(theta=0.3, spin_j=1.0, g=0.0)
    params = CollisionParams(tau=3.0, gamma=0.0)
    u = collision_unitary(spec.g, spec.spin_j, params)
    probe = plus_state()
    out = collide(probe, spec, u, params)
    assert np.abs(out.entries - probe.entries).max() < 1e-14


def test_collide_aligned_states_invariant():
    spec = ReservoirSpec(theta=0.0, spin_j=0.5, g=0.01)
    params = CollisionParams(tau=3.0)
    u = collision_unitary(spec.g, spec.spin_j, params)
    out = collide(EXCITED, spec, u, params)
    assert np.abs(out.entries - EXCITED.entries).max() < 1e-12


def test_collide_population_transfer_closed_form():
    g, tau = 0.01, 3.0
    spec = ReservoirSpec(theta=0.0, spin_j=0.5, g=g)
    params = CollisionParams(tau=tau)
    u = collision_unitary(spec.g, spec.spin_j, params)
    out = collide(GROUND, spec, u, params)
    # ground probe + excited unit exchange with amplitude sin(g tau)
    expected = -1.0 + 2.0 * math.sin(g * tau) ** 2
    assert expect(out, SIGMA_Z) == pytest.approx(expected, abs=1e-12)


def test_damping_pulls_excited_down():
    spec = ReservoirSpec(theta=0.0, spin_j=0.5, g=0.0)
    params = CollisionParams(tau=3.0, gamma=0.1)
    u = collision_unitary(spec.g, spec.spin_j, params)
    out = collide(EXCITED, spec, u, params)
    expected = 2.0 * math.exp(-0.1 * 3.0) - 1.0
    assert expect(out, SIGMA_Z) == pytest.approx(expected, rel=1e-12)


@given(thetas, phis, spins, st.floats(min_value=1e-3, max_value=0.05),
       st.integers(min_value=0, max_value=2**31 - 1))
@settings(max_examples=60, deadline=None)
def test_collision_is_cptp(theta, phi, spin_j, gtau, seed):
    spec = ReservoirSpec(theta=theta, phi=phi, spin_j=spin_j, g=gtau / 3.0)
    params = CollisionParams(tau=3.0, propagator_mode=EXACT)
    u = collision_unitary(spec.g, spec.spin_j, params)
    rng = np.random.default_rng(seed)
    vec = rng.normal(size=2) + 1j * rng.normal(size=2)
    vec = vec / np.linalg.norm(vec)
    probe = DensityMatrix(np.outer(vec, vec.conj()))
    out = collide(probe, spec, u, params)
    assert abs(np.trace(out.entries).real - 1.0) < 1e-9
    assert np.abs(out.entries - out.entries.conj().T).max() < 1e-10
    assert np.linalg.eigvalsh(out.entries).min() >= -1e-9


# ------------------------------------------------------------ collision chains

def test_single_reservoir_reaches_closed_form():
    spec = ReservoirSpec(theta=0.0, spin_j=0.5, g=0.01)
    result, traj = evolve_collisions(plus_state(), [spec], CollisionParams(tau=3.0))
    assert result.converged
    assert np.all(np.diff(traj) > -1e-12)  # monotone approach
    assert result.sigma_z == pytest.approx(steady_state_closed_form([spec]), abs=1e-3)


def test_balanced_pair_cancels():
    pair = [
        ReservoirSpec(theta=0.0, spin_j=0.5, g=0.01),
        ReservoirSpec(theta=math.pi, spin_j=0.5, g=0.01),
    ]
    result, _ = evolve_collisions(plus_state(), pair, CollisionParams(tau=3.0))
    assert abs(result.sigma_z) < 1e-3


def test_steady_state_independent_of_initial_probe():
    # unbalanced pole pair; closed form (g1^2 - g2^2)/(g1^2 + g2^2) = 0.6
    pair = [
        ReservoirSpec(theta=0.0, spin_j=0.5, g=0.01 * math.sqrt(0.8)),
        ReservoirSpec(theta=math.pi, spin_j=0.5, g=0.01 * math.sqrt(0.2)),
    ]
    finals = [
        evolve_collisions(p, pair, CollisionParams(tau=3.0))[0].sigma_z
        for p in (EXCITED, GROUND, plus_state())
    ]
    assert max(finals) - min(finals) < 2e-3
    assert finals[0] == pytest.approx(steady_state_closed_form(pair), abs=1e-3)


def test_no_coupling_raises():
    with pytest.raises(NoCoupling):
        evolve_collisions(plus_state(), [ReservoirSpec(theta=0.0, g=0.0)])
    with pytest.raises(NoCoupling):
        steady_state_closed_form([ReservoirSpec(theta=0.0, g=0.0)])


def test_sigma_z_bounded():
    spec = ReservoirSpec(theta=0.4, spin_j=1.5, g=0.02)
    result, traj = evolve_collisions(plus_state(), [spec], CollisionParams(tau=3.0))
    assert np.all(np.abs(traj) <= 1 + 1e-9)
    assert abs(result.sigma_z) <= 1 + 1e-9


@given(st.lists(st.tuples(st.sampled_from([0.0, math.pi]),
                          st.floats(min_value=0.5, max_value=1.0)),
                min_size=1, max_size=3))
@settings(max_examples=10, deadline=None)
def test_convexity_envelope(config):
    # pole units carry the binary information; for them the settled value is
    # a convex mix of the reservoir magnetizations
    reservoirs = [ReservoirSpec(theta=t, spin_j=0.5, g=0.01 * w) for t, w in config]
    result, traj = evolve_collisions(plus_state(), reservoirs,
                                     CollisionParams(tau=3.0, n_collisions=60000))
    assert np.all(np.abs(traj) <= 1 + 1e-9)
    if result.converged:
        mags = [math.cos(t) for t, _ in config]
        assert min(mags) - 1e-3 <= result.sigma_z <= max(mags) + 1e-3


def test_coherent_units_suppress_transfer():
    # a pure unit off the poles carries transverse coherence; the probe builds
    # the opposing coherence and the z-pull nearly cancels, so the settled
    # value sits near zero instead of cos(theta). The closed form is exact at
    # the poles, which are the configurations the activation sweep uses.
    spec = ReservoirSpec(theta=2.0, spin_j=0.5, g=0.01)
    result, _ = evolve_collisions(plus_state(), [spec], CollisionParams(tau=3.0))
    assert abs(result.sigma_z) < 0.01
    assert abs(result.sigma_z - math.cos(2.0)) > 0.4


# ------------------------------------------------------------ transfer-matrix engine

def reference_evolve(probe, reservoirs, params, steady_tol):
    """evolve_collisions as one _collide per step on the 2x2 density matrix."""
    units = [reservoir_unit_state(r).entries for r in reservoirs]
    kraus = _damping_kraus(params)
    cycle = len(reservoirs)
    unitaries = [collision_unitary(r.g, r.spin_j, params) for r in reservoirs]

    def collide_next(arr, k):
        return _collide(arr, units[k % cycle], unitaries[k % cycle], kraus)

    def sigma_z(arr):
        return float(((arr[0, 0] - arr[1, 1]) / (arr[0, 0] + arr[1, 1])).real)

    arr = probe.entries.copy()
    trajectory = []
    prev_cycle_value = sigma_z(arr)
    converged = False
    while len(trajectory) < params.n_collisions:
        arr = collide_next(arr, len(trajectory))
        trajectory.append(sigma_z(arr))
        if len(trajectory) % cycle == 0:
            if abs(trajectory[-1] - prev_cycle_value) < steady_tol:
                converged = True
                break
            prev_cycle_value = trajectory[-1]
    return (float(np.mean(trajectory[-cycle:])), arr / np.trace(arr), len(trajectory),
            converged, np.array(trajectory))


# pole units plus one off-pole unit with a phase, at a coupling where the
# round-robin chains settle within a few thousand collisions
CROSS_CHECK_UNITS = [(0.0, 0.0, 1.0), (math.pi, 0.0, 0.7), (1.1, 0.4, 0.5)]


def assert_matches_reference(probe, reservoirs, params):
    sigma_z, rho, used, converged, trajectory = reference_evolve(
        probe, reservoirs, params, qsim.STEADY_TOL)
    result, traj = evolve_collisions(probe, reservoirs, params)
    assert (result.collisions_used, result.converged) == (used, converged)
    assert traj.shape == trajectory.shape
    assert np.abs(traj - trajectory).max() < 1e-12
    assert np.abs(result.rho.entries - rho).max() < 1e-12
    assert abs(result.sigma_z - sigma_z) < 1e-12
    return result


@pytest.mark.parametrize("spin_j", [0.5, 1.0, 1.5, 2.5])
@pytest.mark.parametrize("mode", [EXACT, TRUNCATED])
@pytest.mark.parametrize("gamma", [0.0, 0.05])
def test_round_robin_matches_per_collision_loop(spin_j, mode, gamma):
    converged = 0
    for n_res in (1, 2, 3):
        reservoirs = [ReservoirSpec(theta=t, phi=phi, spin_j=spin_j, g=0.05 * w)
                      for t, phi, w in CROSS_CHECK_UNITS[:n_res]]
        # below one cycle, below one block, a cap off the cycle grid, room to settle
        for n in (1, 7, 1001, 3000):
            params = CollisionParams(tau=3.0, n_collisions=n, gamma=gamma,
                                     propagator_mode=mode)
            converged += assert_matches_reference(plus_state(), reservoirs, params).converged
    assert converged >= 3


@pytest.mark.parametrize("n_res", [1, 2])
def test_settles_on_first_cycle_of_a_block(n_res, monkeypatch):
    # that cycle's change is measured against the previous block's last cycle
    reservoirs = [ReservoirSpec(theta=t, phi=phi, g=0.05 * w)
                  for t, phi, w in CROSS_CHECK_UNITS[:n_res]]
    params = CollisionParams(tau=3.0, n_collisions=2 * BLOCK_CYCLES * n_res)
    *_, trajectory = reference_evolve(plus_state(), reservoirs, params, steady_tol=0.0)
    ends = np.concatenate([[0.0], trajectory[n_res - 1::n_res]])  # |+> has sigma_z = 0
    changes = np.abs(np.diff(ends))
    tol = (changes[BLOCK_CYCLES - 1] + changes[BLOCK_CYCLES]) / 2
    assert changes[BLOCK_CYCLES] < tol < changes[:BLOCK_CYCLES].min()
    monkeypatch.setattr(qsim, "STEADY_TOL", tol)
    result = assert_matches_reference(plus_state(), reservoirs, params)
    assert result.converged and result.collisions_used == (BLOCK_CYCLES + 1) * n_res


# ------------------------------------------------------------ closed form

def test_closed_form_arithmetic():
    one = [ReservoirSpec(theta=0.0, g=0.02)]
    assert steady_state_closed_form(one) == pytest.approx(1.0)
    weighted = [
        ReservoirSpec(theta=0.0, g=math.sqrt(3.0)),
        ReservoirSpec(theta=math.pi, g=1.0),
    ]
    assert steady_state_closed_form(weighted) == pytest.approx(0.5)
    balanced = [
        ReservoirSpec(theta=0.0, g=0.01),
        ReservoirSpec(theta=math.pi, g=0.01),
    ]
    assert steady_state_closed_form(balanced) == pytest.approx(0.0)


@given(spins, thetas)
@settings(max_examples=30)
def test_closed_form_higher_spin_normalization(spin_j, theta):
    one = [ReservoirSpec(theta=theta, spin_j=spin_j, g=0.01)]
    assert steady_state_closed_form(one) == pytest.approx(math.cos(theta), abs=1e-12)


# ------------------------------------------------------------ transfer curve

@pytest.fixture(scope="module")
def small_curve():
    return transfer_curve(0.5, CollisionParams(tau=3.0), n_points=5)


def test_curve_endpoints_and_center(small_curve):
    assert small_curve.inputs[0] == -1.0 and small_curve.inputs[-1] == 1.0
    assert abs(small_curve.outputs[2]) < 1e-3        # u = 0
    assert small_curve.outputs[-1] == pytest.approx(1.0, abs=1e-3)
    assert small_curve.outputs[0] == pytest.approx(-1.0, abs=1e-3)


def test_curve_is_odd(small_curve):
    y = small_curve.outputs
    assert np.abs(y + y[::-1]).max() < 2e-3


def test_curve_modes_agree(small_curve):
    truncated = transfer_curve(0.5, CollisionParams(tau=3.0, propagator_mode=TRUNCATED),
                               n_points=5)
    assert np.abs(truncated.outputs - small_curve.outputs).max() < 1e-3


def test_curve_takes_a_mode_by_its_value():
    # at g tau = 0.9 the two propagators give visibly different curves
    exact, truncated, by_value = (
        transfer_curve(0.5, CollisionParams(propagator_mode=mode), n_points=5, g=0.3)
        for mode in (EXACT, TRUNCATED, "truncated"))
    assert np.abs(truncated.outputs - exact.outputs).max() > 1e-3
    for key in ("outputs", "collisions_used", "converged"):
        assert np.array_equal(getattr(by_value, key), getattr(truncated, key))
    assert by_value.provenance == truncated.provenance
    assert by_value.provenance["mode"] == "truncated"


def test_curve_provenance(small_curve):
    assert small_curve.spin_j == 0.5
    assert small_curve.provenance["g"] == 0.01
    assert small_curve.provenance["tau"] == 3.0
    assert small_curve.n_points == 5


def test_curve_rejects_even_points():
    with pytest.raises(ValidationError):
        transfer_curve(0.5, n_points=6)


# ------------------------------------------------------------ parameter validation

def test_reservoir_spec_validation():
    with pytest.raises(ValidationError):
        ReservoirSpec(theta=-0.1)
    with pytest.raises(ValidationError):
        ReservoirSpec(theta=math.pi + 0.1)
    with pytest.raises(ValidationError):
        ReservoirSpec(theta=0.0, g=-1.0)
    with pytest.raises(InvalidSpin):
        ReservoirSpec(theta=0.0, spin_j=0.3)
    for bad in (math.inf, -math.inf, math.nan):
        with pytest.raises(ValidationError, match="phi"):
            ReservoirSpec(theta=0.0, phi=bad)
    assert ReservoirSpec(theta=0.0, phi=-7.5).phi == -7.5


def test_collision_params_validation():
    with pytest.raises(ValidationError):
        CollisionParams(tau=0.0)
    with pytest.raises(ValidationError):
        CollisionParams(n_collisions=0)
    with pytest.raises(ValidationError):
        CollisionParams(gamma=-1e-5)
    # the cap must be an integer that the int64 collision counts can hold
    for bad in (MAX_COLLISIONS + 1, 10**20, 20000.0, 2.5, True, "20000", None):
        with pytest.raises(ValidationError):
            CollisionParams(n_collisions=bad)
    for good in (1, np.int64(777), MAX_COLLISIONS):
        assert CollisionParams(n_collisions=good).n_collisions == good
    # a mode or its value; anything else is named in the error
    for bad in ("bogus", "EXACT_EXPONENTIAL", "Truncated", None, 0):
        with pytest.raises(ValidationError, match=repr(bad)):
            CollisionParams(propagator_mode=bad)
    for mode in PropagatorMode:
        assert CollisionParams(propagator_mode=mode.value).propagator_mode is mode
        assert CollisionParams(propagator_mode=mode) == CollisionParams(propagator_mode=mode.value)


# ------------------------------------------------------------ exact steady states

def curve_sets(spin_j, n_points, g=0.01):
    """The reservoir pairs of transfer_curve, one per point."""
    return [[ReservoirSpec(theta=0.0, spin_j=spin_j, g=g * math.sqrt((1.0 + u) / 2.0)),
             ReservoirSpec(theta=math.pi, spin_j=spin_j, g=g * math.sqrt((1.0 - u) / 2.0))]
            for u in np.linspace(-1.0, 1.0, n_points)]


def per_reservoir_transfer_matrix(spec, params):
    """One reservoir's transfer matrix, column k the Pauli vector of _collide
    applied to P_k."""
    unit = reservoir_unit_state(spec).entries
    u = collision_unitary(spec.g, spec.spin_j, params)
    images = np.array([_collide(p, unit, u, _damping_kraus(params)) for p in PAULI])
    return np.einsum("jab,kba->jk", PAULI, images).real / 2


@pytest.mark.parametrize("mode", [EXACT, TRUNCATED])
@pytest.mark.parametrize("gamma", [0.0, 0.05])
def test_stacked_transfer_matrices_equal_per_reservoir(mode, gamma):
    params = CollisionParams(tau=3.0, gamma=gamma, propagator_mode=mode)
    rng = np.random.default_rng(4)
    specs = [ReservoirSpec(theta=t, phi=phi, spin_j=spin_j, g=0.05 * w)
             for spin_j in (0.5, 1.0, 1.5, 2.5) for t, phi, w in CROSS_CHECK_UNITS]
    specs += [ReservoirSpec(theta=float(rng.uniform(0, math.pi)), phi=float(rng.uniform(-3, 3)),
                            spin_j=float(rng.choice([0.5, 2.0])), g=float(rng.uniform(0, 0.5)))
              for _ in range(8)]
    specs.append(ReservoirSpec(theta=0.0, spin_j=1.0, g=0.0))
    stacked = _transfer_matrices(specs, params)
    for maps, spec in zip(stacked, specs):
        assert np.array_equal(maps, per_reservoir_transfer_matrix(spec, params))


@pytest.mark.parametrize("budget", [1, 3 * 4 * 12 * 12], ids=["one-per-chunk", "chunks-of-3"])
def test_chunked_transfer_matrices_equal_one_stack(budget, monkeypatch):
    # a budget of 3 * 4 * (2d)^2 entries puts three J = 5/2 reservoirs in a chunk
    params = CollisionParams(tau=3.0, gamma=0.05)
    specs = [ReservoirSpec(theta=t, phi=phi, spin_j=spin_j, g=0.05 * w)
             for spin_j in (0.5, 2.5) for t, phi, w in CROSS_CHECK_UNITS]
    specs += [ReservoirSpec(theta=0.3 * k, phi=0.2 * k, spin_j=2.5, g=0.01 * k) for k in range(7)]
    whole = _transfer_matrices(specs, params)
    monkeypatch.setattr(qsim, "MAP_CHUNK_ELEMENTS", budget)
    assert _transfer_matrices(specs, params).tobytes() == whole.tobytes()


def test_unit_states_built_once_per_chunk_and_maps_stay_bitwise(monkeypatch):
    # repeated and mixed (theta, phi) pairs, a signed zero, two spins, and
    # chunks of three J = 5/2 reservoirs (a budget of 3 * 4 * (2d)^2 entries)
    params = CollisionParams(tau=3.0, gamma=0.05)
    angles = [(0.0, 0.0), (math.pi, 0.0), (1.1, 0.4), (0.0, -0.0),
              (1.1, 0.4), (math.pi, 0.0), (0.0, 0.0), (1.1, -0.4)]
    specs = [ReservoirSpec(theta=t, phi=phi, spin_j=spin_j, g=0.01 * (k + 1))
             for spin_j in (0.5, 2.5) for k, (t, phi) in enumerate(angles)]
    monkeypatch.setattr(qsim, "MAP_CHUNK_ELEMENTS", 3 * 4 * 12 * 12)
    built = []
    monkeypatch.setattr(qsim, "reservoir_unit_state",
                        lambda spec: built.append(spec) or reservoir_unit_state(spec))
    maps = _transfer_matrices(specs, params)
    for m, spec in zip(maps, specs):
        assert m.tobytes() == per_reservoir_transfer_matrix(spec, params).tobytes()
    # J = 1/2: one chunk with 5 distinct pairs; J = 5/2: chunks of 3, 3 and 2
    assert len(built) == 5 + 3 + 3 + 2


def cycle_modes(reservoir_sets, params):
    """The eigenvalues, modes and fixed points of the cycle maps of
    reservoir sets of one length, as seen from |+>."""
    specs = [r for rs in reservoir_sets for r in rs]
    maps = _transfer_matrices(specs, params).reshape(len(reservoir_sets), -1, 4, 4)
    return _cycle_modes(PLUS_PAULI, _prefix_products(maps))


# each spin and curve size meets one of the (gamma, tau, mode) settings, and
# every setting value comes up; the points settle at once, deep into the
# scan (93205 cycles at J = 7, tau = 0.3), or not within the cap
SETTLE_SETTINGS = list(itertools.product((0.0, 1e-4, 0.01), (0.3, 3.0, 30.0), (EXACT, TRUNCATED)))
SETTLE_CASES = [(spin_j, n_points, *SETTLE_SETTINGS[7 * i % len(SETTLE_SETTINGS)])
                for i, (spin_j, n_points)
                in enumerate(itertools.product((0.5, 1.0, 1.5, 2.5, 7.0), (5, 41, 201)))]


@pytest.mark.parametrize("spin_j, n_points, gamma, tau, mode", SETTLE_CASES)
def test_grouped_settle_equals_per_block_reference(spin_j, n_points, gamma, tau, mode):
    lam, parts, _ = cycle_modes(
        curve_sets(spin_j, n_points), CollisionParams(tau=tau, gamma=gamma, propagator_mode=mode))
    # no cycle, a partial last block, and caps off the block grid
    for cap in (1, 777, 20000, 200000):
        assert np.array_equal(_settle_cycles(PLUS_PAULI, lam, parts, cap // 2),
                              settle_cycles_per_block(PLUS_PAULI, lam, parts, cap // 2))


@pytest.mark.parametrize("n_res", [1, 2])
@pytest.mark.parametrize("blocks", [2, SETTLE_GROUP_ROWS // BLOCK_CYCLES],
                         ids=["later-block-of-a-group", "first-block-of-next-group"])
def test_steady_states_settle_on_first_cycle_of_a_block_in_a_group(n_res, blocks, monkeypatch):
    # one point scans SETTLE_GROUP_ROWS // BLOCK_CYCLES blocks per group, so
    # cycle 2 B + 1 opens the third block of the first group, and cycle
    # SETTLE_GROUP_ROWS + 1 opens the second group; that cycle's change is
    # measured against the cycle before it
    reservoirs = [ReservoirSpec(theta=t, phi=phi, g=0.01 * w)
                  for t, phi, w in CROSS_CHECK_UNITS[:n_res]]
    k = blocks * BLOCK_CYCLES + 1
    long_run = CollisionParams(tau=3.0, n_collisions=k * n_res)
    _, trajectory = run_to_cap(plus_state(), reservoirs, long_run)
    ends = np.concatenate([[0.0], trajectory[n_res - 1::n_res]])  # |+> has sigma_z = 0
    changes = np.abs(np.diff(ends))
    tol = (changes[k - 2] + changes[k - 1]) / 2
    assert changes[k - 1] < tol < changes[:k - 1].min()
    params = CollisionParams(tau=3.0, n_collisions=2 * k * n_res)
    monkeypatch.setattr(qsim, "STEADY_TOL", tol)
    iterated, _ = evolve_collisions(plus_state(), reservoirs, params)
    _, used, converged = steady_states([reservoirs], params)
    assert iterated.converged and iterated.collisions_used == k * n_res
    assert (used[0], converged[0]) == (k * n_res, True)


@pytest.mark.parametrize("spin_j", [0.5, 1.0, 1.5, 2.5])
def test_exact_curve_settles_like_iteration(spin_j):
    # collisions_used and converged follow the iterated cycle-to-cycle test at
    # every point; where the iteration settled, its sigma_z is within
    # STEADY_TOL / (1 - |lambda_2|) of the fixed point
    settled = 0
    for cap in (20000, 3000, 777):
        for mode in (EXACT, TRUNCATED):
            for gamma in (0.0, 0.05):
                params = CollisionParams(tau=3.0, n_collisions=cap, gamma=gamma,
                                         propagator_mode=mode)
                curve = transfer_curve(spin_j, params, n_points=11)
                for i, reservoirs in enumerate(curve_sets(spin_j, 11)):
                    result, _ = evolve_collisions(plus_state(), reservoirs, params)
                    assert curve.collisions_used[i] == result.collisions_used
                    assert curve.converged[i] == result.converged
                    if result.converged:
                        settled += 1
                        assert abs(curve.outputs[i] - result.sigma_z) < 2e-6
    assert settled > 0


@pytest.mark.parametrize("n_res", [1, 2, 3])
def test_exact_engine_settles_like_iteration_on_mixed_units(n_res):
    reservoirs = [ReservoirSpec(theta=t, phi=phi, spin_j=1.5, g=0.05 * w)
                  for t, phi, w in CROSS_CHECK_UNITS[:n_res]]
    for n, gamma, mode in ((7, 0.0, EXACT), (1001, 0.05, TRUNCATED), (3000, 0.0, EXACT)):
        params = CollisionParams(tau=3.0, n_collisions=n, gamma=gamma, propagator_mode=mode)
        sigma_z, used, converged = steady_states([reservoirs], params)
        iterated, _ = evolve_collisions(plus_state(), reservoirs, params)
        assert (used[0], converged[0]) == (iterated.collisions_used, iterated.converged)
        if iterated.converged:
            assert abs(sigma_z[0] - iterated.sigma_z) < 2e-6


@pytest.mark.parametrize("spin_j", [0.5, 2.5])
@pytest.mark.parametrize("mode", [EXACT, TRUNCATED])
@pytest.mark.parametrize("gamma", [0.0, 0.05])
def test_fixed_point_matches_long_iteration(spin_j, mode, gamma):
    pair = curve_sets(spin_j, 5)[3]                    # u = 0.5
    mixed = [ReservoirSpec(theta=t, phi=phi, spin_j=spin_j, g=0.05 * w)
             for t, phi, w in CROSS_CHECK_UNITS]
    for reservoirs in (pair, mixed):
        params = CollisionParams(tau=3.0, n_collisions=200000 - 200000 % len(reservoirs),
                                 gamma=gamma, propagator_mode=mode)
        iterated, _ = run_to_cap(plus_state(), reservoirs, params)
        sigma_z, *_ = steady_states([reservoirs], params)
        *_, fixed = cycle_modes([reservoirs], params)
        rho = np.einsum("k,kab->ab", fixed[0] / fixed[0, 0], PAULI) / 2
        assert abs(sigma_z[0] - iterated.sigma_z) < 1e-12
        assert np.abs(rho - iterated.rho.entries).max() < 1e-12


@pytest.mark.parametrize("spin_j, g, bound", [
    (0.5, 0.01, 1e-12), (1.0, 0.01, 1e-12),
    (1.5, 0.01, 2 * 0.01**2), (1.5, 0.001, 2 * 0.001**2),
    (2.5, 0.01, 2 * 0.01**2), (2.5, 0.001, 2 * 0.001**2),
])
def test_phase_averaged_units_follow_rate_closed_form(spin_j, g, bound):
    # units at theta = arccos u, averaged over 8 phases, carry no transverse
    # coherence; the second-order pull rates then give
    # sigma_z = u / (J + 1/2 - (J - 1/2) u^2), exact at J <= 1, off by O(g^2) above
    params = CollisionParams(tau=3.0)
    us = np.linspace(-0.95, 0.95, 9)
    specs = [ReservoirSpec(theta=math.acos(u), phi=2 * math.pi * k / 8, spin_j=spin_j, g=g)
             for u in us for k in range(8)]
    mean_maps = _transfer_matrices(specs, params).reshape(len(us), 8, 4, 4).mean(axis=1)
    _, _, fixed = _cycle_modes(PLUS_PAULI, mean_maps[:, None])
    closed_form = us / (spin_j + 0.5 - (spin_j - 0.5) * us**2)
    assert np.abs(fixed[:, 3] / fixed[:, 0] - closed_form).max() < bound


def test_degenerate_cycle_map_curve_matches_iteration():
    # g tau = pi at u = +-1: the coupled map is diag(1, -1, -1, 1) and the
    # other one the identity, so the populations stay put while <X> of |+>
    # flips sign every cycle. sigma_z stays 0; no single eigenvector says so.
    g = math.pi / 3
    params = CollisionParams(tau=3.0)
    curve = transfer_curve(0.5, params, n_points=5, g=g)
    long_run = CollisionParams(tau=3.0, n_collisions=2000)
    for i, reservoirs in enumerate(curve_sets(0.5, 5, g=g)):
        settled, _ = evolve_collisions(plus_state(), reservoirs, params)
        assert (curve.collisions_used[i], curve.converged[i]) == (
            settled.collisions_used, settled.converged)
        iterated, _ = run_to_cap(plus_state(), reservoirs, long_run)
        assert abs(curve.outputs[i] - iterated.sigma_z) < 1e-12
    assert abs(curve.outputs[0]) < 1e-12 and abs(curve.outputs[-1]) < 1e-12
    assert curve.collisions_used[0] == curve.collisions_used[-1] == 2


def test_oscillating_modes_reaching_the_readout_raise():
    # an X flip per cycle: eigenvalues 1, 1, -1, -1 with <Y> and <Z> flipping
    flip = np.diag([1.0, 1.0, -1.0, -1.0])[None, None]
    plus = np.array([1.0, 1.0, 0.0, 0.0])
    _, _, fixed = _cycle_modes(plus, flip)
    assert np.array_equal(fixed[0], plus)
    with pytest.raises(ValidationError):
        _cycle_modes(np.array([1.0, 0.0, 0.0, 1.0]), flip)      # excited: sigma_z = +-1


def test_round_robin_curve_ignores_seed():
    curves = [transfer_curve(2.5, n_points=5, seed=seed) for seed in (1, 2)]
    for key in ("outputs", "collisions_used", "converged"):
        assert np.array_equal(getattr(curves[0], key), getattr(curves[1], key))
    assert [c.provenance["seed"] for c in curves] == [1, 2]


def test_steady_states_validation():
    one = [ReservoirSpec(theta=0.0, g=0.01)]
    with pytest.raises(ValidationError):
        steady_states([one, one * 2])
    with pytest.raises(ValidationError):
        steady_states([])
    with pytest.raises(NoCoupling):
        steady_states([one, [ReservoirSpec(theta=0.0, g=0.0)]])
