import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qnpflow.errors import (
    InvalidDensityMatrix,
    InvalidSpin,
    NoCoupling,
    ValidationError,
)
from qnpflow.qsim import (
    BLOCK_CYCLES,
    SIGMA_Z,
    STEADY_TOL,
    CollisionParams,
    DensityMatrix,
    _collide,
    _damping_kraus,
    PropagatorMode,
    ReservoirSpec,
    collide_once,
    collision_unitary,
    evolve_collisions,
    excited_state,
    ground_state,
    plus_state,
    reservoir_unit_state,
    spin_ladder,
    steady_state_closed_form,
    transfer_curve,
)

EXACT = PropagatorMode.EXACT_EXPONENTIAL
TRUNCATED = PropagatorMode.SECOND_ORDER_TRUNCATION

spins = st.sampled_from([0.5, 1.0, 1.5, 2.0, 2.5])
thetas = st.floats(min_value=0.0, max_value=math.pi)
phis = st.floats(min_value=-math.pi, max_value=math.pi)


# ------------------------------------------------------------ states

def test_reservoir_state_poles():
    up = reservoir_unit_state(ReservoirSpec(theta=0.0))
    down = reservoir_unit_state(ReservoirSpec(theta=math.pi))
    assert np.allclose(up.entries, np.diag([1.0, 0.0]), atol=1e-15)
    assert np.allclose(down.entries, np.diag([0.0, 1.0]), atol=1e-15)
    assert up.expect(SIGMA_Z) == pytest.approx(1.0)
    assert down.expect(SIGMA_Z) == pytest.approx(-1.0)


def test_reservoir_state_equator():
    rho = reservoir_unit_state(ReservoirSpec(theta=math.pi / 2, phi=0.0))
    assert np.allclose(rho.entries, 0.5 * np.ones((2, 2)), atol=1e-15)
    assert np.trace(rho.entries @ rho.entries).real == pytest.approx(1.0)


@given(spins, thetas, phis)
@settings(max_examples=60, deadline=None)
def test_spin_coherent_magnetization(spin_j, theta, phi):
    rho = reservoir_unit_state(ReservoirSpec(theta=theta, phi=phi, spin_j=spin_j))
    ops = spin_ladder(spin_j)
    rho.validate()
    assert rho.expect(ops.j_z) == pytest.approx(spin_j * math.cos(theta), abs=1e-10)


def test_pure_state_helpers():
    assert np.allclose(excited_state().entries, np.diag([1, 0]))
    assert np.allclose(ground_state().entries, np.diag([0, 1]))
    assert np.allclose(plus_state().entries, 0.5 * np.ones((2, 2)))


def test_density_matrix_validation():
    with pytest.raises(InvalidDensityMatrix):
        DensityMatrix(np.diag([0.6, 0.6])).validate()
    with pytest.raises(InvalidDensityMatrix):
        DensityMatrix(np.array([[0.5, 0.3], [0.1, 0.5]])).validate()
    with pytest.raises(InvalidDensityMatrix):
        DensityMatrix(np.diag([1.5, -0.5])).validate()


# ------------------------------------------------------------ ladder operators

def test_spin_half_ladder():
    ops = spin_ladder(0.5)
    assert np.allclose(ops.j_plus, [[0, 1], [0, 0]])
    assert np.allclose(ops.j_z, 0.5 * np.diag([1, -1]))


def test_spin_one_ladder():
    ops = spin_ladder(1.0)
    nz = ops.j_plus[ops.j_plus != 0]
    assert np.allclose(nz, [math.sqrt(2), math.sqrt(2)])


@given(spins)
def test_ladder_identities(spin_j):
    ops = spin_ladder(spin_j)
    assert np.array_equal(ops.j_plus.conj().T, ops.j_minus)
    comm = ops.j_z @ ops.j_plus - ops.j_plus @ ops.j_z
    assert np.allclose(comm, ops.j_plus, atol=1e-12)
    # matrix elements <m+1|J+|m> = sqrt(J(J+1) - m(m+1))
    dim = int(2 * spin_j + 1)
    for k in range(1, dim):
        m = spin_j - k
        expect = math.sqrt(spin_j * (spin_j + 1) - m * (m + 1))
        assert ops.j_plus[k - 1, k] == pytest.approx(expect, rel=1e-12)


@pytest.mark.parametrize("bad", [0.0, -0.5, 0.75, 1.2])
def test_invalid_spin_rejected(bad):
    with pytest.raises(InvalidSpin):
        spin_ladder(bad)


# ------------------------------------------------------------ collision unitary

def test_tiny_tau_is_identity():
    spec = ReservoirSpec(theta=0.0, spin_j=0.5, g=0.01)
    for mode in (EXACT, TRUNCATED):
        params = CollisionParams(tau=1e-12, propagator_mode=mode)
        u = collision_unitary(spec, params)
        assert np.abs(u - np.eye(4)).max() < 1e-12


def test_exact_mode_unitary():
    spec = ReservoirSpec(theta=0.0, spin_j=0.5, g=0.01)
    u = collision_unitary(spec, CollisionParams(tau=3.0, propagator_mode=EXACT))
    assert np.abs(u @ u.conj().T - np.eye(4)).max() < 1e-12


def test_truncated_mode_unitarity_defect():
    spec = ReservoirSpec(theta=0.0, spin_j=0.5, g=0.01)
    u = collision_unitary(spec, CollisionParams(tau=3.0, propagator_mode=TRUNCATED))
    defect = np.abs(u @ u.conj().T - np.eye(4)).max()
    assert 0 < defect < 1e-4  # bounded by c (g tau)^3 at g tau = 0.03


@given(spins, st.floats(min_value=1e-3, max_value=0.05))
@settings(max_examples=30, deadline=None)
def test_exact_mode_unitary_random(spin_j, gtau):
    spec = ReservoirSpec(theta=0.0, spin_j=spin_j, g=gtau / 3.0)
    u = collision_unitary(spec, CollisionParams(tau=3.0, propagator_mode=EXACT))
    dim = int(2 * (2 * spin_j + 1))
    assert np.abs(u @ u.conj().T - np.eye(dim)).max() < 1e-12


# ------------------------------------------------------------ single collisions

def test_collide_zero_coupling_is_identity():
    spec = ReservoirSpec(theta=0.3, spin_j=1.0, g=0.0)
    params = CollisionParams(tau=3.0, gamma=0.0)
    u = collision_unitary(spec, params)
    probe = plus_state()
    out = collide_once(probe, spec, u, params)
    assert np.abs(out.entries - probe.entries).max() < 1e-14


def test_collide_aligned_states_invariant():
    spec = ReservoirSpec(theta=0.0, spin_j=0.5, g=0.01)
    params = CollisionParams(tau=3.0)
    u = collision_unitary(spec, params)
    out = collide_once(excited_state(), spec, u, params)
    assert np.abs(out.entries - excited_state().entries).max() < 1e-12


def test_collide_population_transfer_closed_form():
    g, tau = 0.01, 3.0
    spec = ReservoirSpec(theta=0.0, spin_j=0.5, g=g)
    params = CollisionParams(tau=tau)
    u = collision_unitary(spec, params)
    out = collide_once(ground_state(), spec, u, params)
    # ground probe + excited unit exchange with amplitude sin(g tau)
    expected = -1.0 + 2.0 * math.sin(g * tau) ** 2
    assert out.expect(SIGMA_Z) == pytest.approx(expected, abs=1e-12)


def test_damping_pulls_excited_down():
    spec = ReservoirSpec(theta=0.0, spin_j=0.5, g=0.0)
    params = CollisionParams(tau=3.0, gamma=0.1)
    u = collision_unitary(spec, params)
    out = collide_once(excited_state(), spec, u, params)
    expected = 2.0 * math.exp(-0.1 * 3.0) - 1.0
    assert out.expect(SIGMA_Z) == pytest.approx(expected, rel=1e-12)


@given(thetas, phis, spins, st.floats(min_value=1e-3, max_value=0.05),
       st.integers(min_value=0, max_value=2**31 - 1))
@settings(max_examples=60, deadline=None)
def test_collision_is_cptp(theta, phi, spin_j, gtau, seed):
    spec = ReservoirSpec(theta=theta, phi=phi, spin_j=spin_j, g=gtau / 3.0)
    params = CollisionParams(tau=3.0, propagator_mode=EXACT)
    u = collision_unitary(spec, params)
    rng = np.random.default_rng(seed)
    vec = rng.normal(size=2) + 1j * rng.normal(size=2)
    vec = vec / np.linalg.norm(vec)
    probe = DensityMatrix(np.outer(vec, vec.conj()))
    out = collide_once(probe, spec, u, params)
    assert abs(out.trace() - 1.0) < 1e-9
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
        for p in (excited_state(), ground_state(), plus_state())
    ]
    assert max(finals) - min(finals) < 2e-3
    assert finals[0] == pytest.approx(steady_state_closed_form(pair), abs=1e-3)


def test_no_coupling_raises():
    with pytest.raises(NoCoupling):
        evolve_collisions(plus_state(), [ReservoirSpec(theta=0.0, g=0.0)])
    with pytest.raises(NoCoupling):
        steady_state_closed_form([ReservoirSpec(theta=0.0, g=0.0)])


def test_unknown_schedule_rejected():
    with pytest.raises(ValidationError):
        evolve_collisions(plus_state(), [ReservoirSpec(theta=0.0, g=0.01)],
                          schedule="alternating")


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


def test_weighted_random_matches_closed_form():
    pair = [
        ReservoirSpec(theta=0.0, spin_j=0.5, g=0.01),
        ReservoirSpec(theta=math.pi, spin_j=0.5, g=0.005),
    ]
    finals = []
    for seed in range(10):
        result, _ = evolve_collisions(plus_state(), pair, CollisionParams(tau=3.0),
                                      schedule="weighted-random", seed=seed)
        finals.append(result.sigma_z)
    assert np.mean(finals) == pytest.approx(steady_state_closed_form(pair), abs=5e-3)


# ------------------------------------------------------------ transfer-matrix engine

def reference_evolve(probe, reservoirs, params, schedule="round-robin", seed=None,
                     steady_tol=STEADY_TOL):
    """evolve_collisions as one _collide per step on the 2x2 density matrix,
    drawing one weighted-random index per step."""
    units = [reservoir_unit_state(r).entries for r in reservoirs]
    kraus = _damping_kraus(params)
    cycle = len(reservoirs)
    if schedule == "weighted-random":
        rng = np.random.default_rng(0 if seed is None else seed)
        weights = np.array([r.g**2 for r in reservoirs])
        g_rms = math.sqrt(float(weights.mean()))
        weights = weights / weights.sum()
        reservoirs = [replace(r, g=g_rms) for r in reservoirs]
    unitaries = [collision_unitary(r, params) for r in reservoirs]

    def sigma_z(arr):
        return float(((arr[0, 0] - arr[1, 1]) / (arr[0, 0] + arr[1, 1])).real)

    arr = probe.entries.copy()
    trajectory = []
    prev_cycle_value = sigma_z(arr)
    converged = False
    while len(trajectory) < params.n_collisions:
        if schedule == "round-robin":
            idx = len(trajectory) % cycle
        else:
            idx = int(rng.choice(cycle, p=weights))
        arr = _collide(arr, units[idx], unitaries[idx], kraus)
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


def assert_matches_reference(probe, reservoirs, params, schedule="round-robin", seed=None,
                             steady_tol=STEADY_TOL):
    sigma_z, rho, used, converged, trajectory = reference_evolve(
        probe, reservoirs, params, schedule, seed, steady_tol)
    result, traj = evolve_collisions(probe, reservoirs, params, schedule=schedule, seed=seed,
                                     steady_tol=steady_tol)
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
def test_settles_on_first_cycle_of_a_block(n_res):
    # that cycle's change is measured against the previous block's last cycle
    reservoirs = [ReservoirSpec(theta=t, phi=phi, g=0.05 * w)
                  for t, phi, w in CROSS_CHECK_UNITS[:n_res]]
    params = CollisionParams(tau=3.0, n_collisions=2 * BLOCK_CYCLES * n_res)
    *_, trajectory = reference_evolve(plus_state(), reservoirs, params, steady_tol=0.0)
    ends = np.concatenate([[0.0], trajectory[n_res - 1::n_res]])  # |+> has sigma_z = 0
    changes = np.abs(np.diff(ends))
    tol = (changes[BLOCK_CYCLES - 1] + changes[BLOCK_CYCLES]) / 2
    assert changes[BLOCK_CYCLES] < tol < changes[:BLOCK_CYCLES].min()
    result = assert_matches_reference(plus_state(), reservoirs, params, steady_tol=tol)
    assert result.converged and result.collisions_used == (BLOCK_CYCLES + 1) * n_res


@pytest.mark.parametrize("seed", [0, 3, 7, 11])
@pytest.mark.parametrize("spin_j", [0.5, 2.5])
def test_weighted_random_matches_per_collision_loop(seed, spin_j):
    for n_res in (1, 2, 3):
        reservoirs = [ReservoirSpec(theta=t, phi=phi, spin_j=spin_j, g=0.05 * w)
                      for t, phi, w in CROSS_CHECK_UNITS[:n_res]]
        for n, gamma in ((1001, 0.0), (3000, 0.05)):
            params = CollisionParams(tau=3.0, n_collisions=n, gamma=gamma)
            assert_matches_reference(excited_state(), reservoirs, params,
                                     schedule="weighted-random", seed=seed)


@pytest.mark.parametrize("seed", [0, 3, 7])
@pytest.mark.parametrize("weights", [[0.8, 0.2], [0.5, 0.3, 0.2]])
def test_batched_choice_equals_sequential_draws(seed, weights):
    batched = np.random.default_rng(seed).choice(len(weights), size=5000, p=weights)
    rng = np.random.default_rng(seed)
    sequential = [int(rng.choice(len(weights), p=weights)) for _ in range(5000)]
    assert batched.tolist() == sequential


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


def test_collision_params_validation():
    with pytest.raises(ValidationError):
        CollisionParams(tau=0.0)
    with pytest.raises(ValidationError):
        CollisionParams(n_collisions=0)
    with pytest.raises(ValidationError):
        CollisionParams(gamma=-1e-5)
