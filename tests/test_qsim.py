import math
import sys
import tracemalloc
from functools import partial
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference import (
    PLUS_PAULI,
    _cycle_modes,
    _settle_cycles,
    collide as reference_collide,
    collision_unitary,
    reservoir_unit_state,
    spin_ladder,
    steady_states,
    transfer_matrices as reference_transfer_matrices,
)

from qnpflow import qsim
from qnpflow.errors import InvalidDensityMatrix, InvalidSpin, NoCoupling, ValidationError
from qnpflow.qsim import (
    BLOCK_CYCLES,
    MAX_COLLISIONS,
    MAX_POINTS,
    MAX_SPIN,
    PAULI,
    CollisionParams,
    DensityMatrix,
    _damping_kraus,
    _prefix_products,
    _transfer_matrices,
    PropagatorMode,
    ReservoirSpec,
    evolve_collisions,
    plus_state,
    pure_state,
    steady_state_closed_form,
    transfer_curve,
    unit_amplitudes,
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


def collide(probe, spec, params):
    """The probe after one collision with a fresh unit of spec, through the
    reservoir's transfer matrix."""
    r = _transfer_matrices([spec], params)[0] @ np.einsum("kab,ba->k", PAULI, probe.entries).real
    return DensityMatrix(np.einsum("k,kab->ab", r, PAULI) / 2)


def spin_z(spin_j):
    """J_z = diag(J, J - 1, ..., -J), the basis order of spin_ladder."""
    return np.diag(spin_j - np.arange(int(round(2 * spin_j + 1))))


def run_to_cap(probe, reservoirs, params):
    """evolve_collisions with its settle test off, so it takes every collision."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(qsim, "STEADY_TOL", 0.0)
        return evolve_collisions(probe, reservoirs, params)


# ------------------------------------------------------------ states

def unit_state(spec):
    """The density matrix of a unit of spec, from the program's amplitudes."""
    amps = unit_amplitudes(spec.theta, spec.phi, spec.spin_j)
    return DensityMatrix(np.outer(amps, amps.conj()))


def test_reservoir_state_poles():
    up = unit_state(ReservoirSpec(theta=0.0))
    down = unit_state(ReservoirSpec(theta=math.pi))
    assert np.allclose(up.entries, np.diag([1.0, 0.0]), atol=1e-15)
    assert np.allclose(down.entries, np.diag([0.0, 1.0]), atol=1e-15)
    assert expect(up, SIGMA_Z) == pytest.approx(1.0)
    assert expect(down, SIGMA_Z) == pytest.approx(-1.0)


def test_reservoir_state_equator():
    rho = unit_state(ReservoirSpec(theta=math.pi / 2, phi=0.0))
    assert np.allclose(rho.entries, 0.5 * np.ones((2, 2)), atol=1e-15)
    assert np.trace(rho.entries @ rho.entries).real == pytest.approx(1.0)


@given(spins, thetas, phis)
@settings(max_examples=60, deadline=None)
def test_spin_coherent_magnetization(spin_j, theta, phi):
    rho = unit_state(ReservoirSpec(theta=theta, phi=phi, spin_j=spin_j))
    assert np.abs(rho.entries - reservoir_unit_state(
        ReservoirSpec(theta=theta, phi=phi, spin_j=spin_j)).entries).max() < 1e-15
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
    with pytest.raises(InvalidSpin):
        ReservoirSpec(theta=0.0, spin_j=bad)


def test_largest_spin_accepted():
    # the unit amplitudes take sqrt(C(2J, k)), which a float holds up to
    # 2J = 1029; one step above, the spin is named with the largest accepted
    assert MAX_SPIN == 514.5
    assert math.comb(1029, 514) < sys.float_info.max < math.comb(1030, 515)
    assert np.isfinite(unit_amplitudes(np.pi / 2, 0.3, MAX_SPIN)).all()
    curve = transfer_curve(MAX_SPIN, n_points=5)
    assert np.all(np.abs(curve.outputs) <= 1)
    for spin_j in (MAX_SPIN + 0.5, 1e6):
        with pytest.raises(InvalidSpin, match=f"spin {spin_j} .* largest spin accepted is 514.5"):
            transfer_curve(spin_j, n_points=5)


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
    probe = plus_state()
    out = collide(probe, spec, params)
    assert np.abs(out.entries - probe.entries).max() < 1e-14


def test_collide_aligned_states_invariant():
    spec = ReservoirSpec(theta=0.0, spin_j=0.5, g=0.01)
    params = CollisionParams(tau=3.0)
    out = collide(EXCITED, spec, params)
    assert np.abs(out.entries - EXCITED.entries).max() < 1e-12


def test_collide_population_transfer_closed_form():
    g, tau = 0.01, 3.0
    spec = ReservoirSpec(theta=0.0, spin_j=0.5, g=g)
    params = CollisionParams(tau=tau)
    out = collide(GROUND, spec, params)
    # ground probe + excited unit exchange with amplitude sin(g tau)
    expected = -1.0 + 2.0 * math.sin(g * tau) ** 2
    assert expect(out, SIGMA_Z) == pytest.approx(expected, abs=1e-12)


def test_damping_pulls_excited_down():
    spec = ReservoirSpec(theta=0.0, spin_j=0.5, g=0.0)
    params = CollisionParams(tau=3.0, gamma=0.1)
    out = collide(EXCITED, spec, params)
    expected = 2.0 * math.exp(-0.1 * 3.0) - 1.0
    assert expect(out, SIGMA_Z) == pytest.approx(expected, rel=1e-12)


@given(thetas, phis, spins, st.floats(min_value=1e-3, max_value=0.05),
       st.integers(min_value=0, max_value=2**31 - 1))
@settings(max_examples=60, deadline=None)
def test_collision_is_cptp(theta, phi, spin_j, gtau, seed):
    spec = ReservoirSpec(theta=theta, phi=phi, spin_j=spin_j, g=gtau / 3.0)
    params = CollisionParams(tau=3.0, propagator_mode=EXACT)
    rng = np.random.default_rng(seed)
    vec = rng.normal(size=2) + 1j * rng.normal(size=2)
    vec = vec / np.linalg.norm(vec)
    probe = DensityMatrix(np.outer(vec, vec.conj()))
    out = collide(probe, spec, params)
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
    with pytest.raises(NoCoupling):
        transfer_curve(0.5, n_points=5, g=0.0)


@pytest.mark.parametrize("mode, g, tau", [(EXACT, 1e308, 3.0), (TRUNCATED, 1e60, 3.0),
                                          (EXACT, 1e3, 1e306)])
def test_overflowing_collision_maps_raise_validation_error(mode, g, tau):
    # warnings are errors under pytest, so none may leak on the way
    params = CollisionParams(tau=tau, propagator_mode=mode)
    pair = [ReservoirSpec(theta=0.0, g=g), ReservoirSpec(theta=math.pi, g=g)]
    for solve in (lambda: evolve_collisions(plus_state(), pair, params),
                  lambda: steady_states([pair], params),
                  lambda: transfer_curve(0.5, params, n_points=5, g=g)):
        with pytest.raises(ValidationError, match="collision maps overflow a float"):
            solve()


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
    """evolve_collisions as one joint-state collision per step on the 2x2
    density matrix."""
    units = [reservoir_unit_state(r).entries for r in reservoirs]
    kraus = _damping_kraus(params)
    cycle = len(reservoirs)
    unitaries = [collision_unitary(r.g, r.spin_j, params) for r in reservoirs]

    def collide_next(arr, k):
        return reference_collide(arr, units[k % cycle], unitaries[k % cycle], kraus)

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


def test_curve_spin_and_size(small_curve):
    assert small_curve.spin_j == 0.5
    assert small_curve.n_points == 5


def test_curve_rejects_even_points():
    with pytest.raises(ValidationError):
        transfer_curve(0.5, n_points=6)


def test_curve_rejects_more_points_than_numpy_indexes():
    # MAX_POINTS + 2 is odd; no count up to MAX_POINTS is tried, as it would allocate
    with pytest.raises(ValidationError, match=rf"n_points must be odd and in \[5, {MAX_POINTS}\]"):
        transfer_curve(0.5, n_points=MAX_POINTS + 2)


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


@pytest.mark.parametrize("mode", [EXACT, TRUNCATED])
@pytest.mark.parametrize("gamma", [0.0, 0.01])
def test_closed_form_transfer_matrices_match_joint_state_reference(mode, gamma):
    # every spin from 1/2 to 25 at random angles and g tau up to 0.9, the
    # pole units, a signed zero and no coupling, against the eigh of the
    # (4J+2)-dimensional exchange Hamiltonian and the traced joint state.
    # Rounding the angle g tau c_k moves cos and sin by about eps times the
    # angle, whose largest value is g tau (J + 1/2); both constructions carry
    # that error, so the tolerance grows with it
    params = CollisionParams(tau=3.0, gamma=gamma, propagator_mode=mode)
    rng = np.random.default_rng(22)
    specs = [ReservoirSpec(theta=float(rng.uniform(0, math.pi)),
                           phi=float(rng.uniform(-math.pi, math.pi)),
                           spin_j=spin_j, g=float(rng.uniform(0.001, 0.3)))
             for spin_j in np.arange(1, 51) / 2 for _ in range(2)]
    specs += [ReservoirSpec(theta=t, phi=phi, spin_j=spin_j, g=g)
              for spin_j in (0.5, 2.5, 7.0)
              for t, phi, g in ((0.0, 0.0, 0.01), (math.pi, 0.0, 0.01), (0.0, -0.0, 0.2),
                                (1.1, 0.4, 0.0))]
    maps = _transfer_matrices(specs, params)
    reference = reference_transfer_matrices(specs, params)
    angle = np.array([params.tau * r.g * (r.spin_j + 0.5) for r in specs])
    scale = np.maximum(1.0, np.abs(reference).max(axis=(1, 2)))
    err = np.abs(maps - reference).max(axis=(1, 2)) / scale
    assert np.all(err <= 4 * np.finfo(float).eps * (1 + angle))
    assert err.max() > 0            # two constructions, not one


def cycle_modes(reservoir_sets, params):
    """The eigenvalues, modes and fixed points of the cycle maps of
    reservoir sets of one length, as seen from |+>."""
    specs = [r for rs in reservoir_sets for r in rs]
    maps = _transfer_matrices(specs, params).reshape(len(reservoir_sets), -1, 4, 4)
    return _cycle_modes(PLUS_PAULI, _prefix_products(maps))


def test_settle_scan_on_a_real_spectrum():
    # eig returns float eigenvalues when none is complex; populations relax
    # toward sigma_z = 0.5 and coherences decay. The scan settles where the
    # direct powers lam^k first move sigma_z by less than STEADY_TOL
    cycle_map = np.array([[1, 0, 0, 0], [0, 0.99, 0, 0], [0, 0, 0.99, 0],
                          [0.001, 0, 0, 0.998]])[None, None]
    lam, parts, _ = _cycle_modes(PLUS_PAULI, cycle_map)
    assert lam.dtype == np.float64
    ends = lam[0] ** np.arange(20001)[:, None] @ parts[0, [0, 3]].T
    changes = np.abs(np.diff(ends[:, 1] / ends[:, 0]))      # cycles 1 .. 20000
    k = np.argmax(changes < qsim.STEADY_TOL) + 1
    assert 777 < k < 20000
    for cap in (1, 777, 20000):
        assert _settle_cycles(PLUS_PAULI, lam, parts, cap)[0] == (k if k <= cap else 0)


@pytest.mark.parametrize("block", [1, 20])
def test_scan_settles_on_the_first_cycle_of_a_block(block, monkeypatch):
    # the settle cycle opens a block, so the scan measures its change against
    # the last cycle of the block before
    lam, parts, _ = cycle_modes(curve_sets(0.5, 5)[:1], CollisionParams())
    k = block * BLOCK_CYCLES + 1
    ends = (lam[0] ** np.arange(k + 1)[:, None] @ parts[0, [0, 3]].T).real
    changes = np.abs(np.diff(ends[:, 1] / ends[:, 0]))      # cycles 1 .. k
    tol = (changes[k - 2] + changes[k - 1]) / 2
    assert changes[k - 1] < tol < changes[:k - 1].min()
    monkeypatch.setattr(qsim, "STEADY_TOL", tol)
    assert _settle_cycles(PLUS_PAULI, lam, parts, 10000)[0] == k


def tolerance_settling_at(lam, parts, k):
    """A STEADY_TOL that the direct powers lam^j of one point first undercut
    at cycle k, with cycle 1 measured against r0."""
    ends = (lam ** np.arange(k + 1)[:, None] @ parts[[0, 3]].T).real
    changes = np.abs(np.diff(ends[:, 1] / ends[:, 0]))      # cycles 1 .. k
    tol = (changes[k - 2] + changes[k - 1]) / 2 if k > 1 else 2 * changes[0]
    assert changes[k - 1] < tol < changes[:k - 1].min(initial=np.inf)
    return tol


@pytest.mark.parametrize("k", [1, BLOCK_CYCLES, 20 * BLOCK_CYCLES],
                         ids=["first-cycle", "end-of-block-1", "end-of-block-20"])
def test_scan_settles_on_the_cycle_the_direct_powers_pick(k, monkeypatch):
    # cycle 1 is measured against r0, and the last cycle of a block against
    # the cycle before it in the same block
    lam, parts, _ = cycle_modes(curve_sets(0.5, 5)[:1], CollisionParams())
    monkeypatch.setattr(qsim, "STEADY_TOL", tolerance_settling_at(lam[0], parts[0], k))
    assert _settle_cycles(PLUS_PAULI, lam, parts, 10000)[0] == k


@pytest.mark.parametrize("over", [-1, 0, 1])
def test_scan_stops_at_its_cap(over, monkeypatch):
    # k is off the block grid, so the last block a cap near it leaves is
    # partial; a cap one short of k leaves the point unsettled
    lam, parts, _ = cycle_modes(curve_sets(0.5, 5)[:1], CollisionParams())
    k = 3 * BLOCK_CYCLES + 100
    monkeypatch.setattr(qsim, "STEADY_TOL", tolerance_settling_at(lam[0], parts[0], k))
    assert _settle_cycles(PLUS_PAULI, lam, parts, k + over)[0] == (k if over >= 0 else 0)


def test_scan_settles_each_point_of_a_batch_as_alone():
    # points leave the scan after the block they settle in, the others keep
    # their rows; at this cap the outer points of the curve do not settle
    lam, parts, _ = cycle_modes(curve_sets(0.5, 11), CollisionParams())
    cycles = _settle_cycles(PLUS_PAULI, lam, parts, 14500)
    assert (cycles == 0).sum() == 6 and len(np.unique(cycles[cycles > 0] // BLOCK_CYCLES)) == 3
    for i in range(len(lam)):
        assert _settle_cycles(PLUS_PAULI, lam[i:i + 1], parts[i:i + 1], 14500)[0] == cycles[i]


@pytest.mark.parametrize("block", [1, 20])
def test_curve_settles_on_the_cycle_the_tolerance_picks(block, monkeypatch):
    # a STEADY_TOL between the changes of cycles k - 1 and k of the iterated
    # pair at u = 0.5 moves the curve's logarithm and its checked window to k
    pair = curve_sets(0.5, 5)[3]
    k = block * BLOCK_CYCLES + 1
    _, trajectory = run_to_cap(plus_state(), pair, CollisionParams(n_collisions=2 * k))
    changes = np.abs(np.diff(np.concatenate([[0.0], trajectory[1::2]])))
    tol = (changes[k - 2] + changes[k - 1]) / 2
    assert changes[k - 1] < tol < changes[:k - 1].min()
    monkeypatch.setattr(qsim, "STEADY_TOL", tol)
    params = CollisionParams(n_collisions=4 * k)
    curve = transfer_curve(0.5, params, n_points=5)
    assert (curve.collisions_used[3], curve.converged[3]) == (2 * k, True)
    _, used, converged = steady_states([pair], params)
    assert (used[0], converged[0]) == (2 * k, True)


def reference_curve(spin_j, params, n_points=5, g=0.01):
    """The reference steady_states of transfer_curve's reservoir pairs."""
    sigma_z, used, converged = steady_states(curve_sets(spin_j, n_points, g=g), params)
    return SimpleNamespace(outputs=sigma_z, collisions_used=used, converged=converged)


@pytest.mark.parametrize("solve", [reference_curve, partial(transfer_curve, n_points=5)],
                         ids=["reference", "curve"])
@pytest.mark.parametrize("spin_j", [0.5, 2.5])
def test_largest_collision_cap_settles_in_bounded_memory(spin_j, solve):
    # the reference scans one block at a time and the curve takes every
    # settle cycle from one logarithm, so no array follows the cap: the peak
    # stays within twice that of a cap past every settle cycle, where the
    # same points settle on the same cycles; the points capped at the
    # default settle past it
    params = CollisionParams(n_collisions=MAX_COLLISIONS)
    solve(spin_j, CollisionParams())                   # warm caches and imports
    tracemalloc.start()
    try:
        default = solve(spin_j, CollisionParams())
        tracemalloc.reset_peak()
        past = solve(spin_j, CollisionParams(n_collisions=200000))
        _, past_peak = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        curve = solve(spin_j, params)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert curve.converged.all()
    assert np.array_equal(curve.outputs, default.outputs)
    assert np.array_equal(curve.collisions_used[default.converged],
                          default.collisions_used[default.converged])
    assert np.all(curve.collisions_used[~default.converged] > 20000)
    assert np.array_equal(past.collisions_used, curve.collisions_used)
    assert peak < 2 * past_peak


@pytest.mark.parametrize("solve", [reference_curve, partial(transfer_curve, n_points=5)],
                         ids=["reference", "curve"])
@pytest.mark.parametrize("spin_j", [0.5, 2.5])
@pytest.mark.parametrize("g", [3e-5, 1e-5, 3e-6, 1e-6, 3e-7, 1e-7])
def test_weak_coupling_resolves_or_raises(spin_j, g, solve):
    # every cycle-map mode crowds toward the fixed one as g tau shrinks; eig
    # then blurs the fixed point, or counts every mode as fixed and returns
    # |+>'s sigma_z = 0 where the closed form is +-1
    closed_form = [steady_state_closed_form(rs) for rs in curve_sets(spin_j, 5, g=g)]
    try:
        curve = solve(spin_j, CollisionParams(), g=g)
    except ValidationError as exc:
        assert "coupling too weak" in str(exc)
    else:
        assert np.abs(curve.outputs - closed_form).max() < 1e-3


@pytest.mark.parametrize("n_res", [1, 2])
@pytest.mark.parametrize("blocks", [2, 16])
def test_steady_states_settle_on_first_cycle_of_a_block(n_res, blocks, monkeypatch):
    # cycle k opens the block after `blocks` whole ones, and the scan reads
    # one block per pass, so k's change is measured against the last cycle
    # of the pass before
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


def test_curve_rejects_underflowing_flips_and_jordan_blocks():
    # a flip probability whose square underflows cannot be told from none;
    # at x = 2 exactly the truncated unit keeps (1 - x^2/2)^2 = 1 of the
    # ground state and lifts x^2 = 4, so with the other unit uncoupled (u = 1)
    # and no damping the cycle map is the Jordan block [[1, 4], [0, 1]]
    with pytest.raises(ValidationError, match="coupling too weak to resolve"):
        transfer_curve(0.5, n_points=5, g=1e-160)
    with pytest.raises(ValidationError, match="Jordan block"):
        transfer_curve(0.5, CollisionParams(propagator_mode=TRUNCATED), n_points=5, g=2 / 3)
    curve = transfer_curve(0.5, CollisionParams(propagator_mode=TRUNCATED, gamma=0.01),
                           n_points=5, g=2 / 3)
    assert np.all(np.abs(curve.outputs) <= 1)


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
        if reservoirs is pair:
            curve = transfer_curve(spin_j, params, n_points=5)
            assert abs(curve.outputs[3] - iterated.sigma_z) < 1e-12


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


def test_steady_states_validation():
    one = [ReservoirSpec(theta=0.0, g=0.01)]
    with pytest.raises(ValidationError):
        steady_states([one, one * 2])
    with pytest.raises(ValidationError):
        steady_states([])
    with pytest.raises(NoCoupling):
        steady_states([one, [ReservoirSpec(theta=0.0, g=0.0)]])


def test_truncated_curve_far_above_unit_radius_settles_like_normalized_iteration():
    # at g tau = 9 the truncated blocks have entries near 40, so the cycle
    # maps' radii are far above 1 and lam^k leaves the float range within a
    # block; the scan reads mu = lam / radius and evolve_collisions steps the
    # cycle map scaled by a power of two near 1 / radius, so neither
    # overflows, and their counts are those of stepping the cycles with r
    # rescaled to r_0 = 1
    params = CollisionParams(tau=30.0, propagator_mode=TRUNCATED)
    lam, _, _ = cycle_modes(curve_sets(0.5, 5, g=0.3), params)
    assert np.abs(lam).max(axis=1).min() > 1e3
    curve = transfer_curve(0.5, params, n_points=5, g=0.3)
    for i, reservoirs in enumerate(curve_sets(0.5, 5, g=0.3)):
        maps = _transfer_matrices(reservoirs, params)
        r, prev, used = PLUS_PAULI, 0.0, 0
        while used < params.n_collisions:
            for m in maps:
                r = m @ r
            r, used = r / r[0], used + len(maps)
            if abs(r[3] - prev) < qsim.STEADY_TOL:
                break
            prev = r[3]
        assert (curve.collisions_used[i], curve.converged[i]) == (used, True)
        settled, _ = evolve_collisions(plus_state(), reservoirs, params)
        assert (settled.collisions_used, settled.converged) == (used, True)
    assert list(curve.collisions_used) == [8, 12, 14, 12, 8]


@pytest.mark.parametrize("solve", [reference_curve, transfer_curve], ids=["reference", "curve"])
def test_large_spin_curve_in_bounded_memory(solve):
    # each reservoir's map takes O(J) memory, d Kraus operators of 2x2: a
    # 41-point curve at J = 100 peaks near 3 MB of traced allocations, where
    # the (4J+2)-dimensional joint states took 37.5 MB; the curve builds no
    # map at all
    solve(0.5, CollisionParams(), 5)                   # warm caches and imports
    tracemalloc.start()
    try:
        curve = solve(100.0, CollisionParams(), 41)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8e6
    assert np.abs(curve.outputs + curve.outputs[::-1]).max() < 1e-9
    assert np.all(np.diff(curve.outputs) > 0)


# ------------------------------------------------------------ closed-form curve

# (spin_j, n_points, gamma, tau, g, mode, cap): the curves of the defaults at
# J = 1/2 to 7, then a truncated cap off the cycle grid, damping with a long
# cap, the largest cap, g tau = 9 truncated, light damping, J = 50, and the
# largest spin at g tau = 0.06
CURVE_RUNS = ([(spin_j, n, 0.0, 3.0, 0.01, EXACT, 20000)
               for spin_j in (0.5, 1.0, 1.5, 2.5, 7.0) for n in (5, 41)]
              + [(1.0, 5, 0.0, 3.0, 0.01, TRUNCATED, 777),
                 (1.5, 5, 0.01, 3.0, 0.01, EXACT, 200000),
                 (0.5, 5, 0.0, 3.0, 0.01, EXACT, MAX_COLLISIONS),
                 (0.5, 5, 0.0, 30.0, 0.3, TRUNCATED, 20000),
                 (2.5, 5, 1e-4, 3.0, 0.01, EXACT, 20000),
                 (50.0, 41, 0.0, 3.0, 0.01, EXACT, 20000),
                 (514.5, 5, 0.0, 0.3, 0.2, EXACT, 20000)])


def random_curve_runs(seed, n):
    """Settings drawn over spin, points, damping, tau, g and cap, the modes
    taking turns."""
    rng = np.random.default_rng(seed)
    return [(float(rng.integers(1, 26)) / 2, int(rng.choice([5, 11, 41])),
             float(rng.choice([0.0, 1e-4, 0.01])), float(rng.choice([0.3, 3.0, 30.0])),
             float(np.exp(rng.uniform(math.log(3e-3), math.log(0.3)))), (EXACT, TRUNCATED)[i % 2],
             int(rng.choice([1, 777, 20000, 200000, MAX_COLLISIONS])))
            for i in range(n)]


@pytest.mark.parametrize("spin_j, n_points, gamma, tau, g, mode, cap",
                         CURVE_RUNS + random_curve_runs(0, 64))
def test_curve_matches_reference_steady_states(spin_j, n_points, gamma, tau, g, mode, cap):
    # the counts are equal; sigma_z agrees within 1e-11 plus the reference's
    # eig rounding of the fixed point, about eps / gap with gap = 1 - mu2 / mu1
    # of the cycle map's population block (up to 4e-11 near g tau = 1e-3)
    params = CollisionParams(tau=tau, n_collisions=cap, gamma=gamma, propagator_mode=mode)
    sets = curve_sets(spin_j, n_points, g=g)
    sigma_z, used, converged = steady_states(sets, params)
    curve = transfer_curve(spin_j, params, n_points=n_points, g=g)
    assert np.array_equal(curve.collisions_used, used)
    assert np.array_equal(curve.converged, converged)
    specs = [r for rs in sets for r in rs]
    cycle_map = _prefix_products(_transfer_matrices(specs, params).reshape(-1, 2, 4, 4))[:, -1]
    mu = np.sort(np.abs(np.linalg.eigvals(cycle_map[:, [0, 3]][:, :, [0, 3]])), axis=1)
    blur = np.finfo(float).eps / (1 - mu[:, 0] / mu[:, 1])
    assert np.all(np.abs(curve.outputs - sigma_z) <= 1e-11 + 4 * blur)


@pytest.mark.parametrize("spin_j", [0.5, 1.0, 2.5, 7.0, 50.0, MAX_SPIN])
@pytest.mark.parametrize("g", [0.3, 0.01, 1e-4, 1e-7])
def test_exact_curve_matches_closed_form_without_damping(spin_j, g):
    # a and b are the two units' flip probabilities sin^2(g_i tau sqrt(2J));
    # a cycle ends at e = a (1 - b) / (a + b - ab), the next collision lifts
    # it to e1 = e + a (1 - e), and sigma_z = e + e1 - 1. At g = 1e-7 the
    # reference's eig cannot separate the modes
    curve = transfer_curve(spin_j, n_points=41, g=g)
    expected = []
    for u in curve.inputs:
        a, b = (math.sin(3.0 * (g * math.sqrt((1.0 + s * u) / 2.0)) * math.sqrt(2 * spin_j)) ** 2
                for s in (1.0, -1.0))
        e = a * (1 - b) / (a + b - a * b)
        expected.append(e + (e + a * (1 - e)) - 1)
    assert np.abs(curve.outputs - expected).max() < 1e-13


# (spin_j, n_points, tau, g, gamma, point, settle cycle, sigma_z): the settle
# cycle and sigma_z of the pole chain in 60-digit arithmetic at the curve's
# float angles. The reference settles the first three one cycle off, since
# the change there lies within 2e-6 of STEADY_TOL, and its sigma_z of the
# last is 9e-11 off: it forms the map entry (1 - b)(1 - p) = 5.8e-7 as a
# difference of terms near 1
HIGH_PRECISION_POINTS = [
    (2.5, 5, 0.3, 0.0010131241013460644, 0.0, 1, 11782432, -0.5000000144340353),
    (5.5, 41, 0.3, 0.0010256564066214047, 0.0, 8, 6181322, -0.6000000333264313),
    (2.5, 41, 0.3, 0.001800432054175904, 0.0, 33, 4699060, 0.6500000456299364),
    (10.5, 41, 30.0, 0.28930029160406784, 0.1, 7, 3, -0.9680095757993923),
]


@pytest.mark.parametrize("spin_j, n_points, tau, g, gamma, i, cycles, sigma_z",
                         HIGH_PRECISION_POINTS)
def test_curve_matches_high_precision_chain(spin_j, n_points, tau, g, gamma, i, cycles, sigma_z):
    params = CollisionParams(tau=tau, gamma=gamma, n_collisions=MAX_COLLISIONS)
    curve = transfer_curve(spin_j, params, n_points=n_points, g=g)
    assert (curve.collisions_used[i], curve.converged[i]) == (2 * cycles, True)
    assert abs(curve.outputs[i] - sigma_z) < 1e-15
