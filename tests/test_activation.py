import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference import steady_states

from qnpflow.activation import (
    BETA_HI,
    BETA_LO,
    ActivationCurve,
    _scan_rss,
    beta_table,
    fit_beta,
    spin_beta,
)
from qnpflow.errors import DegenerateCurve, UnknownSpin, ValidationError
from qnpflow.neuralnet import _tanh_slope
from qnpflow.qsim import CollisionParams, ReservoirSpec, transfer_curve

U41 = np.linspace(-1.0, 1.0, 41)


def tanh_curve(beta, u=U41):
    return ActivationCurve(inputs=u, outputs=np.tanh(beta * u))


# ------------------------------------------------------------ fitting

def test_fit_recovers_synthetic_beta():
    fit = fit_beta(tanh_curve(2.5))
    assert fit.beta == pytest.approx(2.5, abs=1e-6)
    assert fit.rss < 1e-12
    assert fit.n_points == 41


@given(st.floats(min_value=0.5, max_value=10.0))
@settings(max_examples=60, deadline=None)
def test_fit_recovers_beta_across_range(beta):
    fit = fit_beta(tanh_curve(beta))
    assert fit.beta == pytest.approx(beta, rel=1e-6)


def test_fit_linear_curve_near_unit_slope():
    u = np.linspace(-0.2, 0.2, 41)
    fit = fit_beta(ActivationCurve(inputs=u, outputs=u.copy()))
    assert 0.9 <= fit.beta <= 1.1
    # brute-force scan confirms the one-dimensional minimum
    grid = np.linspace(0.5, 2.0, 3001)
    losses = [np.sum((u - np.tanh(b * u)) ** 2) for b in grid]
    assert grid[int(np.argmin(losses))] == pytest.approx(fit.beta, abs=1e-3)


def test_fit_noisy_curve_stays_close():
    rng = np.random.default_rng(3)
    y = np.clip(np.tanh(3.0 * U41) + rng.normal(0, 1e-3, U41.size), -1, 1)
    fit = fit_beta(ActivationCurve(inputs=U41, outputs=y))
    assert fit.beta == pytest.approx(3.0, rel=1e-2)
    assert fit.rss >= 0


def test_fit_degenerate_constant_outputs():
    with pytest.raises(DegenerateCurve):
        fit_beta(ActivationCurve(inputs=U41, outputs=np.zeros(41)))


def test_fit_degenerate_single_sign_inputs():
    u = np.linspace(0.1, 1.0, 11)
    with pytest.raises(DegenerateCurve):
        fit_beta(ActivationCurve(inputs=u, outputs=np.tanh(u)))


@given(st.floats(min_value=0.6, max_value=9.0), st.floats(min_value=0.5, max_value=9.9))
@settings(max_examples=40, deadline=None)
def test_monotone_steepness(beta1, beta2):
    # pointwise domination on u > 0 must order the fitted steepness
    lo, hi = sorted([beta1, beta2])
    fit_lo = fit_beta(tanh_curve(lo))
    fit_hi = fit_beta(tanh_curve(hi))
    assert fit_hi.beta >= fit_lo.beta - 1e-9


def test_monotone_steepness_non_tanh_shapes():
    linear = fit_beta(ActivationCurve(inputs=U41, outputs=U41.copy()))
    cubic = fit_beta(ActivationCurve(inputs=U41, outputs=U41**3))
    assert linear.beta >= cubic.beta


# ------------------------------------------------------------ curve validation

def test_curve_requires_sorted_inputs():
    with pytest.raises(ValidationError):
        ActivationCurve(inputs=np.array([0.5, -0.5, 1.0]), outputs=np.zeros(3))


def test_curve_requires_bounded_outputs():
    with pytest.raises(ValidationError):
        ActivationCurve(inputs=np.array([-1.0, 1.0]), outputs=np.array([0.0, 1.5]))


def test_curve_requires_two_points():
    with pytest.raises(ValidationError):
        ActivationCurve(inputs=np.array([0.0]), outputs=np.array([0.0]))


@pytest.mark.parametrize("inputs, outputs", [
    ([-1.0, 0.0, 1.0], [-0.5, math.nan, 0.5]),
    ([-1.0, 0.0, math.inf], [-0.5, 0.0, 0.5]),
], ids=["nan-output", "inf-input"])
def test_curve_requires_finite_numbers(inputs, outputs):
    with pytest.raises(ValidationError, match="finite"):
        ActivationCurve(inputs=np.array(inputs), outputs=np.array(outputs))


# ------------------------------------------------------------ spin table

def test_beta_table_contents():
    assert beta_table() == {0.5: 2.22, 1.0: 2.78, 1.5: 3.33, 2.5: 4.1}


def test_spin_lookup():
    assert spin_beta(2.5) == 4.1
    assert spin_beta(0.5) == 2.22
    with pytest.raises(UnknownSpin):
        spin_beta(2.0)


def test_beta_table_returns_copy():
    beta_table()[0.5] = 99.0
    assert beta_table()[0.5] == 2.22


# ------------------------------------------------------------ activation slope

def test_deriv_matches_finite_difference():
    # backprop takes the slope from the activation a itself: beta (1 - a^2)
    rng = np.random.default_rng(17)
    h = 1e-6
    for _ in range(100):
        beta = rng.uniform(0.5, 3.0)
        x = rng.uniform(-1.0, 1.0)
        fd = (np.tanh(beta * (x + h)) - np.tanh(beta * (x - h))) / (2 * h)
        a = np.tanh(beta * np.array([x]))
        assert _tanh_slope(a, beta)[0] == pytest.approx(fd, rel=1e-7)


def test_scan_losses_equal_direct_sums_and_fit_is_a_local_minimum():
    # each scanned loss is the plain sum of squared residuals, to rounding;
    # on the criterion-5 curves no loss at beta (1 +- 1e-7) undercuts the fit's
    grid = np.geomspace(BETA_LO, BETA_HI, 400)
    spin_curves = [transfer_curve(j, CollisionParams(tau=3.0), n_points=41)
                   for j in (0.5, 1.0, 1.5, 2.5)]
    curves = list(spin_curves)
    rng = np.random.default_rng(11)
    for _ in range(100):
        u = np.unique(rng.uniform(-1.0, 1.0, int(rng.integers(2, 60))))
        y = np.clip(np.tanh(rng.uniform(0.5, 5.0) * u) + rng.normal(0, 0.05, u.size), -1, 1)
        curves.append(ActivationCurve(inputs=u, outputs=y))
    for curve in curves:
        direct = [np.sum((curve.outputs - np.tanh(b * curve.inputs)) ** 2) for b in grid]
        np.testing.assert_allclose(_scan_rss(curve, grid), direct, rtol=1e-13, atol=0)
    for curve in spin_curves:
        fit = fit_beta(curve)
        around = _scan_rss(curve, fit.beta * np.array([1 - 1e-7, 1.0, 1 + 1e-7]))
        assert around[1] == fit.rss
        assert around[0] >= fit.rss and around[2] >= fit.rss


def coherent_pair_beta(spin_j, gamma):
    # units at theta = arccos u, one at phi = 0 and one at phi = pi
    us = np.linspace(-1.0, 1.0, 41)
    sets = [[ReservoirSpec(theta=math.acos(u), phi=phi, spin_j=spin_j, g=0.01)
             for phi in (0.0, math.pi)] for u in us]
    sigma_z, _, _ = steady_states(sets, CollisionParams(tau=3.0, gamma=gamma))
    return fit_beta(ActivationCurve(inputs=us, outputs=sigma_z)).beta


@pytest.mark.parametrize("gamma, direction", [(0.0, -1), (1e-4, 1)], ids=["undamped", "damped"])
def test_coherent_pair_beta_direction_in_spin(gamma, direction):
    # the README's coherent-pair rows: beta falls with J without damping
    # (2.1807 ... 2.1748) and rises with it at gamma = 1e-4 (1.102 ... 1.812)
    betas = [coherent_pair_beta(j, gamma) for j in (0.5, 1.0, 1.5, 2.5)]
    assert all(direction * (b - a) > 0 for a, b in zip(betas, betas[1:])), betas
