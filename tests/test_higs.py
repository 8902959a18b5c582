"""Element-level behavior: sector, mode switching, storage, runs driven by e = sin t."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from higsni import HigsIrcParams, HigsParams, SimConfig, StateSpace, simulate_higs_irc_loop
from higsni.higs import (
    HigsMode,
    determine_mode_base,
    determine_mode_irc,
    project_to_sector,
    sector_contains,
    storage_V1,
    storage_V2_cascade,
    storage_V_h,
)

finite = st.floats(-1e6, 1e6, allow_nan=False)
gains = st.floats(1e-3, 1e3)
neg_d = st.floats(-1e3, -1e-3)


# ---------------------------------------------------------------------------
# parameters


def test_params_validation():
    with pytest.raises(ValueError):
        HigsParams(-0.1, 1.0)
    with pytest.raises(ValueError):
        HigsParams(1.0, 0.0)
    with pytest.raises(ValueError):
        HigsIrcParams(1.0, 1.0, 0.0)
    with pytest.raises(ValueError):
        HigsIrcParams(1.0, 1.0, 0.5)


def test_kappa_tilde_reference_values():
    assert HigsIrcParams(0.5, 20.0, -1.0).kappa_tilde == 20.0 / 21.0
    assert HigsIrcParams(0.5, 5.0, -1.0).kappa_tilde == 5.0 / 6.0


@given(gains, neg_d)
def test_kappa_tilde_identities(k_h, D):
    p = HigsIrcParams(1.0, k_h, D)
    kt = p.kappa_tilde
    assert 0.0 < kt < k_h
    assert 1.0 / kt == pytest.approx(1.0 / k_h - D, rel=1e-12)


# ---------------------------------------------------------------------------
# sector and projection


def test_sector_contains_examples():
    assert sector_contains(1.0, 0.5, 1.0)
    assert sector_contains(0.0, 0.0, 7.0)
    assert not sector_contains(1.0, 2.0, 1.0)


def test_project_to_sector_examples():
    assert project_to_sector(1.0, 0.5, 1.0) == 0.5
    assert project_to_sector(1.0, 2.0, 1.0) == 1.0
    assert project_to_sector(0.0, 0.3, 1.0) == 0.0
    assert project_to_sector(-1.0, -2.0, 1.0) == -1.0
    assert project_to_sector(1.0, -0.4, 2.0) == 0.0


@given(finite, finite, gains)
def test_projection_lands_inside_sector(e, x_h, k):
    proj = project_to_sector(e, x_h, k)
    slack = 1e-12 * (1.0 + abs(e * proj) + proj * proj / k)
    assert sector_contains(e, proj, k, slack)
    # idempotent, and a no-op on points already inside
    assert project_to_sector(e, proj, k) == proj
    if sector_contains(e, x_h, k):
        assert proj == x_h


# ---------------------------------------------------------------------------
# mode decisions


def test_mode_base_truth_table():
    p = HigsParams(0.5, 2.0)
    # on the boundary with the switching inequality strictly satisfied
    assert determine_mode_base(1.0, 0.0, 2.0, p) == HigsMode.GAIN
    # interior state stays in integrator mode regardless of rates
    assert determine_mode_base(1.0, 0.0, 0.0, p) == HigsMode.INTEGRATOR
    # boundary but the inequality fails: omega e^2 = 0.5 < k e e_dot = 1
    assert determine_mode_base(1.0, 2.0 * p.omega_h / p.k_h, 2.0, p) == HigsMode.INTEGRATOR


def test_mode_base_tie_goes_to_integrator():
    p = HigsParams(0.5, 2.0)
    e_dot = p.omega_h / p.k_h    # omega e^2 == k e e_dot exactly
    assert determine_mode_base(1.0, e_dot, 2.0, p) == HigsMode.INTEGRATOR


def test_mode_irc_truth_table():
    p = HigsIrcParams(0.5, 20.0, -1.0)
    kt = p.kappa_tilde
    assert determine_mode_irc(1.0, 0.0, kt, p) == HigsMode.GAIN
    assert determine_mode_irc(1.0, 0.0, 0.0, p) == HigsMode.INTEGRATOR
    # negative-side boundary: omega*1 > k*(-1)*(-0.5*omega/k) = 0.5*omega
    assert determine_mode_irc(-1.0, -0.5 * p.omega_h / p.k_h, -kt, p) == HigsMode.GAIN


def test_mode_boundary_tolerance_is_relative():
    p = HigsParams(1.0, 1.0)
    x = 100.0
    off = 0.5e-9 * x    # within tol * max(1, |x_h|)
    assert determine_mode_base(x + off, 0.0, x, p, tol=1e-9) == HigsMode.GAIN
    assert determine_mode_base(x + 1e-3, 0.0, x, p, tol=1e-9) == HigsMode.INTEGRATOR


# ---------------------------------------------------------------------------
# element dynamics and storage


def test_storage_hand_values():
    assert storage_V_h(0.0, HigsIrcParams(1.0, 1.0, -1.0)) == 0.0
    assert storage_V_h(2.0, HigsIrcParams(1.0, 1.0, -1.0)) == pytest.approx(4.0)
    assert storage_V_h(1.0, HigsIrcParams(0.5, 20.0, -1.0)) == pytest.approx(21.0 / 40.0)
    assert storage_V1(0.0, HigsParams(1.0, 1.0)) == 0.0
    assert storage_V1(1.0, HigsParams(1.0, 2.0)) == pytest.approx(0.25)
    assert storage_V1(-3.0, HigsParams(1.0, 1.0)) == pytest.approx(4.5)
    assert storage_V2_cascade(0.0, 5.0) == 0.0
    assert storage_V2_cascade(2.0, 0.0) == pytest.approx(2.0)
    assert storage_V2_cascade(-1.0, -1.0) == pytest.approx(0.5)


# ---------------------------------------------------------------------------
# element runs driven by e = sin t

# An undriven oscillator as the plant: its output x1 = sin t (from x0 = [0, 1])
# is the element input, and B = 0 keeps the element output from feeding back.
EXOSYSTEM = StateSpace([[0.0, 1.0], [-1.0, 0.0]], [0.0, 0.0], [1.0, 0.0])


def _sine_trace(p, dt=1e-3, t_end=20.0):
    return simulate_higs_irc_loop(EXOSYSTEM, p, SimConfig(dt=dt, t_end=t_end, x0=[0.0, 1.0]))


def test_trace_stays_in_sector():
    p = HigsIrcParams(0.5, 20.0, -1.0)
    tr = _sine_trace(p)
    e = np.sin(tr.times)
    lhs = e * tr.u
    rhs = tr.u ** 2 / p.kappa_tilde
    scale = np.maximum(1.0, np.maximum(np.abs(lhs), rhs))
    assert ((lhs - rhs) / scale).min() >= -1e-9


def test_trace_gain_samples_sit_on_boundary():
    p = HigsIrcParams(0.5, 20.0, -1.0)
    tr = _sine_trace(p)
    gain = tr.modes[:, 0] == int(HigsMode.GAIN)
    assert gain.any() and (~gain).any()
    dev = np.abs(tr.u[gain] - p.kappa_tilde * np.sin(tr.times[gain]))
    assert dev.max() <= 1e-9 * max(1.0, np.abs(tr.u).max())


def test_trace_is_continuous_across_switches():
    p = HigsIrcParams(0.5, 20.0, -1.0)
    tr = _sine_trace(p)
    # rates are bounded by omega_h*(|D| kt + 1) and kt*|de/dt|, both < 1 here
    assert np.abs(np.diff(tr.u)).max() <= 5e-3


@pytest.mark.parametrize("dt", [4e-3, 2e-3, 1e-3])
def test_trace_dissipation_budget_scales_quadratically(dt):
    p = HigsIrcParams(0.5, 20.0, -1.0)
    tr = _sine_trace(p, dt=dt)
    e = np.sin(tr.times)
    dV = np.diff([storage_V_h(x, p) for x in tr.u])
    supply = 0.5 * (e[1:] + e[:-1]) * np.diff(tr.u)
    assert (dV - supply).max() <= 100.0 * dt * dt
