"""Element-level behavior: sector, mode switching, storage, open-loop runs."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from higsni import (
    HigsIrcParams,
    HigsMode,
    HigsParams,
    determine_mode_base,
    determine_mode_irc,
    project_to_sector,
    run_element,
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
# open-loop element runs


def _sine_trace(p, dt=1e-3, t_end=20.0):
    return run_element(p, np.sin, np.cos, dt=dt, t_end=t_end)


def test_run_element_validates_steps():
    with pytest.raises(ValueError):
        run_element(HigsParams(1.0, 1.0), np.sin, np.cos, dt=0.0, t_end=1.0)
    with pytest.raises(ValueError):
        run_element(HigsParams(1.0, 1.0), np.sin, np.cos, dt=1.0, t_end=0.5)


def test_trace_stays_in_sector():
    p = HigsIrcParams(0.5, 20.0, -1.0)
    tr = _sine_trace(p)
    e = np.sin(tr.times)
    lhs = e * tr.x_h
    rhs = tr.x_h ** 2 / p.kappa_tilde
    scale = np.maximum(1.0, np.maximum(np.abs(lhs), rhs))
    assert ((lhs - rhs) / scale).min() >= -1e-9


def test_trace_gain_samples_sit_on_boundary():
    p = HigsIrcParams(0.5, 20.0, -1.0)
    tr = _sine_trace(p)
    gain = tr.modes == int(HigsMode.GAIN)
    assert gain.any() and (~gain).any()
    dev = np.abs(tr.x_h[gain] - p.kappa_tilde * np.sin(tr.times[gain]))
    assert dev.max() <= 1e-9 * max(1.0, np.abs(tr.x_h).max())


def test_trace_is_continuous_across_switches():
    p = HigsIrcParams(0.5, 20.0, -1.0)
    tr = _sine_trace(p)
    # rates are bounded by omega_h*(|D| kt + 1) and kt*|de/dt|, both < 1 here
    assert np.abs(np.diff(tr.x_h)).max() <= 5e-3


@pytest.mark.parametrize("dt", [4e-3, 2e-3, 1e-3])
def test_trace_dissipation_budget_scales_quadratically(dt):
    p = HigsIrcParams(0.5, 20.0, -1.0)
    tr = _sine_trace(p, dt=dt)
    e = np.sin(tr.times)
    dV = np.diff([storage_V_h(x, p) for x in tr.x_h])
    supply = 0.5 * (e[1:] + e[:-1]) * np.diff(tr.x_h)
    assert (dV - supply).max() <= 100.0 * dt * dt


def test_vanishing_feedthrough_matches_base_element():
    # D -> 0^- reduces the compensated element to the plain one.
    base = run_element(HigsParams(0.5, 2.0), np.sin, np.cos, dt=1e-3, t_end=10.0)
    irc = run_element(HigsIrcParams(0.5, 2.0, -1e-12), np.sin, np.cos, dt=1e-3, t_end=10.0)
    assert np.abs(base.x_h - irc.x_h).max() <= 1e-6


def test_central_difference_fallback_matches_exact_rate():
    p = HigsParams(0.5, 2.0)
    exact = run_element(p, np.sin, np.cos, dt=1e-3, t_end=10.0)
    approx = run_element(p, np.sin, dt=1e-3, t_end=10.0)
    assert np.abs(exact.x_h - approx.x_h).max() <= 1e-6
