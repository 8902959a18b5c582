"""Element-level behavior: sector, mode switching, storage, runs driven by e = sin t."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from higsni import (
    HigsIrcParams,
    HigsParams,
    HigsPii2Params,
    InvalidParameters,
    IrcParams,
    Pii2Params,
    SimConfig,
    StateSpace,
    simulate_higs_irc_loop,
)
from higsni.higs import (
    gain_mode,
    project_to_sector,
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


# An admissible parameter set per class, by keyword.
_ADMISSIBLE = {
    HigsParams: {"omega_h": 0.5, "k_h": 1.0},
    HigsIrcParams: {"omega_h": 0.5, "k_h": 20.0, "D": -1.0},
    IrcParams: {"Gamma": 1.0, "D": -1.0},
    Pii2Params: {"k_p": 1.0, "k1": 1.0, "k2": 1.0, "D": -2.0},
    HigsPii2Params: {"k_p": 0.5, "D": -1.5, "h1": HigsParams(0.3, 2.0),
                     "h2": HigsParams(0.2, 1.0), "h3": HigsParams(0.4, 1.0)},
}

# Every numeric field of every parameter class: its range and the nearest
# value outside it.
_RANGED_FIELDS = [
    (HigsParams, "omega_h", ">= 0", -0.1), (HigsParams, "k_h", "> 0", 0.0),
    (HigsIrcParams, "omega_h", ">= 0", -0.1), (HigsIrcParams, "k_h", "> 0", 0.0),
    (HigsIrcParams, "D", "< 0", 0.0),
    (IrcParams, "Gamma", "> 0", 0.0), (IrcParams, "D", "< 0", 0.0),
    (Pii2Params, "k_p", "> 0", 0.0), (Pii2Params, "k1", "> 0", 0.0),
    (Pii2Params, "k2", "> 0", 0.0), (Pii2Params, "D", "< 0", 0.0),
    (HigsPii2Params, "k_p", "> 0", 0.0), (HigsPii2Params, "D", "< 0", 0.0),
]


@pytest.mark.parametrize("value", ["out_of_range", np.nan, np.inf, -np.inf],
                         ids=["out_of_range", "nan", "inf", "minus_inf"])
@pytest.mark.parametrize("cls, name, text, outside", _RANGED_FIELDS,
                         ids=[f"{c.__name__}.{n}" for c, n, _, _ in _RANGED_FIELDS])
def test_every_parameter_range_raises_invalid_parameters(cls, name, text, outside, value):
    value = outside if value == "out_of_range" else value
    with pytest.raises(InvalidParameters) as exc:
        cls(**dict(_ADMISSIBLE[cls], **{name: value}))
    assert str(exc.value) == f"{name} must be finite and {text}, got {float(value)}"


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
    # the projection leaves exactly the points of the sector in place
    assert project_to_sector(1.0, 0.5, 1.0, 0.0) == 0.5
    assert project_to_sector(0.0, 0.0, 7.0, 0.0) == 0.0
    assert project_to_sector(1.0, 2.0, 1.0, 0.0) != 2.0


def test_project_to_sector_examples():
    assert project_to_sector(1.0, 0.5, 1.0, 0.0) == 0.5
    assert project_to_sector(1.0, 2.0, 1.0, 0.0) == 1.0
    assert project_to_sector(0.0, 0.3, 1.0, 0.0) == 0.0
    assert project_to_sector(-1.0, -2.0, 1.0, 0.0) == -1.0
    assert project_to_sector(1.0, -0.4, 2.0, 0.0) == 0.0


@given(finite, finite, gains)
def test_projection_lands_inside_sector(e, x_h, k):
    proj = project_to_sector(e, x_h, k, 0.0)
    slack = 1e-12 * (1.0 + abs(e * proj) + proj * proj / k)
    assert e * proj >= proj * proj / k - slack
    # idempotent, and a no-op on points already inside
    assert project_to_sector(e, proj, k, 0.0) == proj
    if e * x_h >= x_h * x_h / k:
        assert proj == x_h


# ---------------------------------------------------------------------------
# mode decisions


def _base_mode(e, e_dot, x_h, p, tol=1e-9):
    return gain_mode(e, e_dot, x_h, p.k_h, p, tol)


def test_mode_base_truth_table():
    p = HigsParams(0.5, 2.0)
    # on the boundary with the switching inequality strictly satisfied
    assert _base_mode(1.0, 0.0, 2.0, p)
    # interior state stays in integrator mode regardless of rates
    assert not _base_mode(1.0, 0.0, 0.0, p)
    # boundary but the inequality fails: omega e^2 = 0.5 < k e e_dot = 1
    assert not _base_mode(1.0, 2.0 * p.omega_h / p.k_h, 2.0, p)


def test_mode_base_tie_goes_to_integrator():
    p = HigsParams(0.5, 2.0)
    e_dot = p.omega_h / p.k_h    # omega e^2 == k e e_dot exactly
    assert not _base_mode(1.0, e_dot, 2.0, p)


def test_mode_irc_truth_table():
    # the boundary is kappa_tilde e, the switching inequality keeps k_h
    p = HigsIrcParams(0.5, 20.0, -1.0)
    kt = p.kappa_tilde
    assert gain_mode(1.0, 0.0, kt, kt, p, 1e-9)
    assert not gain_mode(1.0, 0.0, 0.0, kt, p, 1e-9)
    # negative-side boundary: omega*1 > k*(-1)*(-0.5*omega/k) = 0.5*omega
    assert gain_mode(-1.0, -0.5 * p.omega_h / p.k_h, -kt, kt, p, 1e-9)
    # omega e^2 = 0.5 < k_h e e_dot = 1, though kappa_tilde e e_dot would be 1/21
    assert not gain_mode(1.0, 2.0 * p.omega_h / p.k_h, kt, kt, p, 1e-9)


def test_mode_boundary_tolerance_is_relative():
    p = HigsParams(1.0, 1.0)
    x = 100.0
    off = 0.5e-9 * x    # within tol * max(1, |x_h|)
    assert _base_mode(x + off, 0.0, x, p, tol=1e-9)
    assert not _base_mode(x + 1e-3, 0.0, x, p, tol=1e-9)


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
    gain = tr.modes[:, 0] == int(True)
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
