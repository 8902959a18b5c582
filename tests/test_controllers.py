"""Controller construction, composition identities, and the algebraic loop."""

import re

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from higsni import (
    CascadeAssumptionViolated,
    HigsParams,
    HigsPii2Params,
    InvalidParameters,
    IrcParams,
    Pii2Params,
    irc_tf,
    ni_frequency_test,
    pii2rc_tf,
)
from higsni import sim
from higsni.controllers import (
    check_irc_stability,
    check_pii2_stability,
    gain_sum_admissible,
    pii2_chain,
    pii2_mode_system,
    pii2rc_sni_value,
    sni_verdict,
)
from higsni.higs import HigsMode
from higsni.lti import freq_response

gains = st.floats(1e-2, 1e2)
neg_d = st.floats(-1e2, -1e-2)
signal = st.floats(-1e2, 1e2)

MODE_COMBOS = [
    (HigsMode(a), HigsMode(b), HigsMode(c))
    for a in (0, 1) for b in (0, 1) for c in (0, 1)
]

INT = HigsMode.INTEGRATOR
GAIN = HigsMode.GAIN


def _bank(k_p=0.5, D=-1.5, k1=2.0, k23=1.0):
    return HigsPii2Params(
        k_p=k_p, D=D,
        h1=HigsParams(0.3, k1),
        h2=HigsParams(0.2, k23),
        h3=HigsParams(0.4, k23),
    )


# ---------------------------------------------------------------------------
# parameter validation


def test_irc_params_validation():
    with pytest.raises(InvalidParameters):
        IrcParams(0.0, -1.0)
    with pytest.raises(InvalidParameters):
        IrcParams(1.0, 0.0)


def test_pii2_params_validation():
    with pytest.raises(InvalidParameters):
        Pii2Params(1.0, 1.0, 0.0, -1.0)
    with pytest.raises(InvalidParameters):
        Pii2Params(0.0, 1.0, 1.0, -1.0)
    with pytest.raises(InvalidParameters):
        Pii2Params(1.0, 1.0, 1.0, 0.5)


def test_bank_cascade_constraints():
    with pytest.raises(CascadeAssumptionViolated):
        HigsPii2Params(0.5, -1.5, HigsParams(0.3, 2.0),
                       HigsParams(0.2, 1.0), HigsParams(0.4, 2.0))
    with pytest.raises(CascadeAssumptionViolated):
        HigsPii2Params(0.5, -1.5, HigsParams(0.3, 2.0),
                       HigsParams(0.4, 1.0), HigsParams(0.2, 1.0))
    with pytest.raises(CascadeAssumptionViolated):
        HigsPii2Params(0.5, -1.5, HigsParams(0.3, 2.0),
                       HigsParams(0.4, 1.0), HigsParams(0.4, 1.0))


def test_bank_derived_gamma():
    p = _bank()
    assert p.gamma == pytest.approx(1.0 / 1.75)
    assert p.gain_sum() == pytest.approx(2.0 + 1.0 + 0.5)


# ---------------------------------------------------------------------------
# transfer functions


def test_irc_tf_hand_values():
    assert irc_tf(IrcParams(1.0, -1.0)).num == (1.0,)
    assert irc_tf(IrcParams(1.0, -1.0)).den == (1.0, 1.0)
    assert irc_tf(IrcParams(2.0, -0.5)).den == (1.0, 1.0)


def test_pii2rc_tf_hand_values():
    tf = pii2rc_tf(Pii2Params(1.0, 1.0, 1.0, -1.0))
    assert tf.num == (1.0, 1.0, 1.0)
    assert tf.den == (2.0, 1.0, 1.0)
    assert pii2rc_tf(Pii2Params(1.0, 1.0, 1.0, -2.0))(0.0) == pytest.approx(0.5)


@given(gains, neg_d)
def test_irc_dc_gain_is_minus_inverse_d(Gamma, D):
    k = irc_tf(IrcParams(Gamma, D))
    assert k(0.0) == pytest.approx(-1.0 / D, rel=1e-9)


@given(gains, gains, gains, neg_d)
def test_pii2rc_dc_gain_is_minus_inverse_d(k_p, k1, k2, D):
    k = pii2rc_tf(Pii2Params(k_p, k1, k2, D))
    assert k(0.0) == pytest.approx(-1.0 / D, rel=1e-9)


@given(gains, neg_d)
def test_irc_tf_closes_integrator_around_feedthrough(Gamma, D):
    # K = C/(1 - C D) with C(s) = Gamma/s, checked on the coefficients.
    k = irc_tf(IrcParams(Gamma, D))
    num_c = np.array([Gamma])
    den_c = np.array([1.0, 0.0])
    want_den = np.polysub(den_c, D * num_c)
    assert np.asarray(k.num) == pytest.approx(num_c, rel=1e-12)
    assert np.asarray(k.den) == pytest.approx(want_den, rel=1e-12)


@given(gains, gains, gains, neg_d)
def test_pii2rc_tf_closes_pid_like_core_around_feedthrough(k_p, k1, k2, D):
    # Same composition with C(s) = k_p + k1/s + k2/s^2.
    k = pii2rc_tf(Pii2Params(k_p, k1, k2, D))
    num_c = np.array([k_p, k1, k2])
    den_c = np.array([1.0, 0.0, 0.0])
    want_den = np.polysub(den_c, D * num_c)
    assert np.asarray(k.num) == pytest.approx(num_c, rel=1e-12)
    assert np.asarray(k.den) == pytest.approx(want_den, rel=1e-12)


@given(gains, neg_d)
def test_irc_tf_is_ni_and_sni(Gamma, D):
    p = IrcParams(Gamma, D)
    assert ni_frequency_test(irc_tf(p)).passed
    assert sni_verdict(p).passed


@given(gains, gains, gains, neg_d, gains)
def test_linear_controller_poles_are_strictly_stable(k_p, k1, k2, D, Gamma):
    # Cross-checks the verdict's Hurwitz claim (positive coefficients of a
    # denominator of degree <= 2) against the computed poles.
    for p, tf in ((IrcParams(Gamma, D), irc_tf), (Pii2Params(k_p, k1, k2, D), pii2rc_tf)):
        assert np.all(tf(p).poles().real < 0.0)
        assert sni_verdict(p).max_pole_real < 0.0


# ---------------------------------------------------------------------------
# strict-NI frequency value


def _closed_form(verdict, **values):
    """Evaluate a verdict's m text, which writes products as spaces."""
    expr = re.sub(r"(?<=[\w)])\s+(?=[\w(])", "*", verdict.m.replace("^", "**"))
    return eval(expr, {}, values)


def test_sni_value_hand_value():
    assert pii2rc_sni_value(1.0, Pii2Params(1.0, 1.0, 1.0, -1.0)) == pytest.approx(1.0)


@given(gains, gains, gains, neg_d,
       st.floats(np.log10(1.1e-3), np.log10(0.9e3)))
def test_sni_value_is_strictly_positive(k_p, k1, k2, D, log_w):
    p = Pii2Params(k_p, k1, k2, D)
    assert pii2rc_sni_value(10.0 ** log_w, p) > 0.0


@given(st.floats(0.5, 2.0), st.floats(0.5, 2.0), st.floats(0.5, 2.0),
       st.floats(-2.0, -0.5), st.floats(0.5, 2.0))
def test_sni_value_matches_direct_evaluation(k_p, k1, k2, D, w):
    # Benign parameter ranges keep the direct complex-arithmetic path
    # well conditioned; the wide-range comparison against an extended
    # precision oracle lives in the acceptance suite.
    p = Pii2Params(k_p, k1, k2, D)
    K = freq_response(pii2rc_tf(p), w)
    direct = (1j * (K - K.conjugate())).real
    assert pii2rc_sni_value(w, p) == pytest.approx(direct, rel=1e-9)
    m = _closed_form(sni_verdict(p), k_p=k_p, k1=k1, k2=k2, D=D, w=w)
    assert m == pytest.approx(direct, rel=1e-9)


@given(st.floats(0.5, 2.0), st.floats(-2.0, -0.5), st.floats(0.5, 2.0))
def test_irc_sni_closed_form_matches_direct_evaluation(Gamma, D, w):
    p = IrcParams(Gamma, D)
    K = freq_response(irc_tf(p), w)
    m = _closed_form(sni_verdict(p), Gamma=Gamma, D=D, w=w)
    assert m == pytest.approx(-2.0 * K.imag, rel=1e-9)


@given(gains, gains, gains, neg_d)
def test_pii2rc_tf_is_sni(k_p, k1, k2, D):
    p = Pii2Params(k_p, k1, k2, D)
    v = sni_verdict(p)
    assert v.passed
    assert v.den == pii2rc_tf(p).den


def test_sni_verdict_fails_on_a_coefficient_that_underflows():
    # Gamma D and k1 D round to 0: the K that is simulated has a pole at 0.
    for p in (IrcParams(1e-200, -1e-200), Pii2Params(1.0, 1e-200, 1.0, -1e-200)):
        v = sni_verdict(p)
        assert not v.passed and 0.0 in v.den and v.max_pole_real == 0.0


# ---------------------------------------------------------------------------
# stability conditions


def test_irc_stability_margins(plant):
    v = check_irc_stability(plant, 20.0 / 21.0)
    assert v.passed and v.margin == pytest.approx(1.0 / 21.0)
    assert check_irc_stability(plant, 5.0 / 6.0).passed
    assert not check_irc_stability(plant, 1.0).passed


def test_pii2_stability_margins(plant):
    v = check_pii2_stability(plant, -1.5)
    assert v.passed and v.margin == pytest.approx(0.5)
    assert not check_pii2_stability(plant, -1.0).passed
    assert not check_pii2_stability(plant, -0.5).passed


def test_gain_sum_exclusion():
    assert gain_sum_admissible(_bank(), 1.0)
    # k_h1 + k_h2^2 + k_p = 2 collides with 1/(G(0) + D) = 2 at D = -0.5
    collide = _bank(k_p=0.5, D=-0.5, k1=0.5, k23=1.0)
    assert collide.gain_sum() == pytest.approx(2.0)
    assert not gain_sum_admissible(collide, 1.0)
    # no finite exclusion when G(0) + D vanishes
    assert gain_sum_admissible(_bank(D=-1.0), 1.0)


# ---------------------------------------------------------------------------
# algebraic loop


def _signals(plant, y, y_dot, states, modes, p):
    """(e, u, de/dt) read off the frozen-mode rows at [y, y_dot, *states].

    On the mass-spring plant y = x1 and dy/dt = x2 (C B = 0), so that joint
    state sets the plant output and its rate directly."""
    s = pii2_mode_system(plant, p, modes)
    z = np.array([y, y_dot, *states])
    return float(s.w_e @ z), float(s.w_u @ z), float(s.w_de @ z)


def _outputs(e, states, modes, p):
    """The elements' frozen-mode outputs: bound times the input in gain
    mode, else the state; H3's input is H2's output."""
    x1, x2, x3 = states
    x1e = p.h1.k_h * e if modes[0] == GAIN else x1
    x2e = p.h2.k_h * e if modes[1] == GAIN else x2
    x3e = p.h3.k_h * x2e if modes[2] == GAIN else x3
    return x1e, x2e, x3e


def test_resolve_all_integrator_hand_value(plant):
    p = _bank(k_p=1.0, D=-1.0, k1=1.0)
    e, u, _ = _signals(plant, 1.0, 0.0, (0.0, 0.0, 0.0), (INT, INT, INT), p)
    assert e == pytest.approx(0.5)
    assert u == pytest.approx(0.5)


def test_resolve_equilibrium_is_zero(plant):
    for modes in MODE_COMBOS:
        assert _signals(plant, 0.0, 0.0, (0.0, 0.0, 0.0), modes, _bank()) == (0.0, 0.0, 0.0)


def test_resolve_first_element_gain_hand_value(plant):
    p = _bank(k_p=1.0, D=-1.0, k1=1.0)
    e, u, _ = _signals(plant, 1.0, 0.0, (0.0, 0.0, 0.0), (GAIN, INT, INT), p)
    assert e == pytest.approx(1.0 / 3.0)
    assert u == pytest.approx(2.0 / 3.0)


@given(signal, signal, signal, signal, gains, neg_d, gains, gains)
# u ~ 1 cancels out of terms near 5e3 in modes (gain, integrator, gain)
@example(y=7.0, x1=0.0, x2=81.0, x3=0.0, k_p=54.5, D=-98.0, k1=1.0, k23=61.0)
def test_resolve_reproduces_the_output_in_every_mode(plant, y, x1, x2, x3, k_p, D, k1, k23):
    p = _bank(k_p=k_p, D=D, k1=k1, k23=k23)
    for modes in MODE_COMBOS:
        e, u, _ = _signals(plant, y, 0.0, (x1, x2, x3), modes, p)
        x1e, x2e, x3e = _outputs(e, (x1, x2, x3), modes, p)
        y_rec = e / p.gamma - p.D * (x1e + x3e)
        scale = max(1.0, abs(y), abs(e) / p.gamma, abs(p.D) * (abs(x1e) + abs(x3e)))
        assert abs(y_rec - y) <= 1e-12 * scale
        scale = max(1.0, abs(x1e) + abs(x3e) + abs(p.k_p * e))
        assert abs(u - (x1e + x3e + p.k_p * e)) <= 1e-12 * scale


@given(signal, signal, signal, signal, signal, gains, neg_d, gains, gains)
def test_error_rate_satisfies_the_differentiated_loop(plant, y, y_dot, x1, x2, x3,
                                                      k_p, D, k1, k23):
    p = _bank(k_p=k_p, D=D, k1=k1, k23=k23)
    for modes in MODE_COMBOS:
        e, _, e_dot = _signals(plant, y, y_dot, (x1, x2, x3), modes, p)
        _, x2e, _ = _outputs(e, (x1, x2, x3), modes, p)
        x1_dot = p.h1.k_h * e_dot if modes[0] == GAIN else p.h1.omega_h * e
        x2_dot = p.h2.k_h * e_dot if modes[1] == GAIN else p.h2.omega_h * e
        x3_dot = p.h3.k_h * x2_dot if modes[2] == GAIN else p.h3.omega_h * x2e
        want = p.gamma * (y_dot + p.D * (x1_dot + x3_dot))
        scale = max(1.0, abs(e_dot), abs(y_dot), abs(p.D) * (abs(x1_dot) + abs(x3_dot)))
        assert abs(e_dot - want) <= 1e-12 * scale


# ---------------------------------------------------------------------------
# joint mode update


def _gain_flags(e, e_dot, states, p):
    """sim._element_law's gain flags with every element integrating, so
    each element's output is its state."""
    return sim._element_law(e, e_dot, states, (INT, INT, INT), pii2_chain(p)).gains


def test_mode_update_zero_states_all_integrator():
    assert _gain_flags(1.0, 0.0, (0.0, 0.0, 0.0), _bank()) == \
        (False, False, False)


def test_mode_update_all_on_boundary_all_gain():
    p = _bank()
    e = 1.0
    states = (p.h1.k_h * e, p.h2.k_h * e, p.h3.k_h * p.h2.k_h * e)
    assert _gain_flags(e, 0.0, states, p) == (True, True, True)


def test_mode_update_tie_keeps_second_element_integrating():
    p = _bank()
    e = 1.0
    e_dot = p.h2.omega_h / p.h2.k_h     # omega2 e^2 == k2 e e_dot exactly
    states = (0.0, p.h2.k_h * e, p.h3.k_h * p.h2.k_h * e)
    _, g2, g3 = _gain_flags(e, e_dot, states, p)
    assert not g2
    # H3 then sees e3 = x_h2 with rate omega2*e: 0.4*1 > 1*1*0.2 holds
    assert g3


def test_mode_update_third_element_follows_second_elements_output():
    p = _bank()
    e = 2.0
    # H2 in gain mode: H3's input is k2*e with rate k2*e_dot = 0
    states = (0.0, p.h2.k_h * e, p.h3.k_h * p.h2.k_h * e)
    assert _gain_flags(e, 0.0, states, p) == (False, True, True)
    # move x_h2 off its boundary: H3's boundary no longer matches k2*e
    states = (0.0, 0.5 * p.h2.k_h * e, p.h3.k_h * p.h2.k_h * e)
    _, g2, g3 = _gain_flags(e, 0.0, states, p)
    assert not g2 and not g3
