"""Controller construction, composition identities, and the algebraic loop."""

import numpy as np
import pytest
from hypothesis import given
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
from higsni.controllers import (
    ModeTriple,
    check_irc_stability,
    check_pii2_stability,
    gain_sum_admissible,
    higs_pii2_mode_update,
    pii2_effective_states,
    pii2rc_sni_value,
    resolve_pii2_error_rate,
    resolve_pii2_error_signal,
)
from higsni.higs import HigsMode
from higsni.lti import freq_response, sni_frequency_test

gains = st.floats(1e-2, 1e2)
neg_d = st.floats(-1e2, -1e-2)
signal = st.floats(-1e2, 1e2)

MODE_COMBOS = [
    ModeTriple(HigsMode(a), HigsMode(b), HigsMode(c))
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
    k = irc_tf(IrcParams(Gamma, D))
    assert ni_frequency_test(k).passed
    assert sni_frequency_test(k).passed


# ---------------------------------------------------------------------------
# strict-NI frequency value


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


@given(st.floats(0.2, 5.0), st.floats(0.2, 5.0), st.floats(0.2, 5.0),
       st.floats(-2.0, -0.1))
def test_pii2rc_tf_is_sni(k_p, k1, k2, D):
    # The checker demands m > 1e-12 on its grid and m(1e-3) scales like
    # 2 k1 1e-9 / (k2 D)^2, so extreme k2|D| would push a genuinely
    # positive value under the sampled-strictness floor.
    rep = sni_frequency_test(pii2rc_tf(Pii2Params(k_p, k1, k2, D)))
    assert rep.passed


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


def test_resolve_all_integrator_hand_value():
    p = _bank(k_p=1.0, D=-1.0, k1=1.0)
    modes = ModeTriple(INT, INT, INT)
    e, u = resolve_pii2_error_signal(1.0, 0.0, 0.0, 0.0, modes, p)
    assert e == pytest.approx(0.5)
    assert u == pytest.approx(0.5)


def test_resolve_equilibrium_is_zero():
    e, u = resolve_pii2_error_signal(0.0, 0.0, 0.0, 0.0, ModeTriple(INT, INT, INT), _bank())
    assert e == 0.0 and u == 0.0


def test_resolve_first_element_gain_hand_value():
    p = _bank(k_p=1.0, D=-1.0, k1=1.0)
    modes = ModeTriple(GAIN, INT, INT)
    e, u = resolve_pii2_error_signal(1.0, 0.0, 0.0, 0.0, modes, p)
    assert e == pytest.approx(1.0 / 3.0)
    assert u == pytest.approx(2.0 / 3.0)


@given(signal, signal, signal, signal, gains, neg_d, gains, gains)
def test_resolve_reproduces_the_output_in_every_mode(y, x1, x2, x3, k_p, D, k1, k23):
    p = _bank(k_p=k_p, D=D, k1=k1, k23=k23)
    for modes in MODE_COMBOS:
        e, u = resolve_pii2_error_signal(y, x1, x2, x3, modes, p)
        x1e, x2e, x3e = pii2_effective_states(e, (x1, x2, x3), modes, p)
        y_rec = e / p.gamma - p.D * (x1e + x3e)
        scale = max(1.0, abs(y), abs(e) / p.gamma, abs(p.D) * (abs(x1e) + abs(x3e)))
        assert abs(y_rec - y) <= 1e-12 * scale
        assert u == pytest.approx(x1e + x3e + p.k_p * e, rel=1e-12, abs=1e-12)


@given(signal, signal, signal, signal, signal, gains, neg_d, gains, gains)
def test_error_rate_satisfies_the_differentiated_loop(y, y_dot, x1, x2, x3,
                                                      k_p, D, k1, k23):
    p = _bank(k_p=k_p, D=D, k1=k1, k23=k23)
    for modes in MODE_COMBOS:
        e, _ = resolve_pii2_error_signal(y, x1, x2, x3, modes, p)
        e_dot = resolve_pii2_error_rate(y_dot, e, (x1, x2, x3), modes, p)
        _, x2e, _ = pii2_effective_states(e, (x1, x2, x3), modes, p)
        x1_dot = p.h1.k_h * e_dot if modes.h1 == GAIN else p.h1.omega_h * e
        x2_dot = p.h2.k_h * e_dot if modes.h2 == GAIN else p.h2.omega_h * e
        x3_dot = p.h3.k_h * x2_dot if modes.h3 == GAIN else p.h3.omega_h * x2e
        want = p.gamma * (y_dot + p.D * (x1_dot + x3_dot))
        scale = max(1.0, abs(e_dot), abs(y_dot), abs(p.D) * (abs(x1_dot) + abs(x3_dot)))
        assert abs(e_dot - want) <= 1e-12 * scale


# ---------------------------------------------------------------------------
# joint mode update


def test_mode_update_zero_states_all_integrator():
    assert higs_pii2_mode_update(1.0, 0.0, (0.0, 0.0, 0.0), _bank()) == \
        ModeTriple(INT, INT, INT)


def test_mode_update_all_on_boundary_all_gain():
    p = _bank()
    e = 1.0
    states = (p.h1.k_h * e, p.h2.k_h * e, p.h3.k_h * p.h2.k_h * e)
    assert higs_pii2_mode_update(e, 0.0, states, p) == ModeTriple(GAIN, GAIN, GAIN)


def test_mode_update_tie_keeps_second_element_integrating():
    p = _bank()
    e = 1.0
    e_dot = p.h2.omega_h / p.h2.k_h     # omega2 e^2 == k2 e e_dot exactly
    states = (0.0, p.h2.k_h * e, p.h3.k_h * p.h2.k_h * e)
    modes = higs_pii2_mode_update(e, e_dot, states, p)
    assert modes.h2 == INT
    # H3 then sees e3 = x_h2 with rate omega2*e: 0.4*1 > 1*1*0.2 holds
    assert modes.h3 == GAIN


def test_mode_update_third_element_follows_second_elements_output():
    p = _bank()
    e = 2.0
    # H2 in gain mode: H3's input is k2*e with rate k2*e_dot = 0
    states = (0.0, p.h2.k_h * e, p.h3.k_h * p.h2.k_h * e)
    modes = higs_pii2_mode_update(e, 0.0, states, p)
    assert modes == ModeTriple(INT, GAIN, GAIN)
    # move x_h2 off its boundary: H3's boundary no longer matches k2*e
    states = (0.0, 0.5 * p.h2.k_h * e, p.h3.k_h * p.h2.k_h * e)
    modes = higs_pii2_mode_update(e, 0.0, states, p)
    assert modes.h2 == INT and modes.h3 == INT
