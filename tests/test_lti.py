"""Linear systems layer: realizations, frequency responses, NI certificates."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from higsni import (
    RationalTF,
    SingularA,
    SingularAtFrequency,
    StateSpace,
    assess_ni,
    dc_gain,
    ni_frequency_test,
    search_ni_certificate,
    tf_to_ss,
)
from higsni import lti
from higsni.lti import (
    DimensionMismatch,
    NICertificate,
    freq_response,
    is_minimal,
    ss_to_tf,
    verify_ni_certificate,
)

from conftest import MODAL_MODE, modal_plant


# ---------------------------------------------------------------------------
# constructors


def test_state_space_shapes_are_validated():
    with pytest.raises((ValueError, DimensionMismatch)):
        StateSpace([[0.0, 1.0]], [0.0, 1.0], [1.0, 0.0])
    with pytest.raises((ValueError, DimensionMismatch)):
        StateSpace([[0.0, 1.0], [-1.0, 0.0]], [0.0], [1.0, 0.0])


def test_rational_tf_rejects_improper_and_degenerate():
    with pytest.raises(ValueError):
        RationalTF((1.0, 0.0), (1.0,))     # numerator degree exceeds denominator
    with pytest.raises(ValueError):
        RationalTF((1.0,), (0.0, 1.0))     # zero leading denominator coefficient
    assert RationalTF((), (1.0, 1.0)).num == (0.0,)
    assert RationalTF((0.0, 0.0, 2.0), (1.0, 1.0, 1.0)).num == (2.0,)


def test_rational_tf_evaluates_pointwise():
    g = RationalTF((1.0,), (1.0, 0.0, 1.0))   # 1/(s^2+1)
    assert g(0.0) == pytest.approx(1.0)
    assert g(2j) == pytest.approx(-1.0 / 3.0)


# ---------------------------------------------------------------------------
# frequency response and DC gain


def test_freq_response_oscillator_hand_values(plant):
    assert freq_response(plant, 0.0) == pytest.approx(1.0 + 0.0j, abs=1e-12)
    assert freq_response(plant, 2.0) == pytest.approx(-1.0 / 3.0 + 0.0j, abs=1e-12)


def test_freq_response_raises_on_imaginary_axis_pole(plant):
    with pytest.raises(SingularAtFrequency):
        freq_response(plant, 1.0)


def test_dc_gain_hand_values(plant):
    assert dc_gain(plant) == pytest.approx(1.0, abs=1e-14)
    sys = StateSpace(-np.eye(2), [1.0, 0.0], [1.0, 0.0])
    assert dc_gain(sys) == pytest.approx(1.0, abs=1e-14)


def test_dc_gain_rejects_singular_a():
    nilpotent = StateSpace([[0.0, 1.0], [0.0, 0.0]], [0.0, 1.0], [1.0, 0.0])
    with pytest.raises(SingularA):
        dc_gain(nilpotent)


def test_is_minimal(plant):
    assert is_minimal(plant)
    assert is_minimal(StateSpace([[-1.0]], [1.0], [1.0]))
    # second state unreachable and unobservable
    assert not is_minimal(StateSpace([[-1.0, 0.0], [0.0, -2.0]], [1.0, 0.0], [1.0, 0.0]))


# ---------------------------------------------------------------------------
# NI certificates


def test_identity_certificate_passes_exactly(plant):
    rep = verify_ni_certificate(plant, NICertificate(np.eye(2)))
    assert rep.passed
    assert rep.evidence["residual_norm"] <= 1e-12
    assert rep.evidence["lyap_max_eig"] == pytest.approx(0.0, abs=1e-12)
    assert rep.evidence["y_min_eig"] == pytest.approx(1.0, abs=1e-12)
    assert rep.evidence["minimal"] and rep.evidence["det_a_nonzero"]


def test_scaled_certificate_fails_residual(plant):
    # Y = 2I leaves B + A Y C^T = [0, -1]^T, norm exactly 1.
    rep = verify_ni_certificate(plant, NICertificate(2.0 * np.eye(2)))
    assert not rep.passed
    assert rep.evidence["residual_norm"] == pytest.approx(1.0, abs=1e-12)


def test_indefinite_certificate_fails_positivity(plant):
    rep = verify_ni_certificate(plant, NICertificate(np.diag([1.0, -1.0])))
    assert not rep.passed and not rep.evidence["y_min_eig"] > 0.0


@pytest.mark.parametrize("eps", [0.1, -0.1])
def test_perturbing_identity_breaks_lyapunov_inequality(plant, eps):
    # The affine constraint pins Y[0,0]; moving Y[1,1] off 1 makes
    # A Y + Y A^T = [[0, eps], [eps, 0]] indefinite with max eig |eps|.
    Y = np.eye(2)
    Y[1, 1] += eps
    rep = verify_ni_certificate(plant, NICertificate(Y))
    assert rep.evidence["lyap_max_eig"] == pytest.approx(abs(eps), abs=1e-12)
    assert not rep.passed


def test_certificate_dimension_mismatch(plant):
    with pytest.raises(DimensionMismatch):
        verify_ni_certificate(plant, NICertificate(np.eye(3)))


def test_search_recovers_certificate(plant):
    cert = search_ni_certificate(plant)
    assert cert is not None
    assert verify_ni_certificate(plant, cert).passed


def test_search_returns_none_for_unstable_scalar():
    # A=1, B=C=1: the constraint forces Y=-1, which is not positive.
    sys = StateSpace([[1.0]], [1.0], [1.0])
    assert search_ni_certificate(sys) is None


def test_search_rejects_singular_a():
    nilpotent = StateSpace([[0.0, 1.0], [0.0, 0.0]], [0.0, 1.0], [1.0, 0.0])
    with pytest.raises(SingularA):
        search_ni_certificate(nilpotent)


@settings(deadline=None)
@given(st.lists(MODAL_MODE, min_size=1, max_size=5), st.one_of(st.none(), st.integers(0, 2**32 - 1)))
def test_search_certifies_collocated_modal_plants(modes, rotation_seed):
    # Undamped and lightly damped modes leave the feasible set without
    # interior, and repeated modes make it unbounded; an orthogonal
    # similarity transform (drawn from the seed) takes the realization out
    # of modal form without changing its conditioning.
    A, B, C = modal_plant(modes)
    if rotation_seed is not None:
        Q, _ = np.linalg.qr(np.random.default_rng(rotation_seed).normal(size=A.shape))
        A, B, C = Q.T @ A @ Q, Q.T @ B, C @ Q
    sys = StateSpace(A, B, C)
    cert = search_ni_certificate(sys)
    assert cert is not None
    assert verify_ni_certificate(sys, cert).passed


def test_search_certifies_two_mode_plant():
    # Y = diag(1, 1, 1/2.89, 1) is a certificate of this plant.
    A = np.zeros((4, 4))
    A[:2, :2] = [[0.0, 1.0], [-1.0, -0.04]]
    A[2:, 2:] = [[0.0, 1.0], [-2.89, -0.068]]
    sys = StateSpace(A, [0.0, 1.0, 0.0, 0.5], [1.0, 0.0, 0.5, 0.0])
    assert verify_ni_certificate(sys, NICertificate(np.diag([1.0, 1.0, 1 / 2.89, 1.0]))).passed
    cert = search_ni_certificate(sys)
    assert cert is not None
    assert verify_ni_certificate(sys, cert).passed


def test_search_returns_none_for_stable_non_ni_plant():
    # G(s) = -1/(s^2 + s + 1): stable, but j(G - conj G) < 0 near w = 1.
    sys = StateSpace([[0.0, 1.0], [-1.0, -1.0]], [0.0, 1.0], [-1.0, 0.0])
    assert not ni_frequency_test(sys).passed
    assert search_ni_certificate(sys) is None


# ---------------------------------------------------------------------------
# frequency-domain tests


def test_ni_frequency_test_oscillator(plant, monkeypatch):
    # G(jw) is real, so m(w) = j(G - conj G) vanishes identically.
    monkeypatch.setattr(lti, "FREQ_GRID", np.array([0.5, 2.0, 10.0]))
    rep = ni_frequency_test(plant)
    assert rep.passed
    assert abs(rep.margin) <= 1e-12
    assert not rep.evidence["has_unstable_pole"]


def test_ni_frequency_test_flags_pole_adjacent_points(plant, monkeypatch):
    monkeypatch.setattr(lti, "FREQ_GRID", np.array([0.5, 1.0, 2.0]))
    rep = ni_frequency_test(plant)
    assert rep.passed
    assert rep.evidence["flagged_omegas"] == (1.0,)


def test_ni_frequency_test_single_pole_value(monkeypatch):
    k = RationalTF((1.0,), (1.0, 1.0))     # 1/(s+1)
    monkeypatch.setattr(lti, "FREQ_GRID", np.array([1.0]))
    rep = ni_frequency_test(k)
    assert rep.passed
    assert rep.margin == pytest.approx(1.0, abs=1e-12)


def test_ni_frequency_test_rejects_rhp_pole():
    rep = ni_frequency_test(RationalTF((1.0,), (1.0, -1.0)))
    assert not rep.passed and rep.evidence["has_unstable_pole"]


def test_default_grid_spans_decades():
    g = lti.FREQ_GRID
    assert g[0] == pytest.approx(1e-3) and g[-1] == pytest.approx(1e3)
    assert np.all(np.diff(g) > 0.0)


# ---------------------------------------------------------------------------
# realization round trips


def test_tf_to_ss_canonical_first_order():
    sys = tf_to_ss(RationalTF((1.0,), (1.0, 1.0)))
    assert sys.A == pytest.approx(np.array([[-1.0]]))
    assert sys.B == pytest.approx(np.array([1.0]))
    assert sys.C == pytest.approx(np.array([1.0]))
    assert sys.D_ff == 0.0


def test_tf_to_ss_rejects_static_gain():
    with pytest.raises(ValueError):
        tf_to_ss(RationalTF((2.0,), (1.0,)))


def test_ss_to_tf_round_trip(plant):
    tf = ss_to_tf(plant)
    num = np.asarray(tf.num) / tf.den[0]
    den = np.asarray(tf.den) / tf.den[0]
    assert num == pytest.approx([1.0], abs=1e-12)
    assert den == pytest.approx([1.0, 0.0, 1.0], abs=1e-12)


def _tf_strategy():
    pos = st.floats(0.1, 10.0)
    num = st.lists(pos, min_size=1, max_size=3)
    den = st.lists(pos, min_size=3, max_size=3)
    return st.tuples(num, den)


@given(_tf_strategy(), st.floats(-2.0, 2.0))
def test_freq_response_paths_agree(tf_coeffs, log_w):
    # Positive second-order denominators are Hurwitz, so no poles sit on
    # the imaginary axis and both evaluation paths are defined everywhere.
    num, den = tf_coeffs
    tf = RationalTF(tuple(num), tuple(den))
    sys = tf_to_ss(tf)
    w = 10.0 ** log_w
    g_tf = freq_response(tf, w)
    g_ss = freq_response(sys, w)
    assert abs(g_ss - g_tf) <= 1e-9 * max(1.0, abs(g_tf))


@given(_tf_strategy())
def test_realization_round_trip_preserves_coefficients(tf_coeffs):
    num, den = tf_coeffs
    tf = RationalTF(tuple(num), tuple(den))
    back = ss_to_tf(tf_to_ss(tf))
    want_num = np.zeros(3)
    want_num[3 - len(num):] = np.asarray(num) / den[0]
    got_num = np.zeros(3)
    got_num[3 - len(back.num):] = np.asarray(back.num) / back.den[0]
    assert got_num == pytest.approx(want_num, rel=1e-9, abs=1e-9)
    assert np.asarray(back.den) / back.den[0] == pytest.approx(
        np.asarray(den) / den[0], rel=1e-9)


# ---------------------------------------------------------------------------
# combined assessment


def test_assess_ni_prefers_certificate(plant):
    res = assess_ni(plant)
    assert res.verified
    assert res.method == "certificate"
    assert res.cert_report is not None and res.cert_report.passed


def test_assess_ni_accepts_transfer_functions():
    res = assess_ni(RationalTF((1.0,), (1.0, 1.0)))
    assert res.verified
    assert res.method in ("certificate", "frequency")


def test_assess_ni_rejects_unstable_plant():
    res = assess_ni(StateSpace([[1.0]], [1.0], [1.0]))
    assert not res.verified
    assert res.method is None
    assert res.freq_report.evidence["has_unstable_pole"]
