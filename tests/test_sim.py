"""Closed-loop simulators, Lyapunov certificates, and trajectory checks."""

import io
import math
import re

import mpmath
import numpy as np
import pytest
from hypothesis import Phase, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from higsni import (
    HigsIrcParams,
    HigsParams,
    HigsPii2Params,
    IllPosedLoop,
    InvalidParameters,
    IrcParams,
    LyapunovIrcCertificate,
    LyapunovPii2Certificate,
    NonFiniteState,
    Pii2Params,
    RationalTF,
    SimConfig,
    StateSpace,
    Trajectory,
    check_dissipation,
    check_monotone,
    check_sector,
    irc_tf,
    pii2rc_tf,
    simulate_higs_irc_loop,
    simulate_higs_pii2_loop,
    simulate_linear_loop,
)
from higsni import cli, controllers, higs, lti, sim
from higsni.controllers import UnsolvableLoop, pii2_chain, pii2_mode_system
from higsni.higs import (
    Element,
    gain_mode,
    project_to_sector,
)
from higsni.sim import (
    CertificateNotPD,
    _CSV_BLOCK_ROWS,
    _quadratic_rows,
    _rk4_affine_map,
    _row_dots,
    closed_loop_matrices,
)

from conftest import HIGS5, HIGS20, MODAL_MODE, PII2, modal_plant, oscillator_config


# ---------------------------------------------------------------------------
# configuration and trajectory plumbing


def test_sim_config_validation():
    with pytest.raises(ValueError):
        SimConfig(dt=0.0, t_end=1.0, x0=[0.0])
    with pytest.raises(ValueError):
        SimConfig(dt=1.0, t_end=0.5, x0=[0.0])
    with pytest.raises(ValueError):
        SimConfig(dt=1e-3, t_end=1.0, x0=[0.0], record_every=0)
    assert SimConfig(dt=1e-3, t_end=1.0, x0=[0.0]).n_steps == 1000
    assert SimConfig(t_end=1.0, x0=[0.0]).dt == 1e-3


@pytest.mark.parametrize("t_end, dt, n_steps", [(40.0, 1e-3, 40000), (0.3, 0.1, 3)])
def test_sim_config_takes_whole_steps_within_rounding(t_end, dt, n_steps):
    # 0.3 / 0.1 is 2.9999999999999996 in floating point
    assert SimConfig(dt=dt, t_end=t_end, x0=[0.0]).n_steps == n_steps


def test_tolerances_defaults():
    assert sim.DIVERGENCE_LIMIT == 1e9
    assert controllers.GAIN_SUM_TOL == 1e-9
    assert controllers.ALGEBRAIC_LOOP_TOL == 1e-12
    assert lti.RANK_RTOL == 1e-8
    assert lti.POLE_EXCLUSION == 1e-6
    assert lti.NI_TOL == 1e-8
    assert lti.CERT_MARGIN == 1e-6
    assert lti.CERT_MAX_DIM == 10
    assert np.array_equal(lti.FREQ_GRID, np.logspace(np.log10(1e-3), np.log10(1e3), 121))


def test_trajectory_rejects_ragged_series():
    with pytest.raises(ValueError):
        Trajectory(
            times=np.array([0.0, 1.0]),
            plant_states=np.zeros((2, 1)),
            controller_states=np.zeros((2, 1)),
            e=np.zeros(2),
            u=np.zeros(2),
            y=np.zeros(3),
        )


@given(st.lists(st.floats(-2.0, 2.0), min_size=9, max_size=9),
       st.lists(st.floats(-2.0, 2.0), min_size=3, max_size=3),
       st.floats(1e-4, 0.1))
def test_rk4_affine_map_matches_stage_form(j_entries, z_entries, h):
    J = np.array(j_entries).reshape(3, 3)
    z = np.array(z_entries)
    R = _rk4_affine_map(J, h)

    def f(v):
        return J @ v

    k1 = f(z)
    k2 = f(z + 0.5 * h * k1)
    k3 = f(z + 0.5 * h * k2)
    k4 = f(z + h * k3)
    want = z + h / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    assert R @ z == pytest.approx(want, rel=1e-12, abs=1e-12)


@st.composite
def _rows_and_form(draw):
    m = draw(st.integers(2, 7))
    n_rows = draw(st.integers(1, 40))
    cells = st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)
    Z = draw(arrays(float, (n_rows, m), elements=cells))
    A = draw(arrays(float, (m, m), elements=cells))
    return Z, A + A.T


@given(_rows_and_form())
def test_row_kernels_match_per_row_products(zq):
    # The simulators write these values to CSV: they must equal the per-row
    # products bit for bit, also on a column slice as X = Z[:, :n] is.
    Z, Q = zq
    w = Q[0]
    X = Z[:, :-1]
    assert np.array_equal(_row_dots(Z, w), np.array([w @ z for z in Z]))
    assert np.array_equal(_row_dots(X, w[:-1]), np.array([w[:-1] @ x for x in X]))
    assert np.array_equal(_quadratic_rows(Z, Q), np.array([0.5 * z @ Q @ z for z in Z]))


# ---------------------------------------------------------------------------
# Lyapunov certificates


def test_irc_certificate_hand_values(plant):
    cert = LyapunovIrcCertificate(np.eye(2), plant.C, 20.0 / 21.0)
    assert cert.positive_definite
    assert dict(cert.stages)["1/kappa_tilde - C Y C^T > 0"] == pytest.approx(1.0 / 20.0)
    assert cert.W([0.0, 0.0, 1.0]) == pytest.approx(21.0 / 40.0)
    assert cert.W([3.0, 1.0, 0.0]) == pytest.approx(5.0)
    # cross term: 1/2 (1 - 2 + 21/20)
    assert cert.W([1.0, 0.0, 1.0]) == pytest.approx(0.025)


def test_irc_certificate_fails_above_unit_loop_gain(plant):
    cert = LyapunovIrcCertificate(np.eye(2), plant.C, 50.0)
    assert not cert.positive_definite
    assert cert.failed_stage == "1/kappa_tilde - C Y C^T > 0"
    with pytest.raises(CertificateNotPD):
        cert.W([0.0, 0.0, 1.0])
    with pytest.raises(CertificateNotPD):
        simulate_higs_irc_loop(plant, HigsIrcParams(0.5, 100.0, -0.01),
                               oscillator_config(t_end=1.0), cert)


def test_pii2_certificate_stage_order(plant):
    cert = LyapunovPii2Certificate(np.eye(2), plant.C, PII2)
    assert cert.positive_definite
    assert [name for name, _ in cert.stages] == \
        ["Y > 0", "-D > 0", "-D - C Y C^T > 0", "M > 0"]
    assert all(margin > 0.0 for _, margin in cert.stages)


def test_pii2_certificate_hand_values(plant):
    cert = LyapunovPii2Certificate(np.eye(2), plant.C, PII2)
    # second cascade state enters only through its own unit diagonal
    assert cert.W([0.0, 0.0, 0.0, 2.0, 0.0]) == pytest.approx(2.0)
    # plant block is Y^-1 - k_p*gamma*C C^T = diag(5/7, 1)
    assert cert.W([3.0, 1.0, 0.0, 0.0, 0.0]) == pytest.approx(26.0 / 7.0)


def test_pii2_certificate_dc_stage_failure(plant):
    weak = PII2.__class__(k_p=PII2.k_p, D=-0.5, h1=PII2.h1, h2=PII2.h2, h3=PII2.h3)
    cert = LyapunovPii2Certificate(np.eye(2), plant.C, weak)
    assert not cert.positive_definite
    assert cert.failed_stage == "-D - C Y C^T > 0"
    with pytest.raises(CertificateNotPD):
        cert.W([0.0, 0.0, 0.0, 0.0, 0.0])
    with pytest.raises(CertificateNotPD):
        simulate_higs_pii2_loop(plant, weak, oscillator_config(t_end=1.0), cert)


# ---------------------------------------------------------------------------
# linear loop


def test_linear_loop_matches_analytic_decay():
    plant = StateSpace([[-1.0]], [1.0], [1.0])
    traj = simulate_linear_loop(plant, RationalTF((0.5,), (1.0,)),
                                SimConfig(dt=1e-2, t_end=5.0, x0=[2.0]))
    want = 2.0 * np.exp(-0.5 * traj.times)
    assert traj.plant_states[:, 0] == pytest.approx(want, abs=1e-9)
    assert traj.u == pytest.approx(0.5 * want, abs=1e-9)


def test_closed_loop_rows_with_feedthrough():
    # Static gain 1 against D_ff = 0.5: u = 2 x and y = x + 0.5 u = 2 x,
    # so e = y = 2 x.
    plant = StateSpace([[-1.0]], [1.0], [1.0], D_ff=0.5)
    s = closed_loop_matrices(plant, RationalTF((1.0,), (1.0,)))
    assert s.w_u == pytest.approx([2.0])
    assert s.w_e == pytest.approx([2.0])
    assert s.J[0, 0] == pytest.approx(1.0)


def test_closed_loop_rejects_singular_feedthrough_product():
    plant = StateSpace([[-1.0]], [1.0], [1.0], D_ff=1.0)
    with pytest.raises(IllPosedLoop):
        closed_loop_matrices(plant, RationalTF((1.0,), (1.0,)))


def test_linear_loop_controller_state_validation(plant):
    ctrl = pii2rc_tf(Pii2Params(1.0, 1.0, 1.0, -2.0))
    cfg = SimConfig(dt=1e-3, t_end=1.0, x0=[1.0, 0.0], controller_x0=[0.0, 0.0, 0.0])
    with pytest.raises(ValueError):
        simulate_linear_loop(plant, ctrl, cfg)


def _expm_reference(plant, ctrl, cfg):
    """Joint states of the linear loop stepped by the 30-digit mpmath
    exponential expm(J dt)."""
    J = closed_loop_matrices(plant, ctrl).J
    nz = J.shape[0]
    with mpmath.workdps(30):
        E = mpmath.expm(mpmath.matrix(J.tolist()) * mpmath.mpf(cfg.dt))
        E = np.array([[float(E[i, j]) for j in range(nz)] for i in range(nz)])
    z = np.concatenate([cfg.x0, np.broadcast_to(cfg.controller_x0, (nz - plant.n,))])
    Z = [z]
    for k in range(1, cfg.n_steps + 1):
        z = E @ z
        if k % cfg.record_every == 0 or k == cfg.n_steps:
            Z.append(z)
    return np.array(Z)


@pytest.mark.parametrize("name", ["mass_spring_irc_linear", "mass_spring_pii2_linear"])
def test_shipped_linear_loops_match_exponential_map(config_dir, name):
    cfg = cli.load_scenario(str(config_dir / f"{name}.json"))
    ctrl = sim.CONTROLLERS[cfg.controller_type].tf(cfg.controller)
    traj = simulate_linear_loop(cfg.plant, ctrl, cfg.sim)
    Z = np.column_stack([traj.plant_states, traj.controller_states])
    assert np.abs(Z - _expm_reference(cfg.plant, ctrl, cfg.sim)).max() <= 1e-11


def test_stiff_linear_loop_matches_exponential_map(plant):
    # The controller pole at Gamma D = -7500 gives h lambda = -7.5 at
    # dt = 1e-3, outside RK4's stability region: the map must substep.
    ctrl = irc_tf(IrcParams(5000.0, -1.5))
    cfg = SimConfig(dt=1e-3, t_end=40.0, x0=[3.0, 1.0])
    traj = simulate_linear_loop(plant, ctrl, cfg)
    Z = np.column_stack([traj.plant_states, traj.controller_states])
    assert np.abs(Z - _expm_reference(plant, ctrl, cfg)).max() <= 1e-6


def _rk4_steps(J, z, h, count):
    for _ in range(count):
        k1 = J @ z
        k2 = J @ (z + 0.5 * h * k1)
        k3 = J @ (z + 0.5 * h * k2)
        k4 = J @ (z + h * k3)
        z = z + h / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return z


@pytest.mark.parametrize("J, h", [
    (np.diag([-3000.0, -1.0]), 1e-3),
    (np.array([[-7.0, 40.0, 0.0], [-40.0, -7.0, 1.0], [0.0, 0.5, -0.2]]), 0.05),
    (np.array([[0.5, 3.0], [-3.0, 0.5]]), 0.7),
], ids=["stiff_diagonal", "fast_rotation", "growing_rotation"])
def test_rk4_affine_map_squares_substeps(J, h):
    # s is the fewest halvings that bring ||hJ||_1 below 1.
    s = 0
    while np.abs(h * J).sum(axis=0).max() / 2**s >= 1.0:
        s += 1
    assert s >= 1
    z = np.linspace(1.0, -2.0, len(J))
    R = _rk4_affine_map(J, h)
    want = _rk4_steps(J, z, h / 2**s, 2**s)
    assert np.abs(R @ z - want).max() <= 1e-12 * np.abs(want).max()


# ---------------------------------------------------------------------------
# single-element loop


def test_irc_loop_initial_energy_and_signals(irc20_traj):
    assert irc20_traj.W[0] == pytest.approx(5.0)
    assert irc20_traj.V[0] == 0.0
    assert irc20_traj.e == pytest.approx(irc20_traj.y, abs=0.0)
    assert irc20_traj.u == pytest.approx(irc20_traj.controller_states[:, 0], abs=0.0)


def test_irc_loop_visits_both_modes(irc20_traj):
    modes = irc20_traj.modes[:, 0]
    assert (modes == 0).any() and (modes == 1).any()


def test_irc_loop_integrator_prefix_matches_linear_loop(plant, irc20_traj):
    # until the first switch the loop is exactly the linear controller
    # Gamma/(s - Gamma D) with Gamma = omega_h
    first_gain = int(np.argmax(irc20_traj.modes[:, 0] == 1))
    assert first_gain > 1000
    lin = simulate_linear_loop(plant, irc_tf(IrcParams(HIGS20.omega_h, HIGS20.D)),
                               oscillator_config())
    sl = slice(0, first_gain)
    assert np.abs(irc20_traj.plant_states[sl] - lin.plant_states[sl]).max() <= 1e-6
    assert np.abs(irc20_traj.u[sl] - lin.u[sl]).max() <= 1e-6


def test_irc_loop_gain_prefix_matches_static_loop(plant):
    # start on the sector boundary with the switching inequality holding:
    # e = 1, de/dt = x2 = 0, so the element opens in gain mode
    kt = HIGS20.kappa_tilde
    cfg = SimConfig(dt=1e-3, t_end=15.0, x0=[1.0, 0.0], controller_x0=kt)
    hyb = simulate_higs_irc_loop(plant, HIGS20, cfg)
    assert hyb.modes[0, 0] == 1
    first_int = int(np.argmax(hyb.modes[:, 0] == 0))
    assert first_int > 1000
    lin = simulate_linear_loop(plant, RationalTF((kt,), (1.0,)), cfg)
    sl = slice(0, first_int)
    assert np.abs(hyb.plant_states[sl] - lin.plant_states[sl]).max() <= 1e-6
    assert np.abs(hyb.u[sl] - lin.u[sl]).max() <= 1e-6


def test_irc_loop_gain_samples_sit_on_boundary(irc20_traj):
    gain = irc20_traj.modes[:, 0] == 1
    xh = irc20_traj.controller_states[:, 0]
    dev = np.abs(xh[gain] - HIGS20.kappa_tilde * irc20_traj.e[gain])
    assert dev.max() <= 1e-9 * max(1.0, np.abs(xh).max())


def test_irc_loop_checks_pass(irc20_traj, irc5_traj):
    for traj in (irc20_traj, irc5_traj):
        assert check_monotone(traj).passed
        assert check_sector(traj).passed
        assert check_dissipation(traj).passed


def test_irc_loop_validates_initial_state(plant):
    with pytest.raises(ValueError):
        simulate_higs_irc_loop(plant, HIGS20, SimConfig(dt=1e-3, t_end=1.0, x0=[1.0]))


def test_irc_loop_divergence_guard(plant, monkeypatch):
    # kappa_tilde G(0) = 28.6 violates the DC condition; both frozen-mode
    # loops are unstable and the state escapes the (lowered) guard.
    monkeypatch.setattr(sim, "DIVERGENCE_LIMIT", 1e6)
    wild = HigsIrcParams(10.0, 40.0, -0.01)
    cfg = SimConfig(dt=1e-3, t_end=12.0, x0=[3.0, 1.0])
    with pytest.raises(NonFiniteState):
        simulate_higs_irc_loop(plant, wild, cfg)


# ---------------------------------------------------------------------------
# shared stepping core: schedule and divergence guard, on every loop

LOOPS = {
    "higs_irc": lambda plant, cfg: simulate_higs_irc_loop(plant, HIGS20, cfg),
    "higs_pii2": lambda plant, cfg: simulate_higs_pii2_loop(plant, PII2, cfg),
    "linear": lambda plant, cfg: simulate_linear_loop(
        plant, irc_tf(IrcParams(HIGS20.omega_h, HIGS20.D)), cfg),
}


@pytest.mark.parametrize("loop", sorted(LOOPS))
def test_loop_record_thinning(plant, loop):
    dense = LOOPS[loop](plant, oscillator_config(t_end=2.0))
    thin = LOOPS[loop](plant, oscillator_config(t_end=2.0, record_every=7))
    assert thin.times[-1] == pytest.approx(dense.times[-1])
    assert thin.plant_states[-1] == pytest.approx(dense.plant_states[-1], abs=0.0)
    assert np.all(np.isin(np.round(thin.times / 1e-3), np.round(dense.times / 1e-3)))


@pytest.mark.parametrize("loop", sorted(LOOPS))
def test_loop_guard_rejects_non_finite_state(plant, loop):
    with pytest.raises(NonFiniteState):
        LOOPS[loop](plant, SimConfig(dt=1e-3, t_end=0.1, x0=[np.nan, 0.0]))


@pytest.mark.parametrize("loop", ["higs_irc", "higs_pii2"])
def test_hybrid_loops_reject_plant_feedthrough(loop, monkeypatch):
    # The mode systems and certificates of the hybrid loops use A, B and C
    # only, so a plant with feedthrough is refused before any step.
    monkeypatch.setattr(sim, "_march", lambda *args: pytest.fail("the loop took a step"))
    plant = StateSpace([[-1.0]], [1.0], [1.0], D_ff=0.5)
    with pytest.raises(ValueError, match="D_ff = 0.5"):
        LOOPS[loop](plant, SimConfig(dt=1e-3, t_end=1.0, x0=[1.0]))


def test_linear_loop_divergence_guard(plant, monkeypatch):
    # K(0) G(0) = 10 > 1 breaks the DC condition (D = -0.1 > -G(0)); the
    # loop grows like exp(1.66 t) and escapes the (lowered) guard.
    monkeypatch.setattr(sim, "DIVERGENCE_LIMIT", 1e6)
    cfg = SimConfig(dt=1e-3, t_end=12.0, x0=[3.0, 1.0])
    with pytest.raises(NonFiniteState):
        simulate_linear_loop(plant, irc_tf(IrcParams(10.0, -0.1)), cfg)


# ---------------------------------------------------------------------------
# block stepping: the element law on arrays against floats, and the blocked
# core against one step at a time


def _bits(values) -> list:
    """IEEE bit patterns, so that -0.0 != 0.0 and NaN == NaN."""
    return np.asarray(values, dtype=float).view(np.int64).tolist()


_logic_cells = st.one_of(st.sampled_from([0.0, -0.0, np.nan, 1.0, -1.0]),
                         st.floats(-50.0, 50.0, allow_nan=False))


@st.composite
def _logic_rows(draw):
    """Element inputs, rates and states, with states put exactly on a
    sector edge where the flags say so."""
    n = draw(st.integers(1, 30))
    cols = [draw(arrays(float, n, elements=_logic_cells)) for _ in range(5)]
    edges = draw(arrays(np.int64, (n, 3), elements=st.integers(0, 2)))
    return cols, edges


@given(_logic_rows(), st.floats(0.1, 30.0), st.floats(0.0, 5.0), st.floats(-3.0, -0.1))
def test_element_kernels_match_scalar_logic(rows, k_h, omega_h, D):
    # The block scans call the element law on arrays, the event-locating
    # step on Python floats; on floats it stays off numpy.
    (e, e_dot, x, _, _), edges = rows
    irc = HigsIrcParams(omega_h, k_h, D)
    base = HigsParams(omega_h, k_h)
    for k_bound, p in ((irc.kappa_tilde, irc), (k_h, base)):
        xs = np.where(edges[:, 0] > 0, k_bound * e, x)
        cells = list(zip(e.tolist(), e_dot.tolist(), xs.tolist()))
        clamped = [project_to_sector(a, c, k_bound) for a, _, c in cells]
        assert all(type(v) is float for v in clamped)
        assert _bits(project_to_sector(e, xs, k_bound)) == _bits(clamped)
        gains = [gain_mode(a, b, c, k_bound, p, 1e-9) for a, b, c in cells]
        assert all(type(g) is bool for g in gains)
        assert gain_mode(e, e_dot, xs, k_bound, p, 1e-9).tolist() == gains


@st.composite
def _law_chains(draw):
    """The single compensated element (bound kappa_tilde) or the PII^2
    chain, with one mode per element."""
    if draw(st.booleans()):
        p = HigsIrcParams(draw(st.floats(0.0, 5.0)), draw(st.floats(0.1, 30.0)),
                          draw(st.floats(-3.0, -0.1)))
        chain = (Element(p.kappa_tilde, p),)
    else:
        k1, k2, w1, w2, dw = (draw(st.floats(lo, hi)) for lo, hi in
                              ((0.1, 5.0), (0.1, 5.0), (0.0, 2.0), (0.0, 2.0), (0.01, 2.0)))
        chain = pii2_chain(HigsPii2Params(0.5, -1.5, HigsParams(w1, k1), HigsParams(w2, k2),
                                          HigsParams(w2 + dw, k2)))
    return chain, draw(st.tuples(*[st.sampled_from([False, True]) for _ in chain]))


@given(_logic_rows(), _law_chains())
def test_element_law_on_a_block_matches_floats(rows, chain_modes):
    # The block scan calls the law on arrays, the event-locating step on
    # Python floats.  Edges put an element on bound times its input: for H3
    # on H2's output, that is x_h2 when H2 integrates and k_h2 e in gain
    # mode.
    (e, e_dot, *xs), edges = rows
    chain, modes = chain_modes
    states = []
    for i, el in enumerate(chain):
        on = [el.bound * e] if el.source is None else [el.bound * states[el.source],
                                                       el.bound * (chain[el.source].bound * e)]
        states.append(np.select([edges[:, i] == j + 1 for j in range(len(on))], on, xs[i]))
    gains, event, new, margin = higs.element_law(e, e_dot, tuple(states), modes, chain)
    for r in range(len(e)):
        want = higs.element_law(float(e[r]), float(e_dot[r]), [float(x[r]) for x in states],
                                modes, chain)
        assert all(type(v) is bool for v in (*want[0], want[1]))
        assert all(type(v) is float for v in (*want[2], want[3]))
        assert [bool(g[r]) for g in gains] == list(want[0])
        assert bool(event[r]) == want[1]
        assert _bits([x[r] for x in new]) == _bits(want[2])
        assert _bits(margin[r]) == _bits(want[3])


# Offsets of a state from its sector edge around the event thresholds
# _EVENT_GAP and _EVENT_RTOL, so that rows fall outside the sector, inside
# it, and in the bands between.
_EDGE_NUDGES = st.sampled_from([0.0, 3e-13, -3e-13, 1e-12, -1e-12, 3e-12, -3e-12])


def _states_near_edges(e, xs, edges, chain, data):
    """Element states drawn from xs, each put on its sector edge plus one
    of _EDGE_NUDGES where edges says so: for a chained element, on bound
    times its source's state."""
    states = []
    for i, el in enumerate(chain):
        inp = e if el.source is None else states[el.source]
        nudge = data.draw(arrays(float, len(e), elements=_EDGE_NUDGES))
        states.append(np.where(edges[:, i] > 0, el.bound * inp + nudge, xs[i]))
    return states


@given(_logic_rows(), _law_chains(), st.data())
def test_element_law_moves_a_state_exactly_at_its_sector_exit(rows, chain_modes, data):
    # One test decides a sector exit: an integrating state changes exactly
    # where it lies outside its sector by more than _EVENT_GAP over
    # max(1, |x_h|), it takes project_to_sector's point there, and the event
    # is raised on every such row.  The blocked march keeps the rows before
    # the first event, so it never keeps a moved state.
    (e, e_dot, *xs), edges = rows
    chain, modes = chain_modes
    states = _states_near_edges(e, xs, edges, chain, data)
    law = higs.element_law(e, e_dot, tuple(states), modes, chain)
    outputs = []    # each element's frozen-mode output, the input of a chained one
    for el, x, gain, new in zip(chain, states, modes, law.states, strict=True):
        a = e if el.source is None else outputs[el.source]
        outputs.append(el.bound * a if gain else x)
        if gain:
            continue
        near = project_to_sector(a, x, el.bound)
        exits = np.abs(near - x) / np.where(np.abs(x) > 1.0, np.abs(x), 1.0) > higs._EVENT_GAP
        assert np.array_equal(np.asarray(new).view(np.int64) != x.view(np.int64), exits)
        assert _bits(np.asarray(new)[exits]) == _bits(near[exits])
        assert law.event[exits].all()


@pytest.mark.parametrize("loop", sorted(LOOPS))
def test_loop_block_size_invariance(plant, loop, monkeypatch):
    # 6001 steps: a multiple of neither block size, nor of record_every.
    cfg = oscillator_config(t_end=6.001, record_every=7)
    runs = []
    for rows in (1, 3, sim._BLOCK_ROWS):
        monkeypatch.setattr(sim, "_BLOCK_ROWS", rows)
        runs.append(LOOPS[loop](plant, cfg))
    if loop != "linear":
        assert (np.diff(runs[0].modes, axis=0) != 0).any()
    for traj in runs[1:]:
        assert np.array_equal(traj.times, runs[0].times)
        assert np.array_equal(traj.plant_states, runs[0].plant_states)
        assert np.array_equal(traj.controller_states, runs[0].controller_states)
        assert (traj.modes is None) == (runs[0].modes is None)
        assert traj.modes is None or np.array_equal(traj.modes, runs[0].modes)


def _lag_plant(modes, lag):
    """The modal plant of `modes` plus, when lag = (a, g) is given, the NI
    lag g^2/(s + a) in parallel, whose C B = g^2 is nonzero."""
    A, B, C = modal_plant(modes)
    if lag is None:
        return StateSpace(A, B, C)
    a, g = lag
    n = len(B)
    A = np.pad(A, ((0, 1), (0, 1)))
    A[n, n] = -a
    return StateSpace(A, np.append(B, g), np.append(C, g))


@st.composite
def _irc_runs(draw):
    modes = draw(st.lists(MODAL_MODE, min_size=1, max_size=3))
    lag = draw(st.none() | st.tuples(st.floats(0.2, 5.0), st.floats(0.3, 1.5)))
    plant = _lag_plant(modes, lag)
    x0 = draw(st.lists(st.floats(-3.0, 3.0), min_size=plant.n, max_size=plant.n))
    p = HigsIrcParams(draw(st.floats(0.1, 3.0)), draw(st.floats(1.0, 30.0)), draw(st.floats(-2.0, -0.2)))
    # The coarse grid makes rows that leave the sector without a mode
    # change, each an event that ends a block; on the fine grids they are
    # rare.
    dt = draw(st.sampled_from([1e-3, 4e-3, 5e-2]))
    cfg = SimConfig(dt=dt, t_end=draw(st.integers(100, 3000)) * dt, x0=x0,
                    controller_x0=draw(st.floats(-1.0, 1.0)),
                    record_every=draw(st.sampled_from([1, 7])))
    return plant, p, cfg


def _irc_loop_or_error(plant, p, cfg, block_rows):
    """The single-element loop at _BLOCK_ROWS = block_rows: its trajectory,
    or the type and message of the error it stopped with."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sim, "_BLOCK_ROWS", block_rows)
        try:
            return simulate_higs_irc_loop(plant, p, cfg)
        except (NonFiniteState, UnsolvableLoop) as exc:
            return type(exc), str(exc)


# e = x1 falls to zero at t = 0.1 s: a row inside the first block leaves the
# sector without a mode change, and the event-locating step takes it.
@example((StateSpace([[0.0, 1.0], [-1.0, 0.0]], [0.0, 1.0], [1.0, 0.0]), HIGS20,
          SimConfig(dt=1e-2, t_end=20.0, x0=[0.1, -1.0])))
# C B = 0.25 enters de/dt through x_h; the loop switches in both directions.
@example((_lag_plant([(1.0, 0.0, 1.0)], (0.5, 0.5)), HIGS20,
          SimConfig(dt=1e-3, t_end=20.0, x0=[3.0, 1.0, -2.0])))
@settings(deadline=None)
@given(_irc_runs())
def test_blocked_irc_loop_matches_per_step_reference(run):
    # One step per block is the per-step reference: the blocked core must
    # give its samples bit for bit, or stop with the same error.
    plant, p, cfg = run
    ref = _irc_loop_or_error(plant, p, cfg, 1)
    traj = _irc_loop_or_error(plant, p, cfg, sim._BLOCK_ROWS)
    if isinstance(ref, tuple):
        assert traj == ref
        return
    assert np.array_equal(traj.times, ref.times)
    assert _bits(traj.plant_states) == _bits(ref.plant_states)
    assert _bits(traj.controller_states) == _bits(ref.controller_states)
    assert np.array_equal(traj.modes, ref.modes)


@pytest.mark.parametrize("limit", [1e6, 1e9])
def test_irc_divergence_in_block_names_the_per_step_time(plant, limit, monkeypatch):
    # The rows of the block after the guard trips are discarded; the error
    # names the step a loop of one-step blocks stops at.
    monkeypatch.setattr(sim, "DIVERGENCE_LIMIT", limit)
    wild = HigsIrcParams(10.0, 40.0, -0.01)
    cfg = SimConfig(dt=1e-3, t_end=12.0, x0=[3.0, 1.0])
    ref = _irc_loop_or_error(plant, wild, cfg, 1)
    assert ref[0] is NonFiniteState
    with pytest.raises(NonFiniteState, match=re.escape(ref[1])):
        simulate_higs_irc_loop(plant, wild, cfg)


@pytest.mark.parametrize("loop", ["higs_irc", "higs_pii2"])
def test_event_cap_ends_a_step_that_cannot_settle(plant, loop, monkeypatch):
    # A negative exit threshold makes every probed integrating state a sector
    # exit that settles back to the same modes: each event lands on the
    # chunk start, a grazing nudge moves the step on, and the 65th event
    # ends the run in its first step.
    monkeypatch.setattr(higs, "_EVENT_GAP", -1.0)
    dt = 1e-3
    chunks = []
    build = sim._rk4_affine_map
    monkeypatch.setattr(sim, "_rk4_affine_map", lambda J, h: chunks.append(h) or build(J, h))
    with pytest.raises(UnsolvableLoop, match=re.escape("within the step ending at t = 0.001")):
        LOOPS[loop](plant, SimConfig(dt=dt, t_end=1.0, x0=[3.0, 1.0]))
    assert 1e-6 * dt in chunks


def test_stiff_loop_holds_its_sector_at_the_coarse_step():
    # A 1446 rad/s mode beside a 3.05 rad/s one: at dt = 1e-3 the states
    # leave the sector inside many steps.  Each exit's projection must move
    # the state, or the exit fires again on every probe until the event cap
    # raises UnsolvableLoop.
    plant = StateSpace(*modal_plant([(1446.0, 0.0, 1.29), (3.05, 0.0, 0.32)]))
    traj = simulate_higs_irc_loop(plant, HigsIrcParams(0.38, 132.0, -1.3),
                                  SimConfig(dt=1e-3, t_end=1.0, x0=[1.99, -2.75, 4.0, 1.89]))
    assert traj.times[-1] == 1.0
    assert (np.diff(traj.modes, axis=0) != 0).any()
    assert check_sector(traj).passed


def _irc_piecewise_reference(p, x0, dt, n_steps):
    """Samples at k dt of the mass-spring single-element loop (x_h(0) = 0),
    flowed exactly per mode in 30 digits.

    Integrator mode ends where x_h - kappa_tilde e crosses 0, gain mode
    where e (omega_h e - k_h de/dt) does (de/dt = x2 on the mass-spring).
    A scan in steps of 0.01 brackets each switch, mpmath.findroot solves
    it.  The gain-mode flow carries x_h = kappa_tilde e along (its x_h row
    is kappa_tilde times the x1 row), so x_h leaves gain mode there.
    Returns the joint states, the mode codes and the switch times."""
    with mpmath.workdps(30):
        w, k, D, kt = (mpmath.mpf(v) for v in (p.omega_h, p.k_h, p.D, p.kappa_tilde))
        flows = (mpmath.matrix([[0, 1, 0], [-1, 0, 1], [w, 0, w * D]]),
                 mpmath.matrix([[0, 1, 0], [kt - 1, 0, 0], [0, kt, 0]]))
        switch = (lambda z: z[2] - kt * z[0],
                  lambda z: z[0] * (w * z[0] - k * z[1]))
        h, t_end = mpmath.mpf(1) / 100, n_steps * mpmath.mpf(dt)
        z, mode, t0 = mpmath.matrix([x0[0], x0[1], 0]), 0, mpmath.mpf(0)
        pieces = []
        while True:
            J, g = flows[mode], switch[mode]
            coarse = mpmath.expm(J * h)
            # From t0 + h on: a piece after a switch to integrator mode
            # starts on its switching surface.
            zs, t = coarse * z, t0 + h
            sign, bracket = g(zs), None
            while t < t_end and bracket is None:
                zs, t = coarse * zs, t + h
                if g(zs) * sign < 0:
                    bracket = (t - h, t)
            pieces.append((t0, mode, z))
            if bracket is None:
                break
            ts = mpmath.findroot(lambda t: g(mpmath.expm(J * (t - t0)) * z), bracket,
                                 solver="anderson")
            z, mode, t0 = mpmath.expm(J * (ts - t0)) * z, 1 - mode, ts
        Z, M = [], []
        for j, (ta, mode, za) in enumerate(pieces):
            tb = pieces[j + 1][0] if j + 1 < len(pieces) else t_end + h
            i = int(mpmath.ceil(ta / dt))
            zi = mpmath.expm(flows[mode] * (i * mpmath.mpf(dt) - ta)) * za
            step = mpmath.expm(flows[mode] * mpmath.mpf(dt))
            while i <= n_steps and i * mpmath.mpf(dt) < tb:
                Z.append([float(v) for v in zi])
                M.append(mode)
                zi, i = step * zi, i + 1
        return np.array(Z), np.array(M), [float(piece[0]) for piece in pieces[1:]]


def test_irc_loop_matches_piecewise_exact_flow(plant):
    # The first 6 s of the k_h = 20 loop switch to gain, back to integrator
    # and to gain again; switching inside the step keeps every sample on
    # the exact piecewise flow, far below the step's RK4 error at a switch.
    cfg = oscillator_config(t_end=6.0)
    Z_ref, M_ref, switches = _irc_piecewise_reference(HIGS20, cfg.x0, cfg.dt, cfg.n_steps)
    assert np.round(switches, 3).tolist() == [1.673, 2.467, 5.632]
    traj = simulate_higs_irc_loop(plant, HIGS20, cfg)
    assert np.array_equal(traj.modes[:, 0], M_ref)
    Z = np.column_stack([traj.plant_states, traj.controller_states])
    assert np.abs(Z - Z_ref).max() <= 1e-10


# ---------------------------------------------------------------------------
# event location: regula falsi on the margin against midpoint bisection


def _bisected_event(at, f_lo, hi, z_hi, law_hi, h_min):
    """sim._locate_event as the step searched before the margin steered
    it: midpoint bisection of (0, hi] down to a width of h_min."""
    lo = 0.0
    while hi - lo > h_min:
        mid = 0.5 * (lo + hi)
        z, law = at(mid)
        if law.event:
            hi, z_hi, law_hi = mid, z, law
        else:
            lo = mid
    return hi, z_hi, law_hi


def _loop_with_search(search, simulate, *args):
    """simulate(*args) with search as sim._locate_event: its trajectory, or
    the type and message of the error it stopped with."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sim, "_locate_event", search)
        try:
            return simulate(*args)
        except (NonFiniteState, UnsolvableLoop) as exc:
            return type(exc), str(exc)


def _assert_bisection_agrees(traj, ref):
    """The same mode rows, and states within 1e-12 of the largest."""
    if isinstance(ref, tuple):
        assert traj == ref
        return
    assert np.array_equal(traj.times, ref.times)
    assert np.array_equal(traj.modes, ref.modes)
    Z = np.column_stack([traj.plant_states, traj.controller_states])
    Z_ref = np.column_stack([ref.plant_states, ref.controller_states])
    assert np.abs(Z - Z_ref).max() <= 1e-12 * np.abs(Z_ref).max()


_HYBRID_CONFIGS = ["mass_spring_irc_k20", "mass_spring_irc_k5", "mass_spring_pii2",
                   "two_mode_collocated"]


@pytest.mark.parametrize("name", _HYBRID_CONFIGS)
def test_event_search_matches_bisection_on_shipped_configs(config_dir, name):
    cfg = cli.load_scenario(str(config_dir / f"{name}.json"))
    ref = _loop_with_search(_bisected_event, cli._simulate, cfg, None)
    assert (np.diff(ref.modes, axis=0) != 0).sum() >= 10
    _assert_bisection_agrees(_loop_with_search(sim._locate_event, cli._simulate, cfg, None), ref)


@settings(deadline=None)
@given(_irc_runs())
def test_event_search_matches_bisection_on_irc_corpus(run):
    ref = _loop_with_search(_bisected_event, simulate_higs_irc_loop, *run)
    _assert_bisection_agrees(_loop_with_search(sim._locate_event, simulate_higs_irc_loop, *run), ref)


@pytest.mark.parametrize("name", _HYBRID_CONFIGS)
def test_event_steps_build_few_maps(config_dir, name, monkeypatch):
    # Bisection built about 40 RK4 maps per event; the margin-steered
    # search needs at most 10 per event step on these runs.
    builds, per_step = [0], []
    build, march = sim._rk4_affine_map, sim._march

    def counted_build(J, h):
        builds[0] += 1
        return build(J, h)

    def counting_march(cfg, z, modes, maps, scan, step):
        def counted_step(k, z, modes):
            before = builds[0]
            out = step(k, z, modes)
            per_step.append(builds[0] - before)
            return out
        return march(cfg, z, modes, maps, scan, counted_step)

    monkeypatch.setattr(sim, "_rk4_affine_map", counted_build)
    monkeypatch.setattr(sim, "_march", counting_march)
    cli._simulate(cli.load_scenario(str(config_dir / f"{name}.json")), None)
    assert len(per_step) >= 10
    assert max(per_step) <= 12


@given(st.floats(0.0, 1.0), st.sampled_from(["linear", "flat", "wrong_sign", "nan"]))
def test_locate_event_closes_the_bracket_on_any_margin(root, kind):
    # The event flag alone decides each side; a margin that misleads the
    # search or is missing costs probes, never the bracket.
    h_min = 1e-12
    margins = {"linear": lambda h: h - root, "flat": lambda h: -1e-13,
               "wrong_sign": lambda h: root - h, "nan": lambda h: math.nan}
    probes = []

    def at(h):
        probes.append(h)
        return h, higs.ElementLaw((), h >= root, [], margins[kind](h))

    hi, z, law = sim._locate_event(at, margins[kind](0.0), 1.0, 1.0,
                                   higs.ElementLaw((), True, [], margins[kind](1.0)), h_min)
    assert hi == z and law.event
    assert root <= hi <= root + h_min
    assert len(probes) <= 5 * 42


@given(_logic_rows(), _law_chains(), st.data())
def test_event_margin_sign_matches_event(rows, chain_modes, data):
    # Away from rounding at 0, the margin is positive exactly where the law
    # raises an event; states on and around each sector edge probe the
    # bands of _EVENT_RTOL and _EVENT_GAP.
    (e, e_dot, *xs), edges = rows
    chain, modes = chain_modes
    states = _states_near_edges(e, xs, edges, chain, data)
    law = higs.element_law(e, e_dot, tuple(states), modes, chain)
    finite = np.isfinite(np.column_stack([e, e_dot, *states])).all(axis=1)
    assert np.isfinite(law.margin[finite]).all()
    decided = finite & (np.abs(law.margin) > 1e-15)
    assert np.array_equal((law.margin > 0.0)[decided], law.event[decided])


# ---------------------------------------------------------------------------
# three-element loop


def test_pii2_loop_initial_energy(pii2_traj):
    assert pii2_traj.W[0] == pytest.approx(26.0 / 7.0)
    assert pii2_traj.V[0] == 0.0


def test_pii2_loop_checks_pass(pii2_traj):
    assert check_monotone(pii2_traj).passed
    assert check_sector(pii2_traj).passed


def test_pii2_loop_energy_decreases_overall(pii2_traj):
    assert pii2_traj.W[-1] < 0.2 * pii2_traj.W[0]


def test_pii2_loop_integrator_prefix_matches_linear_loop(plant, pii2_traj):
    # all-integrator bank is k_p + omega1/s + omega2*omega3/s^2 behind the
    # feedthrough, i.e. the second-order linear controller with
    # k1 = omega1 and k2 = omega2*omega3
    first_gain = int(np.argmax((pii2_traj.modes == 1).any(axis=1)))
    assert first_gain > 1000
    lin_params = Pii2Params(PII2.k_p, PII2.h1.omega_h,
                            PII2.h2.omega_h * PII2.h3.omega_h, PII2.D)
    lin = simulate_linear_loop(plant, pii2rc_tf(lin_params), oscillator_config())
    sl = slice(0, first_gain)
    assert np.abs(pii2_traj.plant_states[sl] - lin.plant_states[sl]).max() <= 1e-6
    assert np.abs(pii2_traj.u[sl] - lin.u[sl]).max() <= 1e-6


def test_pii2_loop_signal_identities(pii2_traj):
    # recorded element states are the post-substitution values, so the
    # resolved error and output satisfy the loop equations sample by sample
    p = PII2
    xh = pii2_traj.controller_states
    e, u, y = pii2_traj.e, pii2_traj.u, pii2_traj.y
    res_e = e - p.gamma * (y + p.D * (xh[:, 0] + xh[:, 2]))
    res_u = u - (xh[:, 0] + xh[:, 2] + p.k_p * e)
    assert np.abs(res_e).max() <= 1e-9
    assert np.abs(res_u).max() <= 1e-9


def test_pii2_loop_signals_match_per_row_mode_system(plant, pii2_traj):
    # e and u are row dots taken once per recorded mode triple; that must
    # equal reading each row off its triple's rows on its own, bit for bit.
    assert len(np.unique(pii2_traj.modes, axis=0)) >= 2
    Z = np.hstack([pii2_traj.plant_states, pii2_traj.controller_states])
    modes = list(map(tuple, pii2_traj.modes.tolist()))
    systems = {m: pii2_mode_system(plant, PII2, tuple(map(bool, m))) for m in set(modes)}
    for i, m in enumerate(modes):
        s = systems[m]
        assert float(s.w_e @ Z[i]) == pii2_traj.e[i]
        assert float(s.w_u @ Z[i]) == pii2_traj.u[i]


def test_pii2_loop_storage_series_match_states(pii2_traj):
    xh = pii2_traj.controller_states
    assert pii2_traj.aux["V1"] == pytest.approx(xh[:, 0] ** 2 / (2.0 * PII2.h1.k_h))
    assert pii2_traj.aux["V2"] == pytest.approx(0.5 * xh[:, 1] ** 2)
    assert pii2_traj.V == pytest.approx(pii2_traj.aux["V1"] + pii2_traj.aux["V2"])


def test_pii2_loop_states_are_continuous(pii2_traj):
    assert np.abs(np.diff(pii2_traj.controller_states, axis=0)).max() <= 1e-2


def test_pii2_loop_rejects_gain_sum_collision(plant):
    from higsni import HigsParams, HigsPii2Params
    collide = HigsPii2Params(0.5, -0.5, HigsParams(0.3, 0.5),
                             HigsParams(0.2, 1.0), HigsParams(0.4, 1.0))
    with pytest.raises(InvalidParameters):
        simulate_higs_pii2_loop(plant, collide, oscillator_config(t_end=1.0))


def test_pii2_loop_validates_controller_state_shape(plant):
    cfg = oscillator_config(t_end=1.0, controller_x0=[0.0, 0.0])
    with pytest.raises(ValueError):
        simulate_higs_pii2_loop(plant, PII2, cfg)


# ---------------------------------------------------------------------------
# refinement and energy bookkeeping


@pytest.mark.parametrize("p", [HIGS5, HIGS20], ids=["HIGS5", "HIGS20"])
def test_refinement_sup_norm_single_element(plant, p):
    coarse = simulate_higs_irc_loop(plant, p, oscillator_config(dt=2e-3, t_end=8.0))
    fine = simulate_higs_irc_loop(plant, p, oscillator_config(dt=1e-3, t_end=8.0, record_every=2))
    dev = max(np.abs(coarse.plant_states - fine.plant_states).max(),
              np.abs(coarse.controller_states - fine.controller_states).max())
    assert dev <= 1e-8


def test_refinement_sup_norm_three_element(plant):
    coarse = simulate_higs_pii2_loop(plant, PII2, oscillator_config(dt=2e-3, t_end=8.0))
    fine = simulate_higs_pii2_loop(plant, PII2,
                                   oscillator_config(dt=1e-3, t_end=8.0, record_every=2))
    dev = max(np.abs(coarse.plant_states - fine.plant_states).max(),
              np.abs(coarse.controller_states - fine.controller_states).max())
    assert dev <= 1e-8


@pytest.mark.parametrize("fixture", ["irc20_traj", "pii2_traj"])
def test_plant_supply_bounds_plant_energy(fixture, request):
    # the plant is NI with Y = I, so V = ||x||^2 / 2 obeys dV <= u dy up to
    # the trapezoid error of one recording step
    traj = request.getfixturevalue(fixture)
    V = 0.5 * np.sum(traj.plant_states ** 2, axis=1)
    supply = 0.5 * (traj.u[1:] + traj.u[:-1]) * np.diff(traj.y)
    dts = np.diff(traj.times)
    assert (np.diff(V) - supply - 100.0 * dts * dts).max() <= 0.0


def test_dissipation_budget_tightens_with_dt(plant):
    excesses = {}
    for dt in (2e-3, 1e-3):
        traj = simulate_higs_irc_loop(plant, HIGS20, oscillator_config(dt=dt, t_end=8.0))
        rep = check_dissipation(traj)
        assert rep.passed
        excesses[dt] = max(rep.margin, 0.0)
    assert excesses[1e-3] <= 100.0 * 1e-3 ** 2
    assert excesses[2e-3] <= 100.0 * 2e-3 ** 2


# ---------------------------------------------------------------------------
# trajectory checks


def test_monotone_checker_accepts_exact_budget():
    times = np.arange(4, dtype=float)
    base = dict(
        times=times,
        plant_states=np.zeros((4, 1)),
        controller_states=np.zeros((4, 1)),
        e=np.zeros(4), u=np.zeros(4), y=np.zeros(4),
    )
    flat = Trajectory(W=np.array([1.0, 1.0 + 1e-6, 1.0, 0.5]), **base)
    assert check_monotone(flat).passed
    rising = Trajectory(W=np.array([1.0, 1.0 + 2e-6, 1.0, 0.5]), **base)
    rep = check_monotone(rising)
    assert not rep.passed and rep.evidence["worst_time"] == 1.0


def test_monotone_checker_requires_lyapunov_series(pii2_traj):
    bare = Trajectory(
        times=pii2_traj.times,
        plant_states=pii2_traj.plant_states,
        controller_states=pii2_traj.controller_states,
        e=pii2_traj.e, u=pii2_traj.u, y=pii2_traj.y,
    )
    with pytest.raises(ValueError):
        check_monotone(bare)


def test_monotone_checker_rejects_time_reversed_energy(pii2_traj):
    reversed_traj = Trajectory(
        times=pii2_traj.times,
        plant_states=pii2_traj.plant_states,
        controller_states=pii2_traj.controller_states,
        e=pii2_traj.e, u=pii2_traj.u, y=pii2_traj.y,
        W=pii2_traj.W[::-1].copy(),
    )
    assert not check_monotone(reversed_traj).passed


def test_sector_checker_needs_hybrid_metadata(plant):
    lin = simulate_linear_loop(plant, irc_tf(IrcParams(1.0, -1.5)),
                               SimConfig(dt=1e-3, t_end=1.0, x0=[1.0, 0.0]))
    with pytest.raises(ValueError):
        check_sector(lin)


def test_dissipation_checker_is_single_element_only(pii2_traj):
    with pytest.raises(ValueError):
        check_dissipation(pii2_traj)


# ---------------------------------------------------------------------------
# CSV export


def _csv_text(traj: Trajectory) -> str:
    out = io.StringIO()
    traj._write_csv(out)
    return out.getvalue()


def test_csv_layout_and_determinism(plant):
    cfg = oscillator_config(t_end=2.0)
    a = simulate_higs_irc_loop(plant, HIGS20, cfg,
                               LyapunovIrcCertificate(np.eye(2), plant.C, HIGS20.kappa_tilde))
    b = simulate_higs_irc_loop(plant, HIGS20, cfg,
                               LyapunovIrcCertificate(np.eye(2), plant.C, HIGS20.kappa_tilde))
    text = _csv_text(a)
    assert text == _csv_text(b)
    lines = text.splitlines()
    assert lines[0] == "t,x1,x2,xh,mode,e,u,y,V,W"
    assert len(lines) == len(a) + 1
    # mode codes are written as bare integers
    assert lines[1].split(",")[4] in ("0", "1")


def test_csv_round_trips_floats(pii2_traj):
    lines = _csv_text(pii2_traj).splitlines()
    header = lines[0].split(",")
    assert header == ["t", "x1", "x2", "xh1", "xh2", "xh3",
                      "mode1", "mode2", "mode3", "e", "u", "y", "V", "V1", "V2", "W"]
    probe = lines[len(lines) // 2].split(",")
    i = len(lines) // 2 - 1
    assert float(probe[0]) == pii2_traj.times[i]
    assert float(probe[1]) == pii2_traj.plant_states[i, 0]
    assert float(probe[-1]) == pii2_traj.W[i]


def test_csv_write(tmp_path, irc5_traj):
    path = tmp_path / "run.csv"
    irc5_traj.write_csv(path)
    assert path.read_text() == _csv_text(irc5_traj)


def _reference_csv_text(traj: Trajectory) -> str:
    """The original cell-by-cell writer, kept as the oracle for the blocked one."""
    def fmt(v) -> str:
        return repr(float(v))

    out = [",".join(traj.column_names()) + "\n"]
    aux_keys = sorted(traj.aux.keys())
    for i in range(len(traj)):
        cells = [fmt(traj.times[i])]
        cells += [fmt(v) for v in traj.plant_states[i]]
        cells += [fmt(v) for v in traj.controller_states[i]]
        if traj.modes is not None:
            cells += [str(int(v)) for v in traj.modes[i]]
        cells += [fmt(traj.e[i]), fmt(traj.u[i]), fmt(traj.y[i])]
        if traj.V is not None:
            cells.append(fmt(traj.V[i]))
        cells += [fmt(traj.aux[k][i]) for k in aux_keys]
        if traj.W is not None:
            cells.append(fmt(traj.W[i]))
        out.append(",".join(cells) + "\n")
    return "".join(out)


CSV_LOOPS = {
    "higs_irc": lambda plant, cfg: simulate_higs_irc_loop(
        plant, HIGS20, cfg, LyapunovIrcCertificate(np.eye(2), plant.C, HIGS20.kappa_tilde)),
    "higs_pii2": lambda plant, cfg: simulate_higs_pii2_loop(
        plant, PII2, cfg, LyapunovPii2Certificate(np.eye(2), plant.C, PII2)),
    "linear": LOOPS["linear"],
}


@pytest.mark.parametrize("n_rows", [_CSV_BLOCK_ROWS // 2, 2 * _CSV_BLOCK_ROWS,
                                    2 * _CSV_BLOCK_ROWS + 37])
@pytest.mark.parametrize("loop", sorted(CSV_LOOPS))
def test_csv_writer_matches_cell_by_cell_reference(tmp_path, plant, loop, n_rows):
    traj = CSV_LOOPS[loop](plant, oscillator_config(t_end=(n_rows - 1) * 1e-3))
    assert len(traj) == n_rows
    want = _reference_csv_text(traj)
    assert _csv_text(traj) == want
    path = tmp_path / "run.csv"
    traj.write_csv(path)
    assert path.read_bytes() == want.encode()


# Columns of the hand-built trajectories below: F holds the float series in
# CSV order after t, M the two mode columns (written between xc2 and e).
TABLE_COLS = ["x1", "x2", "xc1", "xc2", "e", "u", "y", "V", "V1", "V2", "W"]


def _table_trajectory(F: np.ndarray, M: np.ndarray) -> Trajectory:
    """A trajectory whose series are views into F and M, V1/V2 as aux."""
    c = {name: F[:, i] for i, name in enumerate(TABLE_COLS)}
    return Trajectory(
        times=np.arange(len(F)) * 1e-3,
        plant_states=F[:, 0:2],
        controller_states=F[:, 2:4],
        e=c["e"], u=c["u"], y=c["y"],
        modes=M, V=c["V"], W=c["W"],
        aux={"V2": c["V2"], "V1": c["V1"]},
    )


def _minus_zero_in_one_row(F, M):
    # y equals x1 by value everywhere, but one row holds -0.0 against 0.0
    r = len(F) // 2
    F[r, 0] = 0.0
    F[:, 6] = F[:, 0]
    F[r, 6] = -0.0


def _equal_in_first_block_only(F, M):
    F[:, 5] = F[:, 2]
    F[_CSV_BLOCK_ROWS:, 5] += 1.0


def _equal_modes(F, M):
    M[:, 1] = M[:, 0]


def _zero_floats_around_zero_mode(F, M):
    # same bits, different text: 0.0 as a float, 0 as a mode code
    F[:, 2] = 0.0
    M[:, 0] = 0
    F[:, 4] = 0.0


def _aux_equal_to_other_columns(F, M):
    F[:, 8] = F[:, 7]
    F[:, 9] = F[:, 10]


def _decay_across_exponent_form(F, M):
    # x2 falls from 1e-2 to 1e-6, through 1e-4 (where repr turns to exponent
    # form) halfway down, inside a block; u copies it
    F[:, 1] = np.geomspace(1e-2, 1e-6, len(F))
    F[:, 5] = F[:, 1]


@pytest.mark.parametrize("n_rows", [1, _CSV_BLOCK_ROWS, _CSV_BLOCK_ROWS + 1,
                                    2 * _CSV_BLOCK_ROWS + 37])
@pytest.mark.parametrize("edit", [_minus_zero_in_one_row, _equal_in_first_block_only,
                                  _equal_modes, _zero_floats_around_zero_mode,
                                  _aux_equal_to_other_columns, _decay_across_exponent_form],
                         ids=lambda f: f.__name__.lstrip("_"))
def test_csv_writer_reuses_only_bit_equal_columns(tmp_path, edit, n_rows):
    rng = np.random.default_rng(n_rows)
    F = rng.standard_normal((n_rows, len(TABLE_COLS)))
    M = rng.integers(0, 2, size=(n_rows, 2))
    edit(F, M)
    traj = _table_trajectory(F, M)
    want = _reference_csv_text(traj)
    assert _csv_text(traj) == want
    path = tmp_path / "run.csv"
    traj.write_csv(path)
    assert path.read_bytes() == want.encode()


@settings(max_examples=40, deadline=None)
@given(data=st.data(), n_rows=st.integers(1, 2 * _CSV_BLOCK_ROWS + 37))
def test_csv_writer_matches_reference_on_copied_columns(data, n_rows):
    # Few distinct values, so all-zero columns, -0.0 against 0.0 and columns
    # equal to one another come up often; then copy columns into others and
    # change single cells, which leaves columns equal only in part.
    floats = st.sampled_from([0.0, -0.0, 1.0, 0.1, -2.5])
    F = data.draw(arrays(np.float64, (n_rows, len(TABLE_COLS)), elements=floats))
    M = data.draw(arrays(np.int64, (n_rows, 2), elements=st.sampled_from([0, 1])))
    def pick(n):
        return data.draw(st.integers(0, n - 1))

    for _ in range(data.draw(st.integers(0, 6))):
        kind = data.draw(st.sampled_from(["float", "mode", "cell"]))
        if kind == "float":
            F[:, pick(F.shape[1])] = F[:, pick(F.shape[1])]
        elif kind == "mode":
            M[:, pick(2)] = M[:, pick(2)]
        else:
            F[pick(n_rows), pick(F.shape[1])] = data.draw(floats)
    traj = _table_trajectory(F, M)
    assert _csv_text(traj) == _reference_csv_text(traj)


# Both signs of the zeros, the extremes and the edges of repr's positional
# range, fl(1e-4) <= |x| < 1e16.
EDGE_FLOATS = [sign * v for v in (0.0, 5e-324, 1.7976931348623157e308, 1e-4,
                                  math.nextafter(1e-4, 0.0), 1e16, math.nextafter(1e16, 0.0))
               for sign in (1.0, -1.0)]


# No shrinking: on a table this size it runs for minutes before it gives up,
# and the failing table is reported whole anyway.
@settings(max_examples=60, deadline=None, phases=[Phase.explicit, Phase.reuse, Phase.generate])
@given(data=st.data(), n_rows=st.integers(1, _CSV_BLOCK_ROWS + 37))
def test_csv_writer_matches_reference_on_any_floats(data, n_rows):
    # Any double, NaN, +-inf and subnormals included: each cell must be
    # repr's text, whether orjson or repr formats it.
    floats = st.one_of(st.floats(), st.sampled_from(EDGE_FLOATS))
    F = data.draw(arrays(np.float64, (n_rows, len(TABLE_COLS)), elements=floats))
    M = data.draw(arrays(np.int64, (n_rows, 2), elements=st.sampled_from([0, 1])))
    traj = _table_trajectory(F, M)
    assert _csv_text(traj) == _reference_csv_text(traj)


def test_edge_floats_straddle_the_positional_range():
    # The edges the writer's mask must put on the right side
    assert [repr(v) for v in EDGE_FLOATS[6:]] == [
        "0.0001", "-0.0001", "9.999999999999999e-05", "-9.999999999999999e-05",
        "1e+16", "-1e+16", "9999999999999998.0", "-9999999999999998.0"]
