"""Closed-loop simulators, Lyapunov certificates, and trajectory checks."""

import re

import numpy as np
import pytest
from hypothesis import example, given, settings
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
from higsni import sim
from higsni.controllers import ModeTriple, higs_pii2_mode_update, resolve_pii2_error_signal
from higsni.higs import HigsMode, determine_mode_base, determine_mode_irc, project_to_sector
from higsni.sim import (
    CertificateNotPD,
    Tolerances,
    _CSV_BLOCK_ROWS,
    _gain_mode_rows,
    _pii2_gain_rows,
    _quadratic_rows,
    _rk4_affine_map,
    _row_dots,
    _sector_clamp_rows,
    closed_loop_matrices,
    lyapunov_W_irc,
    lyapunov_W_pii2,
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


def test_tolerances_defaults():
    tol = Tolerances()
    assert tol.mode_boundary == 1e-9
    assert tol.divergence == 1e9


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
       st.lists(st.floats(-2.0, 2.0), min_size=3, max_size=3),
       st.floats(1e-4, 0.1))
def test_rk4_affine_map_matches_stage_form(j_entries, c_entries, z_entries, h):
    J = np.array(j_entries).reshape(3, 3)
    c = np.array(c_entries)
    z = np.array(z_entries)
    R, d = _rk4_affine_map(J, c, h)

    def f(v):
        return J @ v + c

    k1 = f(z)
    k2 = f(z + 0.5 * h * k1)
    k3 = f(z + 0.5 * h * k2)
    k4 = f(z + h * k3)
    want = z + h / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    assert R @ z + d == pytest.approx(want, rel=1e-12, abs=1e-12)


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
    assert cert.schur_margin == pytest.approx(1.0 / 20.0)
    assert lyapunov_W_irc([0.0, 0.0], 1.0, cert) == pytest.approx(21.0 / 40.0)
    assert lyapunov_W_irc([3.0, 1.0], 0.0, cert) == pytest.approx(5.0)
    # cross term: 1/2 (1 - 2 + 21/20)
    assert lyapunov_W_irc([1.0, 0.0], 1.0, cert) == pytest.approx(0.025)


def test_irc_certificate_fails_above_unit_loop_gain(plant):
    cert = LyapunovIrcCertificate(np.eye(2), plant.C, 50.0)
    assert not cert.positive_definite
    assert cert.failed_stage == "1/kappa_tilde - C Y C^T > 0"
    with pytest.raises(CertificateNotPD):
        lyapunov_W_irc([0.0, 0.0], 1.0, cert)
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
    assert lyapunov_W_pii2([0.0, 0.0], 0.0, 2.0, 0.0, cert) == pytest.approx(2.0)
    # plant block is Y^-1 - k_p*gamma*C C^T = diag(5/7, 1)
    assert lyapunov_W_pii2([3.0, 1.0], 0.0, 0.0, 0.0, cert) == pytest.approx(26.0 / 7.0)


def test_pii2_certificate_dc_stage_failure(plant):
    weak = PII2.__class__(k_p=PII2.k_p, D=-0.5, h1=PII2.h1, h2=PII2.h2, h3=PII2.h3)
    cert = LyapunovPii2Certificate(np.eye(2), plant.C, weak)
    assert not cert.positive_definite
    assert cert.failed_stage == "-D - C Y C^T > 0"
    with pytest.raises(CertificateNotPD):
        lyapunov_W_pii2([0.0, 0.0], 0.0, 0.0, 0.0, cert)
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
    plant = StateSpace([[-1.0]], [1.0], [1.0], D_ff=0.5)
    Acl, Bcl, rows = closed_loop_matrices(plant, RationalTF((1.0,), (1.0,)))
    assert rows.u_x == pytest.approx([2.0])
    assert rows.y_x == pytest.approx([2.0])
    assert rows.y_r == pytest.approx(1.0)
    assert Acl[0, 0] == pytest.approx(1.0)


def test_closed_loop_rejects_singular_feedthrough_product():
    plant = StateSpace([[-1.0]], [1.0], [1.0], D_ff=1.0)
    with pytest.raises(IllPosedLoop):
        closed_loop_matrices(plant, RationalTF((1.0,), (1.0,)))


def test_linear_loop_controller_state_validation(plant):
    ctrl = pii2rc_tf(Pii2Params(1.0, 1.0, 1.0, -2.0))
    cfg = SimConfig(dt=1e-3, t_end=1.0, x0=[1.0, 0.0], controller_x0=[0.0, 0.0, 0.0])
    with pytest.raises(ValueError):
        simulate_linear_loop(plant, ctrl, cfg)


# ---------------------------------------------------------------------------
# single-element loop


def test_irc_loop_initial_energy_and_signals(irc20_traj):
    assert irc20_traj.W[0] == pytest.approx(5.0)
    assert irc20_traj.V[0] == 0.0
    assert irc20_traj.e == pytest.approx(irc20_traj.y, abs=0.0)   # r = 0
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
        assert check_monotone(traj, budget=1e-6).passed
        assert check_sector(traj, rtol=1e-9).passed
        assert check_dissipation(traj).passed


def test_irc_loop_validates_initial_state(plant):
    with pytest.raises(ValueError):
        simulate_higs_irc_loop(plant, HIGS20, SimConfig(dt=1e-3, t_end=1.0, x0=[1.0]))


def test_irc_loop_divergence_guard(plant):
    # kappa_tilde G(0) = 28.6 violates the DC condition; both frozen-mode
    # loops are unstable and the state escapes the (lowered) guard.
    wild = HigsIrcParams(10.0, 40.0, -0.01)
    cfg = SimConfig(dt=1e-3, t_end=12.0, x0=[3.0, 1.0],
                    tolerances=Tolerances(divergence=1e6))
    with pytest.raises(NonFiniteState):
        simulate_higs_irc_loop(plant, wild, cfg)


def test_irc_loop_tracks_constant_reference(plant):
    cfg = SimConfig(dt=1e-3, t_end=2.0, x0=[0.0, 0.0], r=0.5)
    traj = simulate_higs_irc_loop(plant, HIGS20, cfg)
    assert traj.e == pytest.approx(0.5 + traj.y, abs=1e-12)


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


def test_linear_loop_divergence_guard(plant):
    # K(0) G(0) = 10 > 1 breaks the DC condition (D = -0.1 > -G(0)); the
    # loop grows like exp(1.66 t) and escapes the (lowered) guard.
    cfg = SimConfig(dt=1e-3, t_end=12.0, x0=[3.0, 1.0],
                    tolerances=Tolerances(divergence=1e6))
    with pytest.raises(NonFiniteState):
        simulate_linear_loop(plant, irc_tf(IrcParams(10.0, -0.1)), cfg)


# ---------------------------------------------------------------------------
# block stepping: the array kernels and the blocked core against one step at
# a time


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


@given(_logic_rows(), st.floats(0.1, 30.0), st.floats(0.0, 5.0), st.floats(-3.0, -0.1),
       st.sampled_from([0.0, 1e-12]))
def test_element_kernels_match_scalar_logic(rows, k_h, omega_h, D, tol):
    (e, e_dot, x, _, _), edges = rows
    irc = HigsIrcParams(omega_h, k_h, D)
    base = HigsParams(omega_h, k_h)
    for k_bound, p, decide in ((irc.kappa_tilde, irc, determine_mode_irc),
                               (k_h, base, determine_mode_base)):
        xs = np.where(edges[:, 0] > 0, k_bound * e, x)
        cells = list(zip(e.tolist(), e_dot.tolist(), xs.tolist()))
        assert _bits(_sector_clamp_rows(e, xs, k_bound, tol)) == \
            _bits([project_to_sector(a, c, k_bound, tol) for a, _, c in cells])
        assert _gain_mode_rows(e, e_dot, xs, k_bound, p, 1e-9).tolist() == \
            [decide(a, b, c, p, 1e-9) == HigsMode.GAIN for a, b, c in cells]


@given(_logic_rows(), st.floats(0.1, 5.0), st.floats(0.1, 5.0), st.floats(0.0, 2.0),
       st.floats(0.0, 2.0), st.floats(0.01, 2.0))
def test_pii2_mode_kernel_matches_scalar_update(rows, k1, k2, w1, w2, dw):
    # H3's input is H2's output: k_h2 e when H2 is in gain mode, x_h2
    # otherwise; edges put x_h3 on k_h3 times either of them.
    (e, e_dot, x1, x2, x3), edges = rows
    p = HigsPii2Params(0.5, -1.5, HigsParams(w1, k1), HigsParams(w2, k2), HigsParams(w2 + dw, k2))
    x1 = np.where(edges[:, 0] > 0, k1 * e, x1)
    x2 = np.where(edges[:, 1] > 0, k2 * e, x2)
    x3 = np.select([edges[:, 2] == 1, edges[:, 2] == 2], [k2 * x2, k2 * (k2 * e)], x3)
    got = np.column_stack(_pii2_gain_rows(e, e_dot, (x1, x2, x3), p, 1e-12))
    want = [list(higs_pii2_mode_update(a, b, (c, d, f), p, 1e-12))
            for a, b, c, d, f in zip(e.tolist(), e_dot.tolist(), x1.tolist(), x2.tolist(), x3.tolist())]
    assert got.astype(int).tolist() == want


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


def _per_step_irc_loop(plant, p, cfg):
    """The single-element loop one step at a time, as it ran before block
    stepping: propagate, mode logic, guard and sample after every step.
    Kept as the oracle for the blocked core; returns (T, Z, M)."""
    n, A, B, C = plant.n, plant.A, plant.B, plant.C
    kt, r, tols, dt = p.kappa_tilde, cfg.r, cfg.tolerances, cfg.dt
    CA, CB = C @ A, float(C @ B)
    J_int = np.zeros((n + 1, n + 1))
    J_int[:n, :n], J_int[:n, n], J_int[n, :n], J_int[n, n] = A, B, p.omega_h * C, p.omega_h * p.D
    c_int = np.zeros(n + 1)
    c_int[n] = p.omega_h * r
    J_gain = np.zeros((n + 1, n + 1))
    J_gain[:n, :n] = A + kt * np.outer(B, C)
    c_gain = np.zeros(n + 1)
    c_gain[:n] = kt * r * B
    maps = {HigsMode.INTEGRATOR: _rk4_affine_map(J_int, c_int, dt),
            HigsMode.GAIN: _rk4_affine_map(J_gain, c_gain, dt)}

    def pick_mode(z):
        e = r + float(C @ z[:n])
        e_dot = float(CA @ z[:n]) + CB * z[n]
        z[n] = project_to_sector(e, z[n], kt, tols.sector)
        mode = determine_mode_irc(e, e_dot, z[n], p, tols.mode_boundary)
        if mode == HigsMode.GAIN:
            z[n] = kt * e
        return mode

    z = np.append(cfg.x0, float(cfg.controller_x0))
    mode = pick_mode(z)
    T, Z, M = [0.0], [z.copy()], [mode]
    for k in range(1, cfg.n_steps + 1):
        R, d = maps[mode]
        z = R @ z + d
        if mode == HigsMode.GAIN:
            z[n] = kt * (r + float(C @ z[:n]))
        mode = pick_mode(z)
        t = k * dt
        if not np.abs(z).max() <= tols.divergence:
            raise NonFiniteState(f"state escaped at t = {t:.6g} (|state| > {tols.divergence:g} or non-finite)")
        if k % cfg.record_every == 0 or k == cfg.n_steps:
            T.append(t)
            Z.append(z.copy())
            M.append(mode)
    return np.array(T), np.array(Z), np.array(M, dtype=np.int64)[:, None]


@st.composite
def _irc_runs(draw):
    modes = draw(st.lists(MODAL_MODE, min_size=1, max_size=3))
    x0 = draw(st.lists(st.floats(-3.0, 3.0), min_size=2 * len(modes), max_size=2 * len(modes)))
    p = HigsIrcParams(draw(st.floats(0.1, 3.0)), draw(st.floats(1.0, 30.0)), draw(st.floats(-2.0, -0.2)))
    # The coarse grid makes rows where the clamp alone moves x_h, which must
    # end a block; on the fine grids they are rare.
    dt = draw(st.sampled_from([1e-3, 4e-3, 5e-2]))
    cfg = SimConfig(dt=dt, t_end=draw(st.integers(100, 3000)) * dt, x0=x0,
                    controller_x0=draw(st.floats(-1.0, 1.0)), r=draw(st.sampled_from([0.0, 0.3])),
                    record_every=draw(st.sampled_from([1, 7])))
    return StateSpace(*modal_plant(modes)), p, cfg


# e = x1 crosses zero at t = 0.1 s with x_h still on the old side, so the
# clamp alone moves x_h to 0 on a row inside the first block.
@example((StateSpace([[0.0, 1.0], [-1.0, 0.0]], [0.0, 1.0], [1.0, 0.0]), HIGS20,
          SimConfig(dt=1e-2, t_end=20.0, x0=[0.1, -1.0])))
@settings(deadline=None)
@given(_irc_runs())
def test_blocked_irc_loop_matches_per_step_reference(run):
    plant, p, cfg = run
    try:
        T, Z, M = _per_step_irc_loop(plant, p, cfg)
    except NonFiniteState as exc:
        with pytest.raises(NonFiniteState, match=re.escape(str(exc))):
            simulate_higs_irc_loop(plant, p, cfg)
        return
    traj = simulate_higs_irc_loop(plant, p, cfg)
    assert np.array_equal(traj.times, T)
    assert _bits(traj.plant_states) == _bits(Z[:, :-1])
    assert _bits(traj.controller_states) == _bits(Z[:, -1:])
    assert np.array_equal(traj.modes, M)


@pytest.mark.parametrize("limit", [1e6, 1e9])
def test_irc_divergence_in_block_names_the_per_step_time(plant, limit):
    # The rows of the block after the guard trips are discarded; the error
    # names the step a step-at-a-time loop stops at.
    wild = HigsIrcParams(10.0, 40.0, -0.01)
    cfg = SimConfig(dt=1e-3, t_end=12.0, x0=[3.0, 1.0], tolerances=Tolerances(divergence=limit))
    with pytest.raises(NonFiniteState) as ref:
        _per_step_irc_loop(plant, wild, cfg)
    with pytest.raises(NonFiniteState, match=re.escape(str(ref.value))):
        simulate_higs_irc_loop(plant, wild, cfg)


# ---------------------------------------------------------------------------
# three-element loop


def test_pii2_loop_initial_energy(pii2_traj):
    assert pii2_traj.W[0] == pytest.approx(26.0 / 7.0)
    assert pii2_traj.V[0] == 0.0


def test_pii2_loop_checks_pass(pii2_traj):
    assert check_monotone(pii2_traj, budget=1e-6).passed
    assert check_sector(pii2_traj, rtol=1e-9).passed


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


def test_pii2_loop_error_matches_per_row_resolve(plant, pii2_traj):
    # e and u are resolved once per recorded mode triple; that must equal
    # resolving every row on its own, bit for bit.
    assert len(np.unique(pii2_traj.modes, axis=0)) >= 2
    xh = pii2_traj.controller_states
    for i, m in enumerate(pii2_traj.modes):
        y = 0.0 + float(plant.C @ pii2_traj.plant_states[i])   # r = 0
        e, u = resolve_pii2_error_signal(y, xh[i, 0], xh[i, 1], xh[i, 2],
                                         ModeTriple(*map(HigsMode, m)), PII2)
        assert (e, u) == (pii2_traj.e[i], pii2_traj.u[i])


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


def test_refinement_sup_norm_single_element(plant):
    coarse = simulate_higs_irc_loop(plant, HIGS5, oscillator_config(dt=2e-3, t_end=8.0))
    fine = simulate_higs_irc_loop(plant, HIGS5,
                                  oscillator_config(dt=1e-3, t_end=8.0, record_every=2))
    dev = max(np.abs(coarse.plant_states - fine.plant_states).max(),
              np.abs(coarse.controller_states - fine.controller_states).max())
    assert dev <= 1e-4


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
        excesses[dt] = max(rep.worst_excess, 0.0)
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
    assert check_monotone(flat, budget=1e-6).passed
    rising = Trajectory(W=np.array([1.0, 1.0 + 2e-6, 1.0, 0.5]), **base)
    rep = check_monotone(rising, budget=1e-6)
    assert not rep.passed and rep.worst_time == 1.0


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
    assert not check_monotone(reversed_traj, budget=1e-6).passed


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


def test_csv_layout_and_determinism(plant):
    cfg = oscillator_config(t_end=2.0)
    a = simulate_higs_irc_loop(plant, HIGS20, cfg,
                               LyapunovIrcCertificate(np.eye(2), plant.C, HIGS20.kappa_tilde))
    b = simulate_higs_irc_loop(plant, HIGS20, cfg,
                               LyapunovIrcCertificate(np.eye(2), plant.C, HIGS20.kappa_tilde))
    text = a.to_csv_text()
    assert text == b.to_csv_text()
    lines = text.splitlines()
    assert lines[0] == "t,x1,x2,xh,mode,e,u,y,V,W"
    assert len(lines) == len(a) + 1
    # mode codes are written as bare integers
    assert lines[1].split(",")[4] in ("0", "1")


def test_csv_round_trips_floats(pii2_traj):
    lines = pii2_traj.to_csv_text().splitlines()
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
    assert path.read_text() == irc5_traj.to_csv_text()


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
    assert traj.to_csv_text() == want
    path = tmp_path / "run.csv"
    traj.write_csv(path)
    assert path.read_bytes() == want.encode()
